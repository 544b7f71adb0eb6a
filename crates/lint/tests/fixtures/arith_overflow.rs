//! Seeded violation: unchecked length arithmetic on total paths — the
//! `4 * kept` class of bug, where a forged header wraps a byte count
//! and turns a bounds check into an under-allocation. The entry is the
//! built-in `StreamingAccumulator::fold`; the hazards sit in helpers so
//! the walk must cross call edges. Checked math, float math, and
//! hint-free shifts are the clean twins.

pub struct StreamingAccumulator {
    sum: Vec<f32>,
}

impl StreamingAccumulator {
    /// Built-in total entry by qualified name.
    #[must_use = "a dropped Result hides the rejected update"]
    pub fn fold(&mut self, kept: usize, off: usize) -> Result<(), String> {
        let n_bytes = body_len(kept)?;
        let end = advance(off, n_bytes)?;
        self.sum.truncate(end);
        Ok(())
    }
}

/// Violation: `4 * kept` wraps when a header claims ~usize::MAX kept
/// positions, so the later "is the buffer long enough" check passes.
fn body_len(kept: usize) -> Result<usize, String> {
    Ok(4 * kept)
}

/// Violation: compound `+=` on an offset is the same wraparound.
fn advance(off: usize, n_bytes: usize) -> Result<usize, String> {
    let mut end = off;
    end += n_bytes;
    Ok(end)
}

/// Clean twin: checked math carries no unchecked operator token.
pub fn body_len_checked(kept: usize) -> Option<usize> {
    kept.checked_mul(4)
}

/// Clean twin: float scaling is not length math.
pub fn scaled(gain: f32) -> f32 {
    gain * 2.0
}

/// Clean twin: a hint-free bit twiddle (`1 << (i % 8)`-style) is mask
/// construction, not length arithmetic.
pub fn bit(i: usize) -> u8 {
    1 << (i % 8)
}
