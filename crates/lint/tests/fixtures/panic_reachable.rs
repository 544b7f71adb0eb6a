//! Seeded violation: panic sources reachable from total entry points.
//! `decode_update` is a built-in entry of the totality walk; the hazards
//! hide one and two call hops below it, so only an interprocedural walk
//! with a witness chain can attribute them. A `// lint: total` marker
//! extends the entry set to `parse_record`. The disciplined twins —
//! `debug_assert!`, the poison-tolerant lock helper, and a function no
//! entry reaches — must all stay clean.

use std::sync::{Mutex, MutexGuard};

/// Built-in total entry: the wire decoder fed raw client bytes.
#[must_use = "a dropped Result hides the corrupt frame"]
pub fn decode_update(buf: &[u8]) -> Result<Vec<f32>, String> {
    debug_assert!(buf.len() < 1 << 30, "exempt: compiled out of release");
    let n = read_len(buf);
    let out = vec![0.0; n];
    let _guard = lock_unpoisoned(&COUNTER);
    Ok(out)
}

/// One hop down: the unwrap the walk must see through `decode_update`.
fn read_len(buf: &[u8]) -> usize {
    let first = buf.first().unwrap();
    tail_byte(buf, *first as usize)
}

/// Two hops down: bare indexing, witnessed via `read_len`.
fn tail_byte(buf: &[u8], i: usize) -> usize {
    buf[i] as usize
}

// lint: total
pub fn parse_record(bytes: &[u8]) -> u8 {
    match bytes.first() {
        Some(b) => *b,
        None => panic!("marked-total entries must not panic either"),
    }
}

/// Never on a total path: panics in peace, exactly like the
/// `never_reached` sibling of the hot-path fixture.
pub fn never_reached(x: Option<u8>) -> u8 {
    x.expect("no entry reaches this")
}

static COUNTER: Mutex<u64> = Mutex::new(0);

/// Total by construction: the poison-tolerant idiom contains no panic
/// shape, so reaching it from an entry contributes no witness.
fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}
