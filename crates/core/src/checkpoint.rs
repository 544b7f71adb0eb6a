//! Federation checkpointing: everything a Sub-FedAvg server carries from
//! one round to the next, as one byte image, so a stopped federation can
//! continue in a fresh process exactly as if it had never stopped.
//! [`SubFedAvg::checkpoint`](crate::algorithms::SubFedAvg::checkpoint)
//! takes it and [`SubFedAvg::restore`](crate::algorithms::SubFedAvg::restore)
//! continues from it; data, cohorts and seeds are rebuilt from the
//! federation's config.
//!
//! # Layout
//!
//! Integers are little-endian.
//!
//! | bytes | field |
//! |---|---|
//! | 4 | magic `SBC2` |
//! | 4 | `round`: rounds completed |
//! | 8 | `cum_bytes`: the byte ledger after `round` |
//! | 8 | `n`: length of θ_g |
//! | 4·n | θ_g, as `f32` |
//! | rest | the client image |
//!
//! The client image opens with two tags, the store kind (1 resident,
//! 2 registry) and the pruning track (1 Un, 2 Hy), so an image of another
//! kind is refused, not misread. The store's own part follows:
//!
//! * **Resident** (`SubFedAvgUn`, `SubFedAvgHy`): the client count as a
//!   `u64`, then one record per client. A record opens with the client's
//!   state, bit-packed as the wire packs a mask: its channel flags (none
//!   for Un), then its mask (for Hy the FC base mask, from which the
//!   parameter mask is rebuilt). Both sizes follow from the restoring
//!   driver's own model layout. Its last trained model follows, as the
//!   wire sends an update: a tag byte 0, the `f32` values at the `k`
//!   positions the parameter mask keeps, and one sign bit per pruned
//!   position, which holds a zero of that sign. A model with anything
//!   else at a pruned position, which only a diverged run produces, is
//!   stored whole instead: a tag byte 1 and `4·n` bytes of `f32`.
//!
//!   These records are also what the resident store holds between
//!   rounds, one per client, so `checkpoint` copies them and `restore`
//!   rebuilds them. A client that has not trained yet holds only its
//!   state; its record here carries θ₀ under that never-pruned state.
//!   For `k` kept of `n` parameters and `c` channel flags a record is
//!   ⌈c/8⌉ + ⌈n/8⌉ + 1 + 4k + ⌈(n − k)/8⌉ bytes.
//! * **Registry** (`ScaledSubFedAvg`): the
//!   [`ClientRegistry::save`](crate::ClientRegistry::save) image, read back
//!   through the certified
//!   [`ClientRegistry::load`](crate::ClientRegistry::load).

use crate::registry::RegistryError;

/// A restorable snapshot of a Sub-FedAvg federation (module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Rounds completed; the restored driver runs `round + 1` next.
    pub round: u32,
    /// Cumulative communication bytes after `round`.
    pub cum_bytes: u64,
    /// The server's dense global parameters θ_g.
    pub global: Vec<f32>,
    /// Every client's state: the tagged client image.
    pub clients: Vec<u8>,
}

const MAGIC: u32 = u32::from_le_bytes(*b"SBC2");

/// What went wrong restoring or persisting a checkpoint.
///
/// Checkpoint images live on disk across process restarts, so decoding
/// and restoring treat them as untrusted input: every problem maps to a
/// variant here and none to a panic.
#[derive(Debug)]
pub enum CheckpointError {
    /// The image ends inside a section.
    Truncated {
        /// The section being read.
        what: &'static str,
        /// Bytes the section needs.
        needed: usize,
        /// Bytes remaining.
        got: usize,
    },
    /// Leading tag is not the checkpoint magic.
    BadMagic {
        /// Tag actually found.
        got: u32,
    },
    /// Header-declared lengths overflow the platform's address range.
    LengthOverflow,
    /// A checkpoint of another federation or driver: its `what` (model
    /// size, store or track kind, client count, registered population,
    /// mask length or client image length) differs from the restoring
    /// driver's, or a resident record's model tag is not one of the two
    /// the layout defines.
    Mismatch {
        /// What differs.
        what: &'static str,
        /// The checkpoint's value.
        got: usize,
        /// The driver's value.
        want: usize,
    },
    /// The registry image inside the checkpoint is corrupt.
    Registry(RegistryError),
    /// The checkpoint file could not be read or written.
    Io(std::io::Error),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Truncated { what, needed, got } => {
                write!(f, "truncated checkpoint {what} (need {needed} bytes, got {got})")
            }
            Self::BadMagic { got } => write!(f, "bad checkpoint magic {got:#010x}"),
            Self::LengthOverflow => {
                write!(f, "header-declared lengths overflow the platform's address range")
            }
            Self::Mismatch { what, got, want } => {
                write!(f, "checkpoint {what} mismatch: got {got}, want {want}")
            }
            Self::Registry(e) => write!(f, "checkpoint registry image: {e}"),
            Self::Io(e) => write!(f, "checkpoint i/o failed: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Registry(e) => Some(e),
            Self::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl Checkpoint {
    /// Serialises the checkpoint (module docs).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(24 + 4 * self.global.len() + self.clients.len());
        out.extend_from_slice(&MAGIC.to_le_bytes());
        out.extend_from_slice(&self.round.to_le_bytes());
        out.extend_from_slice(&self.cum_bytes.to_le_bytes());
        out.extend_from_slice(&(self.global.len() as u64).to_le_bytes());
        put_f32s(&mut out, &self.global);
        out.extend_from_slice(&self.clients);
        out
    }

    /// Restores a checkpoint from bytes. The client image is kept as it
    /// is; the restoring driver checks it against its own federation.
    ///
    /// Every length is validated against the bytes actually present
    /// before any allocation, so a corrupt or adversarial image yields a
    /// [`CheckpointError`], never a panic or an unbounded allocation.
    ///
    /// # Errors
    ///
    /// Returns the corruption found on truncated, mistagged, or
    /// overflowing input.
    #[must_use = "a dropped Result hides the checkpoint corruption it reports"]
    pub fn decode(data: &[u8]) -> Result<Self, CheckpointError> {
        let mut image = Reader(data);
        let magic = u32::from_le_bytes(image.array("header")?);
        if magic != MAGIC {
            return Err(CheckpointError::BadMagic { got: magic });
        }
        let round = u32::from_le_bytes(image.array("header")?);
        let cum_bytes = u64::from_le_bytes(image.array("header")?);
        let global_bytes = image.count("header")?.checked_mul(4);
        let global = image.take(global_bytes.ok_or(CheckpointError::LengthOverflow)?, "global")?;
        Ok(Self { round, cum_bytes, global: f32s(global), clients: image.0.to_vec() })
    }

    /// Persists the encoded checkpoint to `path`.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Io`] when the file cannot be written.
    #[must_use = "a dropped Result hides the write failure it reports"]
    pub fn write_to(&self, path: &std::path::Path) -> Result<(), CheckpointError> {
        std::fs::write(path, self.encode()).map_err(CheckpointError::Io)
    }

    /// Restores a checkpoint file written by [`Checkpoint::write_to`].
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Io`] when the file cannot be read,
    /// otherwise whatever [`Checkpoint::decode`] reports about the image.
    #[must_use = "a dropped Result hides the checkpoint corruption it reports"]
    pub fn read_from(path: &std::path::Path) -> Result<Self, CheckpointError> {
        Self::decode(&std::fs::read(path).map_err(CheckpointError::Io)?)
    }
}

/// A cursor over an untrusted image: every read is bounds-checked and
/// names the section it was reading when the image ends.
pub(crate) struct Reader<'a>(pub(crate) &'a [u8]);

impl<'a> Reader<'a> {
    /// The error for a read of `needed` bytes of `what` past the end.
    fn short(&self, what: &'static str, needed: usize) -> CheckpointError {
        CheckpointError::Truncated { what, needed, got: self.0.len() }
    }

    /// The next `n` bytes.
    #[must_use = "a dropped Result hides a truncated image"]
    pub(crate) fn take(
        &mut self,
        n: usize,
        what: &'static str,
    ) -> Result<&'a [u8], CheckpointError> {
        let (head, rest) = self.0.split_at_checked(n).ok_or_else(|| self.short(what, n))?;
        self.0 = rest;
        Ok(head)
    }

    /// The next `N` bytes, as an array.
    #[must_use = "a dropped Result hides a truncated image"]
    pub(crate) fn array<const N: usize>(
        &mut self,
        what: &'static str,
    ) -> Result<[u8; N], CheckpointError> {
        let (head, rest) = self.0.split_first_chunk().ok_or_else(|| self.short(what, N))?;
        self.0 = rest;
        Ok(*head)
    }

    /// The next little-endian `u64`, as a count or length.
    #[must_use = "a dropped Result hides a truncated image"]
    pub(crate) fn count(&mut self, what: &'static str) -> Result<usize, CheckpointError> {
        let value = u64::from_le_bytes(self.array(what)?);
        usize::try_from(value).map_err(|_| CheckpointError::LengthOverflow)
    }
}

/// `Ok` when the checkpoint's `got` equals the driver's `want`.
#[must_use = "a dropped Result hides a mismatched checkpoint"]
pub(crate) fn check(what: &'static str, got: usize, want: usize) -> Result<(), CheckpointError> {
    if got == want {
        Ok(())
    } else {
        Err(CheckpointError::Mismatch { what, got, want })
    }
}

/// Appends `values` as little-endian `f32`s.
pub(crate) fn put_f32s(out: &mut Vec<u8>, values: &[f32]) {
    let start = out.len();
    out.resize(start + 4 * values.len(), 0);
    let words = out.get_mut(start..).unwrap_or_default().as_chunks_mut().0;
    for (word, v) in words.iter_mut().zip(values) {
        *word = v.to_le_bytes();
    }
}

/// The little-endian `f32`s of `bytes` (a trailing partial word is
/// ignored).
pub(crate) fn f32s(bytes: &[u8]) -> Vec<f32> {
    bytes.as_chunks().0.iter().map(|&w| f32::from_le_bytes(w)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example() -> Checkpoint {
        let global: Vec<f32> = (0..21).map(|i| i as f32 * 0.25 - 2.0).collect();
        let clients = (0..40u8).map(|b| b.wrapping_mul(37)).collect();
        Checkpoint { round: 17, cum_bytes: 123_456_789_012, global, clients }
    }

    #[test]
    fn roundtrip() {
        let c = example();
        let buf = c.encode();
        assert_eq!(buf.len(), 24 + 4 * 21 + 40);
        assert_eq!(Checkpoint::decode(&buf).unwrap(), c);
    }

    #[test]
    fn empty_federation_roundtrip() {
        let c = Checkpoint { round: 0, cum_bytes: 0, global: vec![], clients: vec![] };
        assert_eq!(Checkpoint::decode(&c.encode()).unwrap(), c);
    }

    #[test]
    fn corruption_detected() {
        let err = |r: Result<Checkpoint, CheckpointError>| r.unwrap_err().to_string();
        let buf = example().encode();
        assert!(err(Checkpoint::decode(&buf[..8])).contains("truncated checkpoint header"));
        assert!(err(Checkpoint::decode(&buf[..30])).contains("truncated checkpoint global"));
        let mut bad = buf.clone();
        bad[0] ^= 0x55;
        assert!(err(Checkpoint::decode(&bad)).contains("bad checkpoint magic"));
        // A parameter count whose byte length overflows.
        let mut huge = buf.clone();
        huge[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(Checkpoint::decode(&huge), Err(CheckpointError::LengthOverflow)));
    }

    #[test]
    fn write_read_roundtrip_on_disk() {
        let c = example();
        let path = std::env::temp_dir().join("subfed_checkpoint_roundtrip.sbfc");
        c.write_to(&path).expect("write checkpoint");
        let back = Checkpoint::read_from(&path).expect("read checkpoint");
        let _ = std::fs::remove_file(&path);
        assert_eq!(back, c);
    }

    #[test]
    fn read_from_missing_file_is_io_error() {
        let path = std::env::temp_dir().join("subfed_checkpoint_does_not_exist.sbfc");
        let err = Checkpoint::read_from(&path).unwrap_err();
        assert!(matches!(err, CheckpointError::Io(_)), "{err}");
    }
}
