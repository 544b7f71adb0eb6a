//! Federation checkpointing: serialise the server's global parameters and
//! every client's persistent mask so a long-running federation can stop
//! and resume — the state a production Sub-FedAvg server would have to
//! persist (everything else is reconstructed deterministically from the
//! config seed).

use bytes::{Buf, BufMut, BytesMut};

/// A restorable snapshot of a Sub-FedAvg federation.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Round the snapshot was taken after (1-based; 0 = before training).
    pub round: u32,
    /// The server's dense global parameters.
    pub global: Vec<f32>,
    /// Each client's flat 0/1 mask (empty for mask-free algorithms).
    pub client_masks: Vec<Vec<f32>>,
}

const MAGIC: u32 = 0x5342_4643; // "SBFC"

/// What went wrong restoring or persisting a checkpoint.
///
/// Checkpoint images live on disk across process restarts, so
/// [`Checkpoint::decode`] treats them as untrusted input: every structural
/// problem maps to a variant here and none to a panic.
#[derive(Debug)]
pub enum CheckpointError {
    /// Shorter than the fixed 16-byte header.
    TruncatedHeader {
        /// Bytes actually present.
        got: usize,
    },
    /// Leading tag is not the checkpoint magic.
    BadMagic {
        /// Tag actually found.
        got: u32,
    },
    /// Global parameter section is cut short.
    TruncatedGlobal {
        /// Bytes the header's parameter count requires.
        needed: usize,
        /// Bytes remaining.
        got: usize,
    },
    /// Packed client-mask section is cut short.
    TruncatedMask {
        /// Bytes the header's client count requires.
        needed: usize,
        /// Bytes remaining.
        got: usize,
    },
    /// Header-declared lengths overflow the platform's address range.
    LengthOverflow,
    /// A well-formed checkpoint of another federation: its model size,
    /// client count or a client mask length differs from the driver's.
    Mismatch {
        /// What differs (`"model size"`, `"client count"`, `"client mask length"`).
        what: &'static str,
        /// The checkpoint's value.
        got: usize,
        /// The federation's value.
        want: usize,
    },
    /// The checkpoint file could not be read or written.
    Io(std::io::Error),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::TruncatedHeader { got } => {
                write!(f, "truncated checkpoint header ({got} of 16 bytes)")
            }
            Self::BadMagic { got } => write!(f, "bad checkpoint magic {got:#010x}"),
            Self::TruncatedGlobal { needed, got } => {
                write!(f, "truncated global parameters (need {needed} bytes, got {got})")
            }
            Self::TruncatedMask { needed, got } => {
                write!(f, "truncated client mask (need {needed} bytes, got {got})")
            }
            Self::LengthOverflow => {
                write!(f, "header-declared lengths overflow the platform's address range")
            }
            Self::Mismatch { what, got, want } => {
                write!(f, "checkpoint {what} mismatch: got {got}, want {want}")
            }
            Self::Io(e) => write!(f, "checkpoint i/o failed: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl Checkpoint {
    /// Serialises the checkpoint. Masks are stored bit-packed via the wire
    /// format's encoding.
    ///
    /// # Panics
    ///
    /// Panics if any mask length differs from the global parameter count.
    pub fn encode(&self) -> Vec<u8> {
        for m in &self.client_masks {
            assert_eq!(m.len(), self.global.len(), "mask/global length mismatch");
        }
        let mut buf = BytesMut::new();
        buf.put_u32_le(MAGIC);
        buf.put_u32_le(self.round);
        buf.put_u32_le(self.global.len() as u32);
        buf.put_u32_le(self.client_masks.len() as u32);
        for &v in &self.global {
            buf.put_f32_le(v);
        }
        for m in &self.client_masks {
            buf.extend_from_slice(&subfed_metrics::comm::pack_mask(m));
        }
        buf.to_vec()
    }

    /// Restores a checkpoint from bytes.
    ///
    /// Every length is re-derived with checked arithmetic and validated
    /// against the bytes actually present before any allocation, so a
    /// corrupt or adversarial image yields a [`CheckpointError`], never a
    /// panic or an unbounded allocation.
    ///
    /// # Errors
    ///
    /// Returns the corruption found on truncated, mistagged, or
    /// overflowing input.
    #[must_use = "a dropped Result hides the checkpoint corruption it reports"]
    pub fn decode(data: &[u8]) -> Result<Self, CheckpointError> {
        let mut buf = data;
        if buf.remaining() < 16 {
            return Err(CheckpointError::TruncatedHeader { got: buf.remaining() });
        }
        let magic = buf.get_u32_le();
        if magic != MAGIC {
            return Err(CheckpointError::BadMagic { got: magic });
        }
        let round = buf.get_u32_le();
        let overflow = |_| CheckpointError::LengthOverflow;
        let n_params = usize::try_from(buf.get_u32_le()).map_err(overflow)?;
        let n_clients = usize::try_from(buf.get_u32_le()).map_err(overflow)?;
        let global_bytes = n_params.checked_mul(4).ok_or(CheckpointError::LengthOverflow)?;
        if buf.remaining() < global_bytes {
            return Err(CheckpointError::TruncatedGlobal {
                needed: global_bytes,
                got: buf.remaining(),
            });
        }
        let mut global = Vec::with_capacity(n_params);
        for _ in 0..n_params {
            global.push(buf.get_f32_le());
        }
        let mask_len = usize::try_from(subfed_metrics::comm::mask_bytes(n_params))
            .map_err(|_| CheckpointError::LengthOverflow)?;
        let need = n_clients.checked_mul(mask_len).ok_or(CheckpointError::LengthOverflow)?;
        if buf.remaining() < need {
            return Err(CheckpointError::TruncatedMask { needed: need, got: buf.remaining() });
        }
        // For a non-degenerate model the size check above already bounds
        // `n_clients` by the image length; the `min` closes the
        // zero-param corner where `need == 0` would otherwise let a forged
        // header reserve an arbitrary amount up front.
        let mut client_masks = Vec::with_capacity(n_clients.min(data.len()));
        for _ in 0..n_clients {
            let (raw, rest) = buf
                .split_at_checked(mask_len)
                .ok_or(CheckpointError::TruncatedMask { needed: mask_len, got: buf.remaining() })?;
            client_masks.push(subfed_metrics::comm::unpack_mask(raw, n_params));
            buf = rest;
        }
        Ok(Self { round, global, client_masks })
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

    /// Size of the encoded checkpoint without building it.
    pub fn encoded_len(num_params: usize, num_clients: usize) -> u64 {
        16 + 4 * num_params as u64
            + num_clients as u64 * subfed_metrics::comm::mask_bytes(num_params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example() -> Checkpoint {
        let global: Vec<f32> = (0..21).map(|i| i as f32 * 0.25 - 2.0).collect();
        let client_masks: Vec<Vec<f32>> = (0..3)
            .map(|k| (0..21).map(|i| if (i + k) % 2 == 0 { 1.0 } else { 0.0 }).collect())
            .collect();
        Checkpoint { round: 17, global, client_masks }
    }

    #[test]
    fn roundtrip() {
        let c = example();
        let buf = c.encode();
        assert_eq!(buf.len() as u64, Checkpoint::encoded_len(21, 3));
        let back = Checkpoint::decode(&buf).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn empty_federation_roundtrip() {
        let c = Checkpoint { round: 0, global: vec![], client_masks: vec![] };
        let back = Checkpoint::decode(&c.encode()).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn corruption_detected() {
        let err = |r: Result<Checkpoint, CheckpointError>| r.unwrap_err().to_string();
        let buf = example().encode();
        assert!(err(Checkpoint::decode(&buf[..8])).contains("truncated checkpoint"));
        assert!(err(Checkpoint::decode(&buf[..buf.len() - 1])).contains("truncated client mask"));
        let mut bad = buf.clone();
        bad[0] ^= 0x55;
        assert!(err(Checkpoint::decode(&bad)).contains("bad checkpoint magic"));
        let mut short = buf.clone();
        short.truncate(20);
        assert!(err(Checkpoint::decode(&short)).contains("truncated global"));
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

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_mask_rejected() {
        let mut c = example();
        c.client_masks[0].pop();
        let _ = c.encode();
    }

    #[test]
    fn resume_reproduces_training_state() {
        // Save a mid-run state, restore it, and verify the restored global
        // and masks drive the same evaluation results.
        use crate::tests_support::tiny_federation;
        use crate::{flatten_mask, FederatedAlgorithm};
        use subfed_pruning::UnstructuredController;

        let fed = tiny_federation(3, 4);
        let mut controller = UnstructuredController::paper_defaults(0.5);
        controller.acc_threshold = 0.0;
        controller.rate = 0.2;
        let mut algo = crate::algorithms::SubFedAvgUn::with_controller(fed.clone(), controller);
        let _ = algo.run();
        let masks: Vec<Vec<f32>> = algo.final_masks().iter().map(flatten_mask).collect();
        let global = fed.init_global(); // any dense vector of the right size
        let ckpt = Checkpoint { round: 3, global: global.clone(), client_masks: masks.clone() };
        let restored = Checkpoint::decode(&ckpt.encode()).unwrap();
        assert_eq!(restored.global, global);
        assert_eq!(restored.client_masks, masks);
        assert_eq!(restored.round, 3);
    }
}
