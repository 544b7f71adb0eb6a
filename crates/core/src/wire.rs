//! Wire encoding of a Sub-FedAvg client update: the bit-packed mask plus
//! the kept parameters only.
//!
//! The byte layout (magic, reserved, count, packed mask, kept f32s), the
//! error taxonomy, and the exact relation to the
//! `subfed_metrics::comm` cost model are specified in
//! `docs/WIRE_FORMAT.md`. In short: the cost model charges
//! `32 bits × kept + 1 bit × |W|` (mask bits only in mask-changed
//! rounds); this module is the encoding that actually achieves those
//! numbers plus an 8-byte header, which the tests pin down — the
//! accounting is not hypothetical.

use subfed_metrics::comm::{mask_bytes, pack_mask, unpack_mask};
use subfed_nn::{is_kept, kept_count};

/// Wire-format version tag.
const MAGIC: u16 = 0x5FA1;

/// Typed decoding error for wire messages: every way a payload can be
/// malformed, so one client's corrupt upload is a reportable event instead
/// of a server panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Fewer bytes than the 8-byte header requires.
    TruncatedHeader {
        /// Bytes actually present.
        got: usize,
    },
    /// The magic tag does not identify this wire format.
    BadMagic {
        /// Tag found in the header.
        got: u16,
    },
    /// The packed mask is shorter than the header's parameter count implies.
    TruncatedMask {
        /// Mask bytes the header promises.
        needed: usize,
        /// Bytes actually present after the header.
        got: usize,
    },
    /// Fewer kept-parameter floats than the mask keeps.
    TruncatedParams {
        /// Bytes of kept parameters the mask promises.
        needed: usize,
        /// Bytes actually present after the mask.
        got: usize,
    },
    /// A quantised update shorter than its header plus payload.
    TruncatedQuantised {
        /// Bytes required for the requested length.
        needed: usize,
        /// Bytes actually present.
        got: usize,
    },
    /// The mask keeps more positions than the header's parameter count —
    /// structurally impossible for an honest encoder, so the frame is
    /// forged or corrupt.
    KeptExceedsParams {
        /// Positions the decoded mask keeps.
        kept: usize,
        /// Parameter count the header declares.
        num_params: usize,
    },
    /// A size computation on header-supplied lengths exceeds the
    /// platform's address range; honouring it would wrap and
    /// under-allocate.
    LengthOverflow,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::TruncatedHeader { got } => {
                write!(f, "truncated header: need 8 bytes, got {got}")
            }
            WireError::BadMagic { got } => write!(f, "bad magic {got:#06x}"),
            WireError::TruncatedMask { needed, got } => {
                write!(f, "truncated mask: need {needed} bytes, got {got}")
            }
            WireError::TruncatedParams { needed, got } => {
                write!(f, "truncated parameters: need {needed} bytes, got {got}")
            }
            WireError::TruncatedQuantised { needed, got } => {
                write!(f, "truncated quantised update: need {needed} bytes, got {got}")
            }
            WireError::KeptExceedsParams { kept, num_params } => {
                write!(f, "mask keeps {kept} positions but header declares {num_params} params")
            }
            WireError::LengthOverflow => {
                write!(f, "header-declared lengths overflow the platform's address range")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Encodes `(params, mask)` into the compact update message: header
/// (magic + parameter count), packed mask, then the kept parameters in
/// order.
///
/// # Panics
///
/// Panics if lengths differ or exceed `u32::MAX` entries.
pub fn encode_update(params: &[f32], mask: &[f32]) -> Vec<u8> {
    assert_eq!(params.len(), mask.len(), "params/mask length mismatch");
    assert!(params.len() <= u32::MAX as usize, "model too large for wire format");
    let kept = kept_count(mask);
    let mut buf = Vec::with_capacity(8 + mask_bytes(mask.len()) as usize + 4 * kept);
    buf.extend_from_slice(&MAGIC.to_le_bytes());
    buf.extend_from_slice(&0u16.to_le_bytes()); // reserved
    buf.extend_from_slice(&(params.len() as u32).to_le_bytes());
    buf.extend_from_slice(&pack_mask(mask));
    for (&p, &m) in params.iter().zip(mask.iter()) {
        if is_kept(m) {
            buf.extend_from_slice(&p.to_le_bytes());
        }
    }
    buf
}

/// Decodes an update message back into `(full_params, mask)`, with zeros
/// at masked positions.
///
/// # Errors
///
/// Returns a [`WireError`] naming the corruption if the buffer is
/// truncated, carries a wrong magic tag, or declares lengths whose byte
/// math would overflow. Total by construction: no input byte sequence
/// panics or over-allocates (certified — see `CERTIFIED.json`).
#[must_use = "a dropped Result hides the wire corruption it reports"]
pub fn decode_update(data: &[u8]) -> Result<(Vec<f32>, Vec<f32>), WireError> {
    // Magic, two reserved bytes, parameter count.
    let (&[m0, m1, _, _, n0, n1, n2, n3], body) =
        data.split_first_chunk().ok_or(WireError::TruncatedHeader { got: data.len() })?;
    let magic = u16::from_le_bytes([m0, m1]);
    if magic != MAGIC {
        return Err(WireError::BadMagic { got: magic });
    }
    let len = usize::try_from(u32::from_le_bytes([n0, n1, n2, n3]))
        .map_err(|_| WireError::LengthOverflow)?;
    let mb = usize::try_from(mask_bytes(len)).map_err(|_| WireError::LengthOverflow)?;
    let (mask_raw, values) = body
        .split_at_checked(mb)
        .ok_or(WireError::TruncatedMask { needed: mb, got: body.len() })?;
    let mask = unpack_mask(mask_raw, len);
    let kept = kept_count(&mask);
    // `kept <= len` holds for any mask `unpack_mask` can produce; the
    // guard is the adversarial backstop should the mask source change.
    if kept > len {
        return Err(WireError::KeptExceedsParams { kept, num_params: len });
    }
    let needed = kept.checked_mul(4).ok_or(WireError::LengthOverflow)?;
    if values.len() < needed {
        return Err(WireError::TruncatedParams { needed, got: values.len() });
    }
    // Bounded allocation: the mask-length check above caps `len` at
    // eight bits per remaining input byte, so a forged header cannot
    // demand more memory than ~8x the frame it arrived in.
    let mut params = vec![0.0f32; len];
    let kept_slots = params.iter_mut().zip(&mask).filter(|(_, &m)| is_kept(m));
    for ((p, _), &value) in kept_slots.zip(values.as_chunks().0) {
        *p = f32::from_le_bytes(value);
    }
    Ok((params, mask))
}

/// Size in bytes of the encoded update, without building it.
pub fn encoded_len(num_params: usize, kept: usize) -> u64 {
    8 + mask_bytes(num_params) + 4 * kept as u64
}

/// Affine 8-bit quantisation of a dense parameter vector — the classic
/// *alternative* communication reducer the paper's related work cites
/// (Konečný et al.'s sketched updates, Lin et al.'s compression). Provided
/// so the extension experiments can compare mask-based compression
/// (Sub-FedAvg) against value quantisation on equal footing.
///
/// Layout: `min: f32`, `scale: f32`, then one byte per parameter.
pub fn encode_update_q8(params: &[f32]) -> Vec<u8> {
    let lo = params.iter().copied().fold(f32::INFINITY, f32::min);
    let hi = params.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let (lo, hi) = if params.is_empty() { (0.0, 0.0) } else { (lo, hi) };
    let scale = if hi > lo { (hi - lo) / 255.0 } else { 0.0 };
    let mut buf = Vec::with_capacity(8 + params.len());
    buf.extend_from_slice(&lo.to_le_bytes());
    buf.extend_from_slice(&scale.to_le_bytes());
    buf.extend(params.iter().map(|&p| {
        let q = if scale > 0.0 { ((p - lo) / scale).round().clamp(0.0, 255.0) } else { 0.0 };
        q as u8
    }));
    buf
}

/// Decodes an 8-bit-quantised parameter vector of known length.
///
/// # Errors
///
/// Returns a [`WireError`] describing the corruption on truncated input.
#[must_use = "a dropped Result hides the wire corruption it reports"]
pub fn decode_update_q8(data: &[u8], len: usize) -> Result<Vec<f32>, WireError> {
    let needed = len.checked_add(8).ok_or(WireError::LengthOverflow)?;
    let truncated = || WireError::TruncatedQuantised { needed, got: data.len() };
    let (&[l0, l1, l2, l3, s0, s1, s2, s3], codes) =
        data.split_first_chunk().ok_or_else(truncated)?;
    let codes = codes.get(..len).ok_or_else(truncated)?;
    let lo = f32::from_le_bytes([l0, l1, l2, l3]);
    let scale = f32::from_le_bytes([s0, s1, s2, s3]);
    Ok(codes.iter().map(|&q| lo + scale * f32::from(q)).collect())
}

/// Worst-case absolute reconstruction error of [`encode_update_q8`] for a
/// value range `[lo, hi]`: half a quantisation step.
pub fn q8_max_error(lo: f32, hi: f32) -> f32 {
    if hi > lo {
        (hi - lo) / 255.0 / 2.0
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example() -> (Vec<f32>, Vec<f32>) {
        let params: Vec<f32> = (0..37).map(|i| i as f32 * 0.5 - 3.0).collect();
        let mask: Vec<f32> = (0..37).map(|i| if i % 3 == 0 { 1.0 } else { 0.0 }).collect();
        (params, mask)
    }

    #[test]
    fn roundtrip_recovers_kept_and_zeroes_pruned() {
        let (params, mask) = example();
        let buf = encode_update(&params, &mask);
        let (got_params, got_mask) = decode_update(&buf).unwrap();
        assert_eq!(got_mask, mask);
        for i in 0..params.len() {
            if mask[i] != 0.0 {
                assert_eq!(got_params[i], params[i]);
            } else {
                assert_eq!(got_params[i], 0.0);
            }
        }
    }

    #[test]
    fn length_matches_accounting() {
        let (params, mask) = example();
        let kept = mask.iter().filter(|&&m| m != 0.0).count();
        let buf = encode_update(&params, &mask);
        assert_eq!(buf.len() as u64, encoded_len(params.len(), kept));
        // Header is 8 bytes; the rest is exactly the comm model's charge.
        use subfed_metrics::comm::{mask_bytes, masked_transfer_bytes};
        assert_eq!(buf.len() as u64 - 8, masked_transfer_bytes(kept) + mask_bytes(params.len()));
    }

    #[test]
    fn full_mask_roundtrip() {
        let params = vec![1.5f32, -2.0, 0.0, 7.25];
        let mask = vec![1.0f32; 4];
        let (got, gmask) = decode_update(&encode_update(&params, &mask)).unwrap();
        assert_eq!(got, params);
        assert_eq!(gmask, mask);
    }

    #[test]
    fn empty_mask_roundtrip() {
        let params = vec![1.0f32; 9];
        let mask = vec![0.0f32; 9];
        let buf = encode_update(&params, &mask);
        assert_eq!(buf.len() as u64, encoded_len(9, 0));
        let (got, gmask) = decode_update(&buf).unwrap();
        assert!(got.iter().all(|&v| v == 0.0));
        assert!(gmask.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn corrupted_inputs_are_rejected() {
        let (params, mask) = example();
        let buf = encode_update(&params, &mask);
        assert!(decode_update(&buf[..4]).unwrap_err().to_string().contains("truncated header"));
        assert!(decode_update(&buf[..buf.len() - 1])
            .unwrap_err()
            .to_string()
            .contains("truncated parameters"));
        let mut bad = buf.clone();
        bad[0] ^= 0xFF;
        assert!(decode_update(&bad).unwrap_err().to_string().contains("bad magic"));
        let mut short_mask = buf[..9].to_vec();
        short_mask.truncate(9);
        assert!(decode_update(&short_mask).unwrap_err().to_string().contains("truncated mask"));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_rejected() {
        let _ = encode_update(&[1.0], &[1.0, 0.0]);
    }

    #[test]
    fn every_truncation_errors_without_panic() {
        let (params, mask) = example();
        let buf = encode_update(&params, &mask);
        // Every strict prefix must produce a typed error, never a panic —
        // one client's half-written upload must not abort the server.
        for cut in 0..buf.len() {
            let err =
                decode_update(&buf[..cut]).expect_err("prefix of {cut} bytes decoded successfully");
            match err {
                WireError::TruncatedHeader { got } => assert_eq!(got, cut),
                WireError::TruncatedMask { needed, got } => {
                    assert!(got < needed, "mask: got {got} >= needed {needed}")
                }
                WireError::TruncatedParams { needed, got } => {
                    assert!(got < needed, "params: got {got} >= needed {needed}")
                }
                other => panic!("unexpected error for truncation at {cut}: {other:?}"),
            }
        }
        // The full buffer still decodes.
        assert!(decode_update(&buf).is_ok());
    }

    #[test]
    fn corrupted_headers_error_without_panic() {
        let (params, mask) = example();
        let buf = encode_update(&params, &mask);
        // Flip every byte of the header in turn; decoding must return
        // Ok or Err, never panic, even when the length field lies.
        for i in 0..8.min(buf.len()) {
            for flip in [0x01u8, 0x80, 0xFF] {
                let mut bad = buf.clone();
                bad[i] ^= flip;
                let _ = decode_update(&bad);
            }
        }
        // A length field promising more parameters than the payload holds
        // must be reported as truncation.
        let mut oversized = buf.clone();
        oversized[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(decode_update(&oversized), Err(WireError::TruncatedMask { .. })));
    }

    #[test]
    fn q8_roundtrip_within_half_step() {
        let params: Vec<f32> = (0..100).map(|i| (i as f32 * 0.37).sin() * 2.5).collect();
        let buf = encode_update_q8(&params);
        assert_eq!(buf.len(), 8 + 100);
        let back = decode_update_q8(&buf, 100).unwrap();
        let lo = params.iter().copied().fold(f32::INFINITY, f32::min);
        let hi = params.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let bound = q8_max_error(lo, hi) + 1e-6;
        for (a, b) in params.iter().zip(back.iter()) {
            assert!((a - b).abs() <= bound, "{a} vs {b} exceeds {bound}");
        }
    }

    #[test]
    fn q8_constant_vector_is_exact() {
        let params = vec![3.25f32; 17];
        let back = decode_update_q8(&encode_update_q8(&params), 17).unwrap();
        assert_eq!(back, params);
    }

    #[test]
    fn q8_empty_and_truncation() {
        let buf = encode_update_q8(&[]);
        assert_eq!(decode_update_q8(&buf, 0).unwrap(), Vec::<f32>::new());
        assert!(decode_update_q8(&buf, 1).unwrap_err().to_string().contains("truncated"));
    }

    #[test]
    fn q8_is_4x_smaller_than_dense_float() {
        let n = 62_000usize; // paper-scale LeNet-5
        let params = vec![0.5f32; n];
        let q = encode_update_q8(&params).len() as f64;
        let dense = (n * 4) as f64;
        assert!((dense / q - 4.0).abs() < 0.01, "compression ratio {}", dense / q);
    }
}
