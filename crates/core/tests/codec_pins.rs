//! The wire codec's results are pinned: the hashes below were recorded
//! when both codecs built each frame in a growable byte buffer and read it
//! back through a reader that panics on short input, guarded by length
//! checks. Every frame must encode to the same bytes, and every input,
//! however cut short or corrupted, must decode to the same value or to
//! the same typed error with the same fields.

use std::fmt::Debug;
use subfed_core::wire::{decode_update, decode_update_q8, encode_update, encode_update_q8};

/// The 64-bit FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// 64-bit FNV-1a of `bytes`, continued from the running hash `h`.
fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// Parameter values that exercise the float encodings: signed zeros,
/// a subnormal, a NaN, an infinity and ordinary values.
fn values(n: usize) -> Vec<f32> {
    (0..n)
        .map(|i| match i % 9 {
            0 => -0.0,
            1 => f32::from_bits(1),
            2 => f32::NAN,
            3 => f32::NEG_INFINITY,
            4 => 0.0,
            _ => i as f32 * 0.37 - 5.0,
        })
        .collect()
}

/// The inputs of the three update frames: a mixed mask over more than one
/// 64-entry word (kept entries given as 1.0, −1.0 and 0.5; pruned ones as
/// 0.0 and −0.0), an all-kept mask and an all-pruned mask.
fn updates() -> [(Vec<f32>, Vec<f32>); 3] {
    let mixed = (0..70)
        .map(|i| match (i * 7) % 5 {
            0 => 1.0,
            1 => -1.0,
            2 => 0.5,
            3 => 0.0,
            _ => -0.0,
        })
        .collect();
    [(values(70), mixed), (values(13), vec![1.0; 13]), (values(11), vec![0.0; 11])]
}

/// The parameter vectors of the two quantised frames: a varied one and a
/// constant one (scale 0).
fn quantised() -> [Vec<f32>; 2] {
    [(0..19).map(|i| (i as f32 * 0.37).sin() * 2.5).collect(), vec![3.25; 5]]
}

/// Every input derived from `frame`: each prefix, the whole frame
/// included, then each single-bit flip of the whole frame.
fn mutants(frame: &[u8]) -> impl Iterator<Item = Vec<u8>> + '_ {
    let prefixes = (0..=frame.len()).map(|cut| frame[..cut].to_vec());
    let flips = (0..8 * frame.len()).map(|bit| {
        let mut mutant = frame.to_vec();
        mutant[bit / 8] ^= 1 << (bit % 8);
        mutant
    });
    prefixes.chain(flips)
}

/// FNV-1a over the `Debug` strings of `results`, one line each.
fn debug_hash<T: Debug>(results: impl Iterator<Item = T>) -> u64 {
    results.fold(FNV_OFFSET, |h, r| fnv1a(h, format!("{r:?}\n").as_bytes()))
}

/// `(FNV-1a, length)` of `encode_update` on each of [`updates`].
const ENCODED: [(u64, usize); 3] =
    [(0x6fc2_3735_003c_8724, 185), (0x10e6_ad39_cebe_ade1, 62), (0x7db6_cc0e_22b2_d66a, 10)];

/// `(FNV-1a, length)` of `encode_update_q8` on each of [`quantised`].
const ENCODED_Q8: [(u64, usize); 2] = [(0xf111_e2a3_b7f1_889d, 27), (0x831b_f9f9_fef7_195f, 13)];

/// [`debug_hash`] of `decode_update` over the [`mutants`] of each
/// update frame.
const DECODED: [u64; 3] = [0x7d7c_e01c_938e_8091, 0xff91_44cc_5773_47ae, 0xca80_b1ef_dd32_f2d6];

/// [`debug_hash`] of `decode_update_q8(mutant, n)` over the [`mutants`]
/// of each quantised frame, for `n` = len − 1, len and len + 1.
const DECODED_Q8: [[u64; 3]; 2] = [
    [0x0862_f8f1_92b5_d861, 0x00be_6eba_1ed2_d30a, 0x180c_6ca4_a3ba_6da7],
    [0x88a7_997d_5c3d_7c7b, 0x4d18_6319_e674_dcef, 0x7f65_5dc0_9d69_35fe],
];

#[test]
fn encoded_frames_are_pinned() {
    for (i, (params, mask)) in updates().iter().enumerate() {
        let frame = encode_update(params, mask);
        assert_eq!((fnv1a(FNV_OFFSET, &frame), frame.len()), ENCODED[i], "update frame {i}");
    }
    for (i, params) in quantised().iter().enumerate() {
        let frame = encode_update_q8(params);
        assert_eq!((fnv1a(FNV_OFFSET, &frame), frame.len()), ENCODED_Q8[i], "q8 frame {i}");
    }
}

#[test]
fn decoded_updates_are_pinned() {
    for (i, (params, mask)) in updates().iter().enumerate() {
        let frame = encode_update(params, mask);
        let hash = debug_hash(mutants(&frame).map(|m| decode_update(&m)));
        assert_eq!(hash, DECODED[i], "update frame {i}");
    }
}

#[test]
fn decoded_quantised_updates_are_pinned() {
    for (i, params) in quantised().iter().enumerate() {
        let frame = encode_update_q8(params);
        let len = params.len();
        let hashes = [len - 1, len, len + 1]
            .map(|n| debug_hash(mutants(&frame).map(|m| decode_update_q8(&m, n))));
        assert_eq!(hashes, DECODED_Q8[i], "q8 frame {i}");
    }
}
