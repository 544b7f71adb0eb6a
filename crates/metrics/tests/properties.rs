//! Property-based tests of the communication and FLOP models.

use proptest::prelude::*;
use subfed_metrics::comm::{
    dense_run_bytes, dense_transfer_bytes, mask_bytes, masked_transfer_bytes, pack_mask,
    unpack_mask,
};
use subfed_metrics::flops::{
    conv_flop_reduction, dense_conv_flops, masked_conv_flops, masked_trainable_params,
};
use subfed_nn::models::ModelSpec;
use subfed_pruning::ChannelMask;

/// The mask entries the codec must classify: both zeros are pruned;
/// ±1, NaN and the smallest subnormal are kept ([`subfed_nn::is_kept`]).
const ENTRIES: [f32; 6] = [0.0, -0.0, 1.0, -1.0, f32::NAN, f32::from_bits(1)];

/// Per-bit packing: bit `i % 8` of byte `i / 8` is set exactly when entry
/// `i` is kept.
fn pack_oracle(mask: &[f32]) -> Vec<u8> {
    let mut out = vec![0u8; mask.len().div_ceil(8)];
    for (i, &m) in mask.iter().enumerate() {
        if subfed_nn::is_kept(m) {
            out[i / 8] |= 1 << (i % 8);
        }
    }
    out
}

/// Per-bit unpacking: a position past the bytes reads as pruned.
fn unpack_oracle(bytes: &[u8], len: usize) -> Vec<u32> {
    let bit = |i: usize| bytes.get(i / 8).is_some_and(|b| b >> (i % 8) & 1 == 1);
    (0..len).map(|i| if bit(i) { 1.0f32 } else { 0.0 }.to_bits()).collect()
}

fn unpacked_bits(bytes: &[u8], len: usize) -> Vec<u32> {
    unpack_mask(bytes, len).iter().map(|v| v.to_bits()).collect()
}

/// Every length 0..=257, so every split of a mask into whole 64-entry
/// words and a tail is covered, with the buffer cut at every byte.
#[test]
fn word_packing_matches_the_per_bit_oracle_at_every_length() {
    for len in 0..=257usize {
        let mask: Vec<f32> = (0..len).map(|i| ENTRIES[(i * 7 + len) % ENTRIES.len()]).collect();
        let packed = pack_mask(&mask);
        assert_eq!(packed, pack_oracle(&mask), "len {len}");
        for cut in 0..=packed.len() {
            let short = &packed[..cut];
            assert_eq!(unpacked_bits(short, len), unpack_oracle(short, len), "len {len} cut {cut}");
        }
    }
}

fn lenet_mask() -> impl Strategy<Value = ChannelMask> {
    (prop::collection::vec(prop::bool::ANY, 6), prop::collection::vec(prop::bool::ANY, 16))
        .prop_map(|(mut a, mut b)| {
            // Keep at least one channel per block (the structural invariant
            // slimming_mask maintains).
            if a.iter().all(|&k| !k) {
                a[0] = true;
            }
            if b.iter().all(|&k| !k) {
                b[0] = true;
            }
            ChannelMask::from_keep(vec![a, b])
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn pack_unpack_roundtrip(bits in prop::collection::vec(prop::bool::ANY, 0..200)) {
        let mask: Vec<f32> = bits.iter().map(|&b| if b { 1.0 } else { 0.0 }).collect();
        let packed = pack_mask(&mask);
        prop_assert_eq!(packed.len() as u64, mask_bytes(mask.len()));
        let unpacked = unpack_mask(&packed, mask.len());
        prop_assert_eq!(unpacked, mask);
    }

    #[test]
    fn word_packing_matches_the_per_bit_oracle(
        picks in prop::collection::vec(0usize..6, 0..=257),
        cut in 0usize..40,
        extra in 0usize..80,
        junk in 0u32..256,
    ) {
        let mask: Vec<f32> = picks.iter().map(|&k| ENTRIES[k]).collect();
        let packed = pack_mask(&mask);
        prop_assert_eq!(&packed, &pack_oracle(&mask));
        prop_assert_eq!(unpacked_bits(&packed, mask.len()), unpack_oracle(&packed, mask.len()));
        // Any bytes, padding bits included, read at any length: positions
        // past a short buffer read as pruned.
        let noisy: Vec<u8> = packed.iter().map(|&b| b ^ junk as u8).collect();
        let short = &noisy[..cut.min(noisy.len())];
        for len in [mask.len(), mask.len() + extra, extra] {
            prop_assert_eq!(unpacked_bits(short, len), unpack_oracle(short, len));
            prop_assert_eq!(unpacked_bits(&noisy, len), unpack_oracle(&noisy, len));
        }
    }

    #[test]
    fn masked_transfer_never_exceeds_dense(kept in 0usize..100_000, total in 0usize..100_000) {
        prop_assume!(kept <= total);
        prop_assert!(masked_transfer_bytes(kept) <= dense_transfer_bytes(total));
    }

    #[test]
    fn dense_run_cost_is_linear_in_every_factor(
        rounds in 1u64..1000,
        clients in 1u64..100,
        params in 1usize..100_000,
    ) {
        let base = dense_run_bytes(rounds, clients, params);
        prop_assert_eq!(dense_run_bytes(2 * rounds, clients, params), 2 * base);
        prop_assert_eq!(dense_run_bytes(rounds, 2 * clients, params), 2 * base);
        prop_assert_eq!(dense_run_bytes(rounds, clients, 2 * params), 2 * base);
        prop_assert_eq!(base, rounds * clients * params as u64 * 8);
    }

    #[test]
    fn masked_flops_bounded_by_dense_and_monotone(mask in lenet_mask()) {
        let spec = ModelSpec::lenet5(3, 32, 32, 10);
        let masked = masked_conv_flops(&spec, &mask);
        prop_assert!(masked <= dense_conv_flops(&spec));
        prop_assert!(masked > 0);
        prop_assert!(conv_flop_reduction(&spec, &mask) >= 1.0);
        // Removing one more channel never increases FLOPs.
        let keep = mask.keep().to_vec();
        if keep[1].iter().filter(|&&k| k).count() > 1 {
            let mut tighter = keep.clone();
            if let Some(pos) = tighter[1].iter().position(|&k| k) {
                tighter[1][pos] = false;
            }
            let tighter_mask = ChannelMask::from_keep(tighter);
            prop_assert!(masked_conv_flops(&spec, &tighter_mask) <= masked);
        }
    }

    #[test]
    fn masked_params_bounded_by_dense(mask in lenet_mask()) {
        let spec = ModelSpec::lenet5(3, 32, 32, 10);
        let masked = masked_trainable_params(&spec, &mask);
        prop_assert!(masked <= spec.num_trainable() as u64);
        prop_assert!(masked > 0);
    }

    #[test]
    fn full_mask_is_identity_for_flops_and_params(_x in 0..1) {
        let spec = ModelSpec::lenet5(3, 32, 32, 10);
        let full = ChannelMask::from_keep(vec![vec![true; 6], vec![true; 16]]);
        prop_assert_eq!(masked_conv_flops(&spec, &full), dense_conv_flops(&spec));
        prop_assert_eq!(masked_trainable_params(&spec, &full), spec.num_trainable() as u64);
    }
}
