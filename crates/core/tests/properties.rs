//! Property-based tests of the aggregation algebra and the wire format.

use proptest::prelude::*;
use subfed_core::checkpoint::Checkpoint;
use subfed_core::wire::{
    decode_update, decode_update_q8, encode_update, encode_update_q8, encoded_len, q8_max_error,
};
use subfed_core::{fedavg_aggregate, subfedavg_aggregate, subfedavg_aggregate_trimmed};

/// Strategy: `n` parameter values paired with a 0/1 mask.
fn update(n: usize) -> impl Strategy<Value = (Vec<f32>, Vec<f32>)> {
    (
        prop::collection::vec(-100.0f32..100.0, n),
        prop::collection::vec(prop::bool::ANY, n)
            .prop_map(|bits| bits.into_iter().map(|b| if b { 1.0 } else { 0.0 }).collect()),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn subfedavg_result_bounded_by_contributors(
        global in prop::collection::vec(-100.0f32..100.0, 24),
        updates in prop::collection::vec(update(24), 1..6),
    ) {
        let out = subfedavg_aggregate(&global, &updates);
        for i in 0..24 {
            let contrib: Vec<f32> = updates
                .iter()
                .filter(|(_, m)| m[i] != 0.0)
                .map(|(p, _)| p[i])
                .collect();
            if contrib.is_empty() {
                prop_assert_eq!(out[i], global[i], "untouched position must keep global");
            } else {
                let lo = contrib.iter().copied().fold(f32::INFINITY, f32::min);
                let hi = contrib.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                prop_assert!(out[i] >= lo - 1e-3 && out[i] <= hi + 1e-3,
                    "position {i}: {} outside [{lo}, {hi}]", out[i]);
            }
        }
    }

    #[test]
    fn subfedavg_with_full_masks_equals_fedavg(
        global in prop::collection::vec(-10.0f32..10.0, 16),
        params in prop::collection::vec(
            prop::collection::vec(-10.0f32..10.0, 16), 1..5),
    ) {
        let masked: Vec<(Vec<f32>, Vec<f32>)> =
            params.iter().map(|p| (p.clone(), vec![1.0; 16])).collect();
        let sub = subfedavg_aggregate(&global, &masked);
        let fed = fedavg_aggregate(
            &params.iter().map(|p| (p.clone(), 1usize)).collect::<Vec<_>>(),
        );
        for (a, b) in sub.iter().zip(fed.iter()) {
            prop_assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn subfedavg_is_permutation_invariant(
        global in prop::collection::vec(-10.0f32..10.0, 12),
        updates in prop::collection::vec(update(12), 2..5),
    ) {
        let forward = subfedavg_aggregate(&global, &updates);
        let mut reversed = updates.clone();
        reversed.reverse();
        let backward = subfedavg_aggregate(&global, &reversed);
        for (a, b) in forward.iter().zip(backward.iter()) {
            prop_assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn fedavg_weighted_mean_is_convex(
        updates in prop::collection::vec(
            (prop::collection::vec(-10.0f32..10.0, 8), 1usize..20), 1..5),
    ) {
        let out = fedavg_aggregate(&updates);
        for i in 0..8 {
            let lo = updates.iter().map(|(p, _)| p[i]).fold(f32::INFINITY, f32::min);
            let hi = updates.iter().map(|(p, _)| p[i]).fold(f32::NEG_INFINITY, f32::max);
            prop_assert!(out[i] >= lo - 1e-4 && out[i] <= hi + 1e-4);
        }
    }

    #[test]
    fn wire_roundtrip_arbitrary_updates((params, mask) in update(61)) {
        let buf = encode_update(&params, &mask);
        let kept = mask.iter().filter(|&&m| m != 0.0).count();
        prop_assert_eq!(buf.len() as u64, encoded_len(61, kept));
        let (got_params, got_mask) = decode_update(&buf).unwrap();
        prop_assert_eq!(got_mask, mask.clone());
        for i in 0..61 {
            if mask[i] != 0.0 {
                prop_assert_eq!(got_params[i], params[i]);
            } else {
                prop_assert_eq!(got_params[i], 0.0);
            }
        }
    }

    #[test]
    fn trimmed_aggregate_is_also_bounded(
        global in prop::collection::vec(-10.0f32..10.0, 12),
        updates in prop::collection::vec(update(12), 1..6),
        trim in 0usize..3,
    ) {
        let out = subfedavg_aggregate_trimmed(&global, &updates, trim);
        for i in 0..12 {
            let contrib: Vec<f32> = updates
                .iter()
                .filter(|(_, m)| m[i] != 0.0)
                .map(|(p, _)| p[i])
                .collect();
            if contrib.is_empty() {
                prop_assert_eq!(out[i], global[i]);
            } else {
                let lo = contrib.iter().copied().fold(f32::INFINITY, f32::min);
                let hi = contrib.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                prop_assert!(out[i] >= lo - 1e-3 && out[i] <= hi + 1e-3);
            }
        }
    }

    #[test]
    fn q8_error_within_half_step(params in prop::collection::vec(-50.0f32..50.0, 1..200)) {
        let back = decode_update_q8(&encode_update_q8(&params), params.len()).unwrap();
        let lo = params.iter().copied().fold(f32::INFINITY, f32::min);
        let hi = params.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let bound = q8_max_error(lo, hi) + 1e-4 * (1.0 + hi.abs().max(lo.abs()));
        for (a, b) in params.iter().zip(back.iter()) {
            prop_assert!((a - b).abs() <= bound, "{a} vs {b} exceeds {bound}");
        }
    }

    #[test]
    fn checkpoint_roundtrip_arbitrary(
        round in 0u32..10_000,
        cum_bytes in 0u64..u64::MAX,
        global in prop::collection::vec(-100.0f32..100.0, 0..80),
        clients in prop::collection::vec(0u8..=255, 0..240),
    ) {
        let ckpt = Checkpoint { round, cum_bytes, global, clients };
        let buf = ckpt.encode();
        prop_assert_eq!(buf.len(), 24 + 4 * ckpt.global.len() + ckpt.clients.len());
        let back = Checkpoint::decode(&buf).unwrap();
        prop_assert_eq!(back, ckpt);
    }

    #[test]
    fn wire_rejects_truncation((params, mask) in update(33), cut in 1usize..10) {
        let buf = encode_update(&params, &mask);
        prop_assume!(cut < buf.len());
        let truncated = &buf[..buf.len() - cut];
        // Either an error, or (if the cut only removed kept-parameter
        // bytes beyond what the mask requires) impossible — decode must
        // never panic and must error on any shortfall.
        prop_assert!(decode_update(truncated).is_err());
    }
}
