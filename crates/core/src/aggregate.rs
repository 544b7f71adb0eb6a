//! Server-side aggregation rules.
//!
//! [`subfedavg_aggregate`] is the paper's novel averaging (§3.4, step iv):
//! every parameter position is averaged **only over the clients whose mask
//! retains it**; positions no sampled client retains keep their previous
//! global value. With all-ones masks it reduces exactly to FedAvg — a
//! property the tests pin down.

use subfed_nn::{is_kept, ModelMask, ParamMeta};
use subfed_tensor::Tensor;

/// Flattens a [`ModelMask`] into one 0/1 vector aligned with
/// `Sequential::flatten` order.
pub fn flatten_mask(mask: &ModelMask) -> Vec<f32> {
    let mut out = Vec::new();
    for t in mask.tensors() {
        out.extend_from_slice(t.data());
    }
    out
}

/// Reassembles a [`ModelMask`] from its flat 0/1 vector (inverse of
/// [`flatten_mask`]), shaped by the model's flat parameter layout.
///
/// # Panics
///
/// Panics if `flat` is too short for `layout` or holds an entry other than
/// 0 or 1.
pub(crate) fn unflatten_mask(layout: &[ParamMeta], flat: &[f32]) -> ModelMask {
    debug_assert_eq!(layout.iter().map(|m| m.len).sum::<usize>(), flat.len(), "mask length");
    let tensors =
        layout.iter().map(|m| Tensor::from_parts(m.shape.clone(), m.slice(flat).to_vec()));
    ModelMask::from_tensors(tensors.collect(), layout.iter().map(|m| m.kind).collect())
}

/// Sample-count-weighted FedAvg over flat parameter vectors.
///
/// # Panics
///
/// Panics if `updates` is empty, lengths differ, or all weights are zero.
pub fn fedavg_aggregate(updates: &[(Vec<f32>, usize)]) -> Vec<f32> {
    assert!(!updates.is_empty(), "fedavg over zero updates");
    let len = updates[0].0.len();
    let total: usize = updates.iter().map(|(_, n)| n).sum();
    assert!(total > 0, "fedavg with zero total weight");
    let mut out = vec![0.0f32; len];
    for (flat, n) in updates {
        assert_eq!(flat.len(), len, "update length mismatch");
        let w = *n as f32 / total as f32;
        for (o, &v) in out.iter_mut().zip(flat.iter()) {
            *o += w * v;
        }
    }
    out
}

/// Sub-FedAvg intersection averaging: position `i` of the new global is the
/// mean of `params[i]` over clients whose `mask[i] == 1`; if no client kept
/// it, the previous global value survives.
///
/// `updates` carries `(masked_params, flat_mask)` pairs; masked positions of
/// `masked_params` are ignored regardless of their value.
///
/// # Panics
///
/// Panics if `updates` is empty or any length differs from `global`.
pub fn subfedavg_aggregate(global: &[f32], updates: &[(Vec<f32>, Vec<f32>)]) -> Vec<f32> {
    assert!(!updates.is_empty(), "sub-fedavg over zero updates");
    let len = global.len();
    let mut sum = vec![0.0f32; len];
    let mut count = vec![0.0f32; len];
    for (params, mask) in updates {
        assert_eq!(params.len(), len, "update length mismatch");
        assert_eq!(mask.len(), len, "mask length mismatch");
        for (((s, c), &p), &m) in
            sum.iter_mut().zip(count.iter_mut()).zip(params.iter()).zip(mask.iter())
        {
            if is_kept(m) {
                *s += p;
                *c += 1.0;
            }
        }
    }
    sum.iter()
        .zip(count.iter())
        .zip(global.iter())
        .map(|((&s, &c), &g)| if c > 0.0 { s / c } else { g })
        .collect()
}

/// Robust variant of [`subfedavg_aggregate`]: at every position held by
/// more than `2·trim` clients, the `trim` smallest and `trim` largest
/// contributions are discarded before averaging (coordinate-wise trimmed
/// mean). Positions with few holders fall back to the plain holder
/// average; positions with none keep the previous global value.
///
/// Extension experiment: defends the intersection average against
/// corrupted (e.g. label-flipping) clients.
///
/// # Panics
///
/// Panics if `updates` is empty or any length differs from `global`.
pub fn subfedavg_aggregate_trimmed(
    global: &[f32],
    updates: &[(Vec<f32>, Vec<f32>)],
    trim: usize,
) -> Vec<f32> {
    assert!(!updates.is_empty(), "sub-fedavg over zero updates");
    let len = global.len();
    for (params, mask) in updates {
        assert_eq!(params.len(), len, "update length mismatch");
        assert_eq!(mask.len(), len, "mask length mismatch");
    }
    let mut scratch: Vec<f32> = Vec::with_capacity(updates.len());
    (0..len)
        .map(|i| {
            scratch.clear();
            for (params, mask) in updates {
                // `i < len` and both slices were length-checked above.
                // lint: allow(unchecked-index)
                if is_kept(mask[i]) {
                    scratch.push(params[i]); // lint: allow(unchecked-index)
                }
            }
            if scratch.is_empty() {
                return global[i];
            }
            if scratch.len() > 2 * trim {
                scratch.sort_by(f32::total_cmp);
                let kept = &scratch[trim..scratch.len() - trim];
                kept.iter().sum::<f32>() / kept.len() as f32
            } else {
                scratch.iter().sum::<f32>() / scratch.len() as f32
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fedavg_uniform_weights_is_mean() {
        let a = (vec![1.0, 2.0, 3.0], 10);
        let b = (vec![3.0, 4.0, 5.0], 10);
        assert_eq!(fedavg_aggregate(&[a, b]), vec![2.0, 3.0, 4.0]);
    }

    #[test]
    fn fedavg_respects_sample_weights() {
        let a = (vec![0.0], 1);
        let b = (vec![4.0], 3);
        assert_eq!(fedavg_aggregate(&[a, b]), vec![3.0]);
    }

    #[test]
    fn subfedavg_with_full_masks_equals_fedavg() {
        let global = vec![9.0; 3];
        let u1 = (vec![1.0, 2.0, 3.0], vec![1.0; 3]);
        let u2 = (vec![3.0, 4.0, 5.0], vec![1.0; 3]);
        let got = subfedavg_aggregate(&global, &[u1.clone(), u2.clone()]);
        let fed = fedavg_aggregate(&[(u1.0, 1), (u2.0, 1)]);
        assert_eq!(got, fed);
    }

    #[test]
    fn subfedavg_averages_only_holders() {
        let global = vec![100.0; 4];
        // Position 0: both keep; 1: only client A; 2: only B; 3: nobody.
        let a = (vec![2.0, 6.0, 0.0, 0.0], vec![1.0, 1.0, 0.0, 0.0]);
        let b = (vec![4.0, 0.0, 8.0, 0.0], vec![1.0, 0.0, 1.0, 0.0]);
        let got = subfedavg_aggregate(&global, &[a, b]);
        assert_eq!(got, vec![3.0, 6.0, 8.0, 100.0]);
    }

    #[test]
    fn subfedavg_ignores_values_under_zero_mask() {
        let global = vec![0.0];
        // Client reports garbage at a masked position; it must not leak.
        let a = (vec![12345.0], vec![0.0]);
        let b = (vec![2.0], vec![1.0]);
        assert_eq!(subfedavg_aggregate(&global, &[a, b]), vec![2.0]);
    }

    #[test]
    fn subfedavg_result_is_within_contributor_range() {
        // Property: each kept position lies in [min, max] of contributors.
        let global = vec![0.0; 8];
        let us: Vec<(Vec<f32>, Vec<f32>)> = (0..5)
            .map(|k| {
                let params: Vec<f32> = (0..8).map(|i| (k * i) as f32).collect();
                let mask: Vec<f32> = (0..8).map(|i| ((i + k) % 2) as f32).collect();
                (params, mask)
            })
            .collect();
        let got = subfedavg_aggregate(&global, &us);
        for i in 0..8 {
            let contrib: Vec<f32> =
                us.iter().filter(|(_, m)| m[i] != 0.0).map(|(p, _)| p[i]).collect();
            if contrib.is_empty() {
                assert_eq!(got[i], global[i]);
            } else {
                let lo = contrib.iter().copied().fold(f32::INFINITY, f32::min);
                let hi = contrib.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                assert!(got[i] >= lo - 1e-6 && got[i] <= hi + 1e-6);
            }
        }
    }

    #[test]
    fn flatten_mask_orders_match() {
        use subfed_nn::models::ModelSpec;
        use subfed_tensor::init::SeededRng;
        let model = ModelSpec::cnn5(1, 16, 16, 3).build(&mut SeededRng::new(0));
        let mask = ModelMask::ones_for(&model);
        let flat = flatten_mask(&mask);
        assert_eq!(flat.len(), model.num_params());
        assert!(flat.iter().all(|&v| v == 1.0));
    }

    #[test]
    #[should_panic(expected = "zero updates")]
    fn empty_updates_rejected() {
        let _ = subfedavg_aggregate(&[1.0], &[]);
    }

    #[test]
    fn trimmed_mean_discards_outliers() {
        let global = vec![0.0];
        // Four honest clients around 1.0, one poisoned at 1000.
        let updates: Vec<(Vec<f32>, Vec<f32>)> =
            [0.9f32, 1.0, 1.1, 1.0, 1000.0].iter().map(|&v| (vec![v], vec![1.0])).collect();
        let plain = subfedavg_aggregate(&global, &updates);
        assert!(plain[0] > 100.0, "plain mean is poisoned: {}", plain[0]);
        let robust = subfedavg_aggregate_trimmed(&global, &updates, 1);
        assert!((robust[0] - 1.0333).abs() < 1e-3, "trimmed mean {}", robust[0]);
    }

    #[test]
    fn trimmed_mean_falls_back_on_few_holders() {
        let global = vec![7.0, 7.0];
        // Position 0: two holders (<= 2*trim) -> plain average.
        // Position 1: no holders -> global survives.
        let updates = vec![(vec![1.0, 0.0], vec![1.0, 0.0]), (vec![3.0, 0.0], vec![1.0, 0.0])];
        let out = subfedavg_aggregate_trimmed(&global, &updates, 1);
        assert_eq!(out, vec![2.0, 7.0]);
    }

    #[test]
    fn trimmed_with_zero_trim_equals_plain() {
        let global = vec![0.0; 5];
        let updates: Vec<(Vec<f32>, Vec<f32>)> = (0..4)
            .map(|k| {
                let params: Vec<f32> = (0..5).map(|i| (k * i) as f32).collect();
                let mask: Vec<f32> = (0..5).map(|i| ((i + k) % 2) as f32).collect();
                (params, mask)
            })
            .collect();
        let a = subfedavg_aggregate_trimmed(&global, &updates, 0);
        let b = subfedavg_aggregate(&global, &updates);
        for (x, y) in a.iter().zip(b.iter()) {
            assert!((x - y).abs() < 1e-6);
        }
    }
}
