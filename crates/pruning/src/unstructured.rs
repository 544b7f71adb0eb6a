//! Unstructured magnitude pruning (Algorithm 1's mask derivation).
//!
//! Given the current mask, the next mask zeroes the lowest `rate` fraction
//! (by absolute weight) of the *currently kept* prunable weights, so pruning
//! compounds geometrically toward the target: after `n` steps at rate `r`
//! the kept fraction is `(1-r)ⁿ`. Biases and BatchNorm parameters are never
//! pruned (matching the reference implementation).

use subfed_nn::{is_kept, ModelMask, ParamKind, ParamMeta, Sequential};

/// Which weights unstructured pruning may remove.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PruneScope {
    /// All conv and FC kernels — Sub-FedAvg (Un).
    AllWeights,
    /// FC kernels only — the unstructured half of Sub-FedAvg (Hy).
    FcOnly,
}

impl PruneScope {
    /// Whether `kind` falls inside this scope.
    pub fn includes(self, kind: ParamKind) -> bool {
        match self {
            PruneScope::AllWeights => kind.is_prunable_weight(),
            PruneScope::FcOnly => kind == ParamKind::FcWeight,
        }
    }
}

/// How weights are ranked for removal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ranking {
    /// Rank within each parameter tensor independently (the reference
    /// implementation's behaviour).
    LayerWise,
    /// Rank across all in-scope weights jointly (ablation).
    Global,
}

/// Derives the next unstructured mask from the weights of `model`:
/// [`magnitude_mask_flat`] over its layout and flattened parameters.
///
/// # Panics
///
/// As [`magnitude_mask_flat`].
pub fn magnitude_mask(
    model: &Sequential,
    current: &ModelMask,
    rate: f32,
    scope: PruneScope,
    ranking: Ranking,
) -> ModelMask {
    magnitude_mask_flat(&model.metas(), &model.flatten(), current, rate, scope, ranking)
}

/// Derives the next unstructured mask from a flat parameter snapshot laid
/// out by `layout` (a model's `Sequential::metas`): prunes the lowest
/// `rate` fraction of the currently kept in-scope weights.
///
/// Returns a mask that is a subset of `current` (monotone shrink). At least
/// one weight per tensor survives layer-wise ranking; global ranking keeps
/// at least one weight overall. Weights are ranked by |w| under
/// `f32::total_cmp`, ties broken by position, which selects exactly the
/// weights a stable sort by |w| would put first.
///
/// # Panics
///
/// Panics if `rate` is outside `[0, 1)`, `current` does not match the
/// layout, or `flat` is too short for it.
pub fn magnitude_mask_flat(
    layout: &[ParamMeta],
    flat: &[f32],
    current: &ModelMask,
    rate: f32,
    scope: PruneScope,
    ranking: Ranking,
) -> ModelMask {
    assert!((0.0..1.0).contains(&rate), "prune rate must be in [0, 1), got {rate}");
    assert_eq!(layout.len(), current.tensors().len(), "mask does not match model");
    let mut next = current.clone();
    match ranking {
        Ranking::LayerWise => {
            for (meta, mask) in layout.iter().zip(next.tensors_mut()) {
                if scope.includes(meta.kind) {
                    prune_lowest(meta.slice(flat), mask.data_mut(), rate);
                }
            }
        }
        Ranking::Global => {
            // Collect (|w|, (param index, offset)) of all kept in-scope
            // weights.
            let mut kept: Vec<(f32, (usize, usize))> = Vec::new();
            for (i, (meta, mask)) in layout.iter().zip(current.tensors()).enumerate() {
                if !scope.includes(meta.kind) {
                    continue;
                }
                for (j, (&w, &m)) in meta.slice(flat).iter().zip(mask.data()).enumerate() {
                    if is_kept(m) {
                        kept.push((w.abs(), (i, j)));
                    }
                }
            }
            let n_prune = prune_count(kept.len(), rate);
            let tensors = next.tensors_mut();
            for &(_, (i, j)) in select_lowest(&mut kept, n_prune) {
                if let Some(m) = tensors.get_mut(i).and_then(|t| t.data_mut().get_mut(j)) {
                    *m = 0.0;
                }
            }
        }
    }
    next
}

/// How many of `kept` entries one step at `rate` removes: `⌊kept·rate⌋`,
/// leaving at least one.
pub(crate) fn prune_count(kept: usize, rate: f32) -> usize {
    ((kept as f32 * rate).floor() as usize).min(kept.saturating_sub(1))
}

/// Moves the `n` smallest entries of `kept` to its front and returns them,
/// in no particular order. Entries are ordered by magnitude under
/// `f32::total_cmp`, then by their (distinct) index, so the order is total
/// and the selected set is exactly the first `n` that a stable sort by
/// magnitude alone would take, ties included — in linear expected time
/// instead of a sort's n·log n.
///
/// # Panics
///
/// Panics if `n > kept.len()`.
fn select_lowest<I: Ord>(kept: &mut [(f32, I)], n: usize) -> &[(f32, I)] {
    if let Some(nth) = n.checked_sub(1) {
        kept.select_nth_unstable_by(nth, |a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
    }
    &kept[..n]
}

/// Zeroes the lowest-`rate` fraction (by |w|) of the kept entries of one
/// tensor's mask, keeping at least one entry.
fn prune_lowest(weights: &[f32], mask: &mut [f32], rate: f32) {
    assert_eq!(weights.len(), mask.len(), "mask does not match its weights");
    let mut kept: Vec<(f32, usize)> = weights
        .iter()
        .zip(mask.iter())
        .enumerate()
        .filter(|(_, (_, &m))| is_kept(m))
        .map(|(j, (&w, _))| (w.abs(), j))
        .collect();
    let n_prune = prune_count(kept.len(), rate);
    for &(_, j) in select_lowest(&mut kept, n_prune) {
        if let Some(m) = mask.get_mut(j) {
            *m = 0.0;
        }
    }
}

/// Fraction of in-scope weights pruned under `mask`.
pub fn pruned_fraction(mask: &ModelMask, scope: PruneScope) -> f32 {
    mask.pruned_fraction(|k| scope.includes(k))
}

#[cfg(test)]
mod tests {
    use super::*;
    use subfed_nn::models::ModelSpec;
    use subfed_tensor::init::SeededRng;

    fn model() -> Sequential {
        ModelSpec::cnn5(1, 16, 16, 4).build(&mut SeededRng::new(9))
    }

    #[test]
    fn prunes_requested_fraction_layer_wise() {
        let m = model();
        let current = ModelMask::ones_for(&m);
        let next = magnitude_mask(&m, &current, 0.3, PruneScope::AllWeights, Ranking::LayerWise);
        let frac = pruned_fraction(&next, PruneScope::AllWeights);
        // floor() per tensor keeps it within one weight per tensor of 0.3.
        assert!((frac - 0.3).abs() < 0.01, "pruned {frac}");
        // Non-weights untouched.
        assert_eq!(next.pruned_fraction(|k| k == ParamKind::FcBias), 0.0);
        assert_eq!(next.pruned_fraction(|k| k == ParamKind::BnGamma), 0.0);
    }

    #[test]
    fn prunes_smallest_magnitudes_first() {
        let m = model();
        let current = ModelMask::ones_for(&m);
        let next = magnitude_mask(&m, &current, 0.5, PruneScope::AllWeights, Ranking::LayerWise);
        // In every prunable tensor the max pruned |w| <= min kept |w|.
        for (i, p) in m.params().iter().enumerate() {
            if !p.kind.is_prunable_weight() {
                continue;
            }
            let mut max_pruned = 0.0f32;
            let mut min_kept = f32::INFINITY;
            for (&w, &mk) in p.value.data().iter().zip(next.tensors()[i].data()) {
                if mk == 0.0 {
                    max_pruned = max_pruned.max(w.abs());
                } else {
                    min_kept = min_kept.min(w.abs());
                }
            }
            assert!(max_pruned <= min_kept + 1e-7, "{max_pruned} vs {min_kept}");
        }
    }

    #[test]
    fn shrink_is_monotone() {
        let m = model();
        let m1 = magnitude_mask(
            &m,
            &ModelMask::ones_for(&m),
            0.2,
            PruneScope::AllWeights,
            Ranking::LayerWise,
        );
        let m2 = magnitude_mask(&m, &m1, 0.2, PruneScope::AllWeights, Ranking::LayerWise);
        for (a, b) in m1.tensors().iter().zip(m2.tensors()) {
            for (&x, &y) in a.data().iter().zip(b.data()) {
                assert!(y <= x, "mask grew back");
            }
        }
        // Compounding: (1-0.2)^2 = 0.64 kept.
        let frac = pruned_fraction(&m2, PruneScope::AllWeights);
        assert!((frac - 0.36).abs() < 0.02, "pruned {frac}");
    }

    #[test]
    fn fc_only_scope_leaves_conv_untouched() {
        let m = model();
        let next = magnitude_mask(
            &m,
            &ModelMask::ones_for(&m),
            0.5,
            PruneScope::FcOnly,
            Ranking::LayerWise,
        );
        assert_eq!(next.pruned_fraction(|k| k == ParamKind::ConvWeight), 0.0);
        let fc = next.pruned_fraction(|k| k == ParamKind::FcWeight);
        assert!((fc - 0.5).abs() < 0.01, "{fc}");
    }

    #[test]
    fn global_ranking_prunes_same_total_fraction() {
        let m = model();
        let next = magnitude_mask(
            &m,
            &ModelMask::ones_for(&m),
            0.4,
            PruneScope::AllWeights,
            Ranking::Global,
        );
        let frac = pruned_fraction(&next, PruneScope::AllWeights);
        assert!((frac - 0.4).abs() < 0.001, "{frac}");
        // Global threshold: every pruned weight <= every kept weight
        // across all tensors.
        let mut max_pruned = 0.0f32;
        let mut min_kept = f32::INFINITY;
        for (i, p) in m.params().iter().enumerate() {
            if !p.kind.is_prunable_weight() {
                continue;
            }
            for (&w, &mk) in p.value.data().iter().zip(next.tensors()[i].data()) {
                if mk == 0.0 {
                    max_pruned = max_pruned.max(w.abs());
                } else {
                    min_kept = min_kept.min(w.abs());
                }
            }
        }
        assert!(max_pruned <= min_kept + 1e-7);
    }

    #[test]
    fn zero_rate_is_identity() {
        let m = model();
        let current = ModelMask::ones_for(&m);
        let next = magnitude_mask(&m, &current, 0.0, PruneScope::AllWeights, Ranking::LayerWise);
        assert_eq!(next, current);
    }

    #[test]
    fn never_prunes_everything() {
        let m = model();
        let mut mask = ModelMask::ones_for(&m);
        for _ in 0..60 {
            mask = magnitude_mask(&m, &mask, 0.5, PruneScope::AllWeights, Ranking::LayerWise);
        }
        // At least one weight survives per prunable tensor.
        for (i, p) in m.params().iter().enumerate() {
            if p.kind.is_prunable_weight() {
                assert!(
                    mask.tensors()[i].data().iter().any(|&v| v != 0.0),
                    "tensor {i} fully pruned"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "prune rate must be in")]
    fn rate_one_rejected() {
        let m = model();
        let _ = magnitude_mask(
            &m,
            &ModelMask::ones_for(&m),
            1.0,
            PruneScope::AllWeights,
            Ranking::LayerWise,
        );
    }
}
