//! Property-based tests of the pruning invariants DESIGN.md §7 calls out.

use proptest::prelude::*;
use subfed_nn::models::{channel_graph, channel_graph_flat, Downstream, ModelSpec};
use subfed_nn::{ModelMask, ParamKind, Sequential};
use subfed_pruning::structured::{
    expand_channel_mask, expand_channel_mask_flat, slimming_mask, slimming_mask_flat,
};
use subfed_pruning::unstructured::{magnitude_mask, magnitude_mask_flat, pruned_fraction};
use subfed_pruning::{
    ChannelMask, GateReason, HybridController, HybridState, PruneScope, Ranking,
    UnstructuredController,
};
use subfed_tensor::init::SeededRng;

fn model(seed: u64) -> Sequential {
    ModelSpec::lenet5(1, 16, 16, 4).build(&mut SeededRng::new(seed))
}

/// LeNet-5, CNN-5 and VGG-lite at the benchmarks' 16×16 and at the
/// paper's geometry.
fn specs() -> Vec<ModelSpec> {
    vec![
        ModelSpec::lenet5(1, 16, 16, 4),
        ModelSpec::cnn5(1, 16, 16, 4),
        ModelSpec::vgg_lite(1, 16, 16, 4),
        ModelSpec::lenet5(3, 32, 32, 10),
        ModelSpec::cnn5(1, 28, 28, 10),
        ModelSpec::vgg_lite(3, 32, 32, 10),
    ]
}

/// The oracle for ties: magnitude pruning by a stable sort of the kept
/// in-scope weights by |w| under `total_cmp`, per tensor (`LayerWise`) or
/// across all of them (`Global`), pruning the first `⌊kept·rate⌋` and
/// leaving at least one.
fn stable_sort_reference(
    m: &Sequential,
    current: &ModelMask,
    rate: f32,
    scope: PruneScope,
    ranking: Ranking,
) -> ModelMask {
    let mut next = current.clone();
    let mut kept: Vec<(f32, usize, usize)> = Vec::new();
    let prune = |kept: &mut Vec<(f32, usize, usize)>, next: &mut ModelMask| {
        let n = ((kept.len() as f32 * rate).floor() as usize).min(kept.len().saturating_sub(1));
        kept.sort_by(|a, b| a.0.total_cmp(&b.0));
        for &(_, i, j) in kept.iter().take(n) {
            next.tensors_mut()[i].data_mut()[j] = 0.0;
        }
        kept.clear();
    };
    for (i, p) in m.params().iter().enumerate() {
        if !scope.includes(p.kind) {
            continue;
        }
        for (j, (&w, &k)) in p.value.data().iter().zip(current.tensors()[i].data()).enumerate() {
            if k != 0.0 {
                kept.push((w.abs(), i, j));
            }
        }
        if ranking == Ranking::LayerWise {
            prune(&mut kept, &mut next);
        }
    }
    prune(&mut kept, &mut next);
    next
}

/// A random mask over a model's prunable weights: keep each with prob `p`.
fn random_mask(m: &Sequential, keep_prob: f32, seed: u64) -> ModelMask {
    let mut rng = SeededRng::new(seed);
    let mut mask = ModelMask::ones_for(m);
    let kinds = mask.kinds().to_vec();
    for (t, kind) in mask.tensors_mut().iter_mut().zip(kinds) {
        if !kind.is_prunable_weight() {
            continue;
        }
        for v in t.data_mut() {
            if rng.uniform_f32(0.0, 1.0) > keep_prob {
                *v = 0.0;
            }
        }
        // Ensure at least one kept entry per tensor.
        if t.data().iter().all(|&v| v == 0.0) {
            t.data_mut()[0] = 1.0;
        }
    }
    mask
}

/// [`model`] with every BatchNorm γ drawn at random, as local training
/// would leave them, so channel rankings differ between seeds.
fn trained_model(seed: u64) -> Sequential {
    trained(ModelSpec::lenet5(1, 16, 16, 4), seed)
}

/// A `spec` model with every BatchNorm γ drawn at random.
fn trained(spec: ModelSpec, seed: u64) -> Sequential {
    let mut m = spec.build(&mut SeededRng::new(seed));
    let mut rng = SeededRng::new(seed ^ 0xABCD);
    for p in m.params_mut() {
        if p.kind == ParamKind::BnGamma {
            for v in p.value.data_mut() {
                *v = rng.uniform_f32(0.1, 2.0);
            }
        }
    }
    m
}

/// Validation accuracies below, at and above the paper's `Acc_th` of 0.5,
/// and a diverged one.
fn accuracies() -> Vec<f32> {
    vec![0.2, 0.5, 0.9, f32::NAN]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn magnitude_mask_is_monotone_shrink(
        seed in 0u64..500,
        rate in 0.0f32..0.9,
        keep in 0.3f32..1.0,
        ranking in prop::sample::select(vec![Ranking::LayerWise, Ranking::Global]),
    ) {
        let m = model(seed);
        let current = random_mask(&m, keep, seed ^ 1);
        let next = magnitude_mask(&m, &current, rate, PruneScope::AllWeights, ranking);
        for (a, b) in current.tensors().iter().zip(next.tensors()) {
            for (&x, &y) in a.data().iter().zip(b.data()) {
                prop_assert!(y <= x, "mask entry grew back");
            }
        }
    }

    #[test]
    fn magnitude_mask_hits_requested_fraction(
        seed in 0u64..500,
        rate in 0.05f32..0.8,
    ) {
        let m = model(seed);
        let current = ModelMask::ones_for(&m);
        let next = magnitude_mask(&m, &current, rate, PruneScope::AllWeights, Ranking::Global);
        let frac = pruned_fraction(&next, PruneScope::AllWeights);
        // Global floor() truncation: within one weight.
        let total = next.total_count(|k| k.is_prunable_weight()) as f32;
        prop_assert!((frac - rate).abs() <= 1.0 / total + 1e-6, "{frac} vs {rate}");
    }

    #[test]
    fn magnitude_mask_never_touches_non_weights(
        seed in 0u64..500,
        rate in 0.0f32..0.9,
    ) {
        let m = model(seed);
        let next = magnitude_mask(
            &m, &ModelMask::ones_for(&m), rate, PruneScope::AllWeights, Ranking::LayerWise,
        );
        for kind in [ParamKind::ConvBias, ParamKind::BnGamma, ParamKind::BnBeta,
                     ParamKind::BnMean, ParamKind::BnVar, ParamKind::FcBias] {
            prop_assert_eq!(next.pruned_fraction(|k| k == kind), 0.0);
        }
    }

    #[test]
    fn compounding_matches_geometric_decay(
        seed in 0u64..200,
        rate in 0.1f32..0.5,
        steps in 1usize..5,
    ) {
        let m = model(seed);
        let mut mask = ModelMask::ones_for(&m);
        for _ in 0..steps {
            mask = magnitude_mask(&m, &mask, rate, PruneScope::AllWeights, Ranking::Global);
        }
        let kept = 1.0 - pruned_fraction(&mask, PruneScope::AllWeights);
        let expected = (1.0 - rate).powi(steps as i32);
        // floor() truncation accumulates at most `steps` weights of error.
        prop_assert!((kept - expected).abs() < 0.02, "kept {kept} vs expected {expected}");
    }

    #[test]
    fn hamming_distance_is_a_metric(
        seed in 0u64..300,
        ka in 0.2f32..1.0,
        kb in 0.2f32..1.0,
        kc in 0.2f32..1.0,
    ) {
        let m = model(seed);
        let a = random_mask(&m, ka, seed ^ 10);
        let b = random_mask(&m, kb, seed ^ 20);
        let c = random_mask(&m, kc, seed ^ 30);
        let all = |_k: ParamKind| true;
        // Identity and symmetry.
        prop_assert_eq!(a.hamming_distance(&a, all), 0.0);
        prop_assert_eq!(a.hamming_distance(&b, all), b.hamming_distance(&a, all));
        // Triangle inequality.
        let ab = a.hamming_distance(&b, all);
        let bc = b.hamming_distance(&c, all);
        let ac = a.hamming_distance(&c, all);
        prop_assert!(ac <= ab + bc + 1e-6, "triangle violated: {ac} > {ab} + {bc}");
    }

    #[test]
    fn slimming_never_empties_blocks(
        seed in 0u64..300,
        rate in 0.05f32..0.9,
        steps in 1usize..6,
    ) {
        let m = model(seed);
        let graph = channel_graph(&m);
        let mut mask = ChannelMask::ones_for(&graph);
        let (layout, flat) = (m.metas(), m.flatten());
        for _ in 0..steps {
            let next = slimming_mask(&m, &mask, rate);
            prop_assert_eq!(&slimming_mask_flat(&layout, &flat, &mask, rate), &next);
            mask = next;
        }
        for b in 0..graph.blocks.len() {
            prop_assert!(mask.kept_in_block(b) >= 1, "block {b} emptied");
        }
    }

    #[test]
    fn expansion_intersects_base(
        seed in 0u64..300,
        keep in 0.3f32..1.0,
        rate in 0.1f32..0.6,
    ) {
        let m = model(seed);
        let graph = channel_graph(&m);
        let base = random_mask(&m, keep, seed ^ 7);
        let channels = slimming_mask(&m, &ChannelMask::ones_for(&graph), rate);
        let expanded = expand_channel_mask(&m, &channels, &base);
        prop_assert_eq!(&expand_channel_mask_flat(&m.metas(), &channels, &base), &expanded);
        // Expansion only removes: expanded ⊆ base.
        for (e, b) in expanded.tensors().iter().zip(base.tensors()) {
            for (&x, &y) in e.data().iter().zip(b.data()) {
                prop_assert!(x <= y);
            }
        }
        // And pruned channel fraction translates into pruned params.
        if channels.pruned_fraction() > 0.0 {
            prop_assert!(
                expanded.pruned_fraction(|k| k == ParamKind::ConvWeight)
                    >= base.pruned_fraction(|k| k == ParamKind::ConvWeight)
            );
        }
    }

    #[test]
    fn channel_hamming_counts_flips(
        flips in prop::collection::vec(0usize..22, 0..8),
    ) {
        let m = model(0);
        let graph = channel_graph(&m);
        let a = ChannelMask::ones_for(&graph);
        let mut keep = a.keep().to_vec();
        let mut unique = flips.clone();
        unique.sort_unstable();
        unique.dedup();
        for &f in &unique {
            // LeNet-5: block 0 has 6 channels, block 1 has 16.
            if f < 6 {
                keep[0][f] = false;
            } else {
                keep[1][f - 6] = false;
            }
        }
        let b = ChannelMask::from_keep(keep);
        let d = a.hamming_distance(&b);
        prop_assert!((d - unique.len() as f32 / 22.0).abs() < 1e-6);
    }
}

proptest! {
    // More cases than above: each of the four gate outcomes needs a share.
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn unstructured_step_follows_algorithm_1(
        seed in 0u64..300,
        keep in 0.3f32..0.7,
        val_acc in prop::sample::select(accuracies()),
        stable in prop::bool::ANY,
        scope in prop::sample::select(vec![PruneScope::AllWeights, PruneScope::FcOnly]),
        ranking in prop::sample::select(vec![Ranking::LayerWise, Ranking::Global]),
    ) {
        let c = UnstructuredController { scope, ranking, ..UnstructuredController::paper_defaults(0.5) };
        let fe = model(seed);
        let le = if stable { model(seed) } else { model(seed + 1) };
        // Keep fractions on both sides of the 50% target.
        let current = random_mask(&fe, keep, seed ^ 2);
        let (layout, le_flat) = (le.metas(), le.flatten());
        let (next, d) = c.step(&layout, &fe.flatten(), &le_flat, &current, val_acc);

        // The oracle: both candidates from the models, then the gates in
        // Algorithm 1's order.
        let candidate = |m| magnitude_mask(m, &current, c.rate, scope, ranking);
        let m_le = candidate(&le);
        prop_assert_eq!(
            &magnitude_mask_flat(&layout, &le_flat, &current, c.rate, scope, ranking),
            &m_le
        );
        let delta = candidate(&fe).hamming_distance(&m_le, |k| scope.includes(k));
        let expected = if val_acc.is_nan() || val_acc < c.acc_threshold {
            GateReason::AccuracyBelowThreshold
        } else if pruned_fraction(&current, scope) >= c.target {
            GateReason::TargetReached
        } else if delta < c.eps {
            GateReason::MaskStable
        } else {
            GateReason::Pruned
        };
        prop_assert_eq!(d.reason, expected);
        prop_assert_eq!(next.is_some(), d.reason == GateReason::Pruned);
        if let Some(next) = next {
            prop_assert_eq!(next, m_le);
        }
        if matches!(d.reason, GateReason::AccuracyBelowThreshold | GateReason::TargetReached) {
            prop_assert_eq!(d.mask_distance, 0.0);
        }
    }

    #[test]
    fn hybrid_fc_track_is_algorithm_1(
        seed in 0u64..300,
        fc_keep in 0.3f32..0.7,
        channel_steps in 0usize..4,
        val_acc in prop::sample::select(accuracies()),
        stable in prop::bool::ANY,
    ) {
        let mut hc = HybridController::paper_defaults(0.15, 0.5);
        // Hy gates both tracks on its shared Acc_th, never on this one.
        hc.unstructured.acc_threshold = 0.0;
        let fe = trained_model(seed);
        let le = if stable { trained_model(seed) } else { trained_model(seed + 1) };
        let mut channels = HybridController::initial_channels(&fe);
        for _ in 0..channel_steps {
            channels = slimming_mask(&fe, &channels, hc.structured_rate);
        }
        let ones = ModelMask::ones_for(&fe);
        let fc_base = magnitude_mask(&fe, &ones, 1.0 - fc_keep, PruneScope::FcOnly, Ranking::LayerWise);
        let layout = fe.metas();
        let current = HybridState::new(&layout, channels, fc_base);
        let (fe_flat, le_flat) = (fe.flatten(), le.flatten());
        let (next, [channel, fc]) = hc.step(&layout, &fe_flat, &le_flat, &current, val_acc);
        // The channel track's candidates come from the flat core; the
        // model adapter must agree with it.
        for (m, flat) in [(&fe, &fe_flat), (&le, &le_flat)] {
            let rate = hc.structured_rate;
            prop_assert_eq!(
                slimming_mask_flat(&layout, flat, current.channels(), rate),
                slimming_mask(m, current.channels(), rate)
            );
        }

        let un = UnstructuredController { acc_threshold: hc.acc_threshold, ..hc.unstructured };
        let (fc_next, fc_expected) =
            un.step(&layout, &fe_flat, &le_flat, current.unstructured(), val_acc);
        prop_assert_eq!(fc, fc_expected);
        prop_assert_eq!(next.is_some(), channel.reason.fired() || fc.reason.fired());
        if let Some(next) = next {
            prop_assert_eq!(next.unstructured(), fc_next.as_ref().unwrap_or(current.unstructured()));
            let expanded = expand_channel_mask(&le, next.channels(), next.unstructured());
            prop_assert_eq!(next.mask(), &expanded);
        }
    }
}

/// [`model`] with every parameter drawn from {±0.0, ±0.5, ±1.0, ±NaN}:
/// four magnitudes in all, so ties decide most selections.
fn tied_model(seed: u64) -> Sequential {
    let values = [0.0, -0.0, 0.5, -0.5, 1.0, -1.0, f32::NAN, -f32::NAN];
    let mut m = model(seed);
    let mut rng = SeededRng::new(seed ^ 0x7135);
    for p in m.params_mut() {
        for v in p.value.data_mut() {
            *v = values[rng.below(values.len())];
        }
    }
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn magnitude_mask_breaks_ties_like_a_stable_sort(
        seed in 0u64..500,
        keep in 0.3f32..1.0,
        rate in prop::sample::select(vec![0.0f32, 0.05, 0.1, 0.3, 0.5, 0.75, 0.9]),
        scope in prop::sample::select(vec![PruneScope::AllWeights, PruneScope::FcOnly]),
        ranking in prop::sample::select(vec![Ranking::LayerWise, Ranking::Global]),
    ) {
        let m = tied_model(seed);
        let current = random_mask(&m, keep, seed ^ 3);
        prop_assert_eq!(
            magnitude_mask(&m, &current, rate, scope, ranking),
            stable_sort_reference(&m, &current, rate, scope, ranking)
        );
    }

    #[test]
    fn flat_cores_match_the_model_adapters(
        spec in prop::sample::select(specs()),
        seed in 0u64..300,
        keep in 0.3f32..1.0,
        rate in 0.05f32..0.6,
        ranking in prop::sample::select(vec![Ranking::LayerWise, Ranking::Global]),
    ) {
        let m = trained(spec, seed);
        let (layout, flat) = (m.metas(), m.flatten());
        let current = random_mask(&m, keep, seed ^ 5);
        for scope in [PruneScope::AllWeights, PruneScope::FcOnly] {
            prop_assert_eq!(
                magnitude_mask_flat(&layout, &flat, &current, rate, scope, ranking),
                magnitude_mask(&m, &current, rate, scope, ranking)
            );
        }
        let ones = ChannelMask::ones_for(&channel_graph(&m));
        let channels = slimming_mask(&m, &ones, rate);
        prop_assert_eq!(&slimming_mask_flat(&layout, &flat, &ones, rate), &channels);
        prop_assert_eq!(
            expand_channel_mask_flat(&layout, &channels, &current),
            expand_channel_mask(&m, &channels, &current)
        );
    }
}

/// The graph read from the layout names the model's own conv, bias, γ, β
/// and consumer parameters, for every architecture at both geometries.
#[test]
fn channel_graph_from_the_layout_matches_the_model() {
    for spec in specs() {
        let m = spec.build(&mut SeededRng::new(1));
        let graph = channel_graph_flat(&m.metas());
        assert_eq!(graph, channel_graph(&m), "{spec:?}");
        let params = m.params();
        let convs = spec.conv_shapes();
        assert_eq!(graph.blocks.len(), convs.len(), "{spec:?}");
        for (block, conv) in graph.blocks.iter().zip(&convs) {
            assert_eq!(block.out_channels, conv.cout, "{spec:?}");
            let weight = params[block.conv_weight];
            assert_eq!(weight.kind, ParamKind::ConvWeight);
            assert_eq!(weight.value.shape(), [conv.cout, conv.cin, conv.k, conv.k]);
            for (i, kind) in [
                (block.conv_bias, ParamKind::ConvBias),
                (block.bn_gamma, ParamKind::BnGamma),
                (block.bn_beta, ParamKind::BnBeta),
            ] {
                assert_eq!((params[i].kind, params[i].len()), (kind, conv.cout), "{spec:?}");
            }
            match block.downstream {
                Downstream::Conv { weight } => {
                    assert_eq!(params[weight].kind, ParamKind::ConvWeight);
                    assert_eq!(params[weight].value.shape()[1], conv.cout, "{spec:?}");
                }
                Downstream::Linear { weight, spatial } => {
                    assert_eq!(params[weight].kind, ParamKind::FcWeight);
                    assert_eq!(spatial, spec.final_spatial(), "{spec:?}");
                    assert_eq!(params[weight].value.shape()[1], conv.cout * spatial);
                }
            }
        }
    }
}
