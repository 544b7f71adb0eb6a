//! FLOP and parameter accounting under channel masks (Table 2, §4.2.3).
//!
//! Following the paper (and Liu et al. 2017), only convolution and FC
//! multiply-adds are counted ("operations such as batch normalization and
//! pooling are ignorable"). Structured pruning reduces FLOPs because a
//! removed channel deletes its own output computation *and* the downstream
//! computation that consumed it; unstructured pruning leaves dense-hardware
//! FLOPs unchanged (Table 2 reports `0×` FLOP reduction for Sub-FedAvg
//! (Un)) but removes parameters.

use subfed_nn::models::{ConvShape, FcShape, ModelSpec};
use subfed_nn::{kept_count, ParamKind};
use subfed_pruning::{ChannelMask, ModelMask};

/// FLOPs of one convolution layer (2 × MACs).
pub fn conv_flops(shape: &ConvShape) -> u64 {
    2 * (shape.cout * shape.cin * shape.k * shape.k * shape.out_h * shape.out_w) as u64
}

/// FLOPs of one FC layer (2 × MACs).
pub fn fc_flops(shape: &FcShape) -> u64 {
    2 * (shape.fan_in * shape.fan_out) as u64
}

/// Total dense FLOPs of a model (convs + FCs) for one input.
pub fn dense_flops(spec: &ModelSpec) -> u64 {
    spec.conv_shapes().iter().map(conv_flops).sum::<u64>()
        + spec.fc_shapes().iter().map(fc_flops).sum::<u64>()
}

/// Convolution-only dense FLOPs — the quantity the paper's "2.4×" factor
/// refers to (§4.2.3 counts conv operations only).
pub fn dense_conv_flops(spec: &ModelSpec) -> u64 {
    spec.conv_shapes().iter().map(conv_flops).sum()
}

/// Convolution FLOPs surviving a channel mask: layer `L` computes
/// `kept(L) × kept_in(L)` of its dense channel product, where `kept_in`
/// for the first conv is the full image depth.
///
/// # Panics
///
/// Panics if the mask block structure does not match the spec.
pub fn masked_conv_flops(spec: &ModelSpec, channels: &ChannelMask) -> u64 {
    let shapes = spec.conv_shapes();
    assert_eq!(shapes.len(), channels.keep().len(), "channel mask does not match spec");
    let mut total = 0u64;
    let mut prev_kept = shapes[0].cin; // input image channels are never pruned
    for (shape, keep) in shapes.iter().zip(channels.keep()) {
        assert_eq!(shape.cout, keep.len(), "channel count mismatch");
        let kept = keep.iter().filter(|&&k| k).count();
        total += 2 * (kept * prev_kept * shape.k * shape.k * shape.out_h * shape.out_w) as u64;
        prev_kept = kept;
    }
    total
}

/// FC FLOPs surviving a channel mask: the first FC layer loses the columns
/// fed by pruned final-conv channels.
pub fn masked_fc_flops(spec: &ModelSpec, channels: &ChannelMask) -> u64 {
    let fcs = spec.fc_shapes();
    #[expect(
        clippy::expect_used,
        reason = "a channel mask has one block per conv layer, and every spec has conv layers"
    )]
    let last_keep = channels.keep().last().expect("mask has blocks");
    let kept = last_keep.iter().filter(|&&k| k).count();
    let spatial = spec.final_spatial();
    let mut total = 0u64;
    for (i, fc) in fcs.iter().enumerate() {
        let fan_in = if i == 0 { kept * spatial } else { fc.fan_in };
        total += 2 * (fan_in * fc.fan_out) as u64;
    }
    total
}

/// FLOPs the *sparse compute path* actually performs for one input under
/// a parameter [`ModelMask`]: each kept conv weight does `out_h·out_w`
/// MACs, each kept FC weight one — exactly the work of the compressed-row
/// kernels ([`RowPattern`](subfed_tensor::sparse::RowPattern)), which
/// keep the same entries. Weight-only, like every count in this module
/// (biases/BN are ignorable); a fully-dense mask reproduces
/// [`dense_flops`].
///
/// Unlike [`masked_conv_flops`] (channel granularity, structured pruning
/// only), this counts individual kept weights, so it also credits
/// unstructured pruning — the quantity the `ClientTrain` trace events
/// report as `effective_flops`.
///
/// # Panics
///
/// Panics if the mask's weight tensors do not line up with the spec.
pub fn effective_flops(spec: &ModelSpec, mask: &ModelMask) -> u64 {
    let convs = spec.conv_shapes();
    let fcs = spec.fc_shapes();
    let (mut conv_i, mut fc_i) = (0usize, 0usize);
    let mut total = 0u64;
    for (&kind, bits) in mask.kinds().iter().zip(mask.tensors()) {
        let kept = || kept_count(bits.data()) as u64;
        match kind {
            ParamKind::ConvWeight => {
                assert!(conv_i < convs.len(), "mask has more conv weights than spec");
                let shape = &convs[conv_i];
                conv_i += 1;
                total += 2 * kept() * (shape.out_h * shape.out_w) as u64;
            }
            ParamKind::FcWeight => {
                assert!(fc_i < fcs.len(), "mask has more fc weights than spec");
                fc_i += 1;
                total += 2 * kept();
            }
            _ => {}
        }
    }
    assert_eq!(conv_i, convs.len(), "mask is missing conv weight tensors");
    assert_eq!(fc_i, fcs.len(), "mask is missing fc weight tensors");
    total
}

/// Conv FLOP reduction factor of a channel mask (the paper's headline
/// `2.4×` at ~50% channels pruned on LeNet-5).
pub fn conv_flop_reduction(spec: &ModelSpec, channels: &ChannelMask) -> f64 {
    dense_conv_flops(spec) as f64 / masked_conv_flops(spec, channels).max(1) as f64
}

/// Trainable parameters surviving a channel mask, counting the filter, its
/// bias, BN γ/β, and the downstream weights each pruned channel removes.
pub fn masked_trainable_params(spec: &ModelSpec, channels: &ChannelMask) -> u64 {
    let shapes = spec.conv_shapes();
    let fcs = spec.fc_shapes();
    let mut total = 0u64;
    let mut prev_kept = shapes[0].cin;
    for (shape, keep) in shapes.iter().zip(channels.keep()) {
        let kept = keep.iter().filter(|&&k| k).count();
        // weight + bias + BN gamma/beta on surviving channels.
        total += (kept * prev_kept * shape.k * shape.k + kept + 2 * kept) as u64;
        prev_kept = kept;
    }
    let spatial = spec.final_spatial();
    for (i, fc) in fcs.iter().enumerate() {
        let fan_in = if i == 0 { prev_kept * spatial } else { fc.fan_in };
        total += (fan_in * fc.fan_out + fc.fan_out) as u64;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use subfed_pruning::ChannelMask;

    fn lenet_paper() -> ModelSpec {
        ModelSpec::lenet5(3, 32, 32, 10)
    }

    fn mask_keeping(spec: &ModelSpec, keep0: usize, keep1: usize) -> ChannelMask {
        let shapes = spec.conv_shapes();
        ChannelMask::from_keep(vec![
            (0..shapes[0].cout).map(|c| c < keep0).collect(),
            (0..shapes[1].cout).map(|c| c < keep1).collect(),
        ])
    }

    #[test]
    fn dense_conv_flops_paper_scale() {
        // conv1: 2*6*3*25*28*28 = 705,600; conv2: 2*16*6*25*10*10 = 480,000
        let spec = lenet_paper();
        let shapes = spec.conv_shapes();
        assert_eq!(conv_flops(&shapes[0]), 705_600);
        assert_eq!(conv_flops(&shapes[1]), 480_000);
        assert_eq!(dense_conv_flops(&spec), 1_185_600);
    }

    #[test]
    fn half_channels_give_paper_2_4x_reduction() {
        // Table 2 / §4.2.3: pruning ~50% of channels ("11 out of 22")
        // yields ~2.4x conv-FLOP reduction.
        let spec = lenet_paper();
        let mask = mask_keeping(&spec, 3, 8); // 11 of 22 kept
        let factor = conv_flop_reduction(&spec, &mask);
        assert!((2.3..2.6).contains(&factor), "factor {factor}");
    }

    #[test]
    fn full_mask_gives_factor_one() {
        let spec = lenet_paper();
        let shapes = spec.conv_shapes();
        let mask = mask_keeping(&spec, shapes[0].cout, shapes[1].cout);
        assert_eq!(masked_conv_flops(&spec, &mask), dense_conv_flops(&spec));
        assert!((conv_flop_reduction(&spec, &mask) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn masked_params_match_paper_anecdote() {
        // §4.2.3: "50% of channels pruned ... the parameter saving is
        // around 38% ... 24k parameters (out of 49k) from the
        // parameter-intensive fully-connected layers are pruned" — with
        // half the final conv channels gone, fc1 loses half its inputs.
        let spec = lenet_paper();
        let dense = spec.num_trainable() as u64;
        let mask = mask_keeping(&spec, 3, 8);
        let kept = masked_trainable_params(&spec, &mask);
        let saving = 1.0 - kept as f64 / dense as f64;
        assert!((0.33..0.48).contains(&saving), "saving {saving}");
    }

    #[test]
    fn fc_flops_track_final_channel_count() {
        let spec = lenet_paper();
        let full = mask_keeping(&spec, 6, 16);
        let half = mask_keeping(&spec, 6, 8);
        let f_full = masked_fc_flops(&spec, &full);
        let f_half = masked_fc_flops(&spec, &half);
        // fc1 dominates; halving its inputs roughly halves fc FLOPs.
        assert!(f_half < f_full);
        let fc1_full = 2 * 400 * 120;
        let fc1_half = 2 * 200 * 120;
        assert_eq!(f_full - f_half, (fc1_full - fc1_half) as u64);
    }

    #[test]
    fn dense_flops_includes_fc() {
        let spec = lenet_paper();
        let fc_total: u64 = spec.fc_shapes().iter().map(fc_flops).sum();
        assert_eq!(dense_flops(&spec), dense_conv_flops(&spec) + fc_total);
        // fc1 400x120 dominates fc FLOPs.
        assert_eq!(fc_total, 2 * (400 * 120 + 120 * 84 + 84 * 10) as u64);
    }

    #[test]
    fn effective_flops_dense_mask_equals_dense_flops() {
        let spec = lenet_paper();
        let model = spec.build(&mut subfed_tensor::init::SeededRng::new(1));
        let mask = ModelMask::ones_for(&model);
        assert_eq!(effective_flops(&spec, &mask), dense_flops(&spec));
    }

    #[test]
    fn effective_flops_scale_with_kept_weights() {
        let spec = lenet_paper();
        let model = spec.build(&mut subfed_tensor::init::SeededRng::new(2));
        let mut mask = ModelMask::ones_for(&model);
        // Zero every other weight of every conv/fc weight tensor.
        for (kind, t) in mask.kinds().to_vec().into_iter().zip(mask.tensors_mut()) {
            if matches!(kind, ParamKind::ConvWeight | ParamKind::FcWeight) {
                for v in t.data_mut().iter_mut().step_by(2) {
                    *v = 0.0;
                }
            }
        }
        let eff = effective_flops(&spec, &mask);
        let dense = dense_flops(&spec);
        assert!(eff < dense);
        // Half the weights gone -> roughly half the FLOPs (rounding from
        // odd tensor lengths only).
        let ratio = eff as f64 / dense as f64;
        assert!((0.45..0.55).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn cnn5_flops_sane() {
        let spec = ModelSpec::cnn5(1, 28, 28, 10);
        // conv1: 2*10*1*25*24*24, conv2: 2*20*10*25*8*8
        assert_eq!(dense_conv_flops(&spec), 2 * (10 * 25 * 576 + 20 * 10 * 25 * 64) as u64);
    }
}
