//! Structured (channel-level) pruning via BatchNorm scale factors.
//!
//! Following network slimming (Liu et al. 2017), which the paper adopts
//! verbatim (§3.5 "Structured Pruning"), the importance of channel `c` of a
//! conv block is `|γ_c|` of the following BatchNorm layer. A pruning step
//! removes the channels whose |γ| falls below a percentile of all currently
//! kept channels, across blocks.
//!
//! A pruned channel `c` of block `L` zeroes, in the parameter mask:
//!
//! * conv `L`'s filter `c` (weight row + bias),
//! * BatchNorm `L`'s γ_c and β_c,
//! * the downstream consumer's inputs fed by `c` (input channel `c` of the
//!   next conv, or the `spatial` flattened columns of the next FC layer).
//!
//! The network is masked rather than physically shrunk — forward results
//! are identical, and the flat parameter layout stays fixed, which is what
//! the Sub-FedAvg intersection averaging needs. FLOP savings are computed
//! analytically from the channel mask by `subfed-metrics`.

use crate::unstructured::prune_count;
use subfed_nn::models::{channel_graph_flat, ChannelGraph, Downstream};
use subfed_nn::{ModelMask, ParamMeta, Sequential};

/// Per-block boolean channel keep-lists.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelMask {
    keep: Vec<Vec<bool>>,
}

impl ChannelMask {
    /// All-channels-kept mask for a model.
    pub fn ones_for(graph: &ChannelGraph) -> Self {
        Self { keep: graph.blocks.iter().map(|b| vec![true; b.out_channels]).collect() }
    }

    /// Builds from explicit keep-lists.
    pub fn from_keep(keep: Vec<Vec<bool>>) -> Self {
        Self { keep }
    }

    /// Per-block keep-lists.
    pub fn keep(&self) -> &[Vec<bool>] {
        &self.keep
    }

    /// Kept channels in block `b`.
    pub fn kept_in_block(&self, b: usize) -> usize {
        self.keep[b].iter().filter(|&&k| k).count()
    }

    /// Total channels across blocks.
    pub fn total_channels(&self) -> usize {
        self.keep.iter().map(|b| b.len()).sum()
    }

    /// Fraction of channels pruned.
    pub fn pruned_fraction(&self) -> f32 {
        let total = self.total_channels();
        if total == 0 {
            return 0.0;
        }
        let kept: usize = self.keep.iter().flatten().filter(|&&k| k).count();
        1.0 - kept as f32 / total as f32
    }

    /// Normalised Hamming distance to another channel mask (the Δ_s of
    /// Algorithm 2).
    ///
    /// # Panics
    ///
    /// Panics if the block structures differ.
    pub fn hamming_distance(&self, other: &ChannelMask) -> f32 {
        assert_eq!(self.keep.len(), other.keep.len(), "block count mismatch");
        let mut diff = 0usize;
        let mut total = 0usize;
        for (a, b) in self.keep.iter().zip(other.keep.iter()) {
            assert_eq!(a.len(), b.len(), "channel count mismatch");
            total += a.len();
            diff += a.iter().zip(b.iter()).filter(|(x, y)| x != y).count();
        }
        if total == 0 {
            0.0
        } else {
            diff as f32 / total as f32
        }
    }

    /// Logical AND with another channel mask.
    ///
    /// # Panics
    ///
    /// Panics if the block structures differ.
    pub fn intersect(&mut self, other: &ChannelMask) {
        assert_eq!(self.keep.len(), other.keep.len(), "block count mismatch");
        for (a, b) in self.keep.iter_mut().zip(other.keep.iter()) {
            for (x, &y) in a.iter_mut().zip(b.iter()) {
                *x = *x && y;
            }
        }
    }
}

/// Derives the next channel mask from BatchNorm |γ| of `model`:
/// [`slimming_mask_flat`] over its layout and flattened parameters.
///
/// # Panics
///
/// As [`slimming_mask_flat`].
pub fn slimming_mask(model: &Sequential, current: &ChannelMask, rate: f32) -> ChannelMask {
    slimming_mask_flat(&model.metas(), &model.flatten(), current, rate)
}

/// Derives the next channel mask from the BatchNorm |γ| of a flat
/// parameter snapshot laid out by `layout` (a model's
/// `Sequential::metas`): removes the `rate` fraction of currently kept
/// channels with the smallest |γ| (percentile across all blocks, as in
/// network slimming), keeping at least one channel per block.
///
/// Unlike unstructured pruning this ranks by a full stable sort: a block
/// at its one-channel floor is skipped, so the walk may pass more than the
/// `n_prune` smallest channels, and there are only tens of them.
///
/// # Panics
///
/// Panics if `rate` is outside `[0, 1)`, or the mask does not match the
/// layout's channel graph, or `flat` is too short for the layout.
pub fn slimming_mask_flat(
    layout: &[ParamMeta],
    flat: &[f32],
    current: &ChannelMask,
    rate: f32,
) -> ChannelMask {
    assert!((0.0..1.0).contains(&rate), "prune rate must be in [0, 1), got {rate}");
    let graph = channel_graph_flat(layout);
    assert_eq!(graph.blocks.len(), current.keep.len(), "mask does not match channel graph");
    // Collect (|gamma|, block, channel) of kept channels.
    let mut kept: Vec<(f32, usize, usize)> = Vec::new();
    for (b, (block, keep)) in graph.blocks.iter().zip(&current.keep).enumerate() {
        let gammas = layout[block.bn_gamma].slice(flat);
        assert_eq!(gammas.len(), keep.len(), "gamma/channel count mismatch");
        for (c, (&g, &k)) in gammas.iter().zip(keep).enumerate() {
            if k {
                kept.push((g.abs(), b, c));
            }
        }
    }
    let n_prune = prune_count(kept.len(), rate);
    kept.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut next = current.clone();
    let mut pruned = 0usize;
    for &(_, b, c) in kept.iter() {
        if pruned >= n_prune {
            break;
        }
        // Never empty a block: structured pruning must leave a runnable
        // network.
        if next.kept_in_block(b) <= 1 {
            continue;
        }
        next.keep[b][c] = false;
        pruned += 1;
    }
    next
}

/// Expands a channel mask into a parameter [`ModelMask`] over `model`'s
/// layout: [`expand_channel_mask_flat`] over its `Sequential::metas`.
///
/// # Panics
///
/// As [`expand_channel_mask_flat`].
pub fn expand_channel_mask(
    model: &Sequential,
    channels: &ChannelMask,
    base: &ModelMask,
) -> ModelMask {
    expand_channel_mask_flat(&model.metas(), channels, base)
}

/// Expands a channel mask into a parameter [`ModelMask`] over a flat
/// parameter layout (a model's `Sequential::metas`): the filter, its bias
/// and BN γ/β, and the downstream inputs of every pruned channel are
/// zeroed. `base` supplies the unstructured component (the hybrid
/// algorithm intersects both); pass an all-ones mask for pure structured
/// pruning. Only shapes are read, never weights.
///
/// # Panics
///
/// Panics if `base` or `channels` do not match the layout.
pub fn expand_channel_mask_flat(
    layout: &[ParamMeta],
    channels: &ChannelMask,
    base: &ModelMask,
) -> ModelMask {
    let graph = channel_graph_flat(layout);
    assert_eq!(graph.blocks.len(), channels.keep.len(), "mask does not match channel graph");
    assert_eq!(layout.len(), base.tensors().len(), "base mask does not match model");
    let mut out = base.clone();
    for (b, (block, keep)) in graph.blocks.iter().zip(&channels.keep).enumerate() {
        let w_shape = &layout[block.conv_weight].shape;
        let (out_ch, in_ch, kh, kw) = (w_shape[0], w_shape[1], w_shape[2], w_shape[3]);
        assert_eq!(out_ch, keep.len(), "channel count mismatch in block {b}");
        let filter = in_ch * kh * kw;
        for (c, &keepc) in keep.iter().enumerate() {
            if keepc {
                continue;
            }
            // Filter row.
            let wm = out.tensors_mut()[block.conv_weight].data_mut();
            for v in &mut wm[c * filter..(c + 1) * filter] {
                *v = 0.0;
            }
            // Bias, gamma, beta.
            out.tensors_mut()[block.conv_bias].data_mut()[c] = 0.0;
            out.tensors_mut()[block.bn_gamma].data_mut()[c] = 0.0;
            out.tensors_mut()[block.bn_beta].data_mut()[c] = 0.0;
            // Downstream inputs.
            match block.downstream {
                Downstream::Conv { weight } => {
                    let shape = &layout[weight].shape;
                    let (d_out, d_in, d_kh, d_kw) = (shape[0], shape[1], shape[2], shape[3]);
                    assert!(c < d_in, "channel index out of downstream range");
                    let dm = out.tensors_mut()[weight].data_mut();
                    let ksz = d_kh * d_kw;
                    for o in 0..d_out {
                        let base_off = (o * d_in + c) * ksz;
                        for v in &mut dm[base_off..base_off + ksz] {
                            *v = 0.0;
                        }
                    }
                }
                Downstream::Linear { weight, spatial } => {
                    let shape = &layout[weight].shape;
                    let (d_out, d_in) = (shape[0], shape[1]);
                    let dm = out.tensors_mut()[weight].data_mut();
                    for o in 0..d_out {
                        let row = o * d_in;
                        for s in 0..spatial {
                            dm[row + c * spatial + s] = 0.0;
                        }
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use subfed_nn::models::{channel_graph, ModelSpec};
    use subfed_nn::{Mode, ParamKind};
    use subfed_tensor::init::{uniform, SeededRng};

    fn model() -> Sequential {
        ModelSpec::lenet5(1, 16, 16, 4).build(&mut SeededRng::new(5))
    }

    #[test]
    fn slimming_removes_smallest_gammas() {
        let mut m = model();
        let graph = channel_graph(&m);
        // Set distinguishable gammas: block 0 gets 0.1..0.6, block 1 gets
        // 1..16 scaled.
        {
            let mut params = m.params_mut();
            let g0 = params[graph.blocks[0].bn_gamma].value.data_mut();
            for (i, v) in g0.iter_mut().enumerate() {
                *v = 0.1 * (i + 1) as f32; // 0.1 .. 0.6
            }
        }
        {
            let mut params = m.params_mut();
            let g1 = params[graph.blocks[1].bn_gamma].value.data_mut();
            for (i, v) in g1.iter_mut().enumerate() {
                *v = 1.0 + i as f32; // 1 .. 16
            }
        }
        let current = ChannelMask::ones_for(&graph);
        // 22 channels; prune floor(22*0.25)=5 -> the five smallest gammas,
        // all in block 0 (0.1..0.5).
        let next = slimming_mask(&m, &current, 0.25);
        assert_eq!(next.kept_in_block(0), 1);
        assert_eq!(next.kept_in_block(1), 16);
        assert!(!next.keep()[0][0] && next.keep()[0][5]);
    }

    #[test]
    fn never_empties_a_block() {
        let m = model();
        let graph = channel_graph(&m);
        let mut mask = ChannelMask::ones_for(&graph);
        for _ in 0..30 {
            mask = slimming_mask(&m, &mask, 0.5);
        }
        assert!(mask.kept_in_block(0) >= 1);
        assert!(mask.kept_in_block(1) >= 1);
    }

    #[test]
    fn expansion_zeroes_the_whole_channel_slice() {
        let m = model();
        let graph = channel_graph(&m);
        let mut cm = ChannelMask::ones_for(&graph);
        // Prune channel 2 of block 0.
        let mut keep = cm.keep().to_vec();
        keep[0][2] = false;
        cm = ChannelMask::from_keep(keep);
        let pm = expand_channel_mask(&m, &cm, &ModelMask::ones_for(&m));
        let params = m.params();
        let b0 = &graph.blocks[0];
        // Filter row 2 zeroed.
        let w_shape = params[b0.conv_weight].value.shape();
        let filter = w_shape[1] * w_shape[2] * w_shape[3];
        let wm = pm.tensors()[b0.conv_weight].data();
        assert!(wm[2 * filter..3 * filter].iter().all(|&v| v == 0.0));
        assert!(wm[..2 * filter].iter().all(|&v| v == 1.0));
        // Bias/gamma/beta entry 2 zeroed.
        assert_eq!(pm.tensors()[b0.conv_bias].data()[2], 0.0);
        assert_eq!(pm.tensors()[b0.bn_gamma].data()[2], 0.0);
        assert_eq!(pm.tensors()[b0.bn_beta].data()[2], 0.0);
        // Downstream conv input channel 2 zeroed for every output filter.
        if let Downstream::Conv { weight } = b0.downstream {
            let shape = params[weight].value.shape().to_vec();
            let ksz = shape[2] * shape[3];
            let dm = pm.tensors()[weight].data();
            for o in 0..shape[0] {
                let base = (o * shape[1] + 2) * ksz;
                assert!(dm[base..base + ksz].iter().all(|&v| v == 0.0));
                // Neighbouring input channel untouched.
                let base3 = (o * shape[1] + 3) * ksz;
                assert!(dm[base3..base3 + ksz].iter().all(|&v| v == 1.0));
            }
        } else {
            panic!("block 0 should feed a conv");
        }
    }

    #[test]
    fn expansion_handles_linear_downstream() {
        let m = model();
        let graph = channel_graph(&m);
        let b1 = &graph.blocks[1];
        let mut keep = ChannelMask::ones_for(&graph).keep().to_vec();
        keep[1][0] = false;
        let cm = ChannelMask::from_keep(keep);
        let pm = expand_channel_mask(&m, &cm, &ModelMask::ones_for(&m));
        if let Downstream::Linear { weight, spatial } = b1.downstream {
            let dm = pm.tensors()[weight].data();
            let d_in = m.params()[weight].value.shape()[1];
            for o in 0..m.params()[weight].value.shape()[0] {
                // Columns 0..spatial (channel 0) zeroed; the rest kept.
                assert!(dm[o * d_in..o * d_in + spatial].iter().all(|&v| v == 0.0));
                assert!(dm[o * d_in + spatial..(o + 1) * d_in].iter().all(|&v| v == 1.0));
            }
        } else {
            panic!("block 1 should feed a linear layer");
        }
    }

    #[test]
    fn masked_channel_produces_zero_activation_equivalence() {
        // Forward pass with a masked model equals forward pass of a model
        // whose pruned channel never existed (checked via logits equality
        // with the channel's contribution removed by masking).
        let mut rng = SeededRng::new(6);
        let mut m = model();
        let graph = channel_graph(&m);
        let mut keep = ChannelMask::ones_for(&graph).keep().to_vec();
        keep[0][1] = false;
        keep[1][3] = false;
        let cm = ChannelMask::from_keep(keep);
        let pm = expand_channel_mask(&m, &cm, &ModelMask::ones_for(&m));
        pm.apply(&mut m);
        let x = uniform(&[2, 1, 16, 16], -1.0, 1.0, &mut rng);
        let y1 = m.forward(&x, Mode::Eval);
        // Applying the mask twice changes nothing (idempotence of the
        // zeroed subnetwork).
        pm.apply(&mut m);
        let y2 = m.forward(&x, Mode::Eval);
        subfed_tensor::assert_slice_close(y1.data(), y2.data(), 1e-6, 0.0);
        assert!(y1.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn hamming_distance_and_intersect() {
        let m = model();
        let graph = channel_graph(&m);
        let a = ChannelMask::ones_for(&graph);
        let mut keep = a.keep().to_vec();
        keep[0][0] = false;
        keep[1][5] = false;
        let b = ChannelMask::from_keep(keep);
        let d = a.hamming_distance(&b);
        assert!((d - 2.0 / 22.0).abs() < 1e-6);
        let mut c = a.clone();
        c.intersect(&b);
        assert_eq!(c, b);
        assert!((c.pruned_fraction() - 2.0 / 22.0).abs() < 1e-6);
    }

    #[test]
    fn unstructured_base_is_preserved_by_expansion() {
        let m = model();
        let graph = channel_graph(&m);
        let mut base = ModelMask::ones_for(&m);
        // Zero an arbitrary FC weight entry in the base mask.
        let fc_idx = m
            .params()
            .iter()
            .position(|p| p.kind == ParamKind::FcWeight)
            .expect("model has FC weights");
        base.tensors_mut()[fc_idx].data_mut()[7] = 0.0;
        let cm = ChannelMask::ones_for(&graph);
        let pm = expand_channel_mask(&m, &cm, &base);
        assert_eq!(pm.tensors()[fc_idx].data()[7], 0.0);
    }
}
