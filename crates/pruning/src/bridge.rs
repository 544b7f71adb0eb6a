//! Mask → compressed-row bridge.
//!
//! A [`ModelMask`](crate::ModelMask) stores one binary tensor per model
//! parameter. The compute kernels in `subfed_tensor::sparse` want the
//! *kept-index structure* of each weight matrix instead — a
//! [`RowPattern`] built once per round, so pruned layers pay
//! per-kept-weight cost rather than per-element mask checks. This module
//! derives those patterns, viewing each weight tensor the way the kernels
//! do:
//!
//! * `ConvWeight [out_ch, in_ch, kh, kw]` → `out_ch × (in_ch·kh·kw)`
//!   (the im2col kernel matrix),
//! * `FcWeight [out, in]` → `out × in`.
//!
//! Bias and BatchNorm masks have no matrix structure and yield `None`.
//! The layers install these patterns themselves (via
//! `Sequential::install_sparsity`); this bridge exists for everything
//! *outside* the model — FLOP accounting (`subfed_metrics::flops`),
//! benchmarks, and analysis — so they all agree on what "effective work"
//! means.

use subfed_nn::ParamKind;
use subfed_tensor::sparse::RowPattern;

/// Builds the kernel-facing [`RowPattern`] for one weight mask tensor, or
/// `None` for kinds without matrix structure (biases, BatchNorm).
///
/// # Panics
///
/// Panics if a weight tensor's shape does not match its kind's layout.
pub fn weight_pattern(kind: ParamKind, bits: &subfed_tensor::Tensor) -> Option<RowPattern> {
    match kind {
        ParamKind::ConvWeight => {
            assert_eq!(bits.ndim(), 4, "conv weight mask must be 4-D, got {:?}", bits.shape());
            let rows = bits.shape()[0];
            let cols = bits.shape()[1] * bits.shape()[2] * bits.shape()[3];
            Some(RowPattern::from_mask(rows, cols, bits.data()))
        }
        ParamKind::FcWeight => {
            assert_eq!(bits.ndim(), 2, "fc weight mask must be 2-D, got {:?}", bits.shape());
            Some(RowPattern::from_mask(bits.shape()[0], bits.shape()[1], bits.data()))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ModelMask;
    use subfed_nn::models::ModelSpec;
    use subfed_tensor::init::SeededRng;

    #[test]
    fn patterns_align_with_mask_tensors() {
        let model = ModelSpec::lenet5(3, 32, 32, 10).build(&mut SeededRng::new(1));
        let mut mask = ModelMask::ones_for(&model);
        // Prune the whole first conv filter (row 0 of the kernel matrix).
        let first_len: usize = mask.tensors()[0].shape()[1..].iter().product();
        for v in &mut mask.tensors_mut()[0].data_mut()[..first_len] {
            *v = 0.0;
        }
        for (&kind, bits) in mask.kinds().iter().zip(mask.tensors()) {
            match weight_pattern(kind, bits) {
                Some(p) => {
                    assert!(kind.is_prunable_weight());
                    assert_eq!(p.rows() * p.cols(), bits.len());
                }
                None => assert!(!kind.is_prunable_weight()),
            }
        }
        // First conv: row 0 pruned, other rows full.
        let conv1 =
            weight_pattern(mask.kinds()[0], &mask.tensors()[0]).expect("conv weight has a pattern");
        assert_eq!(conv1.row(0), &[] as &[u32]);
        assert_eq!(conv1.row(1).len(), conv1.cols());
        assert_eq!(conv1.nnz(), (conv1.rows() - 1) * conv1.cols());
    }

    #[test]
    fn all_ones_mask_is_fully_dense() {
        let model = ModelSpec::cnn5(1, 16, 16, 4).build(&mut SeededRng::new(2));
        let mask = ModelMask::ones_for(&model);
        for (&kind, bits) in mask.kinds().iter().zip(mask.tensors()) {
            if let Some(pat) = weight_pattern(kind, bits) {
                assert!((pat.density() - 1.0).abs() < 1e-6);
            }
        }
    }
}
