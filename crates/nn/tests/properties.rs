//! Property-based tests of the NN substrate: serialization, masking, loss
//! geometry, and normalisation invariants.

use proptest::prelude::*;
use subfed_nn::loss::softmax_cross_entropy;
use subfed_nn::models::ModelSpec;
use subfed_nn::optim::Sgd;
use subfed_nn::{Mode, ModelMask, Sequential};
use subfed_tensor::init::{uniform, SeededRng};
use subfed_tensor::Tensor;

fn spec_strategy() -> impl Strategy<Value = ModelSpec> {
    prop::sample::select(vec![
        ModelSpec::cnn5(1, 16, 16, 4),
        ModelSpec::cnn5(1, 16, 16, 10),
        ModelSpec::lenet5(1, 16, 16, 5),
        ModelSpec::lenet5(3, 16, 16, 10),
    ])
}

fn build(spec: ModelSpec, seed: u64) -> Sequential {
    spec.build(&mut SeededRng::new(seed))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn flatten_load_roundtrip(spec in spec_strategy(), seed in 0u64..1000) {
        let m = build(spec, seed);
        let flat = m.flatten();
        prop_assert_eq!(flat.len(), m.num_params());
        let mut other = build(spec, seed ^ 0xFFFF);
        other.load_flat(&flat);
        prop_assert_eq!(other.flatten(), flat);
    }

    #[test]
    fn metas_tile_the_flat_vector(spec in spec_strategy(), seed in 0u64..1000) {
        let m = build(spec, seed);
        let metas = m.metas();
        let mut expected_offset = 0;
        for meta in &metas {
            prop_assert_eq!(meta.offset, expected_offset);
            prop_assert_eq!(meta.len, meta.shape.iter().product::<usize>());
            expected_offset += meta.len;
        }
        prop_assert_eq!(expected_offset, m.num_params());
    }

    #[test]
    fn forward_is_deterministic_in_eval(spec in spec_strategy(), seed in 0u64..1000) {
        let mut m = build(spec, seed);
        let [c, h, w] = spec.input_shape();
        let mut rng = SeededRng::new(seed ^ 3);
        let x = uniform(&[2, c, h, w], -1.0, 1.0, &mut rng);
        let y1 = m.forward(&x, Mode::Eval);
        let y2 = m.forward(&x, Mode::Eval);
        prop_assert_eq!(y1.data(), y2.data());
        prop_assert_eq!(y1.shape(), &[2, spec.classes()][..]);
        prop_assert!(y1.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn masked_step_preserves_zeros(
        spec in spec_strategy(),
        seed in 0u64..1000,
        keep_prob in 0.2f32..0.9,
    ) {
        let mut m = build(spec, seed);
        let mut mask = ModelMask::ones_for(&m);
        let mut rng = SeededRng::new(seed ^ 5);
        let kinds = mask.kinds().to_vec();
        for (t, kind) in mask.tensors_mut().iter_mut().zip(kinds) {
            if kind.is_prunable_weight() {
                for v in t.data_mut() {
                    if rng.uniform_f32(0.0, 1.0) > keep_prob {
                        *v = 0.0;
                    }
                }
            }
        }
        mask.apply(&mut m);
        let [c, h, w] = spec.input_shape();
        let x = uniform(&[4, c, h, w], -1.0, 1.0, &mut rng);
        let labels: Vec<usize> = (0..4).map(|i| i % spec.classes()).collect();
        let mut opt = Sgd::new(0.05, 0.5);
        for _ in 0..2 {
            let logits = m.forward(&x, Mode::Train);
            let (_, grad) = softmax_cross_entropy(&logits, &labels);
            m.backward_ws(&grad, &mut subfed_tensor::workspace::Workspace::new());
            opt.step(&mut m, Some(&mask), None);
        }
        for (p, t) in m.params().iter().zip(mask.tensors()) {
            for (&w, &mk) in p.value.data().iter().zip(t.data()) {
                if mk == 0.0 {
                    prop_assert_eq!(w, 0.0, "masked weight moved in {:?}", p.kind);
                }
            }
        }
    }

    #[test]
    fn training_mode_batchnorm_normalises_any_input(
        seed in 0u64..1000,
        scale in 0.5f32..20.0,
        offset in -10.0f32..10.0,
    ) {
        use subfed_nn::layers::BatchNorm2d;
        use subfed_nn::Layer as _;
        let mut bn = BatchNorm2d::new(2);
        let mut rng = SeededRng::new(seed);
        let x = uniform(&[4, 2, 4, 4], -1.0, 1.0, &mut rng)
            .scale(scale)
            .add_scalar(offset);
        let y = bn.forward(&x, Mode::Train);
        // Output statistics are unit regardless of the input affine.
        let plane = 16;
        for ch in 0..2 {
            let mut vals = Vec::new();
            for i in 0..4 {
                let base = (i * 2 + ch) * plane;
                vals.extend_from_slice(&y.data()[base..base + plane]);
            }
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            let var: f32 =
                vals.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / vals.len() as f32;
            prop_assert!(mean.abs() < 1e-3, "mean {mean}");
            prop_assert!((var - 1.0).abs() < 0.05, "var {var}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cross_entropy_is_nonnegative_with_zero_sum_grad_rows(
        logits in prop::collection::vec(-30.0f32..30.0, 12),
        labels in prop::collection::vec(0usize..4, 3),
    ) {
        let t = Tensor::from_vec(vec![3, 4], logits).unwrap();
        let (loss, grad) = softmax_cross_entropy(&t, &labels);
        prop_assert!(loss >= -1e-6, "negative loss {loss}");
        prop_assert!(loss.is_finite());
        for r in 0..3 {
            let s: f32 = grad.data()[r * 4..(r + 1) * 4].iter().sum();
            prop_assert!(s.abs() < 1e-5, "grad row {r} sums to {s}");
        }
    }

    #[test]
    fn cross_entropy_is_minimised_at_the_true_label(
        base in prop::collection::vec(-2.0f32..2.0, 5),
        label in 0usize..5,
        boost in 1.0f32..20.0,
    ) {
        let plain = Tensor::from_vec(vec![1, 5], base.clone()).unwrap();
        let (l_plain, _) = softmax_cross_entropy(&plain, &[label]);
        let mut boosted = base;
        boosted[label] += boost;
        let t = Tensor::from_vec(vec![1, 5], boosted).unwrap();
        let (l_boost, _) = softmax_cross_entropy(&t, &[label]);
        prop_assert!(l_boost <= l_plain + 1e-5,
            "raising the true logit must not raise the loss");
    }
}

/// The lowered composition train-mode `Conv2d` ran before it learned to
/// skip the patch matrix: `im2col_batch` → `gemm_ws`/`spmm` → permute +
/// bias forward; `gemm_nt`/`masked_dot_nt` for the weight gradient, row
/// sums for the bias gradient, and `gemm_tn_ws`/`spmm_t` → `col2im_batch`
/// for the input gradient. Returns `(y, dW, db, dX)`; an eval-mode
/// forward must produce the same `y`.
fn lowered_conv_oracle(
    x: &Tensor,
    geom: &subfed_tensor::conv::ConvGeom,
    weight: &[f32],
    bias: &[f32],
    pattern: Option<&subfed_tensor::sparse::RowPattern>,
    dy: &[f32],
) -> [Vec<f32>; 4] {
    use subfed_tensor::conv::{col2im_batch, im2col_batch};
    use subfed_tensor::linalg::{gemm_nt, gemm_tn_ws, gemm_ws};
    use subfed_tensor::sparse::{masked_dot_nt, spmm, spmm_t};
    let mut ws = subfed_tensor::workspace::Workspace::new();
    let n = x.shape()[0];
    let (cout, cr, cc) = (bias.len(), geom.col_rows(), geom.col_cols());
    let fused = n * cc;
    let mut cols = vec![0.0; cr * fused];
    im2col_batch(x.data(), geom, n, &mut cols);
    let mut prod = vec![0.0; cout * fused];
    match pattern {
        Some(p) => spmm(p, weight, &cols, fused, &mut prod),
        None => gemm_ws(cout, cr, fused, weight, &cols, &mut prod, &mut ws),
    }
    let mut y = Vec::with_capacity(n * cout * cc);
    let mut dym = vec![0.0; cout * fused];
    for i in 0..n {
        for oc in 0..cout {
            let at = oc * fused + i * cc;
            y.extend(prod[at..at + cc].iter().map(|&s| s + bias[oc]));
            dym[at..at + cc].copy_from_slice(&dy[(i * cout + oc) * cc..][..cc]);
        }
    }
    let mut dw = vec![0.0; cout * cr];
    match pattern {
        Some(p) => masked_dot_nt(p, &dym, &cols, fused, &mut dw),
        None => gemm_nt(cout, fused, cr, &dym, &cols, &mut dw),
    }
    let db: Vec<f32> = dym.chunks_exact(fused).map(|r| r.iter().sum::<f32>()).collect();
    let mut dcols = vec![0.0; cr * fused];
    match pattern {
        Some(p) => spmm_t(p, weight, &dym, fused, &mut dcols),
        None => gemm_tn_ws(cout, cr, fused, weight, &dym, &mut dcols, &mut ws),
    }
    let mut dx = vec![0.0; x.len()];
    col2im_batch(&dcols, geom, n, &mut dx);
    [y, dw, db, dx]
}

/// A workspace whose pooled buffers are full of NaN, so any read of a
/// scratch element before it is written poisons the result.
fn nan_dirtied_workspace() -> subfed_tensor::workspace::Workspace {
    let mut ws = subfed_tensor::workspace::Workspace::new();
    let mut bufs: Vec<Vec<f32>> = (4..21).step_by(2).map(|s| ws.take_scratch(1 << s)).collect();
    for mut b in bufs.drain(..) {
        b.fill(f32::NAN);
        ws.put(b);
    }
    ws
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn train_conv_matches_the_lowered_composition_bit_for_bit() {
    use subfed_nn::layers::Conv2d;
    use subfed_nn::Layer;
    use subfed_tensor::conv::ConvGeom;
    use subfed_tensor::sparse::{RowPattern, SPARSE_DENSITY_MAX};
    // (in_ch, out_ch, kernel, stride, pad, side): LeNet-5 and CNN-5
    // conv1/conv2 at the 16×16 presets (conv2's output rows are 2 px), at
    // paper scale (32×32 LeNet-5 and 28×28 CNN-5, whose conv2 rows are 10
    // and 8 px), VGG-lite's padded 3×3 conv, and a strided padded one; the
    // last two lower their forward but stream their masked backward.
    let shapes = [
        (3, 6, 5, 1, 0, 16),
        (6, 16, 5, 1, 0, 6),
        (1, 10, 5, 1, 0, 16),
        (10, 20, 5, 1, 0, 6),
        (3, 6, 5, 1, 0, 32),
        (6, 16, 5, 1, 0, 14),
        (1, 10, 5, 1, 0, 28),
        (10, 20, 5, 1, 0, 12),
        (3, 12, 3, 1, 1, 16),
        (4, 6, 3, 2, 1, 9),
    ];
    // Masks: none, random densities (0.9 stays on the dense kernels, the
    // rest install a pattern), a 0.5 mask with one fully pruned output
    // channel, one with a patch column no kept weight uses, and all-zero.
    let masks = ["none", "0.9", "0.7", "0.5", "0.09", "dead-channel", "dead-column", "zero"];
    let mut rng = SeededRng::new(2024);
    let mut cases = 0;
    for &(cin, cout, k, stride, pad, side) in &shapes {
        let geom = ConvGeom { channels: cin, height: side, width: side, kh: k, kw: k, stride, pad };
        let cr = geom.col_rows();
        for &batch in &[1usize, 10, 6] {
            for mask in masks {
                let bits_w: Vec<f32> = (0..cout * cr)
                    .map(|t| {
                        let coin = rng.uniform_f32(0.0, 1.0);
                        let keep = match mask {
                            "none" => true,
                            "dead-channel" => coin < 0.5 && t / cr != cout / 2,
                            "dead-column" => coin < 0.5 && t % cr != cr / 3,
                            "zero" => false,
                            density => coin < density.parse::<f32>().unwrap(),
                        };
                        if keep {
                            1.0
                        } else {
                            0.0
                        }
                    })
                    .collect();
                let mut conv = Conv2d::new(cin, cout, k, stride, pad, &mut rng);
                for (v, &b) in conv.params_mut()[0].value.data_mut().iter_mut().zip(&bits_w) {
                    *v *= b;
                }
                if mask != "none" {
                    let wm = Tensor::from_vec(vec![cout, cin, k, k], bits_w.clone()).unwrap();
                    conv.install_sparsity(&[&wm, &Tensor::full(&[cout], 1.0)]);
                }
                let pat = RowPattern::from_mask(cout, cr, &bits_w);
                let pattern =
                    (mask != "none" && pat.density() <= SPARSE_DENSITY_MAX).then_some(&pat);
                assert_eq!(conv.has_sparse_path(), pattern.is_some(), "{mask}");
                let x = uniform(&[batch, cin, side, side], -1.0, 1.0, &mut rng);
                let (oh, ow) = (geom.out_h(), geom.out_w());
                let dy = uniform(&[batch, cout, oh, ow], -1.0, 1.0, &mut rng);
                let weight = conv.params()[0].value.data().to_vec();
                let bias = conv.params()[1].value.data().to_vec();
                let [y0, dw0, db0, dx0] =
                    lowered_conv_oracle(&x, &geom, &weight, &bias, pattern, dy.data());
                for dirty in [false, true] {
                    let case = format!(
                        "{cin}->{cout} k{k} s{stride} p{pad} {side}px n{batch} {mask} dirty {dirty}"
                    );
                    let mut ws = if dirty {
                        nan_dirtied_workspace()
                    } else {
                        subfed_tensor::workspace::Workspace::new()
                    };
                    // Eval runs the training kernels and keeps no cache.
                    let ye = conv.forward_ws(&x, Mode::Eval, &mut ws);
                    assert_eq!(bits(ye.data()), bits(&y0), "eval forward, {case}");
                    let y = conv.forward_ws(&x, Mode::Train, &mut ws);
                    let dx = conv.backward_ws(&dy, &mut ws);
                    assert_eq!(bits(y.data()), bits(&y0), "forward, {case}");
                    assert_eq!(bits(conv.params()[0].grad.data()), bits(&dw0), "dW, {case}");
                    assert_eq!(bits(conv.params()[1].grad.data()), bits(&db0), "db, {case}");
                    assert_eq!(bits(dx.data()), bits(&dx0), "dX, {case}");
                    // The first-layer backward fills the same gradients.
                    let y = conv.forward_ws(&x, Mode::Train, &mut ws);
                    conv.backward_params_ws(&dy, &mut ws);
                    assert_eq!(bits(y.data()), bits(&y0), "forward again, {case}");
                    assert_eq!(bits(conv.params()[0].grad.data()), bits(&dw0), "dW only, {case}");
                    assert_eq!(bits(conv.params()[1].grad.data()), bits(&db0), "db only, {case}");
                    cases += 1;
                }
            }
        }
    }
    assert_eq!(cases, shapes.len() * 3 * masks.len() * 2);
}
