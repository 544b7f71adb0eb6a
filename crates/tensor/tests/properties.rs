//! Property-based tests of the tensor substrate's algebraic invariants,
//! plus new-vs-naive equivalence of the blocked and mask-derived kernels
//! (including the degenerate shapes: zero inner dimension, fully-pruned
//! rows, batch of one, stride > 1 with padding).

use proptest::prelude::*;
use subfed_tensor::conv::{col2im, im2col, ConvGeom};
use subfed_tensor::linalg::{
    gemm, matmul, matmul_nt, matmul_tn, naive_matmul, naive_matmul_nt, naive_matmul_tn, transpose,
};
use subfed_tensor::reduce::{argmax_rows, softmax_rows};
use subfed_tensor::sparse::{masked_dot_nt, spmm, spmm_t, RectPattern, RowPattern};
use subfed_tensor::workspace::Workspace;
use subfed_tensor::Tensor;

fn tensor2(rows: usize, cols: usize) -> impl Strategy<Value = Tensor> {
    prop::collection::vec(-10.0f32..10.0, rows * cols)
        .prop_map(move |data| Tensor::from_vec(vec![rows, cols], data).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn matmul_distributes_over_addition(
        a in tensor2(4, 5),
        b in tensor2(5, 3),
        c in tensor2(5, 3),
    ) {
        let lhs = matmul(&a, &b.add(&c));
        let rhs = matmul(&a, &b).add(&matmul(&a, &c));
        subfed_tensor::assert_slice_close(lhs.data(), rhs.data(), 1e-2, 1e-3);
    }

    #[test]
    fn matmul_scalar_commutes(a in tensor2(3, 4), b in tensor2(4, 2), s in -3.0f32..3.0) {
        let lhs = matmul(&a.scale(s), &b);
        let rhs = matmul(&a, &b).scale(s);
        subfed_tensor::assert_slice_close(lhs.data(), rhs.data(), 1e-2, 1e-3);
    }

    #[test]
    fn transpose_is_involutive(a in tensor2(5, 7)) {
        prop_assert_eq!(transpose(&transpose(&a)), a);
    }

    #[test]
    fn matmul_transpose_identity(a in tensor2(4, 6), b in tensor2(6, 3)) {
        // (A·B)ᵀ = Bᵀ·Aᵀ
        let lhs = transpose(&matmul(&a, &b));
        let rhs = matmul(&transpose(&b), &transpose(&a));
        subfed_tensor::assert_slice_close(lhs.data(), rhs.data(), 1e-3, 1e-4);
    }

    #[test]
    fn tn_and_nt_agree_with_explicit_transpose(a in tensor2(5, 4), b in tensor2(5, 3)) {
        let tn = matmul_tn(&a, &b);
        let explicit = matmul(&transpose(&a), &b);
        subfed_tensor::assert_slice_close(tn.data(), explicit.data(), 1e-3, 1e-4);
        let c = transpose(&b); // [3, 5]
        let nt = matmul_nt(&transpose(&a), &c); // Aᵀ: [4,5] x cᵀ -> [4, 3]
        subfed_tensor::assert_slice_close(nt.data(), explicit.data(), 1e-3, 1e-4);
    }

    #[test]
    fn softmax_rows_live_on_the_simplex(a in tensor2(6, 5)) {
        let s = softmax_rows(&a);
        for r in 0..6 {
            let row = &s.data()[r * 5..(r + 1) * 5];
            let sum: f32 = row.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-5);
            prop_assert!(row.iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn softmax_preserves_argmax(a in tensor2(4, 6)) {
        let before = argmax_rows(&a);
        let after = argmax_rows(&softmax_rows(&a));
        prop_assert_eq!(before, after);
    }

    #[test]
    fn softmax_is_shift_invariant(a in tensor2(3, 4), shift in -50.0f32..50.0) {
        let s1 = softmax_rows(&a);
        let s2 = softmax_rows(&a.add_scalar(shift));
        subfed_tensor::assert_slice_close(s1.data(), s2.data(), 1e-4, 1e-4);
    }

    #[test]
    fn axpy_matches_definition(
        a in tensor2(3, 3),
        b in tensor2(3, 3),
        alpha in -2.0f32..2.0,
    ) {
        let mut x = a.clone();
        x.axpy(alpha, &b);
        let expected = a.add(&b.scale(alpha));
        subfed_tensor::assert_slice_close(x.data(), expected.data(), 1e-4, 1e-4);
    }

    #[test]
    fn reshape_preserves_sum(a in tensor2(4, 6)) {
        let r = a.reshape(&[2, 12]).unwrap();
        prop_assert!((r.sum() - a.sum()).abs() < 1e-3);
        prop_assert_eq!(r.data(), a.data());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn im2col_col2im_adjoint_random_geometry(
        c in 1usize..3,
        h in 4usize..9,
        w in 4usize..9,
        k in 1usize..4,
        stride in 1usize..3,
        pad in 0usize..2,
        seed in 0u64..1000,
    ) {
        prop_assume!(h + 2 * pad >= k && w + 2 * pad >= k);
        let geom = ConvGeom { channels: c, height: h, width: w, kh: k, kw: k, stride, pad };
        let mut rng = subfed_tensor::init::SeededRng::new(seed);
        let x = subfed_tensor::init::uniform(&[c * h * w], -1.0, 1.0, &mut rng);
        let y = subfed_tensor::init::uniform(
            &[geom.col_rows() * geom.col_cols()], -1.0, 1.0, &mut rng,
        );
        let mut cols = vec![0.0; y.len()];
        im2col(x.data(), &geom, &mut cols);
        let lhs: f32 = cols.iter().zip(y.data()).map(|(a, b)| a * b).sum();
        let mut xg = vec![0.0; x.len()];
        col2im(y.data(), &geom, &mut xg);
        let rhs: f32 = x.data().iter().zip(xg.iter()).map(|(a, b)| a * b).sum();
        prop_assert!((lhs - rhs).abs() < 1e-2 * (1.0 + lhs.abs()),
            "adjoint identity broken: {lhs} vs {rhs}");
    }

    #[test]
    fn im2col_is_linear(
        seed in 0u64..1000,
        alpha in -2.0f32..2.0,
    ) {
        let geom = ConvGeom { channels: 2, height: 6, width: 6, kh: 3, kw: 3, stride: 1, pad: 1 };
        let mut rng = subfed_tensor::init::SeededRng::new(seed);
        let x1 = subfed_tensor::init::uniform(&[72], -1.0, 1.0, &mut rng);
        let x2 = subfed_tensor::init::uniform(&[72], -1.0, 1.0, &mut rng);
        let n = geom.col_rows() * geom.col_cols();
        let mut c1 = vec![0.0; n];
        let mut c2 = vec![0.0; n];
        let mut c12 = vec![0.0; n];
        im2col(x1.data(), &geom, &mut c1);
        im2col(x2.data(), &geom, &mut c2);
        let combined: Vec<f32> =
            x1.data().iter().zip(x2.data()).map(|(a, b)| a + alpha * b).collect();
        im2col(&combined, &geom, &mut c12);
        for i in 0..n {
            prop_assert!((c12[i] - (c1[i] + alpha * c2[i])).abs() < 1e-4);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn blocked_kernels_match_naive(
        m in 1usize..20,
        k in 1usize..40,
        n in 1usize..40,
        seed in 0u64..1000,
    ) {
        let mut rng = subfed_tensor::init::SeededRng::new(seed);
        let a = subfed_tensor::init::uniform(&[m, k], -1.0, 1.0, &mut rng);
        let b = subfed_tensor::init::uniform(&[k, n], -1.0, 1.0, &mut rng);
        subfed_tensor::assert_slice_close(
            matmul(&a, &b).data(), naive_matmul(&a, &b).data(), 1e-4, 1e-4);
        let at = transpose(&a); // [k, m]
        subfed_tensor::assert_slice_close(
            matmul_tn(&at, &b).data(), naive_matmul_tn(&at, &b).data(), 1e-4, 1e-4);
        let bt = transpose(&b); // [n, k]
        subfed_tensor::assert_slice_close(
            matmul_nt(&a, &bt).data(), naive_matmul_nt(&a, &bt).data(), 1e-4, 1e-4);
    }

    #[test]
    fn sparse_kernels_match_masked_dense(
        rows in 1usize..12,
        cols in 1usize..30,
        n in 1usize..40,
        density in 0.0f32..1.0,
        seed in 0u64..1000,
    ) {
        let mut rng = subfed_tensor::init::SeededRng::new(seed);
        let bits: Vec<f32> = (0..rows * cols)
            .map(|_| if rng.uniform_f32(0.0, 1.0) < density { 1.0 } else { 0.0 })
            .collect();
        let mut w = subfed_tensor::init::uniform(&[rows, cols], -1.0, 1.0, &mut rng);
        for (v, &bit) in w.data_mut().iter_mut().zip(&bits) {
            *v *= bit;
        }
        let pat = RowPattern::from_mask(rows, cols, &bits);

        let b = subfed_tensor::init::uniform(&[cols, n], -1.0, 1.0, &mut rng);
        let mut out = vec![0.0f32; rows * n];
        spmm(&pat, w.data(), b.data(), n, &mut out);
        subfed_tensor::assert_slice_close(&out, naive_matmul(&w, &b).data(), 1e-4, 1e-4);

        let bt = subfed_tensor::init::uniform(&[rows, n], -1.0, 1.0, &mut rng);
        let mut out_t = vec![0.0f32; cols * n];
        spmm_t(&pat, w.data(), bt.data(), n, &mut out_t);
        subfed_tensor::assert_slice_close(&out_t, naive_matmul_tn(&w, &bt).data(), 1e-4, 1e-4);

        let a = subfed_tensor::init::uniform(&[rows, n], -1.0, 1.0, &mut rng);
        let c = subfed_tensor::init::uniform(&[cols, n], -1.0, 1.0, &mut rng);
        let mut dw = vec![0.0f32; rows * cols];
        masked_dot_nt(&pat, a.data(), c.data(), n, &mut dw);
        let mut dense = naive_matmul_nt(&a, &c);
        for (v, &bit) in dense.data_mut().iter_mut().zip(&bits) {
            *v *= bit;
        }
        subfed_tensor::assert_slice_close(&dw, dense.data(), 1e-4, 1e-4);
    }

    #[test]
    fn rect_pattern_factorises_structured_masks(
        rows in 1usize..10,
        in_ch in 1usize..6,
        taps in 1usize..9,
        keep_row_bits in prop::collection::vec(prop::bool::ANY, 10),
        keep_col_bits in prop::collection::vec(prop::bool::ANY, 6),
        seed in 0u64..1000,
    ) {
        // Build a structured mask: whole rows × whole input-channel blocks.
        let cols = in_ch * taps;
        let bits: Vec<f32> = (0..rows * cols)
            .map(|t| {
                let (r, c) = (t / cols, t % cols);
                if keep_row_bits[r] && keep_col_bits[c / taps] { 1.0 } else { 0.0 }
            })
            .collect();
        let pat = RowPattern::from_mask(rows, cols, &bits);
        let rect = RectPattern::from_pattern(&pat);
        prop_assert!(rect.is_some(), "structured mask must factorise");
        let rect = rect.unwrap();
        // Keeping zero input channels empties every row, so the expected
        // rectangle collapses entirely in that case.
        let kept_ch = keep_col_bits[..in_ch].iter().filter(|&&b| b).count();
        let kept_rows = if kept_ch == 0 {
            0
        } else {
            keep_row_bits[..rows].iter().filter(|&&b| b).count()
        };
        let used_cols = if kept_rows == 0 { 0 } else { kept_ch * taps };
        prop_assert_eq!(rect.keep_rows().len(), kept_rows);
        prop_assert_eq!(rect.used_cols().len(), used_cols);

        // Compact gemm over the gathered rectangle == masked dense product.
        let mut rng = subfed_tensor::init::SeededRng::new(seed);
        let mut w = subfed_tensor::init::uniform(&[rows, cols], -1.0, 1.0, &mut rng);
        for (v, &bit) in w.data_mut().iter_mut().zip(&bits) {
            *v *= bit;
        }
        let n = 7;
        let b = subfed_tensor::init::uniform(&[cols, n], -1.0, 1.0, &mut rng);
        let wc: Vec<f32> = rect
            .keep_rows()
            .iter()
            .flat_map(|&r| rect.used_cols().iter().map(move |&c| (r as usize, c as usize)))
            .map(|(r, c)| w.data()[r * cols + c])
            .collect();
        let bc: Vec<f32> = rect
            .used_cols()
            .iter()
            .flat_map(|&c| b.data()[c as usize * n..(c as usize + 1) * n].to_vec())
            .collect();
        let mut prod = vec![0.0f32; kept_rows * n];
        gemm(kept_rows, used_cols, n, &wc, &bc, &mut prod);
        let full = naive_matmul(&w, &b);
        for (p, &r) in rect.keep_rows().iter().enumerate() {
            subfed_tensor::assert_slice_close(
                &prod[p * n..(p + 1) * n],
                &full.data()[r as usize * n..(r as usize + 1) * n],
                1e-4,
                1e-4,
            );
        }
    }

    #[test]
    fn take_scratch_reuse_is_bit_identical_for_kernels(
        m in 1usize..8,
        k in 1usize..16,
        n in 1usize..24,
        density in 0.0f32..1.0,
        seed in 0u64..1000,
    ) {
        // The kernels overwrite their outputs in full, so running them in
        // a dirty reused scratch buffer must be bit-identical to a fresh
        // zeroed allocation.
        let mut rng = subfed_tensor::init::SeededRng::new(seed);
        let a = subfed_tensor::init::uniform(&[m, k], -1.0, 1.0, &mut rng);
        let b = subfed_tensor::init::uniform(&[k, n], -1.0, 1.0, &mut rng);
        let mut fresh = vec![0.0f32; m * n];
        gemm(m, k, n, a.data(), b.data(), &mut fresh);

        let mut ws = Workspace::new();
        let mut dirty = ws.take(m * n + 3);
        dirty.iter_mut().for_each(|v| *v = f32::NAN);
        ws.put(dirty);
        let mut reused = ws.take_scratch(m * n);
        gemm(m, k, n, a.data(), b.data(), &mut reused);
        prop_assert_eq!(&fresh, &reused);

        let bits: Vec<f32> = (0..m * k)
            .map(|_| if rng.uniform_f32(0.0, 1.0) < density { 1.0 } else { 0.0 })
            .collect();
        let pat = RowPattern::from_mask(m, k, &bits);
        let bk = subfed_tensor::init::uniform(&[k, n], -1.0, 1.0, &mut rng);
        let mut fresh_s = vec![0.0f32; m * n];
        spmm(&pat, a.data(), bk.data(), n, &mut fresh_s);
        reused.iter_mut().for_each(|v| *v = f32::NAN);
        ws.put(reused);
        let mut reused_s = ws.take_scratch(m * n);
        spmm(&pat, a.data(), bk.data(), n, &mut reused_s);
        prop_assert_eq!(&fresh_s, &reused_s);
    }
}

#[test]
fn blocked_kernels_handle_zero_inner_dimension() {
    // k = 0: the product is all zeros and must not read the empty inputs.
    let (m, n) = (3, 5);
    let mut out = vec![7.0f32; m * n];
    gemm(m, 0, n, &[], &[], &mut out);
    assert_eq!(out, vec![0.0; m * n]);
}

#[test]
fn rect_pattern_rejects_ragged_masks() {
    // Two kept rows with different column support: not rectangular.
    let bits = vec![
        1.0, 0.0, 1.0, //
        1.0, 1.0, 0.0,
    ];
    let pat = RowPattern::from_mask(2, 3, &bits);
    assert!(RectPattern::from_pattern(&pat).is_none());
    // Empty rows are fine as long as the kept rows agree.
    let bits = vec![
        0.0, 0.0, 0.0, //
        1.0, 0.0, 1.0,
    ];
    let pat = RowPattern::from_mask(2, 3, &bits);
    let rect = RectPattern::from_pattern(&pat).expect("single-support mask");
    assert_eq!(rect.keep_rows(), &[1]);
    assert_eq!(rect.used_cols(), &[0, 2]);
    // A fully-pruned matrix factorises into the empty rectangle.
    let pat = RowPattern::from_mask(2, 3, &[0.0; 6]);
    let rect = RectPattern::from_pattern(&pat).expect("empty mask");
    assert!(rect.keep_rows().is_empty() && rect.used_cols().is_empty());
}
