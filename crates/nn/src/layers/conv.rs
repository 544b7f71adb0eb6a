use crate::layer::take_cache;
use crate::{Layer, Mode, Param, ParamKind};
use subfed_tensor::conv::{
    build_taps_sparse, col2im_batch, conv2d_input_grad_streamed, conv2d_taps_batch,
    conv2d_weight_grad_streamed, im2col_batch, taps_supported, ConvGeom,
};
use subfed_tensor::init::{kaiming_uniform, SeededRng};
use subfed_tensor::linalg::{gemm_nt, gemm_tn_ws, gemm_ws};
use subfed_tensor::sparse::{sparse_enough, spmm, RowPattern};
use subfed_tensor::workspace::Workspace;
use subfed_tensor::Tensor;

/// 2-D convolution with square kernels.
///
/// Weight layout is `[out_ch, in_ch, kh, kw]`; input/output are NCHW.
/// Scratch comes from the caller's [`Workspace`] instead of per-sample
/// heap allocations. When a pruning mask is installed via
/// [`Layer::install_sparsity`], every pass routes through the
/// compressed-row pattern and skips pruned weights entirely.
///
/// The kernel is chosen from the mask and the geometry alone, so a
/// [`Mode::Eval`] forward computes bit for bit what a training forward
/// computes and differs only in keeping nothing for backward:
///
/// * **Lowered** (dense layers, and masked layers where taps do not
///   apply): the whole batch becomes one `[C·KH·KW, N·Hout·Wout]` patch
///   matrix, so forward is one `[Cout, C·KH·KW]` multiply (dense GEMM or
///   `spmm`) followed by the bias. A dense layer in training keeps the
///   matrix for its backward (`gemm_nt` for the weight gradient,
///   `gemm_tn_ws` then `col2im` for the input gradient).
/// * **Taps** (masked layers with unpadded unit-stride geometries and
///   8–48 px output rows, [`taps_supported`]): the direct tap-list kernel
///   skips the lowering. Its cost is proportional to the number of *kept*
///   weights — what makes an unstructured-pruned forward measurably
///   cheaper than a dense one (see `docs/PERFORMANCE.md`) — and it
///   reproduces the lowered `spmm` forward bit for bit.
/// * **Streamed** backward: in training, a masked layer keeps its input
///   batch instead of the patch matrix. Backward builds one patch row at a
///   time for the weight gradient and scatters one row of the input
///   gradient at a time, touching only columns some kept weight uses —
///   bit-identical to the lowered backward.
///
/// Dense layers stay on the GEMM where taps would apply: with every
/// weight kept, the blocked GEMM beats the tap rows on the 16×16 presets'
/// shapes. The first layer of a model never needs its input gradient, and
/// [`Layer::backward_params_ws`] skips that pass.
#[derive(Debug, Clone)]
pub struct Conv2d {
    weight: Param,
    bias: Param,
    in_ch: usize,
    out_ch: usize,
    kernel: usize,
    stride: usize,
    pad: usize,
    cache: Option<Cache>,
    sparse: Option<RowPattern>,
}

/// What a training forward keeps for backward.
#[derive(Debug, Clone)]
struct Cache {
    /// A workspace buffer, returned to the workspace by backward. Under a
    /// sparsity pattern it is the input batch `[N, C, H, W]`, which the
    /// streamed backward builds patch rows from one at a time; without
    /// one, the fused `[col_rows, batch·col_cols]` patch matrix.
    /// `install_sparsity` drops a pending cache, so the layer's pattern
    /// always says which.
    saved: Vec<f32>,
    geom: ConvGeom,
    batch: usize,
}

impl Conv2d {
    /// Creates a convolution layer with Kaiming-uniform initialisation
    /// (`fan_in = in_ch * k²`), matching the reference implementation.
    pub fn new(
        in_ch: usize,
        out_ch: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        rng: &mut SeededRng,
    ) -> Self {
        let fan_in = in_ch * kernel * kernel;
        let weight = Param::new(
            ParamKind::ConvWeight,
            kaiming_uniform(&[out_ch, in_ch, kernel, kernel], fan_in, rng),
        );
        let bias = Param::new(ParamKind::ConvBias, kaiming_uniform(&[out_ch], fan_in, rng));
        Self { weight, bias, in_ch, out_ch, kernel, stride, pad, cache: None, sparse: None }
    }

    /// Number of output channels.
    pub fn out_channels(&self) -> usize {
        self.out_ch
    }

    /// Kernel side length.
    pub fn kernel(&self) -> usize {
        self.kernel
    }

    /// Whether a compressed-row fast path is currently installed.
    pub fn has_sparse_path(&self) -> bool {
        self.sparse.is_some()
    }

    fn geom_for(&self, h: usize, w: usize) -> ConvGeom {
        ConvGeom {
            channels: self.in_ch,
            height: h,
            width: w,
            kh: self.kernel,
            kw: self.kernel,
            stride: self.stride,
            pad: self.pad,
        }
    }

    /// Forward through the direct tap-list kernel over the pattern's kept
    /// weights.
    fn forward_taps(&self, pat: &RowPattern, input: &[f32], geom: &ConvGeom, n: usize) -> Vec<f32> {
        let (tap_ptr, taps) = build_taps_sparse(pat, self.weight.value.data(), geom);
        // lint: allow(hot-path-alloc) — output buffer returned as an owned Tensor by API contract
        let mut out = vec![0.0f32; n * self.out_ch * geom.col_cols()];
        conv2d_taps_batch(input, geom, n, &tap_ptr, &taps, self.bias.value.data(), &mut out);
        out
    }

    /// Forward through the fused patch matrix, which it also returns (a
    /// workspace buffer) for the lowered backward.
    fn forward_lowered(
        &self,
        input: &[f32],
        geom: &ConvGeom,
        n: usize,
        ws: &mut Workspace,
    ) -> (Vec<f32>, Vec<f32>) {
        let col_rows = geom.col_rows();
        let col_cols = geom.col_cols();
        let fused_cols = n * col_cols;
        let mut cols = ws.take_scratch(col_rows * fused_cols);
        im2col_batch(input, geom, n, &mut cols);
        let mut prod = ws.take_scratch(self.out_ch * fused_cols);
        let wvals = self.weight.value.data();
        match &self.sparse {
            Some(pat) => spmm(pat, wvals, &cols, fused_cols, &mut prod),
            None => gemm_ws(self.out_ch, col_rows, fused_cols, wvals, &cols, &mut prod, ws),
        }
        // Permute [Cout, N·cc] -> NCHW and add the bias in the same pass.
        // The destination advances sequentially (i outer, oc inner), so the
        // output is built by extension — each element is touched exactly
        // once instead of zero-filled and then overwritten.
        let mut out = Vec::with_capacity(n * self.out_ch * col_cols);
        for i in 0..n {
            for oc in 0..self.out_ch {
                let src = &prod[oc * fused_cols + i * col_cols..][..col_cols];
                let b = self.bias.value.data()[oc];
                out.extend(src.iter().map(|&s| s + b));
            }
        }
        ws.put(prod);
        (out, cols)
    }

    /// The parameter half of backward: consumes the forward cache and
    /// writes the weight and bias gradients. Returns the cache and the
    /// output gradient in the fused `[Cout, N·Hout·Wout]` layout (a
    /// workspace buffer) for the input gradient.
    fn param_grads(&mut self, grad_out: &Tensor, ws: &mut Workspace) -> (Cache, Vec<f32>) {
        let cache = take_cache(&mut self.cache, "conv2d");
        let geom = cache.geom;
        let (oh, ow) = (geom.out_h(), geom.out_w());
        let col_rows = geom.col_rows();
        let col_cols = geom.col_cols();
        let n = cache.batch;
        assert_eq!(
            grad_out.shape(),
            &[n, self.out_ch, oh, ow],
            "conv2d backward: unexpected grad shape"
        );
        let fused_cols = n * col_cols;
        // Gather dOut from NCHW into the fused [Cout, N·cc] layout (the
        // exact inverse of the forward permutation).
        let mut dym = ws.take_scratch(self.out_ch * fused_cols);
        for i in 0..n {
            for oc in 0..self.out_ch {
                let src = &grad_out.data()[(i * self.out_ch + oc) * col_cols..][..col_cols];
                dym[oc * fused_cols + i * col_cols..][..col_cols].copy_from_slice(src);
            }
        }
        // dW = dOut · colsᵀ (only at kept positions under a mask).
        let mut dw = ws.take_scratch(self.out_ch * col_rows);
        match &self.sparse {
            Some(pat) => {
                conv2d_weight_grad_streamed(&cache.saved, &geom, n, pat, &dym, &mut dw, ws)
            }
            None => gemm_nt(self.out_ch, fused_cols, col_rows, &dym, &cache.saved, &mut dw),
        }
        store_grad(&mut self.weight, &[self.out_ch, self.in_ch, self.kernel, self.kernel], &dw);
        ws.put(dw);
        // db = rowwise sum of dOut.
        let mut db = ws.take_scratch(self.out_ch);
        for (oc, d) in db.iter_mut().enumerate() {
            *d = dym[oc * fused_cols..(oc + 1) * fused_cols].iter().sum::<f32>();
        }
        store_grad(&mut self.bias, &[self.out_ch], &db);
        ws.put(db);
        (cache, dym)
    }
}

/// Returns a finished backward's buffers to the workspace.
fn release(cache: Cache, dym: Vec<f32>, ws: &mut Workspace) {
    ws.put(dym);
    ws.put(cache.saved);
}

/// The pattern of a `rows × cols` weight mask, when the mask is sparse
/// enough for the sparse kernels ([`sparse_enough`]). The kept count
/// decides first, so a denser mask builds no pattern.
pub(crate) fn sparse_pattern(rows: usize, cols: usize, mask: &[f32]) -> Option<RowPattern> {
    let kept = crate::kept_count(mask);
    sparse_enough(rows, cols, kept).then(|| RowPattern::from_mask(rows, cols, mask))
}

/// Overwrites `param.grad` with `data` under `shape`, reusing the existing
/// gradient tensor's allocation when the shape already matches (it always
/// does after the first step).
pub(crate) fn store_grad(param: &mut Param, shape: &[usize], data: &[f32]) {
    if param.grad.shape() == shape {
        param.grad.data_mut().copy_from_slice(data);
    } else {
        // lint: allow(hot-path-alloc) — the one required copy: ws-accumulated grad into the owned param tensor
        param.grad = Tensor::from_parts(shape.to_vec(), data.to_vec());
    }
}

impl Layer for Conv2d {
    fn name(&self) -> &'static str {
        "conv2d"
    }

    fn forward_ws(&mut self, input: &Tensor, mode: Mode, ws: &mut Workspace) -> Tensor {
        assert_eq!(input.ndim(), 4, "conv2d expects NCHW input, got {:?}", input.shape());
        let (n, c, h, w) = (input.shape()[0], input.shape()[1], input.shape()[2], input.shape()[3]);
        assert_eq!(c, self.in_ch, "conv2d: expected {} input channels, got {c}", self.in_ch);
        let geom = self.geom_for(h, w);
        let (oh, ow) = (geom.out_h(), geom.out_w());
        let train = mode == Mode::Train;
        self.cache = None;
        let out = match &self.sparse {
            Some(pat) if taps_supported(&geom) => self.forward_taps(pat, input.data(), &geom, n),
            _ => {
                let (out, cols) = self.forward_lowered(input.data(), &geom, n, ws);
                if train && self.sparse.is_none() {
                    self.cache = Some(Cache { saved: cols, geom, batch: n });
                } else {
                    ws.put(cols);
                }
                out
            }
        };
        // A masked layer trains without keeping its patch matrix: the
        // streamed backward rebuilds patch rows from the input batch.
        if train && self.sparse.is_some() {
            let mut saved = ws.take_scratch(input.len());
            saved.copy_from_slice(input.data());
            self.cache = Some(Cache { saved, geom, batch: n });
        }
        // lint: allow(hot-path-alloc) — shape metadata, not tensor data
        Tensor::from_parts(vec![n, self.out_ch, oh, ow], out)
    }

    fn backward_ws(&mut self, grad_out: &Tensor, ws: &mut Workspace) -> Tensor {
        let (cache, dym) = self.param_grads(grad_out, ws);
        let geom = cache.geom;
        let n = cache.batch;
        // lint: allow(hot-path-alloc) — dx is returned as an owned Tensor by API contract
        let mut dx = vec![0.0f32; n * geom.channels * geom.height * geom.width];
        let wvals = self.weight.value.data();
        match &self.sparse {
            Some(pat) => conv2d_input_grad_streamed(wvals, pat, &geom, n, &dym, &mut dx, ws),
            None => {
                // dcols = Wᵀ · dOut, scattered back by col2im.
                let (col_rows, fused_cols) = (geom.col_rows(), n * geom.col_cols());
                let mut dcols = ws.take_scratch(col_rows * fused_cols);
                gemm_tn_ws(self.out_ch, col_rows, fused_cols, wvals, &dym, &mut dcols, ws);
                col2im_batch(&dcols, &geom, n, &mut dx);
                ws.put(dcols);
            }
        }
        release(cache, dym, ws);
        // lint: allow(hot-path-alloc) — shape metadata, not tensor data
        Tensor::from_parts(vec![n, geom.channels, geom.height, geom.width], dx)
    }

    fn backward_params_ws(&mut self, grad_out: &Tensor, ws: &mut Workspace) {
        let (cache, dym) = self.param_grads(grad_out, ws);
        release(cache, dym, ws);
    }

    // lint: cold — pattern build happens once per round, on mask install
    fn install_sparsity(&mut self, param_masks: &[&Tensor]) {
        // A pending forward cache was laid out for the old pattern.
        self.cache = None;
        self.sparse = None;
        let Some(wm) = param_masks.first() else { return };
        assert_eq!(
            wm.shape(),
            self.weight.value.shape(),
            "conv2d install_sparsity: mask shape mismatch"
        );
        let cols = self.in_ch * self.kernel * self.kernel;
        self.sparse = sparse_pattern(self.out_ch, cols, wm.data());
    }

    fn params(&self) -> Vec<&Param> {
        // lint: allow(hot-path-alloc) — short Vec of param refs, cheap next to a batch
        vec![&self.weight, &self.bias]
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        // lint: allow(hot-path-alloc) — short Vec of param refs, cheap next to a batch
        vec![&mut self.weight, &mut self.bias]
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use subfed_tensor::conv::direct_conv2d_single;
    use subfed_tensor::init::uniform;

    #[test]
    fn forward_matches_direct_convolution() {
        let mut rng = SeededRng::new(1);
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, &mut rng);
        let x = uniform(&[2, 2, 6, 6], -1.0, 1.0, &mut rng);
        let y = conv.forward(&x, Mode::Eval);
        assert_eq!(y.shape(), &[2, 3, 6, 6]);
        let geom = conv.geom_for(6, 6);
        for i in 0..2 {
            let img = &x.data()[i * 72..(i + 1) * 72];
            let direct =
                direct_conv2d_single(img, &conv.weight.value, Some(conv.bias.value.data()), &geom);
            subfed_tensor::assert_slice_close(
                &y.data()[i * 108..(i + 1) * 108],
                &direct,
                1e-4,
                1e-4,
            );
        }
    }

    #[test]
    fn gradients_pass_finite_difference_check() {
        let mut rng = SeededRng::new(2);
        let conv = Conv2d::new(1, 2, 3, 1, 0, &mut rng);
        crate::gradcheck::check_layer(Box::new(conv), &[2, 1, 5, 5], 1e-2, 2e-2);
    }

    #[test]
    fn unpadded_eval_takes_tap_path_and_matches_im2col() {
        let mut rng = SeededRng::new(31);
        // LeNet conv1 shape: pad 0, stride 1 → both modes run im2col+GEMM
        // dense and the tap kernel under a mask, so eval and train agree
        // bit for bit, dense and unstructured-sparse alike.
        let to_bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let mut conv = Conv2d::new(3, 6, 5, 1, 0, &mut rng);
        let x = uniform(&[2, 3, 32, 32], -1.0, 1.0, &mut rng);
        let ye = conv.forward(&x, Mode::Eval);
        let yt = conv.forward(&x, Mode::Train);
        assert_eq!(ye.shape(), &[2, 6, 28, 28]);
        assert_eq!(to_bits(&ye), to_bits(&yt));
        let _ =
            conv.backward_ws(&uniform(&[2, 6, 28, 28], -1.0, 1.0, &mut rng), &mut Workspace::new());

        let mut bits = vec![0.0f32; 6 * 3 * 5 * 5];
        for (t, bit) in bits.iter_mut().enumerate() {
            if t % 2 == 0 || t % 5 == 0 {
                *bit = 1.0;
            }
        }
        for (v, &bit) in conv.weight.value.data_mut().iter_mut().zip(&bits) {
            *v *= bit;
        }
        let bits_t = Tensor::from_parts(vec![6, 3, 5, 5], bits);
        let ones = Tensor::full(&[6], 1.0);
        conv.install_sparsity(&[&bits_t, &ones]);
        assert!(conv.has_sparse_path());
        let ys = conv.forward(&x, Mode::Eval);
        let yst = conv.forward(&x, Mode::Train);
        assert_eq!(to_bits(&ys), to_bits(&yst));
        let _ =
            conv.backward_ws(&uniform(&[2, 6, 28, 28], -1.0, 1.0, &mut rng), &mut Workspace::new());
    }

    #[test]
    fn strided_gradients_pass_finite_difference_check() {
        let mut rng = SeededRng::new(3);
        let conv = Conv2d::new(2, 2, 3, 2, 1, &mut rng);
        crate::gradcheck::check_layer(Box::new(conv), &[1, 2, 6, 6], 1e-2, 2e-2);
    }

    #[test]
    fn sparse_path_matches_dense_forward_and_backward() {
        let mut rng = SeededRng::new(7);
        let mut dense = Conv2d::new(2, 4, 3, 1, 1, &mut rng);
        // Prune ~half the weights (and keep weights and mask consistent).
        let mut bits = vec![0.0f32; 4 * 2 * 3 * 3];
        for (t, bit) in bits.iter_mut().enumerate() {
            if t % 2 == 0 {
                *bit = 1.0;
            }
        }
        for (v, &bit) in dense.weight.value.data_mut().iter_mut().zip(&bits) {
            *v *= bit;
        }
        let mut sparse = dense.clone();
        let bits_t = Tensor::from_parts(vec![4, 2, 3, 3], bits);
        let ones = Tensor::full(&[4], 1.0);
        sparse.install_sparsity(&[&bits_t, &ones]);
        assert!(sparse.has_sparse_path());

        let x = uniform(&[3, 2, 6, 6], -1.0, 1.0, &mut rng);
        let yd = dense.forward(&x, Mode::Train);
        let ys = sparse.forward(&x, Mode::Train);
        subfed_tensor::assert_slice_close(ys.data(), yd.data(), 1e-5, 1e-5);

        let dy = uniform(&[3, 4, 6, 6], -1.0, 1.0, &mut rng);
        let dxd = dense.backward_ws(&dy, &mut Workspace::new());
        let dxs = sparse.backward_ws(&dy, &mut Workspace::new());
        subfed_tensor::assert_slice_close(dxs.data(), dxd.data(), 1e-4, 1e-4);
        subfed_tensor::assert_slice_close(
            dense.bias.grad.data(),
            sparse.bias.grad.data(),
            1e-4,
            1e-4,
        );
        // Weight grads agree at kept positions; pruned positions are zero
        // on the sparse path (the masked optimiser zeroes them anyway).
        for ((&gd, &gs), &bit) in
            dense.weight.grad.data().iter().zip(sparse.weight.grad.data()).zip(bits_t.data())
        {
            if bit == 0.0 {
                assert_eq!(gs, 0.0);
            } else {
                assert!((gd - gs).abs() <= 1e-4 + 1e-4 * gd.abs(), "{gd} vs {gs}");
            }
        }
    }

    #[test]
    fn structured_mask_matches_dense_eval() {
        let mut rng = SeededRng::new(21);
        let mut dense = Conv2d::new(4, 6, 3, 1, 1, &mut rng);
        // Structured mask: drop output channels 1 and 4 entirely, and
        // input channel 2 from every kept filter.
        let mut bits = vec![0.0f32; 6 * 4 * 3 * 3];
        for oc in [0usize, 2, 3, 5] {
            for ic in [0usize, 1, 3] {
                let base = (oc * 4 + ic) * 9;
                bits[base..base + 9].fill(1.0);
            }
        }
        for (v, &bit) in dense.weight.value.data_mut().iter_mut().zip(&bits) {
            *v *= bit;
        }
        // Pruned output channels also lose their bias, as
        // expand_channel_mask would arrange.
        dense.bias.value.data_mut()[1] = 0.0;
        dense.bias.value.data_mut()[4] = 0.0;
        let mut masked = dense.clone();
        let bits_t = Tensor::from_parts(vec![6, 4, 3, 3], bits);
        let ones = Tensor::full(&[6], 1.0);
        masked.install_sparsity(&[&bits_t, &ones]);
        assert!(masked.has_sparse_path());

        let x = uniform(&[3, 4, 6, 6], -1.0, 1.0, &mut rng);
        let yd = dense.forward(&x, Mode::Eval);
        let ym = masked.forward(&x, Mode::Eval);
        subfed_tensor::assert_slice_close(ym.data(), yd.data(), 1e-5, 1e-5);
        // Pruned output channels are exact bias planes (zero here).
        for i in 0..3 {
            for oc in [1usize, 4] {
                let plane = &ym.data()[(i * 6 + oc) * 36..][..36];
                assert!(plane.iter().all(|&v| v == 0.0));
            }
        }
        // Train mode runs the same kernel and still agrees.
        let yt = masked.forward(&x, Mode::Train);
        subfed_tensor::assert_slice_close(yt.data(), yd.data(), 1e-5, 1e-5);
        let _ =
            masked.backward_ws(&uniform(&[3, 6, 6, 6], -1.0, 1.0, &mut rng), &mut Workspace::new());
    }

    #[test]
    fn install_sparsity_with_empty_masks_clears_path() {
        let mut rng = SeededRng::new(8);
        let mut conv = Conv2d::new(1, 2, 3, 1, 0, &mut rng);
        let zeros = Tensor::zeros(&[2, 1, 3, 3]);
        let ones = Tensor::full(&[2], 1.0);
        conv.install_sparsity(&[&zeros, &ones]);
        assert!(conv.has_sparse_path());
        conv.install_sparsity(&[]);
        assert!(!conv.has_sparse_path());
    }

    #[test]
    fn dense_mask_stays_on_dense_path() {
        let mut rng = SeededRng::new(9);
        let mut conv = Conv2d::new(1, 2, 3, 1, 0, &mut rng);
        let ones_w = Tensor::full(&[2, 1, 3, 3], 1.0);
        let ones_b = Tensor::full(&[2], 1.0);
        conv.install_sparsity(&[&ones_w, &ones_b]);
        assert!(!conv.has_sparse_path());
    }

    #[test]
    fn pattern_is_built_exactly_when_the_built_one_would_be_kept() {
        use subfed_tensor::sparse::SPARSE_DENSITY_MAX;
        let mut rng = SeededRng::new(10);
        // 4 × 5 masks from all-pruned to all-kept, NaN entries (kept, as
        // `is_kept` and `from_mask` both read them) included.
        for kept_share in [0.0f32, 0.3, 0.7, 0.75, 0.76, 0.9, 1.0] {
            for trial in 0..8 {
                let mut mask: Vec<f32> = (0..20)
                    .map(|_| if rng.uniform_f32(0.0, 1.0) < kept_share { 1.0 } else { 0.0 })
                    .collect();
                if trial == 0 {
                    mask[3] = f32::NAN;
                }
                let built = RowPattern::from_mask(4, 5, &mask);
                let want = (built.density() <= SPARSE_DENSITY_MAX).then_some(built);
                assert_eq!(sparse_pattern(4, 5, &mask), want, "kept share {kept_share}");
            }
        }
        // The cut itself: 15 of 20 kept is density 0.75, still sparse.
        let at_cut: Vec<f32> = (0..20).map(|i| if i < 15 { 1.0 } else { 0.0 }).collect();
        assert!(sparse_pattern(4, 5, &at_cut).is_some());
        assert_eq!(sparse_pattern(0, 5, &[]), None, "an empty matrix has density 1");
    }

    #[test]
    #[should_panic(expected = "backward without forward")]
    fn backward_without_forward_panics() {
        let mut rng = SeededRng::new(4);
        let mut conv = Conv2d::new(1, 1, 3, 1, 0, &mut rng);
        let _ = conv.backward_ws(&Tensor::zeros(&[1, 1, 3, 3]), &mut Workspace::new());
    }

    #[test]
    #[should_panic(expected = "input channels")]
    fn wrong_channel_count_panics() {
        let mut rng = SeededRng::new(5);
        let mut conv = Conv2d::new(3, 1, 3, 1, 0, &mut rng);
        let _ = conv.forward(&Tensor::zeros(&[1, 2, 5, 5]), Mode::Eval);
    }

    #[test]
    #[should_panic(expected = "backward without forward")]
    fn installing_a_mask_drops_the_pending_cache() {
        // The saved buffer is a patch matrix without a pattern and the
        // input batch with one, so a mask change between forward and
        // backward must not leave the old buffer behind.
        let mut rng = SeededRng::new(10);
        let mut conv = Conv2d::new(1, 2, 3, 1, 0, &mut rng);
        let _ = conv.forward(&uniform(&[2, 1, 6, 6], -1.0, 1.0, &mut rng), Mode::Train);
        let zeros = Tensor::zeros(&[2, 1, 3, 3]);
        conv.install_sparsity(&[&zeros, &Tensor::full(&[2], 1.0)]);
        assert!(conv.has_sparse_path());
        let _ = conv.backward_ws(&Tensor::zeros(&[2, 2, 4, 4]), &mut Workspace::new());
    }

    #[test]
    fn eval_mode_does_not_cache() {
        let mut rng = SeededRng::new(6);
        let mut conv = Conv2d::new(1, 1, 3, 1, 0, &mut rng);
        let _ = conv.forward(&Tensor::zeros(&[1, 1, 5, 5]), Mode::Eval);
        assert!(conv.cache.is_none());
    }
}
