use crate::layer::take_cache;
use crate::layers::conv::store_grad;
use crate::{Layer, Mode, Param, ParamKind};
use subfed_tensor::init::{kaiming_uniform, SeededRng};
use subfed_tensor::linalg::{gemm_tn_ws, gemm_ws, transpose_into};
use subfed_tensor::reduce::sum_rows;
use subfed_tensor::sparse::{masked_dot_nt, spmm, spmm_t, RowPattern, SPARSE_DENSITY_MAX};
use subfed_tensor::workspace::Workspace;
use subfed_tensor::Tensor;

/// Fully-connected layer: `y = x·Wᵀ + b` with `W: [out, in]`.
///
/// When a pruning mask is installed via [`Layer::install_sparsity`], the
/// three products route through the compressed-row kernels over cheap
/// transposes (`yᵀ = W·xᵀ`, `dxᵀ = Wᵀ·dyᵀ`, `dW = dyᵀ·(xᵀ)ᵀ` at kept
/// positions), so a 50/70/90%-pruned layer does proportionally less work.
#[derive(Debug, Clone)]
pub struct Linear {
    weight: Param,
    bias: Param,
    in_features: usize,
    out_features: usize,
    cache: Option<LinCache>,
    sparse: Option<RowPattern>,
}

#[derive(Debug, Clone)]
enum LinCache {
    /// Dense path: the input as received.
    Dense(Tensor),
    /// Sparse path: the transposed input `[in, n]` (workspace buffer).
    Sparse { xt: Vec<f32>, batch: usize },
}

impl Linear {
    /// Creates a linear layer with Kaiming-uniform initialisation
    /// (`fan_in = in_features`).
    pub fn new(in_features: usize, out_features: usize, rng: &mut SeededRng) -> Self {
        let weight = Param::new(
            ParamKind::FcWeight,
            kaiming_uniform(&[out_features, in_features], in_features, rng),
        );
        let bias =
            Param::new(ParamKind::FcBias, kaiming_uniform(&[out_features], in_features, rng));
        Self { weight, bias, in_features, out_features, cache: None, sparse: None }
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// Whether a compressed-row fast path is currently installed.
    pub fn has_sparse_path(&self) -> bool {
        self.sparse.is_some()
    }

    fn check_input(&self, input: &Tensor) {
        assert_eq!(input.ndim(), 2, "linear expects [batch, features], got {:?}", input.shape());
        assert_eq!(
            input.shape()[1],
            self.in_features,
            "linear: expected {} input features, got {}",
            self.in_features,
            input.shape()[1]
        );
    }
}

impl Layer for Linear {
    fn name(&self) -> &'static str {
        "linear"
    }

    fn forward_ws(&mut self, input: &Tensor, mode: Mode, ws: &mut Workspace) -> Tensor {
        self.check_input(input);
        let n = input.shape()[0];
        match &self.sparse {
            Some(pat) => {
                // yᵀ = W · xᵀ over kept weights only.
                let mut xt = ws.take_scratch(self.in_features * n);
                transpose_into(n, self.in_features, input.data(), &mut xt);
                let mut yt = ws.take_scratch(self.out_features * n);
                spmm(pat, self.weight.value.data(), &xt, n, &mut yt);
                // lint: allow(hot-path-alloc) — output buffer returned as an owned Tensor by API contract
                let mut y = vec![0.0f32; n * self.out_features];
                transpose_into(self.out_features, n, &yt, &mut y);
                ws.put(yt);
                for row in y.chunks_exact_mut(self.out_features.max(1)).take(n) {
                    for (v, &b) in row.iter_mut().zip(self.bias.value.data()) {
                        *v += b;
                    }
                }
                if mode == Mode::Train {
                    self.cache = Some(LinCache::Sparse { xt, batch: n });
                } else {
                    ws.put(xt);
                    self.cache = None;
                }
                // lint: allow(hot-path-alloc) — shape metadata, not tensor data
                Tensor::from_parts(vec![n, self.out_features], y)
            }
            None => {
                // y = x·Wᵀ (+ b): matmul_nt(x [n,in], W [out,in]) -> [n,out]
                let mut y = subfed_tensor::linalg::matmul_nt(input, &self.weight.value);
                for i in 0..n {
                    let row = &mut y.data_mut()[i * self.out_features..(i + 1) * self.out_features];
                    for (v, &b) in row.iter_mut().zip(self.bias.value.data()) {
                        *v += b;
                    }
                }
                if mode == Mode::Train {
                    // lint: allow(hot-path-alloc) — backward cache snapshot of the dense input
                    self.cache = Some(LinCache::Dense(input.clone()));
                } else {
                    self.cache = None;
                }
                y
            }
        }
    }

    fn backward_ws(&mut self, grad_out: &Tensor, ws: &mut Workspace) -> Tensor {
        let cache = take_cache(&mut self.cache, "linear");
        assert_eq!(grad_out.shape()[1], self.out_features, "linear backward feature mismatch");
        match (cache, &self.sparse) {
            (LinCache::Dense(x), _) => {
                let n = x.shape()[0];
                assert_eq!(grad_out.shape()[0], n, "linear backward batch mismatch");
                // dW = dyᵀ·x (dy [n,out], x [n,in] -> [out,in]), packed
                // through the caller's workspace and stored into the
                // existing grad allocation.
                let mut dw = ws.take_scratch(self.out_features * self.in_features);
                gemm_tn_ws(
                    n,
                    self.out_features,
                    self.in_features,
                    grad_out.data(),
                    x.data(),
                    &mut dw,
                    ws,
                );
                store_grad(&mut self.weight, &[self.out_features, self.in_features], &dw);
                ws.put(dw);
                self.bias.grad = sum_rows(grad_out);
                // dx = dy·W (dy [n,out], W [out,in] -> [n,in]).
                // lint: allow(hot-path-alloc) — dx is returned as an owned Tensor by API contract
                let mut dx = vec![0.0f32; n * self.in_features];
                gemm_ws(
                    n,
                    self.out_features,
                    self.in_features,
                    grad_out.data(),
                    self.weight.value.data(),
                    &mut dx,
                    ws,
                );
                // lint: allow(hot-path-alloc) — shape metadata, not tensor data
                Tensor::from_parts(vec![n, self.in_features], dx)
            }
            (LinCache::Sparse { xt, batch: n }, Some(pat)) => {
                assert_eq!(grad_out.shape()[0], n, "linear backward batch mismatch");
                let mut dyt = ws.take_scratch(self.out_features * n);
                transpose_into(n, self.out_features, grad_out.data(), &mut dyt);
                // dW at kept positions only; pruned entries stay 0.0,
                // exactly what the masked optimiser step would produce.
                let mut dw = ws.take_scratch(self.out_features * self.in_features);
                masked_dot_nt(pat, &dyt, &xt, n, &mut dw);
                store_grad(&mut self.weight, &[self.out_features, self.in_features], &dw);
                ws.put(dw);
                self.bias.grad = sum_rows(grad_out);
                // dxᵀ = Wᵀ · dyᵀ over kept weights only.
                let mut dxt = ws.take_scratch(self.in_features * n);
                spmm_t(pat, self.weight.value.data(), &dyt, n, &mut dxt);
                // lint: allow(hot-path-alloc) — dx is returned as an owned Tensor by API contract
                let mut dx = vec![0.0f32; n * self.in_features];
                transpose_into(self.in_features, n, &dxt, &mut dx);
                ws.put(dyt);
                ws.put(dxt);
                ws.put(xt);
                // lint: allow(hot-path-alloc) — shape metadata, not tensor data
                Tensor::from_parts(vec![n, self.in_features], dx)
            }
            (LinCache::Sparse { .. }, None) => {
                // The pattern was cleared between forward and backward — a
                // contract violation at the call site, like a missing cache.
                // lint: allow(no-unwrap)
                panic!("linear sparse cache without installed pattern")
            }
        }
    }

    // lint: cold — pattern build happens once per round, on mask install
    fn install_sparsity(&mut self, param_masks: &[&Tensor]) {
        self.sparse = None;
        let Some(wm) = param_masks.first() else { return };
        assert_eq!(
            wm.shape(),
            self.weight.value.shape(),
            "linear install_sparsity: mask shape mismatch"
        );
        let pat = RowPattern::from_mask(self.out_features, self.in_features, wm.data());
        if pat.density() <= SPARSE_DENSITY_MAX {
            self.sparse = Some(pat);
        }
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

    #[test]
    fn forward_known_values() {
        let mut rng = SeededRng::new(1);
        let mut lin = Linear::new(2, 3, &mut rng);
        lin.weight.value =
            Tensor::from_vec(vec![3, 2], vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0]).unwrap();
        lin.bias.value = Tensor::from_vec(vec![3], vec![0.5, -0.5, 0.0]).unwrap();
        let x = Tensor::from_vec(vec![1, 2], vec![2.0, 3.0]).unwrap();
        let y = lin.forward(&x, Mode::Eval);
        assert_eq!(y.data(), &[2.5, 2.5, 5.0]);
    }

    #[test]
    fn gradients_pass_finite_difference_check() {
        let mut rng = SeededRng::new(2);
        let lin = Linear::new(4, 3, &mut rng);
        crate::gradcheck::check_layer(Box::new(lin), &[3, 4], 1e-2, 1e-2);
    }

    #[test]
    fn bias_gradient_is_row_sum() {
        let mut rng = SeededRng::new(3);
        let mut lin = Linear::new(2, 2, &mut rng);
        let x = Tensor::from_vec(vec![2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let _ = lin.forward(&x, Mode::Train);
        let dy = Tensor::from_vec(vec![2, 2], vec![1.0, 10.0, 2.0, 20.0]).unwrap();
        let _ = lin.backward_ws(&dy, &mut Workspace::new());
        assert_eq!(lin.bias.grad.data(), &[3.0, 30.0]);
    }

    #[test]
    fn sparse_path_matches_dense_forward_and_backward() {
        let mut rng = SeededRng::new(11);
        let mut dense = Linear::new(6, 4, &mut rng);
        let mut bits = vec![0.0f32; 24];
        for (t, bit) in bits.iter_mut().enumerate() {
            if t % 3 != 0 {
                *bit = 1.0;
            }
        }
        for (v, &bit) in dense.weight.value.data_mut().iter_mut().zip(&bits) {
            *v *= bit;
        }
        let mut sparse = dense.clone();
        let bits_t = Tensor::from_parts(vec![4, 6], bits);
        let ones = Tensor::full(&[4], 1.0);
        sparse.install_sparsity(&[&bits_t, &ones]);
        assert!(sparse.has_sparse_path());

        let x = subfed_tensor::init::uniform(&[5, 6], -1.0, 1.0, &mut rng);
        let yd = dense.forward(&x, Mode::Train);
        let ys = sparse.forward(&x, Mode::Train);
        subfed_tensor::assert_slice_close(ys.data(), yd.data(), 1e-5, 1e-5);

        let dy = subfed_tensor::init::uniform(&[5, 4], -1.0, 1.0, &mut rng);
        let dxd = dense.backward_ws(&dy, &mut Workspace::new());
        let dxs = sparse.backward_ws(&dy, &mut Workspace::new());
        subfed_tensor::assert_slice_close(dxs.data(), dxd.data(), 1e-5, 1e-5);
        assert_eq!(dense.bias.grad.data(), sparse.bias.grad.data());
        for ((&gd, &gs), &bit) in
            dense.weight.grad.data().iter().zip(sparse.weight.grad.data()).zip(bits_t.data())
        {
            if bit == 0.0 {
                assert_eq!(gs, 0.0);
            } else {
                assert!((gd - gs).abs() <= 1e-5 + 1e-5 * gd.abs(), "{gd} vs {gs}");
            }
        }
    }

    #[test]
    fn batch_of_one_sparse_path() {
        let mut rng = SeededRng::new(12);
        let mut lin = Linear::new(3, 2, &mut rng);
        let bits_t = Tensor::from_vec(vec![2, 3], vec![1.0, 0.0, 1.0, 0.0, 0.0, 0.0]).unwrap();
        for (v, &bit) in lin.weight.value.data_mut().iter_mut().zip(bits_t.data()) {
            *v *= bit;
        }
        let mut dense = lin.clone();
        let ones = Tensor::full(&[2], 1.0);
        lin.install_sparsity(&[&bits_t, &ones]);
        let x = Tensor::from_vec(vec![1, 3], vec![1.0, 2.0, 3.0]).unwrap();
        let ys = lin.forward(&x, Mode::Train);
        let yd = dense.forward(&x, Mode::Train);
        subfed_tensor::assert_slice_close(ys.data(), yd.data(), 1e-6, 1e-6);
        let dy = Tensor::from_vec(vec![1, 2], vec![1.0, -1.0]).unwrap();
        let dxs = lin.backward_ws(&dy, &mut Workspace::new());
        let dxd = dense.backward_ws(&dy, &mut Workspace::new());
        subfed_tensor::assert_slice_close(dxs.data(), dxd.data(), 1e-6, 1e-6);
    }

    #[test]
    #[should_panic(expected = "backward without forward")]
    fn backward_without_forward_panics() {
        let mut rng = SeededRng::new(4);
        let mut lin = Linear::new(2, 2, &mut rng);
        let _ = lin.backward_ws(&Tensor::zeros(&[1, 2]), &mut Workspace::new());
    }

    #[test]
    #[should_panic(expected = "input features")]
    fn wrong_feature_count_panics() {
        let mut rng = SeededRng::new(5);
        let mut lin = Linear::new(3, 2, &mut rng);
        let _ = lin.forward(&Tensor::zeros(&[1, 4]), Mode::Eval);
    }
}
