use crate::layer::take_cache;
use crate::{Layer, Mode, Param, ParamKind};
use subfed_tensor::workspace::Workspace;
use subfed_tensor::Tensor;

/// Batch normalisation over the channel dimension of NCHW tensors.
///
/// Training mode normalises with batch statistics and updates exponential
/// running estimates; evaluation mode uses the running estimates. The scale
/// factors γ double as the channel-importance indicators for structured
/// (network-slimming) pruning, exactly as in the paper (§3.5, "Structured
/// Pruning").
#[derive(Debug, Clone)]
pub struct BatchNorm2d {
    gamma: Param,
    beta: Param,
    running_mean: Param,
    running_var: Param,
    channels: usize,
    eps: f32,
    momentum: f32,
    cache: Option<Cache>,
}

#[derive(Debug, Clone)]
struct Cache {
    xhat: Tensor,
    inv_std: Vec<f32>,
    shape: Vec<usize>,
}

impl BatchNorm2d {
    /// Creates a BatchNorm layer (γ=1, β=0, running mean 0 / var 1,
    /// ε=1e-5, momentum 0.1 — the PyTorch defaults the paper relies on).
    pub fn new(channels: usize) -> Self {
        Self {
            gamma: Param::new(ParamKind::BnGamma, Tensor::ones(&[channels])),
            beta: Param::new(ParamKind::BnBeta, Tensor::zeros(&[channels])),
            running_mean: Param::new(ParamKind::BnMean, Tensor::zeros(&[channels])),
            running_var: Param::new(ParamKind::BnVar, Tensor::ones(&[channels])),
            channels,
            eps: 1e-5,
            momentum: 0.1,
            cache: None,
        }
    }

    /// Number of channels normalised.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// The current scale factors γ (channel-importance indicators).
    pub fn gammas(&self) -> &[f32] {
        self.gamma.value.data()
    }
}

impl Layer for BatchNorm2d {
    fn name(&self) -> &'static str {
        "batchnorm2d"
    }

    // Channel-strided NCHW access reads clearest with explicit indices.
    #[allow(clippy::needless_range_loop)]
    fn forward_ws(&mut self, input: &Tensor, mode: Mode, _ws: &mut Workspace) -> Tensor {
        assert_eq!(input.ndim(), 4, "batchnorm2d expects NCHW input");
        let (n, c, h, w) = (input.shape()[0], input.shape()[1], input.shape()[2], input.shape()[3]);
        assert_eq!(c, self.channels, "batchnorm2d: expected {} channels, got {c}", self.channels);
        let plane = h * w;
        let m = (n * plane) as f32;
        // lint: allow(hot-path-alloc) — output/cache buffers are owned by the value-path contract
        let mut out = vec![0.0f32; input.len()];
        match mode {
            Mode::Train => {
                assert!(n * plane > 1, "batchnorm needs more than one value per channel");
                // lint: allow(hot-path-alloc) — output/cache buffers are owned by the value-path contract
                let mut xhat = vec![0.0f32; input.len()];
                // lint: allow(hot-path-alloc) — per-channel stats Vec is c entries, not tensor-sized
                let mut inv_std = vec![0.0f32; c];
                for ch in 0..c {
                    let mut mean = 0.0f32;
                    for i in 0..n {
                        let base = (i * c + ch) * plane;
                        mean += input.data()[base..base + plane].iter().sum::<f32>();
                    }
                    mean /= m;
                    let mut var = 0.0f32;
                    for i in 0..n {
                        let base = (i * c + ch) * plane;
                        for &v in &input.data()[base..base + plane] {
                            let d = v - mean;
                            var += d * d;
                        }
                    }
                    var /= m;
                    let istd = 1.0 / (var + self.eps).sqrt();
                    inv_std[ch] = istd;
                    let g = self.gamma.value.data()[ch];
                    let b = self.beta.value.data()[ch];
                    for i in 0..n {
                        let base = (i * c + ch) * plane;
                        let src = &input.data()[base..base + plane];
                        let xh_dst = &mut xhat[base..base + plane];
                        let dst = &mut out[base..base + plane];
                        for ((d, xh_d), &s) in dst.iter_mut().zip(xh_dst.iter_mut()).zip(src) {
                            let xh = (s - mean) * istd;
                            *xh_d = xh;
                            *d = g * xh + b;
                        }
                    }
                    // Exponential running estimates (unbiased variance, as
                    // in PyTorch).
                    let unbiased = if m > 1.0 { var * m / (m - 1.0) } else { var };
                    let rm = &mut self.running_mean.value.data_mut()[ch];
                    *rm = (1.0 - self.momentum) * *rm + self.momentum * mean;
                    let rv = &mut self.running_var.value.data_mut()[ch];
                    *rv = (1.0 - self.momentum) * *rv + self.momentum * unbiased;
                }
                self.cache = Some(Cache {
                    // lint: allow(hot-path-alloc) — shape metadata, not tensor data
                    xhat: Tensor::from_parts(input.shape().to_vec(), xhat),
                    inv_std,
                    // lint: allow(hot-path-alloc) — shape metadata, not tensor data
                    shape: input.shape().to_vec(),
                });
            }
            Mode::Eval => {
                self.cache = None;
                // Fold the normalisation into one affine per channel
                // (scale = γ/σ, shift = β − μ·scale): the inner loop is a
                // single fused multiply-add per element instead of
                // subtract/scale/scale/add.
                // lint: allow(hot-path-alloc) — per-channel affine Vecs are c entries, not tensor-sized
                let mut scale = vec![0.0f32; c];
                // lint: allow(hot-path-alloc) — per-channel affine Vecs are c entries, not tensor-sized
                let mut shift = vec![0.0f32; c];
                for ch in 0..c {
                    let mean = self.running_mean.value.data()[ch];
                    let var = self.running_var.value.data()[ch];
                    let s = self.gamma.value.data()[ch] / (var + self.eps).sqrt();
                    scale[ch] = s;
                    shift[ch] = self.beta.value.data()[ch] - mean * s;
                }
                for i in 0..n {
                    for ch in 0..c {
                        let base = (i * c + ch) * plane;
                        let src = &input.data()[base..base + plane];
                        let dst = &mut out[base..base + plane];
                        let (s, t) = (scale[ch], shift[ch]);
                        for (d, &x) in dst.iter_mut().zip(src) {
                            *d = subfed_tensor::linalg::fmadd(x, s, t);
                        }
                    }
                }
            }
        }
        // lint: allow(hot-path-alloc) — shape metadata, not tensor data
        Tensor::from_parts(input.shape().to_vec(), out)
    }

    fn backward_ws(&mut self, grad_out: &Tensor, _ws: &mut Workspace) -> Tensor {
        let cache = take_cache(&mut self.cache, "batchnorm2d");
        assert_eq!(grad_out.shape(), &cache.shape[..], "batchnorm2d backward shape mismatch");
        let (n, c, h, w) = (cache.shape[0], cache.shape[1], cache.shape[2], cache.shape[3]);
        let plane = h * w;
        let m = (n * plane) as f32;
        // lint: allow(hot-path-alloc) — per-channel grad Vec is c entries, not tensor-sized
        let mut dgamma = vec![0.0f32; c];
        // lint: allow(hot-path-alloc) — per-channel grad Vec is c entries, not tensor-sized
        let mut dbeta = vec![0.0f32; c];
        // lint: allow(hot-path-alloc) — dx is returned as an owned Tensor by API contract
        let mut dx = vec![0.0f32; grad_out.len()];
        for ch in 0..c {
            let mut sum_dy = 0.0f32;
            let mut sum_dy_xhat = 0.0f32;
            for i in 0..n {
                let base = (i * c + ch) * plane;
                let dys = &grad_out.data()[base..base + plane];
                let xhs = &cache.xhat.data()[base..base + plane];
                for (&dy, &xh) in dys.iter().zip(xhs) {
                    sum_dy += dy;
                    sum_dy_xhat += dy * xh;
                }
            }
            dgamma[ch] = sum_dy_xhat;
            dbeta[ch] = sum_dy;
            let g = self.gamma.value.data()[ch];
            let istd = cache.inv_std[ch];
            let coeff = g * istd / m;
            for i in 0..n {
                let base = (i * c + ch) * plane;
                let dys = &grad_out.data()[base..base + plane];
                let xhs = &cache.xhat.data()[base..base + plane];
                let dst = &mut dx[base..base + plane];
                for ((d, &dy), &xh) in dst.iter_mut().zip(dys).zip(xhs) {
                    *d = coeff * (m * dy - sum_dy - xh * sum_dy_xhat);
                }
            }
        }
        // lint: allow(hot-path-alloc) — shape metadata, not tensor data
        self.gamma.grad = Tensor::from_parts(vec![c], dgamma);
        // lint: allow(hot-path-alloc) — shape metadata, not tensor data
        self.beta.grad = Tensor::from_parts(vec![c], dbeta);
        Tensor::from_parts(cache.shape, dx)
    }

    fn params(&self) -> Vec<&Param> {
        // lint: allow(hot-path-alloc) — short Vec of param refs, cheap next to a batch
        vec![&self.gamma, &self.beta, &self.running_mean, &self.running_var]
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        // lint: allow(hot-path-alloc) — short Vec of param refs, cheap next to a batch
        vec![&mut self.gamma, &mut self.beta, &mut self.running_mean, &mut self.running_var]
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use subfed_tensor::init::{uniform, SeededRng};

    #[test]
    fn train_output_is_normalised() {
        let mut rng = SeededRng::new(1);
        let mut bn = BatchNorm2d::new(3);
        let x = uniform(&[4, 3, 5, 5], -2.0, 5.0, &mut rng);
        let y = bn.forward(&x, Mode::Train);
        // With gamma=1, beta=0 each channel of y has mean~0, var~1.
        let plane = 25;
        for ch in 0..3 {
            let mut vals = Vec::new();
            for i in 0..4 {
                let base = (i * 3 + ch) * plane;
                vals.extend_from_slice(&y.data()[base..base + plane]);
            }
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            let var: f32 =
                vals.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / vals.len() as f32;
            assert!(mean.abs() < 1e-4, "channel {ch} mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "channel {ch} var {var}");
        }
    }

    #[test]
    fn gamma_beta_scale_and_shift() {
        let mut rng = SeededRng::new(2);
        let mut bn = BatchNorm2d::new(1);
        bn.gamma.value.data_mut()[0] = 2.0;
        bn.beta.value.data_mut()[0] = -1.0;
        let x = uniform(&[2, 1, 4, 4], -1.0, 1.0, &mut rng);
        let y = bn.forward(&x, Mode::Train);
        let mean = y.mean();
        assert!((mean - -1.0).abs() < 1e-4, "mean should equal beta, got {mean}");
    }

    #[test]
    fn running_stats_track_batch_stats() {
        let mut rng = SeededRng::new(3);
        let mut bn = BatchNorm2d::new(2);
        // Constant-ish input distribution; after many batches running mean
        // approaches the true mean (3.0) and var the true variance.
        for _ in 0..200 {
            let x = uniform(&[8, 2, 3, 3], 2.0, 4.0, &mut rng);
            let _ = bn.forward(&x, Mode::Train);
        }
        for ch in 0..2 {
            let rm = bn.running_mean.value.data()[ch];
            assert!((rm - 3.0).abs() < 0.05, "running mean {rm}");
            let rv = bn.running_var.value.data()[ch];
            // Var of U(2,4) = 4/12 = 0.333
            assert!((rv - 1.0 / 3.0).abs() < 0.05, "running var {rv}");
        }
    }

    #[test]
    fn eval_uses_running_stats() {
        let mut bn = BatchNorm2d::new(1);
        bn.running_mean.value.data_mut()[0] = 5.0;
        bn.running_var.value.data_mut()[0] = 4.0;
        let x = Tensor::full(&[1, 1, 2, 2], 7.0);
        let y = bn.forward(&x, Mode::Eval);
        // (7-5)/sqrt(4+eps) ≈ 1.0
        for &v in y.data() {
            assert!((v - 1.0).abs() < 1e-3, "{v}");
        }
        assert!(bn.cache.is_none());
    }

    #[test]
    fn gradients_pass_finite_difference_check() {
        let bn = BatchNorm2d::new(2);
        crate::gradcheck::check_layer(Box::new(bn), &[3, 2, 4, 4], 1e-2, 3e-2);
    }

    #[test]
    fn gradcheck_with_nontrivial_gamma() {
        let mut bn = BatchNorm2d::new(2);
        bn.gamma.value.data_mut().copy_from_slice(&[0.5, 1.7]);
        bn.beta.value.data_mut().copy_from_slice(&[0.3, -0.4]);
        crate::gradcheck::check_layer(Box::new(bn), &[2, 2, 3, 3], 1e-2, 3e-2);
    }

    #[test]
    fn params_expose_buffers_last() {
        let bn = BatchNorm2d::new(4);
        let kinds: Vec<ParamKind> = bn.params().iter().map(|p| p.kind).collect();
        assert_eq!(
            kinds,
            vec![ParamKind::BnGamma, ParamKind::BnBeta, ParamKind::BnMean, ParamKind::BnVar]
        );
    }

    #[test]
    #[should_panic(expected = "backward without forward")]
    fn backward_without_forward_panics() {
        let mut bn = BatchNorm2d::new(1);
        let _ = bn.backward_ws(&Tensor::zeros(&[1, 1, 2, 2]), &mut Workspace::new());
    }
}
