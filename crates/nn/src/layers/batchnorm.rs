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

/// The `G` planes of image `i` from channel `ch0` of an NCHW batch with
/// `c` channels of `plane` values.
fn planes<const G: usize>(
    x: &[f32],
    (c, plane): (usize, usize),
    i: usize,
    ch0: usize,
) -> [&[f32]; G] {
    std::array::from_fn(|k| &x[(i * c + ch0 + k) * plane..][..plane])
}

impl BatchNorm2d {
    /// The training forward of the `G` channels from `ch0` of an NCHW
    /// batch of `(n, c, plane)`: batch statistics, output, x̂, `inv_std`
    /// and running estimates. The channels' reductions run side by side,
    /// so no add waits on the one before it, but each channel's chain adds
    /// in the order it would alone: the mean as each image's plane sum,
    /// from `-0.0` as `Iterator::sum` starts, added in image order; the
    /// variance as one chain over images, then pixels. Returns `G`.
    #[allow(clippy::needless_range_loop)]
    fn train_channels<const G: usize>(
        &mut self,
        x: &[f32],
        (out, xhat, inv_std): (&mut [f32], &mut [f32], &mut [f32]),
        (n, c, plane): (usize, usize, usize),
        ch0: usize,
    ) -> usize {
        let m = (n * plane) as f32;
        let mut mean = [0.0f32; G];
        for i in 0..n {
            let src = planes::<G>(x, (c, plane), i, ch0);
            let mut sums = [-0.0f32; G];
            for p in 0..plane {
                for k in 0..G {
                    sums[k] += src[k][p];
                }
            }
            for k in 0..G {
                mean[k] += sums[k];
            }
        }
        let mean = mean.map(|sum| sum / m);
        let mut var = [0.0f32; G];
        for i in 0..n {
            let src = planes::<G>(x, (c, plane), i, ch0);
            for p in 0..plane {
                for k in 0..G {
                    let d = src[k][p] - mean[k];
                    var[k] += d * d;
                }
            }
        }
        for (k, (mean, var)) in mean.into_iter().zip(var).enumerate() {
            let ch = ch0 + k;
            let var = var / m;
            let istd = 1.0 / (var + self.eps).sqrt();
            inv_std[ch] = istd;
            let g = self.gamma.value.data()[ch];
            let b = self.beta.value.data()[ch];
            for i in 0..n {
                let base = (i * c + ch) * plane;
                let src = &x[base..base + plane];
                let xh_dst = &mut xhat[base..base + plane];
                let dst = &mut out[base..base + plane];
                for ((d, xh_d), &s) in dst.iter_mut().zip(xh_dst.iter_mut()).zip(src) {
                    let xh = (s - mean) * istd;
                    *xh_d = xh;
                    *d = g * xh + b;
                }
            }
            // Exponential running estimates (unbiased variance, as in
            // PyTorch).
            let unbiased = if m > 1.0 { var * m / (m - 1.0) } else { var };
            let rm = &mut self.running_mean.value.data_mut()[ch];
            *rm = (1.0 - self.momentum) * *rm + self.momentum * mean;
            let rv = &mut self.running_var.value.data_mut()[ch];
            *rv = (1.0 - self.momentum) * *rv + self.momentum * unbiased;
        }
        G
    }

    /// The backward of the `G` channels from `ch0` of an NCHW batch of
    /// `(n, c, plane)`: `dx`, and γ's and β's gradients. Σdy and Σdy·x̂
    /// run side by side across the channels, each one chain over images,
    /// then pixels, as a channel alone adds them. Returns `G`.
    #[allow(clippy::needless_range_loop)]
    fn backward_channels<const G: usize>(
        &self,
        dy: &[f32],
        xhat: &[f32],
        inv_std: &[f32],
        (dx, dgamma, dbeta): (&mut [f32], &mut [f32], &mut [f32]),
        (n, c, plane): (usize, usize, usize),
        ch0: usize,
    ) -> usize {
        let m = (n * plane) as f32;
        let (mut sum_dy, mut sum_dy_xhat) = ([0.0f32; G], [0.0f32; G]);
        for i in 0..n {
            let dys = planes::<G>(dy, (c, plane), i, ch0);
            let xhs = planes::<G>(xhat, (c, plane), i, ch0);
            for p in 0..plane {
                for k in 0..G {
                    let dy = dys[k][p];
                    sum_dy[k] += dy;
                    sum_dy_xhat[k] += dy * xhs[k][p];
                }
            }
        }
        for (k, (sum_dy, sum_dy_xhat)) in sum_dy.into_iter().zip(sum_dy_xhat).enumerate() {
            let ch = ch0 + k;
            dgamma[ch] = sum_dy_xhat;
            dbeta[ch] = sum_dy;
            let coeff = self.gamma.value.data()[ch] * inv_std[ch] / m;
            for i in 0..n {
                let base = (i * c + ch) * plane;
                let dys = &dy[base..base + plane];
                let xhs = &xhat[base..base + plane];
                let dst = &mut dx[base..base + plane];
                for ((d, &dy), &xh) in dst.iter_mut().zip(dys).zip(xhs) {
                    *d = coeff * (m * dy - sum_dy - xh * sum_dy_xhat);
                }
            }
        }
        G
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
        // lint: allow(hot-path-alloc) — output/cache buffers are owned by the value-path contract
        let mut out = vec![0.0f32; input.len()];
        match mode {
            Mode::Train => {
                assert!(n * plane > 1, "batchnorm needs more than one value per channel");
                // lint: allow(hot-path-alloc) — output/cache buffers are owned by the value-path contract
                let mut xhat = vec![0.0f32; input.len()];
                // lint: allow(hot-path-alloc) — per-channel stats Vec is c entries, not tensor-sized
                let mut inv_std = vec![0.0f32; c];
                let dims = (n, c, plane);
                let mut ch = 0;
                while ch < c {
                    let (x, stats) =
                        (input.data(), (&mut out[..], &mut xhat[..], &mut inv_std[..]));
                    ch += match c - ch {
                        8.. => self.train_channels::<8>(x, stats, dims, ch),
                        4.. => self.train_channels::<4>(x, stats, dims, ch),
                        2.. => self.train_channels::<2>(x, stats, dims, ch),
                        _ => self.train_channels::<1>(x, stats, dims, ch),
                    };
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
        // lint: allow(hot-path-alloc) — per-channel grad Vec is c entries, not tensor-sized
        let mut dgamma = vec![0.0f32; c];
        // lint: allow(hot-path-alloc) — per-channel grad Vec is c entries, not tensor-sized
        let mut dbeta = vec![0.0f32; c];
        // lint: allow(hot-path-alloc) — dx is returned as an owned Tensor by API contract
        let mut dx = vec![0.0f32; grad_out.len()];
        let (dy, xhat, dims) = (grad_out.data(), cache.xhat.data(), (n, c, plane));
        // Four channels at most: each reads two planes (dy and x̂), and
        // eight channels' sixteen ran no faster than one channel alone.
        let mut ch = 0;
        while ch < c {
            let grads = (&mut dx[..], &mut dgamma[..], &mut dbeta[..]);
            ch += match c - ch {
                4.. => self.backward_channels::<4>(dy, xhat, &cache.inv_std, grads, dims, ch),
                2.. => self.backward_channels::<2>(dy, xhat, &cache.inv_std, grads, dims, ch),
                _ => self.backward_channels::<1>(dy, xhat, &cache.inv_std, grads, dims, ch),
            };
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

    /// Forward (output, x̂) and running estimates, then backward (`dx`,
    /// dγ, dβ), one channel at a time, each reduction one sequential
    /// chain: the order the layer's side-by-side chains must keep.
    #[allow(clippy::type_complexity)]
    fn one_channel_at_a_time(
        bn: &BatchNorm2d,
        x: &Tensor,
        dy: &Tensor,
    ) -> (Vec<f32>, Vec<f32>, Vec<f32>, Vec<f32>, Vec<f32>, Vec<f32>, Vec<f32>) {
        let (n, c, plane) = (x.shape()[0], x.shape()[1], x.shape()[2] * x.shape()[3]);
        let m = (n * plane) as f32;
        let (x, dy) = (x.data(), dy.data());
        let (gamma, beta) = (bn.gamma.value.data(), bn.beta.value.data());
        let mut rm = bn.running_mean.value.data().to_vec();
        let mut rv = bn.running_var.value.data().to_vec();
        let (mut out, mut xhat, mut dx) =
            (vec![0.0; x.len()], vec![0.0; x.len()], vec![0.0; x.len()]);
        let (mut dgamma, mut dbeta) = (vec![0.0; c], vec![0.0; c]);
        let planes = |ch| (0..n).map(move |i| (i * c + ch) * plane..(i * c + ch + 1) * plane);
        for ch in 0..c {
            let mut mean = 0.0f32;
            for r in planes(ch) {
                mean += x[r].iter().sum::<f32>();
            }
            mean /= m;
            let mut var = 0.0f32;
            for r in planes(ch) {
                for &v in &x[r] {
                    let d = v - mean;
                    var += d * d;
                }
            }
            var /= m;
            let istd = 1.0 / (var + bn.eps).sqrt();
            for r in planes(ch) {
                for j in r {
                    xhat[j] = (x[j] - mean) * istd;
                    out[j] = gamma[ch] * xhat[j] + beta[ch];
                }
            }
            let unbiased = if m > 1.0 { var * m / (m - 1.0) } else { var };
            rm[ch] = (1.0 - bn.momentum) * rm[ch] + bn.momentum * mean;
            rv[ch] = (1.0 - bn.momentum) * rv[ch] + bn.momentum * unbiased;
            let (mut sum_dy, mut sum_dy_xhat) = (0.0f32, 0.0f32);
            for r in planes(ch) {
                for j in r {
                    sum_dy += dy[j];
                    sum_dy_xhat += dy[j] * xhat[j];
                }
            }
            (dgamma[ch], dbeta[ch]) = (sum_dy_xhat, sum_dy);
            let coeff = gamma[ch] * istd / m;
            for r in planes(ch) {
                for j in r {
                    dx[j] = coeff * (m * dy[j] - sum_dy - xhat[j] * sum_dy_xhat);
                }
            }
        }
        (out, xhat, rm, rv, dx, dgamma, dbeta)
    }

    #[test]
    fn side_by_side_channels_match_one_channel_at_a_time_bit_for_bit() {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut rng = SeededRng::new(11);
        for c in [1, 3, 6, 10, 16, 20] {
            for n in [1, 2, 10] {
                for (h, w) in [(1, 1), (2, 2), (12, 12)] {
                    if n * h * w < 2 {
                        continue;
                    }
                    let mut bn = BatchNorm2d::new(c);
                    for p in [&mut bn.gamma, &mut bn.beta, &mut bn.running_mean] {
                        p.value = uniform(&[c], -1.5, 1.5, &mut rng);
                    }
                    bn.running_var.value = uniform(&[c], 0.5, 2.0, &mut rng);
                    let x = uniform(&[n, c, h, w], -3.0, 4.0, &mut rng);
                    let dy = uniform(&[n, c, h, w], -1.0, 1.0, &mut rng);
                    let (out, xhat, rm, rv, dx, dgamma, dbeta) =
                        one_channel_at_a_time(&bn, &x, &dy);
                    let case = format!("{n}×{c}×{h}×{w}");
                    let y = bn.forward_ws(&x, Mode::Train, &mut Workspace::new());
                    assert_eq!(bits(y.data()), bits(&out), "output {case}");
                    let cached = bn.cache.as_ref().map(|cache| bits(cache.xhat.data()));
                    assert_eq!(cached, Some(bits(&xhat)), "x̂ {case}");
                    assert_eq!(
                        bits(bn.running_mean.value.data()),
                        bits(&rm),
                        "running mean {case}"
                    );
                    assert_eq!(bits(bn.running_var.value.data()), bits(&rv), "running var {case}");
                    let got_dx = bn.backward_ws(&dy, &mut Workspace::new());
                    assert_eq!(bits(got_dx.data()), bits(&dx), "dx {case}");
                    assert_eq!(bits(bn.gamma.grad.data()), bits(&dgamma), "dγ {case}");
                    assert_eq!(bits(bn.beta.grad.data()), bits(&dbeta), "dβ {case}");
                }
            }
        }
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
