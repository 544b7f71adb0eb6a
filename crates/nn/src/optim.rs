//! Mask-aware SGD with momentum and an optional FedProx proximal term.

use crate::{ModelMask, Sequential};
use subfed_tensor::Tensor;

/// Stochastic gradient descent with momentum (the paper's optimizer:
/// lr 0.01, momentum 0.5), extended with two federation hooks:
///
/// * an optional [`ModelMask`] — masked coordinates receive no update, keep
///   zero momentum, and are re-zeroed after each step, so a pruned
///   subnetwork stays pruned through local training;
/// * an optional proximal anchor `(w_global, μ)` implementing FedProx's
///   `μ/2‖w − w_global‖²` regulariser.
#[derive(Debug)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    velocity: Vec<Tensor>,
}

impl Sgd {
    /// Creates an optimizer with the given learning rate and momentum.
    ///
    /// # Panics
    ///
    /// Panics if `lr <= 0` or `momentum` is outside `[0, 1)`.
    // lint: cold — the optimizer is built once per client-round
    pub fn new(lr: f32, momentum: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        assert!((0.0..1.0).contains(&momentum), "momentum must be in [0, 1)");
        Self { lr, momentum, velocity: Vec::new() }
    }

    /// Applies one update step to `model` using the gradients stored by the
    /// last backward pass, one pass over each parameter.
    ///
    /// `mask`, when provided, freezes pruned coordinates; `prox`, when
    /// provided as `(anchor, μ)`, adds `μ(w − anchor)` to each trainable
    /// gradient (FedProx). The anchor must come from
    /// `Sequential::param_values` on an identically-shaped model.
    ///
    /// # Panics
    ///
    /// Panics if `mask` or `prox` do not match the model layout.
    pub fn step(
        &mut self,
        model: &mut Sequential,
        mask: Option<&ModelMask>,
        prox: Option<(&[Tensor], f32)>,
    ) {
        let mut params = model.params_mut();
        if self.velocity.is_empty() {
            // lint: allow(hot-path-alloc) — velocity is lazily initialized on the first step only
            self.velocity = params.iter().map(|p| Tensor::zeros(p.value.shape())).collect();
        }
        assert_eq!(self.velocity.len(), params.len(), "optimizer bound to a different model");
        if let Some(m) = mask {
            assert_eq!(m.tensors().len(), params.len(), "mask does not match model");
        }
        if let Some((anchor, _)) = prox {
            assert_eq!(anchor.len(), params.len(), "proximal anchor does not match model");
        }
        let (lr, momentum) = (self.lr, self.momentum);
        for ((i, p), v) in params.iter_mut().enumerate().zip(&mut self.velocity) {
            if !p.kind.is_trainable() {
                continue;
            }
            let w = p.value.data_mut();
            let n = w.len();
            let (g, v) = (&p.grad.data()[..n], v.data_mut());
            let keep = mask.map(|m| m.tensors()[i].data());
            match prox {
                // FedProx: ∇ += μ (w − w_global).
                Some((anchor, mu)) => {
                    let anchor = &anchor[i].data()[..n];
                    update(w, v, keep, lr, momentum, |j, w| g[j] + mu * (w - anchor[j]));
                }
                None => update(w, v, keep, lr, momentum, |j, _| g[j]),
            }
        }
    }
}

/// One parameter's update, element by element: the gradient `grad(j, w)`
/// (masked when `keep` is given, so a pruned coordinate gets none), then
/// `v ← momentum·v + ∇` and `w ← w − lr·v`, then the re-mask. The slices
/// share one length, and each case is its own loop, so every loop
/// vectorizes.
#[inline(always)]
fn update(
    w: &mut [f32],
    v: &mut [f32],
    keep: Option<&[f32]>,
    lr: f32,
    momentum: f32,
    grad: impl Fn(usize, f32) -> f32,
) {
    let v = &mut v[..w.len()];
    match keep.map(|keep| &keep[..w.len()]) {
        Some(keep) => {
            for j in 0..w.len() {
                v[j] = v[j] * momentum + grad(j, w[j]) * keep[j];
                w[j] += -lr * v[j];
                // Keep pruned coordinates exactly zero (guards against
                // momentum drift and non-zero initial values).
                w[j] *= keep[j];
                v[j] *= keep[j];
            }
        }
        None => {
            for j in 0..w.len() {
                v[j] = v[j] * momentum + grad(j, w[j]);
                w[j] += -lr * v[j];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::Linear;
    use crate::{Mode, ParamKind};
    use subfed_tensor::init::SeededRng;
    use subfed_tensor::workspace::Workspace;

    fn model_with_grads(rng: &mut SeededRng) -> Sequential {
        let mut m = Sequential::new();
        m.push(Box::new(Linear::new(3, 2, rng)));
        let x = subfed_tensor::init::uniform(&[4, 3], -1.0, 1.0, rng);
        let y = m.forward(&x, Mode::Train);
        m.backward_ws(&y, &mut Workspace::new());
        m
    }

    #[test]
    fn step_moves_against_gradient() {
        let mut rng = SeededRng::new(1);
        let mut m = model_with_grads(&mut rng);
        let before = m.flatten();
        let grads: Vec<f32> = m.params().iter().flat_map(|p| p.grad.data().to_vec()).collect();
        let mut opt = Sgd::new(0.1, 0.0);
        opt.step(&mut m, None, None);
        let after = m.flatten();
        for ((b, a), g) in before.iter().zip(after.iter()).zip(grads.iter()) {
            assert!((a - (b - 0.1 * g)).abs() < 1e-6);
        }
    }

    #[test]
    fn momentum_accumulates() {
        let mut rng = SeededRng::new(2);
        let mut m = model_with_grads(&mut rng);
        // Freeze the gradient by snapshotting it.
        let g0: Vec<f32> = m.params().iter().flat_map(|p| p.grad.data().to_vec()).collect();
        let w0 = m.flatten();
        let mut opt = Sgd::new(0.1, 0.5);
        opt.step(&mut m, None, None);
        // Re-install the same gradient and step again: velocity = g + 0.5 g.
        let mut offset = 0;
        for p in m.params_mut() {
            let len = p.len();
            p.grad.data_mut().copy_from_slice(&g0[offset..offset + len]);
            offset += len;
        }
        opt.step(&mut m, None, None);
        let w2 = m.flatten();
        for ((w, w0), g) in w2.iter().zip(w0.iter()).zip(g0.iter()) {
            // Total displacement: -lr (g) - lr (1.5 g) = -0.25 g
            assert!((w - (w0 - 0.25 * g)).abs() < 1e-5, "{w} vs {}", w0 - 0.25 * g);
        }
    }

    #[test]
    fn masked_coordinates_stay_zero() {
        let mut rng = SeededRng::new(3);
        let mut m = model_with_grads(&mut rng);
        let mut mask = ModelMask::ones_for(&m);
        mask.tensors_mut()[0].data_mut()[0] = 0.0;
        mask.apply(&mut m);
        let mut opt = Sgd::new(0.1, 0.9);
        for _ in 0..5 {
            // Refresh gradients each step.
            let x = subfed_tensor::init::uniform(&[4, 3], -1.0, 1.0, &mut rng);
            let y = m.forward(&x, Mode::Train);
            m.backward_ws(&y, &mut Workspace::new());
            opt.step(&mut m, Some(&mask), None);
            assert_eq!(m.params()[0].value.data()[0], 0.0, "masked weight moved");
        }
        // Unmasked coordinates did move.
        assert!(m.params()[0].value.data()[1] != 0.0);
    }

    #[test]
    fn buffers_are_not_updated() {
        use crate::layers::BatchNorm2d;
        let mut rng = SeededRng::new(4);
        let mut m = Sequential::new();
        m.push(Box::new(BatchNorm2d::new(2)));
        let x = subfed_tensor::init::uniform(&[2, 2, 3, 3], -1.0, 1.0, &mut rng);
        let y = m.forward(&x, Mode::Train);
        m.backward_ws(&y, &mut Workspace::new());
        let mean_before: Vec<f32> =
            m.params().iter().find(|p| p.kind == ParamKind::BnMean).unwrap().value.data().to_vec();
        let mut opt = Sgd::new(0.1, 0.0);
        opt.step(&mut m, None, None);
        let mean_after: Vec<f32> =
            m.params().iter().find(|p| p.kind == ParamKind::BnMean).unwrap().value.data().to_vec();
        assert_eq!(mean_before, mean_after);
    }

    #[test]
    fn proximal_term_pulls_toward_anchor() {
        let mut rng = SeededRng::new(5);
        let mut m = Sequential::new();
        m.push(Box::new(Linear::new(2, 2, &mut rng)));
        // Zero gradients: the only force is the proximal pull.
        for p in m.params_mut() {
            p.grad.fill(0.0);
        }
        let anchor: Vec<Tensor> =
            m.params().iter().map(|p| Tensor::full(p.value.shape(), 10.0)).collect();
        let before = m.flatten();
        let mut opt = Sgd::new(0.1, 0.0);
        opt.step(&mut m, None, Some((&anchor, 1.0)));
        let after = m.flatten();
        for (b, a) in before.iter().zip(after.iter()) {
            // w' = w - lr * mu * (w - 10) => moves toward 10.
            assert!((a - (b - 0.1 * (b - 10.0))).abs() < 1e-5);
            assert!((a - 10.0).abs() < (b - 10.0).abs());
        }
    }

    #[test]
    fn one_pass_step_matches_the_tensor_op_sequence() {
        // The reference is the step as whole-tensor operations: the
        // effective gradient (proximal term, then mask), then momentum
        // scale, add, axpy and re-mask. Every element must agree bit for
        // bit over several steps, with both hooks on.
        let mut rng = SeededRng::new(9);
        let mut m = model_with_grads(&mut rng);
        let mut mask = ModelMask::ones_for(&m);
        for (k, v) in mask.tensors_mut()[0].data_mut().iter_mut().enumerate() {
            *v = if k % 3 == 0 { 0.0 } else { 1.0 };
        }
        mask.apply(&mut m);
        let anchor = m.param_values();
        let (lr, momentum, mu) = (0.05, 0.5, 0.3);
        let mut reference = m.clone();
        let mut velocity: Vec<Tensor> =
            m.params().iter().map(|p| Tensor::zeros(p.value.shape())).collect();
        let mut opt = Sgd::new(lr, momentum);
        for _ in 0..4 {
            let x = subfed_tensor::init::uniform(&[4, 3], -1.0, 1.0, &mut rng);
            for model in [&mut m, &mut reference] {
                let y = model.forward(&x, Mode::Train);
                model.backward_ws(&y, &mut Workspace::new());
            }
            opt.step(&mut m, Some(&mask), Some((&anchor, mu)));
            for (i, p) in reference.params_mut().into_iter().enumerate() {
                let mut grad = p.grad.clone();
                for ((g, &w), &a) in
                    grad.data_mut().iter_mut().zip(p.value.data()).zip(anchor[i].data())
                {
                    *g += mu * (w - a);
                }
                grad.mul_assign(&mask.tensors()[i]);
                let v = &mut velocity[i];
                v.scale_assign(momentum);
                v.add_assign(&grad);
                p.value.axpy(-lr, v);
                p.value.mul_assign(&mask.tensors()[i]);
                v.mul_assign(&mask.tensors()[i]);
            }
            let bits = |model: &Sequential| -> Vec<u32> {
                model.flatten().iter().map(|v| v.to_bits()).collect()
            };
            assert_eq!(bits(&m), bits(&reference));
        }
    }

    #[test]
    #[should_panic(expected = "momentum must be in")]
    fn invalid_momentum_rejected() {
        let _ = Sgd::new(0.1, 1.0);
    }

    #[test]
    #[should_panic(expected = "learning rate must be positive")]
    fn invalid_lr_rejected() {
        let _ = Sgd::new(0.0, 0.5);
    }
}
