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
    clip_norm: Option<f32>,
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
        Self { lr, momentum, clip_norm: None, velocity: Vec::new() }
    }

    /// Enables global gradient-norm clipping: before each step the full
    /// gradient (over all trainable parameters, after masking and the
    /// proximal term) is rescaled so its L2 norm does not exceed
    /// `max_norm`. Common in FL to bound client-update magnitudes.
    ///
    /// # Panics
    ///
    /// Panics if `max_norm <= 0`.
    pub fn with_clip_norm(mut self, max_norm: f32) -> Self {
        assert!(max_norm > 0.0, "clip norm must be positive");
        self.clip_norm = Some(max_norm);
        self
    }

    /// The learning rate.
    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// Sets the learning rate (for decay schedules).
    pub fn set_lr(&mut self, lr: f32) {
        assert!(lr > 0.0, "learning rate must be positive");
        self.lr = lr;
    }

    /// Applies one update step to `model` using the gradients stored by the
    /// last backward pass.
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
        // Pass 1: effective gradients (prox + mask applied).
        let mut grads: Vec<Option<Tensor>> = Vec::with_capacity(params.len());
        for (i, p) in params.iter().enumerate() {
            if !p.kind.is_trainable() {
                grads.push(None);
                continue;
            }
            // lint: allow(hot-path-alloc) — owned grad copy so decay and masking never alias the param
            let mut grad = p.grad.clone();
            if let Some((anchor, mu)) = prox {
                // FedProx: ∇ += μ (w − w_global)
                for ((g, &w), &a) in
                    grad.data_mut().iter_mut().zip(p.value.data()).zip(anchor[i].data())
                {
                    *g += mu * (w - a);
                }
            }
            if let Some(m) = mask {
                grad.mul_assign(&m.tensors()[i]);
            }
            grads.push(Some(grad));
        }
        // Optional global-norm clipping across the whole gradient.
        if let Some(max_norm) = self.clip_norm {
            let sq: f32 = grads.iter().flatten().map(Tensor::sq_norm).sum();
            let norm = sq.sqrt();
            if norm > max_norm {
                let scale = max_norm / norm;
                for g in grads.iter_mut().flatten() {
                    g.scale_assign(scale);
                }
            }
        }
        // Pass 2: momentum + update.
        for ((i, p), grad) in params.iter_mut().enumerate().zip(grads) {
            let Some(grad) = grad else { continue };
            let v = &mut self.velocity[i];
            v.scale_assign(self.momentum);
            v.add_assign(&grad);
            p.value.axpy(-self.lr, v);
            if let Some(m) = mask {
                // Keep pruned coordinates exactly zero (guards against
                // momentum drift and non-zero initial values).
                p.value.mul_assign(&m.tensors()[i]);
                v.mul_assign(&m.tensors()[i]);
            }
        }
    }
}

/// Multiplicative step learning-rate decay: `lr(round) = lr₀ · γ^⌊round/step⌋`.
///
/// FL works (including the Sub-FedAvg authors' follow-ups) commonly decay
/// the client learning rate across communication rounds; this schedule is
/// exposed for the extension experiments.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepLr {
    base_lr: f32,
    gamma: f32,
    step: usize,
}

impl StepLr {
    /// Creates a schedule decaying by `gamma` every `step` rounds.
    ///
    /// # Panics
    ///
    /// Panics unless `base_lr > 0`, `0 < gamma <= 1`, and `step > 0`.
    pub fn new(base_lr: f32, gamma: f32, step: usize) -> Self {
        assert!(base_lr > 0.0, "base learning rate must be positive");
        assert!(gamma > 0.0 && gamma <= 1.0, "gamma must be in (0, 1]");
        assert!(step > 0, "step must be positive");
        Self { base_lr, gamma, step }
    }

    /// The learning rate for a 1-based round index.
    pub fn lr_at(&self, round: usize) -> f32 {
        self.base_lr * self.gamma.powi((round / self.step) as i32)
    }

    /// Applies the schedule to an optimizer for the given round.
    pub fn apply(&self, opt: &mut Sgd, round: usize) {
        opt.set_lr(self.lr_at(round));
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
    fn clipping_bounds_the_update() {
        let mut rng = SeededRng::new(6);
        let mut m = Sequential::new();
        m.push(Box::new(Linear::new(3, 2, &mut rng)));
        // Install huge gradients.
        for p in m.params_mut() {
            p.grad = Tensor::full(p.value.shape(), 100.0);
        }
        let before = m.flatten();
        let mut opt = Sgd::new(1.0, 0.0).with_clip_norm(1.0);
        opt.step(&mut m, None, None);
        let after = m.flatten();
        let step_norm: f32 =
            before.iter().zip(after.iter()).map(|(b, a)| (a - b) * (a - b)).sum::<f32>().sqrt();
        // lr 1.0, clip 1.0 -> the displacement norm is exactly the clip.
        assert!((step_norm - 1.0).abs() < 1e-4, "step norm {step_norm}");
    }

    #[test]
    fn clipping_is_inactive_below_threshold() {
        let mut rng = SeededRng::new(7);
        let make = |rng: &mut SeededRng| {
            let mut m = Sequential::new();
            m.push(Box::new(Linear::new(3, 2, rng)));
            for p in m.params_mut() {
                p.grad = Tensor::full(p.value.shape(), 0.01);
            }
            m
        };
        let mut m1 = make(&mut rng);
        let mut m2 = m1.clone();
        let mut plain = Sgd::new(0.1, 0.0);
        plain.step(&mut m1, None, None);
        let mut clipped = Sgd::new(0.1, 0.0).with_clip_norm(1e6);
        clipped.step(&mut m2, None, None);
        assert_eq!(m1.flatten(), m2.flatten());
    }

    #[test]
    #[should_panic(expected = "clip norm must be positive")]
    fn zero_clip_rejected() {
        let _ = Sgd::new(0.1, 0.0).with_clip_norm(0.0);
    }

    #[test]
    fn step_lr_decays_geometrically() {
        let s = StepLr::new(0.1, 0.5, 10);
        assert_eq!(s.lr_at(0), 0.1);
        assert_eq!(s.lr_at(9), 0.1);
        assert!((s.lr_at(10) - 0.05).abs() < 1e-8);
        assert!((s.lr_at(25) - 0.025).abs() < 1e-8);
        let mut opt = Sgd::new(0.1, 0.0);
        s.apply(&mut opt, 20);
        assert!((opt.lr() - 0.025).abs() < 1e-8);
    }

    #[test]
    #[should_panic(expected = "gamma must be in")]
    fn step_lr_rejects_bad_gamma() {
        let _ = StepLr::new(0.1, 0.0, 5);
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
