use crate::Param;
use subfed_tensor::workspace::Workspace;
use subfed_tensor::Tensor;

/// Forward-pass mode: training (batch statistics, dropout active) or
/// evaluation (running statistics, dropout inactive).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Training mode.
    Train,
    /// Evaluation / inference mode.
    Eval,
}

/// A differentiable layer with explicit forward and backward passes.
///
/// Conventions:
///
/// * [`Layer::forward_ws`] in [`Mode::Train`] caches whatever the
///   subsequent [`Layer::backward_ws`] needs; calling backward without a
///   preceding training-mode forward panics. [`Mode::Eval`] keeps no
///   cache; apart from BatchNorm's running statistics and dropout, it
///   computes the output exactly as training does.
/// * `backward_ws` consumes the cached activations, **overwrites** each
///   parameter's `grad` with this batch's gradient, and returns the
///   gradient with respect to the layer input. One forward/backward pair
///   per optimizer step — gradients are not accumulated across calls.
/// * Temporaries come from the caller's [`Workspace`] through
///   `take_scratch`, whose contents are unspecified. Every scratch element
///   is written before it is read (the `scratch-before-read` lint rule,
///   and the tests that run layers in NaN-dirtied workspaces), so reusing
///   a workspace across calls never changes a result.
/// * Layers are `Send` so the federation can train clients on worker
///   threads.
pub trait Layer: Send {
    /// Human-readable layer name (used in parameter names and debugging).
    fn name(&self) -> &'static str;

    /// Computes the layer output for `input`, drawing temporaries from
    /// `ws`.
    fn forward_ws(&mut self, input: &Tensor, mode: Mode, ws: &mut Workspace) -> Tensor;

    /// [`Layer::forward_ws`] with a fresh [`Workspace`].
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        self.forward_ws(input, mode, &mut Workspace::new())
    }

    /// Backpropagates `grad_out` (gradient w.r.t. the layer output),
    /// returning the gradient w.r.t. the layer input.
    ///
    /// # Panics
    ///
    /// Panics if called without a preceding training-mode forward.
    fn backward_ws(&mut self, grad_out: &Tensor, ws: &mut Workspace) -> Tensor;

    /// [`Layer::backward_ws`] for a caller that has no use for the input
    /// gradient — the first layer of a model in training. Every
    /// parameter's `grad` is filled exactly as `backward_ws` fills it;
    /// a layer may skip the input-gradient pass (`Conv2d` does). The
    /// default runs `backward_ws` and drops its result.
    ///
    /// # Panics
    ///
    /// Panics if called without a preceding training-mode forward.
    fn backward_params_ws(&mut self, grad_out: &Tensor, ws: &mut Workspace) {
        self.backward_ws(grad_out, ws);
    }

    /// Installs (or clears) the compressed-row fast path derived from this
    /// layer's parameter masks. `param_masks` lines up with
    /// [`Layer::params`] — one binary mask tensor per parameter; an empty
    /// slice clears any installed pattern. The default is a no-op:
    /// only weight-bearing layers (`Conv2d`, `Linear`) have a sparse path.
    ///
    /// Masked weights are exactly `0.0` and the optimizer keeps them
    /// there, so routing compute through the kept-index pattern changes
    /// cost, never results.
    fn install_sparsity(&mut self, _param_masks: &[&Tensor]) {}

    /// The layer's parameters (possibly empty), in a stable order.
    fn params(&self) -> Vec<&Param> {
        // lint: allow(hot-path-alloc) — empty Vec for stateless layers: zero capacity, no heap
        Vec::new()
    }

    /// Mutable access to the layer's parameters, in the same order as
    /// [`Layer::params`].
    fn params_mut(&mut self) -> Vec<&mut Param> {
        // lint: allow(hot-path-alloc) — empty Vec for stateless layers: zero capacity, no heap
        Vec::new()
    }

    /// Clones the layer into a boxed trait object (activation caches
    /// included; clones are cheap because caches are small tensors).
    fn clone_box(&self) -> Box<dyn Layer>;
}

impl Clone for Box<dyn Layer> {
    // lint: cold — model cloning is per-round dispatch, never per-batch
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// Takes a layer's forward-pass cache for use in `backward_ws`.
///
/// Calling `backward_ws` without a preceding training-mode forward violates
/// the [`Layer`] contract; that is a driver bug, so this panics with the
/// uniform message `"<layer> backward without forward"` that the layer test
/// suites assert on.
pub(crate) fn take_cache<T>(cache: &mut Option<T>, layer: &str) -> T {
    match cache.take() {
        Some(c) => c,
        // Contract violation at the call site, not a recoverable error.
        // lint: allow(no-unwrap)
        None => panic!("{layer} backward without forward"),
    }
}
