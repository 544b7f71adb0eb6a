use crate::{Layer, Mode, ModelMask, Param, ParamMeta};
use subfed_tensor::workspace::Workspace;
use subfed_tensor::Tensor;

/// An ordered stack of layers trained end-to-end.
///
/// Besides forward/backward, `Sequential` provides the *flat parameter
/// view* the federation is built on: [`Sequential::flatten`] serialises all
/// parameters (including BatchNorm buffers) into one `Vec<f32>` whose layout
/// is described by [`Sequential::metas`], and [`Sequential::load_flat`]
/// restores it. Server aggregation, mask bookkeeping, and communication
/// accounting all operate on this flat view.
#[derive(Clone)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<&str> = self.layers.iter().map(|l| l.name()).collect();
        f.debug_struct("Sequential").field("layers", &names).finish()
    }
}

impl Sequential {
    /// Creates an empty model.
    pub fn new() -> Self {
        Self { layers: Vec::new() }
    }

    /// Appends a layer.
    pub fn push(&mut self, layer: Box<dyn Layer>) -> &mut Self {
        self.layers.push(layer);
        self
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the model has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// The layers, in order.
    pub fn layers(&self) -> &[Box<dyn Layer>] {
        &self.layers
    }

    /// Mutable access to the layers.
    pub fn layers_mut(&mut self) -> &mut [Box<dyn Layer>] {
        &mut self.layers
    }

    /// [`Sequential::forward_ws`] with a fresh [`Workspace`].
    pub fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        self.forward_ws(input, mode, &mut Workspace::new())
    }

    /// Runs the forward pass through every layer, threading one scratch
    /// [`Workspace`] through all of them.
    pub fn forward_ws(&mut self, input: &Tensor, mode: Mode, ws: &mut Workspace) -> Tensor {
        // lint: allow(hot-path-alloc) — one clone of the batch input; activations then move layer to layer
        let mut x = input.clone();
        for layer in &mut self.layers {
            x = layer.forward_ws(&x, mode, ws);
        }
        x
    }

    /// The training backward: runs the layers' backward passes in reverse
    /// order with an explicit scratch [`Workspace`], filling every
    /// parameter's gradient. It returns nothing, because training has no
    /// use for the gradient w.r.t. the model input, so the first layer is
    /// asked for its parameter gradients only
    /// ([`Layer::backward_params_ws`]) and every other layer runs
    /// [`Layer::backward_ws`].
    ///
    /// # Panics
    ///
    /// Panics if no training-mode forward preceded this call.
    pub fn backward_ws(&mut self, grad_out: &Tensor, ws: &mut Workspace) {
        let Some((first, rest)) = self.layers.split_first_mut() else { return };
        let mut g: Option<Tensor> = None;
        for layer in rest.iter_mut().rev() {
            g = Some(layer.backward_ws(g.as_ref().unwrap_or(grad_out), ws));
        }
        first.backward_params_ws(g.as_ref().unwrap_or(grad_out), ws);
    }

    /// Installs each layer's compressed-row fast path from a model mask
    /// whose tensors line up with [`Sequential::params`] (the layout
    /// `ModelMask::ones_for` produces). Layers whose masks are dense stay
    /// on the blocked dense kernels; call [`Sequential::clear_sparsity`]
    /// to drop the patterns.
    ///
    /// # Panics
    ///
    /// Panics if the mask tensor count does not match the parameter count.
    // lint: cold — patterns are rebuilt only when a round's mask changes
    pub fn install_sparsity(&mut self, model_mask: &ModelMask) {
        let tensors = model_mask.tensors();
        let mut offset = 0;
        for layer in &mut self.layers {
            let count = layer.params().len();
            assert!(
                offset + count <= tensors.len(),
                "mask has {} tensors but model needs more",
                tensors.len()
            );
            let layer_masks: Vec<&Tensor> = tensors[offset..offset + count].iter().collect();
            layer.install_sparsity(&layer_masks);
            offset += count;
        }
        assert_eq!(offset, tensors.len(), "mask does not line up with model parameters");
    }

    /// Clears every layer's compressed-row fast path (all compute returns
    /// to the blocked dense kernels).
    pub fn clear_sparsity(&mut self) {
        for layer in &mut self.layers {
            layer.install_sparsity(&[]);
        }
    }

    /// All parameters in a stable order (layer order, then each layer's
    /// declared parameter order).
    pub fn params(&self) -> Vec<&Param> {
        // lint: allow(hot-path-alloc) — short Vec of param refs, cheap next to a batch
        self.layers.iter().flat_map(|l| l.params()).collect()
    }

    /// Mutable access to all parameters, same order as
    /// [`Sequential::params`].
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        // lint: allow(hot-path-alloc) — short Vec of param refs, cheap next to a batch
        self.layers.iter_mut().flat_map(|l| l.params_mut()).collect()
    }

    /// Number of trainable scalar parameters (excludes BatchNorm buffers).
    pub fn num_trainable(&self) -> usize {
        self.params().iter().filter(|p| p.kind.is_trainable()).map(|p| p.len()).sum()
    }

    /// Total number of scalar parameters including buffers.
    pub fn num_params(&self) -> usize {
        self.params().iter().map(|p| p.len()).sum()
    }

    /// Metadata describing the flat layout produced by
    /// [`Sequential::flatten`].
    pub fn metas(&self) -> Vec<ParamMeta> {
        let mut metas = Vec::new();
        let mut offset = 0;
        for (li, layer) in self.layers.iter().enumerate() {
            for p in layer.params() {
                metas.push(ParamMeta {
                    name: format!("layer{li}.{}.{:?}", layer.name(), p.kind),
                    kind: p.kind,
                    shape: p.value.shape().to_vec(),
                    offset,
                    len: p.len(),
                });
                offset += p.len();
            }
        }
        metas
    }

    /// Serialises all parameters (buffers included) into one flat vector.
    pub fn flatten(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.num_params());
        for p in self.params() {
            out.extend_from_slice(p.value.data());
        }
        out
    }

    /// Restores parameters from a flat vector produced by
    /// [`Sequential::flatten`] on an identically-shaped model.
    ///
    /// # Panics
    ///
    /// Panics if `flat.len()` does not match the model's parameter count.
    pub fn load_flat(&mut self, flat: &[f32]) {
        assert_eq!(flat.len(), self.num_params(), "flat parameter length mismatch");
        let mut offset = 0;
        for p in self.params_mut() {
            let len = p.len();
            p.value.data_mut().copy_from_slice(&flat[offset..offset + len]);
            offset += len;
        }
    }

    /// Snapshots parameter values as per-parameter tensors (used for the
    /// FedProx proximal anchor).
    // lint: cold — per-round anchor snapshot, not per-batch work
    pub fn param_values(&self) -> Vec<Tensor> {
        self.params().iter().map(|p| p.value.clone()).collect()
    }

    /// Snapshots parameters as a named state dict (PyTorch-style), using
    /// the same names as [`Sequential::metas`].
    pub fn state_dict(&self) -> Vec<(String, Tensor)> {
        self.metas()
            .into_iter()
            .zip(self.params())
            .map(|(meta, p)| (meta.name, p.value.clone()))
            .collect()
    }

    /// Restores parameters from a named state dict, validating every name
    /// and shape — the safe way to exchange weights between separately
    /// constructed models.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first mismatch: wrong entry count,
    /// unexpected name, or wrong shape.
    #[must_use = "a dropped Result hides the name/shape mismatch it reports"]
    pub fn load_state_dict(&mut self, state: &[(String, Tensor)]) -> Result<(), String> {
        let metas = self.metas();
        if state.len() != metas.len() {
            return Err(format!(
                "state dict has {} entries, model expects {}",
                state.len(),
                metas.len()
            ));
        }
        for (meta, (name, tensor)) in metas.iter().zip(state) {
            if &meta.name != name {
                return Err(format!("expected parameter `{}`, got `{name}`", meta.name));
            }
            if meta.shape != tensor.shape() {
                return Err(format!(
                    "parameter `{name}`: expected shape {:?}, got {:?}",
                    meta.shape,
                    tensor.shape()
                ));
            }
        }
        for (p, (_, tensor)) in self.params_mut().into_iter().zip(state) {
            p.value = tensor.clone();
        }
        Ok(())
    }
}

impl Default for Sequential {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Flatten, Linear, ReLU};
    use crate::loss::softmax_cross_entropy;
    use crate::ParamKind;
    use subfed_tensor::init::{uniform, SeededRng};

    fn mlp(rng: &mut SeededRng) -> Sequential {
        let mut m = Sequential::new();
        m.push(Box::new(Flatten::new()));
        m.push(Box::new(Linear::new(6, 5, rng)));
        m.push(Box::new(ReLU::new()));
        m.push(Box::new(Linear::new(5, 3, rng)));
        m
    }

    #[test]
    fn forward_shape() {
        let mut rng = SeededRng::new(1);
        let mut m = mlp(&mut rng);
        let x = Tensor::zeros(&[4, 6]);
        let y = m.forward(&x, Mode::Eval);
        assert_eq!(y.shape(), &[4, 3]);
    }

    #[test]
    fn flatten_load_roundtrip() {
        let mut rng = SeededRng::new(2);
        let m = mlp(&mut rng);
        let flat = m.flatten();
        assert_eq!(flat.len(), m.num_params());
        let mut m2 = mlp(&mut rng); // different random init
        assert_ne!(m2.flatten(), flat);
        m2.load_flat(&flat);
        assert_eq!(m2.flatten(), flat);
    }

    #[test]
    fn metas_describe_layout() {
        let mut rng = SeededRng::new(3);
        let m = mlp(&mut rng);
        let metas = m.metas();
        assert_eq!(metas.len(), 4); // 2 linear layers x (W, b)
        assert_eq!(metas[0].kind, ParamKind::FcWeight);
        assert_eq!(metas[0].shape, vec![5, 6]);
        assert_eq!(metas[0].offset, 0);
        assert_eq!(metas[1].kind, ParamKind::FcBias);
        assert_eq!(metas[1].offset, 30);
        let total: usize = metas.iter().map(|m| m.len).sum();
        assert_eq!(total, m.num_params());
        // Offsets are contiguous.
        for w in metas.windows(2) {
            assert_eq!(w[0].offset + w[0].len, w[1].offset);
        }
    }

    #[test]
    fn num_trainable_excludes_buffers() {
        use crate::layers::BatchNorm2d;
        let mut m = Sequential::new();
        m.push(Box::new(BatchNorm2d::new(4)));
        assert_eq!(m.num_params(), 16); // gamma, beta, mean, var
        assert_eq!(m.num_trainable(), 8); // gamma, beta
    }

    #[test]
    fn one_sgd_like_step_reduces_loss() {
        let mut rng = SeededRng::new(4);
        let mut m = mlp(&mut rng);
        let x = uniform(&[8, 6], -1.0, 1.0, &mut rng);
        let labels = [0usize, 1, 2, 0, 1, 2, 0, 1];
        let logits = m.forward(&x, Mode::Train);
        let (loss0, grad) = softmax_cross_entropy(&logits, &labels);
        m.backward_ws(&grad, &mut Workspace::new());
        for p in m.params_mut() {
            if p.kind.is_trainable() {
                let g = p.grad.clone();
                p.value.axpy(-0.5, &g);
            }
        }
        let logits1 = m.forward(&x, Mode::Eval);
        let (loss1, _) = softmax_cross_entropy(&logits1, &labels);
        assert!(loss1 < loss0, "loss should drop: {loss0} -> {loss1}");
    }

    #[test]
    fn clone_is_independent() {
        let mut rng = SeededRng::new(5);
        let m = mlp(&mut rng);
        let mut m2 = m.clone();
        m2.params_mut()[0].value.fill(0.0);
        assert!(m.params()[0].value.data().iter().any(|&v| v != 0.0));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn load_flat_rejects_wrong_length() {
        let mut rng = SeededRng::new(6);
        let mut m = mlp(&mut rng);
        m.load_flat(&[0.0; 3]);
    }

    #[test]
    fn state_dict_roundtrip_and_validation() {
        let mut rng = SeededRng::new(8);
        let m = mlp(&mut rng);
        let state = m.state_dict();
        assert_eq!(state.len(), 4);
        assert!(state[0].0.contains("linear"));
        // Load into a differently initialised clone of the architecture.
        let mut other = mlp(&mut rng);
        assert_ne!(other.flatten(), m.flatten());
        other.load_state_dict(&state).unwrap();
        assert_eq!(other.flatten(), m.flatten());
        // Wrong count.
        assert!(other.load_state_dict(&state[..2]).unwrap_err().contains("entries"));
        // Wrong name.
        let mut renamed = state.clone();
        renamed[0].0 = "bogus".into();
        assert!(other.load_state_dict(&renamed).unwrap_err().contains("expected parameter"));
        // Wrong shape.
        let mut reshaped = state.clone();
        reshaped[1].1 = Tensor::zeros(&[7]);
        assert!(other.load_state_dict(&reshaped).unwrap_err().contains("expected shape"));
    }

    #[test]
    fn debug_lists_layers() {
        let mut rng = SeededRng::new(7);
        let m = mlp(&mut rng);
        let s = format!("{m:?}");
        assert!(s.contains("linear") && s.contains("relu"));
    }
}
