use subfed_tensor::Tensor;

/// The role a parameter tensor plays in the network.
///
/// The pruning algorithms dispatch on this: unstructured pruning in
/// Sub-FedAvg (Un) targets all *weights*; the hybrid algorithm prunes conv
/// layers through BatchNorm scale factors (`BnGamma`) and restricts
/// unstructured pruning to the fully-connected weights. BatchNorm running
/// statistics are aggregated but never trained or pruned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ParamKind {
    /// Convolution kernel, shape `[out_ch, in_ch, kh, kw]`.
    ConvWeight,
    /// Convolution bias, shape `[out_ch]`.
    ConvBias,
    /// BatchNorm scale γ, shape `[ch]` — the channel-importance indicator
    /// used by structured (network-slimming) pruning.
    BnGamma,
    /// BatchNorm shift β, shape `[ch]`.
    BnBeta,
    /// BatchNorm running mean buffer, shape `[ch]` (not trained).
    BnMean,
    /// BatchNorm running variance buffer, shape `[ch]` (not trained).
    BnVar,
    /// Fully-connected weight, shape `[out, in]`.
    FcWeight,
    /// Fully-connected bias, shape `[out]`.
    FcBias,
}

impl ParamKind {
    /// Whether the optimizer updates this parameter.
    pub fn is_trainable(self) -> bool {
        !matches!(self, ParamKind::BnMean | ParamKind::BnVar)
    }

    /// Whether this parameter is a weight matrix/kernel (the targets of
    /// unstructured magnitude pruning — biases and BN parameters are kept,
    /// as in the paper's reference implementation).
    pub fn is_prunable_weight(self) -> bool {
        matches!(self, ParamKind::ConvWeight | ParamKind::FcWeight)
    }
}

/// A trainable (or buffered) tensor together with its gradient.
#[derive(Debug, Clone)]
pub struct Param {
    /// Role of this parameter.
    pub kind: ParamKind,
    /// Current value.
    pub value: Tensor,
    /// Gradient of the last backward pass (same shape as `value`).
    pub grad: Tensor,
}

impl Param {
    /// Creates a parameter with a zeroed gradient.
    pub fn new(kind: ParamKind, value: Tensor) -> Self {
        let grad = Tensor::zeros(value.shape());
        Self { kind, value, grad }
    }

    /// Number of scalar elements.
    pub fn len(&self) -> usize {
        self.value.len()
    }

    /// Whether the parameter is empty.
    pub fn is_empty(&self) -> bool {
        self.value.is_empty()
    }
}

/// Metadata describing one parameter's position in a model's flat layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParamMeta {
    /// Stable name, e.g. `layer3.bn_gamma`.
    pub name: String,
    /// Role of the parameter.
    pub kind: ParamKind,
    /// Tensor shape.
    pub shape: Vec<usize>,
    /// Offset into the flat parameter vector.
    pub offset: usize,
    /// Number of elements.
    pub len: usize,
}

impl ParamMeta {
    /// This parameter's values in a flat vector laid out like the model
    /// that produced this meta (`Sequential::flatten`).
    ///
    /// # Panics
    ///
    /// Panics if `flat` is too short for this parameter's range.
    pub fn slice<'a>(&self, flat: &'a [f32]) -> &'a [f32] {
        &flat[self.offset..self.offset + self.len]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trainability() {
        assert!(ParamKind::ConvWeight.is_trainable());
        assert!(ParamKind::BnGamma.is_trainable());
        assert!(ParamKind::FcBias.is_trainable());
        assert!(!ParamKind::BnMean.is_trainable());
        assert!(!ParamKind::BnVar.is_trainable());
    }

    #[test]
    fn prunable_weights_are_conv_and_fc_kernels_only() {
        assert!(ParamKind::ConvWeight.is_prunable_weight());
        assert!(ParamKind::FcWeight.is_prunable_weight());
        for k in [
            ParamKind::ConvBias,
            ParamKind::BnGamma,
            ParamKind::BnBeta,
            ParamKind::BnMean,
            ParamKind::BnVar,
            ParamKind::FcBias,
        ] {
            assert!(!k.is_prunable_weight(), "{k:?} must not be prunable");
        }
    }

    #[test]
    fn param_starts_with_zero_grad() {
        let p = Param::new(ParamKind::FcWeight, Tensor::ones(&[2, 3]));
        assert_eq!(p.grad.shape(), &[2, 3]);
        assert!(p.grad.data().iter().all(|&g| g == 0.0));
        assert_eq!(p.len(), 6);
        assert!(!p.is_empty());
    }
}
