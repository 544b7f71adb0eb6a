use crate::{ParamKind, Sequential};
use subfed_tensor::Tensor;

/// Whether a mask entry keeps its parameter position.
///
/// Mask entries are written as literal `0.0` or `1.0`, so the kept test is
/// "not exactly zero". Centralising it here keeps NaN-unsafe float equality
/// out of every call site: a NaN entry is treated as kept, which
/// [`is_mask_bit`] rejects before any mask enters the federation.
#[inline]
pub fn is_kept(mask_entry: f32) -> bool {
    // lint: allow(float-eq)
    mask_entry != 0.0
}

/// Number of kept entries ([`is_kept`]) of a flat mask.
///
/// A wrapping fold rather than `filter(..).count()`: with overflow checks
/// on, as the release profile keeps them, a checked count steps one entry
/// at a time, and this one vectorizes. The count cannot exceed the
/// slice's length, so nothing wraps.
#[inline]
pub fn kept_count(mask: &[f32]) -> usize {
    mask.iter().fold(0, |n: usize, &m| n.wrapping_add(usize::from(is_kept(m))))
}

/// Whether a float is a valid mask entry (exactly `0.0` or `1.0`).
///
/// NaN fails both comparisons and is correctly rejected.
#[inline]
pub fn is_mask_bit(v: f32) -> bool {
    // lint: allow(float-eq)
    v == 0.0 || v == 1.0
}

/// A binary (0/1) mask over every parameter of a model, aligned with
/// `Sequential::params` order. This is *the* object Sub-FedAvg manipulates:
/// clients iteratively shrink their masks, transmit `θ ⊙ m`, and the server
/// averages each position over the clients whose mask retains it.
///
/// Buffers (BatchNorm running statistics) always carry an all-ones mask;
/// they are aggregated but never pruned.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelMask {
    masks: Vec<Tensor>,
    kinds: Vec<ParamKind>,
}

impl ModelMask {
    /// Creates an all-ones (keep-everything) mask matching `model`.
    pub fn ones_for(model: &Sequential) -> Self {
        let params = model.params();
        Self {
            masks: params.iter().map(|p| Tensor::ones(p.value.shape())).collect(),
            kinds: params.iter().map(|p| p.kind).collect(),
        }
    }

    /// Builds a mask from raw per-parameter tensors.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ or any entry is not exactly 0.0 or 1.0.
    pub fn from_tensors(masks: Vec<Tensor>, kinds: Vec<ParamKind>) -> Self {
        assert_eq!(masks.len(), kinds.len(), "mask/kind count mismatch");
        for m in &masks {
            // A fold, not `all`, so the check vectorizes.
            let binary = m.data().iter().fold(true, |binary, &v| binary & is_mask_bit(v));
            assert!(binary, "mask entries must be exactly 0 or 1");
        }
        Self { masks, kinds }
    }

    /// Per-parameter mask tensors, aligned with `Sequential::params`.
    pub fn tensors(&self) -> &[Tensor] {
        &self.masks
    }

    /// Mutable access to the per-parameter mask tensors.
    pub fn tensors_mut(&mut self) -> &mut [Tensor] {
        &mut self.masks
    }

    /// The parameter kinds, aligned with [`ModelMask::tensors`].
    pub fn kinds(&self) -> &[ParamKind] {
        &self.kinds
    }

    /// Applies the mask to a model in place: masked weights are zeroed.
    ///
    /// # Panics
    ///
    /// Panics if the mask does not match the model's parameter layout.
    pub fn apply(&self, model: &mut Sequential) {
        let mut params = model.params_mut();
        assert_eq!(params.len(), self.masks.len(), "mask does not match model");
        for (p, m) in params.iter_mut().zip(self.masks.iter()) {
            p.value.mul_assign(m);
        }
    }

    /// Elementwise logical AND with another mask (monotone shrink).
    ///
    /// # Panics
    ///
    /// Panics if the layouts differ.
    pub fn intersect(&mut self, other: &ModelMask) {
        assert_eq!(self.masks.len(), other.masks.len(), "mask layout mismatch");
        for (a, b) in self.masks.iter_mut().zip(other.masks.iter()) {
            a.mul_assign(b);
        }
    }

    /// Number of kept (mask = 1) entries among parameters selected by
    /// `filter`.
    pub fn kept_count(&self, filter: impl Fn(ParamKind) -> bool) -> usize {
        self.masks
            .iter()
            .zip(self.kinds.iter())
            .filter(|(_, &k)| filter(k))
            .map(|(m, _)| kept_count(m.data()))
            .sum()
    }

    /// Total entries among parameters selected by `filter`.
    pub fn total_count(&self, filter: impl Fn(ParamKind) -> bool) -> usize {
        self.masks
            .iter()
            .zip(self.kinds.iter())
            .filter(|(_, &k)| filter(k))
            .map(|(m, _)| m.len())
            .sum()
    }

    /// Fraction pruned (zero entries) among parameters selected by `filter`;
    /// `0.0` when the filter selects nothing.
    pub fn pruned_fraction(&self, filter: impl Fn(ParamKind) -> bool + Copy) -> f32 {
        let total = self.total_count(filter);
        if total == 0 {
            return 0.0;
        }
        1.0 - self.kept_count(filter) as f32 / total as f32
    }

    /// Hamming distance to another mask, restricted to parameters selected
    /// by `filter` (the paper's "mask distance" Δ, normalised by the number
    /// of compared entries).
    ///
    /// # Panics
    ///
    /// Panics if the layouts differ.
    pub fn hamming_distance(&self, other: &ModelMask, filter: impl Fn(ParamKind) -> bool) -> f32 {
        assert_eq!(self.masks.len(), other.masks.len(), "mask layout mismatch");
        let mut diff = 0usize;
        let mut total = 0usize;
        for ((a, b), &k) in self.masks.iter().zip(other.masks.iter()).zip(self.kinds.iter()) {
            if !filter(k) {
                continue;
            }
            assert_eq!(a.shape(), b.shape(), "mask shape mismatch");
            total += a.len();
            // The wrapping fold of `kept_count`: it vectorizes under
            // overflow checks, and a count of entries cannot wrap.
            diff += a.data().iter().zip(b.data()).fold(0, |n: usize, (&x, &y)| {
                n.wrapping_add(usize::from(is_kept(x) != is_kept(y)))
            });
        }
        if total == 0 {
            0.0
        } else {
            diff as f32 / total as f32
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::ModelSpec;
    use subfed_tensor::init::SeededRng;

    fn tiny_model() -> Sequential {
        ModelSpec::cnn5(1, 16, 16, 3).build(&mut SeededRng::new(0))
    }

    #[test]
    fn ones_mask_keeps_everything() {
        let model = tiny_model();
        let mask = ModelMask::ones_for(&model);
        assert_eq!(mask.pruned_fraction(|_| true), 0.0);
        assert_eq!(mask.kept_count(|_| true), mask.total_count(|_| true));
    }

    #[test]
    fn apply_zeroes_masked_weights() {
        let mut model = tiny_model();
        let mut mask = ModelMask::ones_for(&model);
        mask.tensors_mut()[0].fill(0.0);
        mask.apply(&mut model);
        assert!(model.params()[0].value.data().iter().all(|&v| v == 0.0));
        // Other params untouched.
        assert!(model.params()[2].value.data().iter().any(|&v| v != 0.0));
    }

    #[test]
    fn intersect_is_logical_and() {
        let model = tiny_model();
        let mut a = ModelMask::ones_for(&model);
        let mut b = ModelMask::ones_for(&model);
        a.tensors_mut()[0].data_mut()[0] = 0.0;
        b.tensors_mut()[0].data_mut()[1] = 0.0;
        a.intersect(&b);
        assert_eq!(a.tensors()[0].data()[0], 0.0);
        assert_eq!(a.tensors()[0].data()[1], 0.0);
        assert_eq!(a.tensors()[0].data()[2], 1.0);
    }

    #[test]
    fn hamming_distance_counts_differences() {
        let model = tiny_model();
        let a = ModelMask::ones_for(&model);
        let mut b = ModelMask::ones_for(&model);
        assert_eq!(a.hamming_distance(&b, |_| true), 0.0);
        // Flip 3 entries of the first conv weight.
        for i in 0..3 {
            b.tensors_mut()[0].data_mut()[i] = 0.0;
        }
        let total = a.total_count(|_| true);
        let d = a.hamming_distance(&b, |_| true);
        assert!((d - 3.0 / total as f32).abs() < 1e-7);
    }

    #[test]
    fn pruned_fraction_respects_filter() {
        let model = tiny_model();
        let mut mask = ModelMask::ones_for(&model);
        // Zero the entire first conv weight.
        mask.tensors_mut()[0].fill(0.0);
        let conv_total: usize = mask.total_count(|k| k == ParamKind::ConvWeight);
        let conv_first = mask.tensors()[0].len();
        let expected = conv_first as f32 / conv_total as f32;
        let frac = mask.pruned_fraction(|k| k == ParamKind::ConvWeight);
        assert!((frac - expected).abs() < 1e-6);
        // FC weights untouched.
        assert_eq!(mask.pruned_fraction(|k| k == ParamKind::FcWeight), 0.0);
    }

    #[test]
    #[should_panic(expected = "exactly 0 or 1")]
    fn from_tensors_rejects_non_binary() {
        let _ =
            ModelMask::from_tensors(vec![Tensor::from_slice(&[0.5])], vec![ParamKind::FcWeight]);
    }
}
