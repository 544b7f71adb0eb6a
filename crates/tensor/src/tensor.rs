use crate::ShapeError;
use serde::{Deserialize, Serialize};

/// A dense, row-major, n-dimensional `f32` tensor.
///
/// This is deliberately simple: shapes are `Vec<usize>`, data is a flat
/// `Vec<f32>`, and strides are implicit (row-major/C order). All binary
/// elementwise operations require identical shapes; broadcasting, where
/// needed (bias addition, per-channel batch-norm), is provided by dedicated
/// methods in the layers that need it.
///
/// # Example
///
/// ```
/// use subfed_tensor::Tensor;
///
/// let t = Tensor::zeros(&[2, 3]);
/// assert_eq!(t.shape(), &[2, 3]);
/// assert_eq!(t.len(), 6);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor of zeros with the given shape.
    pub fn zeros(shape: &[usize]) -> Self {
        Self::full(shape, 0.0)
    }

    /// Creates a tensor of ones with the given shape.
    pub fn ones(shape: &[usize]) -> Self {
        Self::full(shape, 1.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        let len = shape.iter().product();
        // lint: allow(hot-path-alloc) — a constructor allocates by definition
        Self { shape: shape.to_vec(), data: vec![value; len] }
    }

    /// Creates a tensor from a flat data vector.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `data.len()` does not equal the product of
    /// `shape`.
    #[must_use = "a dropped Result hides the shape mismatch it reports"]
    pub fn from_vec(shape: Vec<usize>, data: Vec<f32>) -> Result<Self, ShapeError> {
        let expected: usize = shape.iter().product();
        if data.len() != expected {
            return Err(ShapeError::new(format!(
                "shape {:?} requires {} elements, got {}",
                shape,
                expected,
                data.len()
            )));
        }
        Ok(Self { shape, data })
    }

    /// Creates a tensor from a flat data vector whose length is known by
    /// construction to match `shape`.
    ///
    /// Use this when the caller just computed `data` from `shape` (e.g. an
    /// output buffer sized `rows * cols`); use [`Tensor::from_vec`] when the
    /// data crosses a trust boundary and the mismatch must be reportable.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not equal the product of `shape` — that
    /// is a bug at the call site, not a recoverable condition.
    pub fn from_parts(shape: Vec<usize>, data: Vec<f32>) -> Self {
        let expected: usize = shape.iter().product();
        assert_eq!(
            data.len(),
            expected,
            "from_parts: shape {:?} requires {} elements, got {}",
            shape,
            expected,
            data.len()
        );
        Self { shape, data }
    }

    /// Creates a 1-D tensor from a slice.
    pub fn from_slice(data: &[f32]) -> Self {
        Self { shape: vec![data.len()], data: data.to_vec() }
    }

    /// The shape of the tensor.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of dimensions.
    pub fn ndim(&self) -> usize {
        self.shape.len()
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the flat data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the flat data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns its flat data.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Returns the flat offset of a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if `idx.len() != self.ndim()` or any coordinate is out of
    /// bounds (debug assertions).
    #[inline]
    pub fn offset(&self, idx: &[usize]) -> usize {
        debug_assert_eq!(idx.len(), self.shape.len());
        let mut off = 0;
        for (d, &i) in idx.iter().enumerate() {
            debug_assert!(i < self.shape[d], "index {i} out of bounds for dim {d}");
            off = off * self.shape[d] + i;
        }
        off
    }

    /// Element access via multi-dimensional index.
    #[inline]
    pub fn at(&self, idx: &[usize]) -> f32 {
        self.data[self.offset(idx)]
    }

    /// Returns a tensor with the same data and a new shape.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the element counts differ.
    #[must_use = "a dropped Result hides the shape mismatch it reports"]
    pub fn reshape(&self, shape: &[usize]) -> Result<Self, ShapeError> {
        let expected: usize = shape.iter().product();
        if expected != self.len() {
            return Err(ShapeError::new(format!(
                "cannot reshape {:?} ({} elems) into {:?} ({} elems)",
                self.shape,
                self.len(),
                shape,
                expected
            )));
        }
        Ok(Self { shape: shape.to_vec(), data: self.data.clone() })
    }

    /// Returns a tensor with the same data and a new shape whose element
    /// count is known by construction to match.
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ — a call-site bug, not a
    /// recoverable condition. Use [`Tensor::reshape`] for untrusted shapes.
    pub fn reshaped(&self, shape: &[usize]) -> Self {
        let expected: usize = shape.iter().product();
        assert_eq!(
            expected,
            self.len(),
            "reshaped: cannot reshape {:?} ({} elems) into {:?} ({} elems)",
            self.shape,
            self.len(),
            shape,
            expected
        );
        // lint: allow(hot-path-alloc) — reshaped returns an owned copy by contract
        Self { shape: shape.to_vec(), data: self.data.clone() }
    }

    fn check_same_shape(&self, other: &Self, op: &str) {
        assert_eq!(
            self.shape, other.shape,
            "{op}: shape mismatch {:?} vs {:?}",
            self.shape, other.shape
        );
    }

    /// Elementwise addition. Panics on shape mismatch.
    pub fn add(&self, other: &Self) -> Self {
        self.zip_map(other, |a, b| a + b, "add")
    }

    /// Elementwise subtraction. Panics on shape mismatch.
    pub fn sub(&self, other: &Self) -> Self {
        self.zip_map(other, |a, b| a - b, "sub")
    }

    /// Elementwise multiplication. Panics on shape mismatch.
    pub fn mul(&self, other: &Self) -> Self {
        self.zip_map(other, |a, b| a * b, "mul")
    }

    /// In-place elementwise addition. Panics on shape mismatch.
    pub fn add_assign(&mut self, other: &Self) {
        self.check_same_shape(other, "add_assign");
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b;
        }
    }

    /// In-place elementwise multiplication. Panics on shape mismatch.
    pub fn mul_assign(&mut self, other: &Self) {
        self.check_same_shape(other, "mul_assign");
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a *= b;
        }
    }

    /// In-place `self += alpha * other` (axpy). Panics on shape mismatch.
    pub fn axpy(&mut self, alpha: f32, other: &Self) {
        self.check_same_shape(other, "axpy");
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * b;
        }
    }

    /// Adds a scalar to every element, returning a new tensor.
    pub fn add_scalar(&self, s: f32) -> Self {
        self.map(|v| v + s)
    }

    /// Multiplies every element by a scalar, returning a new tensor.
    pub fn scale(&self, s: f32) -> Self {
        self.map(|v| v * s)
    }

    /// In-place scalar multiplication.
    pub fn scale_assign(&mut self, s: f32) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Sets every element to `value`, keeping the allocation.
    pub fn fill(&mut self, value: f32) {
        for v in &mut self.data {
            *v = value;
        }
    }

    /// Applies `f` to every element, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        // lint: allow(hot-path-alloc) — map returns an owned result by contract
        Self { shape: self.shape.clone(), data: self.data.iter().map(|&v| f(v)).collect() }
    }

    /// Combines two same-shaped tensors elementwise with `f`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn zip_map(&self, other: &Self, f: impl Fn(f32, f32) -> f32, op: &str) -> Self {
        self.check_same_shape(other, op);
        Self {
            // lint: allow(hot-path-alloc) — shape metadata, not tensor data
            shape: self.shape.clone(),
            // lint: allow(hot-path-alloc) — zip_map returns an owned result by contract
            data: self.data.iter().zip(other.data.iter()).map(|(&a, &b)| f(a, b)).collect(),
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements; `0.0` for an empty tensor.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Squared L2 norm of all elements.
    pub fn sq_norm(&self) -> f32 {
        self.data.iter().map(|&v| v * v).sum()
    }

    /// Maximum element; `f32::NEG_INFINITY` for an empty tensor.
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element; `f32::INFINITY` for an empty tensor.
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }
}

impl Default for Tensor {
    fn default() -> Self {
        Self { shape: vec![0], data: Vec::new() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        let z = Tensor::zeros(&[2, 3]);
        assert_eq!(z.shape(), &[2, 3]);
        assert_eq!(z.len(), 6);
        assert!(z.data().iter().all(|&v| v == 0.0));

        let o = Tensor::ones(&[4]);
        assert!(o.data().iter().all(|&v| v == 1.0));

        let f = Tensor::full(&[2, 2], 3.5);
        assert!(f.data().iter().all(|&v| v == 3.5));
    }

    #[test]
    fn from_vec_checks_length() {
        assert!(Tensor::from_vec(vec![2, 2], vec![1.0; 4]).is_ok());
        let err = Tensor::from_vec(vec![2, 2], vec![1.0; 5]).unwrap_err();
        assert!(err.to_string().contains("requires 4 elements"));
    }

    #[test]
    fn offset_and_at_row_major() {
        let t = Tensor::from_vec(vec![2, 3], (0..6).map(|v| v as f32).collect()).unwrap();
        assert_eq!(t.at(&[0, 0]), 0.0);
        assert_eq!(t.at(&[0, 2]), 2.0);
        assert_eq!(t.at(&[1, 0]), 3.0);
        assert_eq!(t.at(&[1, 2]), 5.0);
    }

    #[test]
    fn from_parts_accepts_matching_length() {
        let t = Tensor::from_parts(vec![2, 3], (0..6).map(|v| v as f32).collect());
        assert_eq!(t.shape(), &[2, 3]);
    }

    #[test]
    #[should_panic(expected = "from_parts")]
    fn from_parts_panics_on_mismatch() {
        let _ = Tensor::from_parts(vec![2, 2], vec![1.0; 5]);
    }

    #[test]
    fn reshaped_preserves_data() {
        let t = Tensor::from_slice(&[1.0, 2.0, 3.0, 4.0]);
        let r = t.reshaped(&[2, 2]);
        assert_eq!(r.shape(), &[2, 2]);
        assert_eq!(r.data(), t.data());
    }

    #[test]
    #[should_panic(expected = "reshaped")]
    fn reshaped_panics_on_mismatch() {
        let t = Tensor::from_slice(&[1.0, 2.0, 3.0]);
        let _ = t.reshaped(&[2, 2]);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(vec![2, 3], (0..6).map(|v| v as f32).collect()).unwrap();
        let r = t.reshape(&[3, 2]).unwrap();
        assert_eq!(r.shape(), &[3, 2]);
        assert_eq!(r.data(), t.data());
        assert!(t.reshape(&[4, 2]).is_err());
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_slice(&[1.0, 2.0, 3.0]);
        let b = Tensor::from_slice(&[4.0, 5.0, 6.0]);
        assert_eq!(a.add(&b).data(), &[5.0, 7.0, 9.0]);
        assert_eq!(b.sub(&a).data(), &[3.0, 3.0, 3.0]);
        assert_eq!(a.mul(&b).data(), &[4.0, 10.0, 18.0]);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn elementwise_shape_mismatch_panics() {
        let a = Tensor::zeros(&[2]);
        let b = Tensor::zeros(&[3]);
        let _ = a.add(&b);
    }

    #[test]
    fn in_place_ops() {
        let mut a = Tensor::from_slice(&[1.0, 2.0]);
        let b = Tensor::from_slice(&[3.0, 4.0]);
        a.add_assign(&b);
        assert_eq!(a.data(), &[4.0, 6.0]);
        a.mul_assign(&b);
        assert_eq!(a.data(), &[12.0, 24.0]);
        a.axpy(0.5, &b);
        assert_eq!(a.data(), &[13.5, 26.0]);
        a.scale_assign(2.0);
        assert_eq!(a.data(), &[27.0, 52.0]);
    }

    #[test]
    fn scalar_ops_and_map() {
        let a = Tensor::from_slice(&[1.0, -2.0]);
        assert_eq!(a.add_scalar(1.0).data(), &[2.0, -1.0]);
        assert_eq!(a.scale(3.0).data(), &[3.0, -6.0]);
        assert_eq!(a.map(f32::abs).data(), &[1.0, 2.0]);
    }

    #[test]
    fn reductions() {
        let a = Tensor::from_slice(&[1.0, 2.0, 3.0, -4.0]);
        assert_eq!(a.sum(), 2.0);
        assert_eq!(a.mean(), 0.5);
        assert_eq!(a.max(), 3.0);
        assert_eq!(a.min(), -4.0);
        assert_eq!(a.sq_norm(), 1.0 + 4.0 + 9.0 + 16.0);
    }

    #[test]
    fn empty_tensor_behaviour() {
        let t = Tensor::from_vec(vec![0], vec![]).unwrap();
        assert!(t.is_empty());
        assert_eq!(t.mean(), 0.0);
        assert_eq!(t.sum(), 0.0);
        let d = Tensor::default();
        assert!(d.is_empty());
        assert!(!format!("{d:?}").is_empty());
    }

    #[test]
    fn fill_resets_values() {
        let mut t = Tensor::ones(&[3]);
        t.fill(0.25);
        assert!(t.data().iter().all(|&v| v == 0.25));
    }
}
