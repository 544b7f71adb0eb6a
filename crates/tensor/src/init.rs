//! Seeded random tensor initialisation.
//!
//! Everything in the reproduction is deterministic under a fixed seed: the
//! federation seeds one [`SeededRng`] per purpose (data generation, client
//! sampling, model init) and derives per-client streams from it, so runs are
//! reproducible regardless of thread scheduling.

use crate::Tensor;
use rand::distributions::{Distribution, Uniform};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// A deterministic RNG (`StdRng`) wrapper with convenience constructors.
///
/// # Example
///
/// ```
/// use rand::RngCore;
/// use subfed_tensor::init::SeededRng;
///
/// let mut a = SeededRng::new(42);
/// let mut b = SeededRng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct SeededRng {
    inner: StdRng,
}

impl SeededRng {
    /// Creates an RNG from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        Self { inner: StdRng::seed_from_u64(seed) }
    }

    /// Derives an independent child stream; `stream` distinguishes siblings.
    ///
    /// The derivation is a fixed mixing of (seed material, stream id) so the
    /// same parent+stream always yields the same child.
    pub fn derive(&mut self, stream: u64) -> Self {
        let base = self.inner.next_u64();
        Self::new(base ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Draws a uniform `f32` in `[lo, hi)`.
    pub fn uniform_f32(&mut self, lo: f32, hi: f32) -> f32 {
        self.inner.gen_range(lo..hi)
    }

    /// Draws a uniform integer in `[0, n)`. The degenerate `n == 0` draw
    /// is pinned to 0 rather than panicking, so the cohort-sampling path
    /// stays total under adversarial registry states.
    pub fn below(&mut self, n: usize) -> usize {
        if n == 0 {
            return 0;
        }
        self.inner.gen_range(0..n)
    }

    /// Draws a standard normal via Box–Muller.
    pub fn normal_f32(&mut self) -> f32 {
        // Box-Muller keeps us independent of rand_distr.
        let u1: f32 = self.inner.gen_range(f32::EPSILON..1.0);
        let u2: f32 = self.inner.gen();
        (-2.0 * u1.ln()).sqrt() * (std::f32::consts::TAU * u2).cos()
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.inner.gen_range(0..=i);
            xs.swap(i, j);
        }
    }

    /// Samples `min(k, n)` distinct indices from `0..n`, in random order.
    /// Oversampling clamps to the whole population instead of panicking —
    /// the stream consumed is identical either way, so determinism holds.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..n).collect();
        self.shuffle(&mut idx);
        idx.truncate(k);
        idx
    }

    /// Access to the underlying `rand` RNG for distribution sampling.
    pub fn rng_mut(&mut self) -> &mut StdRng {
        &mut self.inner
    }
}

impl RngCore for SeededRng {
    fn next_u32(&mut self) -> u32 {
        self.inner.next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.inner.fill_bytes(dest)
    }
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.inner.try_fill_bytes(dest)
    }
}

/// Tensor with elements drawn uniformly from `[lo, hi)`.
pub fn uniform(shape: &[usize], lo: f32, hi: f32, rng: &mut SeededRng) -> Tensor {
    let dist = Uniform::new(lo, hi);
    let len: usize = shape.iter().product();
    let data: Vec<f32> = (0..len).map(|_| dist.sample(rng.rng_mut())).collect();
    Tensor::from_parts(shape.to_vec(), data)
}

/// Kaiming-uniform initialisation used by the conv/linear layers:
/// `U(-b, b)` with `b = sqrt(1 / fan_in)` (PyTorch's default for these
/// layers, which the paper's reference implementation relies on).
///
/// # Panics
///
/// Panics if `fan_in == 0`.
pub fn kaiming_uniform(shape: &[usize], fan_in: usize, rng: &mut SeededRng) -> Tensor {
    assert!(fan_in > 0, "fan_in must be positive");
    let bound = (1.0 / fan_in as f32).sqrt();
    uniform(shape, -bound, bound, rng)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SeededRng::new(1);
        let mut b = SeededRng::new(1);
        let xa: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let xb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(xa, xb);
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SeededRng::new(1);
        let mut b = SeededRng::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn derive_is_deterministic_and_distinct() {
        let mk = || SeededRng::new(99);
        let c1 = mk().derive(0).next_u64();
        let c1b = mk().derive(0).next_u64();
        let c2 = mk().derive(1).next_u64();
        assert_eq!(c1, c1b);
        assert_ne!(c1, c2);
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut rng = SeededRng::new(3);
        let t = uniform(&[1000], -0.25, 0.5, &mut rng);
        assert!(t.data().iter().all(|&v| (-0.25..0.5).contains(&v)));
    }

    #[test]
    fn kaiming_uniform_bound() {
        let mut rng = SeededRng::new(5);
        let t = kaiming_uniform(&[100, 25], 25, &mut rng);
        let b = (1.0f32 / 25.0).sqrt();
        assert!(t.data().iter().all(|&v| v.abs() <= b));
        assert!(t.max() > 0.5 * b, "should come close to the bound");
    }

    #[test]
    fn sample_indices_distinct_and_in_range() {
        let mut rng = SeededRng::new(6);
        let idx = rng.sample_indices(20, 7);
        assert_eq!(idx.len(), 7);
        let mut sorted = idx.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 7);
        assert!(idx.iter().all(|&i| i < 20));
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = SeededRng::new(7);
        let mut xs: Vec<usize> = (0..50).collect();
        rng.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn sample_more_than_population_clamps_to_all() {
        let mut rng = SeededRng::new(8);
        let mut got = rng.sample_indices(3, 4);
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2]);
    }

    #[test]
    fn below_zero_population_is_pinned() {
        let mut rng = SeededRng::new(8);
        assert_eq!(rng.below(0), 0);
    }
}
