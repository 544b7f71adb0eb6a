//! **SynthVision** — class-prototype synthetic image generators.
//!
//! The paper evaluates on MNIST, EMNIST, CIFAR-10, and CIFAR-100. Real
//! datasets are not available in this environment, so each is replaced by a
//! synthetic stand-in that preserves what the experiments actually measure:
//! class-conditional structure (so a small CNN can learn the classes) under
//! label-skewed partitioning (so the non-IID dynamics appear).
//!
//! Each class gets a *prototype*: a smooth random field built by bilinearly
//! upsampling a coarse random grid, per channel. A sample is its class
//! prototype, randomly shifted by up to `shift` pixels, plus Gaussian pixel
//! noise, mapped to `[-1, 1]`. Harder stand-ins (the CIFAR ones) use more
//! noise and larger shifts.
//!
//! [`SynthVision::generate`] draws only the prototypes. The train and test
//! splits are drawn on the first [`SynthVision::train`] or
//! [`SynthVision::test`] call, from the generator state the prototypes
//! left, so a caller that reads them gets the same bits as an eager draw,
//! and one that never does (an on-demand
//! [`SynthClientProvider`](crate::SynthClientProvider)) never pays for
//! them.

use crate::Dataset;
use std::sync::OnceLock;
use subfed_tensor::init::SeededRng;
use subfed_tensor::Tensor;

/// Configuration of a synthetic vision dataset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SynthConfig {
    /// Image channels (1 = grayscale stand-ins, 3 = colour stand-ins).
    pub channels: usize,
    /// Image height.
    pub height: usize,
    /// Image width.
    pub width: usize,
    /// Number of classes.
    pub classes: usize,
    /// Training examples generated per class.
    pub train_per_class: usize,
    /// Test examples generated per class.
    pub test_per_class: usize,
    /// Std-dev of additive Gaussian pixel noise.
    pub noise_std: f32,
    /// Maximum absolute shift, in pixels, applied per sample.
    pub shift: usize,
    /// Side of the coarse grid the prototype is upsampled from.
    pub grid: usize,
    /// RNG seed; the full dataset is a pure function of the config.
    pub seed: u64,
}

impl SynthConfig {
    fn validate(&self) {
        assert!(self.channels > 0 && self.height > 1 && self.width > 1, "degenerate image shape");
        assert!(self.classes > 0, "need at least one class");
        assert!(self.grid >= 2, "grid must be at least 2");
        assert!(self.noise_std >= 0.0, "noise std must be non-negative");
    }
}

/// A synthetic dataset: its class prototypes, and a train and a test split
/// drawn on first read.
#[derive(Debug, Clone)]
pub struct SynthVision {
    config: SynthConfig,
    /// Per-class prototype images, `[classes, channels*height*width]` flat.
    prototypes: Vec<Vec<f32>>,
    /// The generator state just after the prototypes: the splits draw
    /// from a copy of it.
    rng: SeededRng,
    /// The train and test splits, drawn together on the first read of
    /// either.
    splits: OnceLock<(Dataset, Dataset)>,
}

impl SynthVision {
    /// Generates the dataset described by `config`: the prototypes now,
    /// the splits on first read.
    ///
    /// # Panics
    ///
    /// Panics on degenerate configurations (zero classes, grid < 2, ...).
    pub fn generate(config: SynthConfig) -> Self {
        config.validate();
        let mut rng = SeededRng::new(config.seed);
        let prototypes: Vec<Vec<f32>> =
            (0..config.classes).map(|_| make_prototype(&config, &mut rng)).collect();
        Self { config, prototypes, rng, splits: OnceLock::new() }
    }

    /// The generating configuration.
    pub fn config(&self) -> &SynthConfig {
        &self.config
    }

    /// The training split (grouped by class, `train_per_class` each),
    /// drawn with the test split on the first read of either.
    pub fn train(&self) -> &Dataset {
        &self.splits().0
    }

    /// The test split, drawn with the training split on the first read of
    /// either.
    pub fn test(&self) -> &Dataset {
        &self.splits().1
    }

    /// The train split, then the test split, drawn from the generator
    /// state the prototypes left, so they are the draws that follow the
    /// prototypes in the seed's stream. Threads that race on the first
    /// read all get the one draw.
    fn splits(&self) -> &(Dataset, Dataset) {
        self.splits.get_or_init(|| {
            let (config, prototypes, mut rng) = (&self.config, &self.prototypes, self.rng.clone());
            let train = sample_split(config, prototypes, config.train_per_class, &mut rng);
            let test = sample_split(config, prototypes, config.test_per_class, &mut rng);
            (train, test)
        })
    }

    /// Whether the splits have been drawn.
    #[cfg(test)]
    pub(crate) fn splits_drawn(&self) -> bool {
        self.splits.get().is_some()
    }

    /// The class prototypes (flat `channels*height*width` images).
    pub fn prototypes(&self) -> &[Vec<f32>] {
        &self.prototypes
    }

    /// MNIST stand-in: 1×16×16, 10 classes, low noise. `scale` multiplies
    /// the per-class example counts (1 = bench scale).
    pub fn mnist_like(seed: u64, scale: usize) -> Self {
        Self::generate(SynthConfig {
            channels: 1,
            height: 16,
            width: 16,
            classes: 10,
            train_per_class: 60 * scale.max(1),
            test_per_class: 10 * scale.max(1),
            noise_std: 0.12,
            shift: 1,
            grid: 4,
            seed,
        })
    }

    /// EMNIST stand-in: like MNIST but more classes-alike (finer grid,
    /// more noise), 10 classes to match the paper's 10-unit head.
    pub fn emnist_like(seed: u64, scale: usize) -> Self {
        Self::generate(SynthConfig {
            channels: 1,
            height: 16,
            width: 16,
            classes: 10,
            train_per_class: 60 * scale.max(1),
            test_per_class: 10 * scale.max(1),
            noise_std: 0.18,
            shift: 1,
            grid: 5,
            seed,
        })
    }

    /// CIFAR-10 stand-in: 3×16×16, 10 classes, high noise and shift.
    pub fn cifar10_like(seed: u64, scale: usize) -> Self {
        Self::generate(SynthConfig {
            channels: 3,
            height: 16,
            width: 16,
            classes: 10,
            train_per_class: 60 * scale.max(1),
            test_per_class: 10 * scale.max(1),
            noise_std: 0.25,
            shift: 2,
            grid: 4,
            seed,
        })
    }

    /// Draws `per_label` fresh samples of each label in `labels`, using the
    /// same shift/noise process as the global train/test splits. This is
    /// the substrate for on-demand client providers: a client's local
    /// shard is a pure function of `(prototypes, labels, rng seed)`, so a
    /// million-client federation never materializes data for clients that
    /// are not in the current cohort.
    ///
    /// # Panics
    ///
    /// Panics if any label is out of range for this dataset's classes.
    pub fn sample_labels(
        &self,
        labels: &[usize],
        per_label: usize,
        rng: &mut SeededRng,
    ) -> Dataset {
        for &l in labels {
            assert!(l < self.config.classes, "label {l} out of range");
        }
        sample_labels(&self.config, &self.prototypes, labels, per_label, rng)
    }

    /// CIFAR-100 stand-in: 3×16×16 with `classes` classes (the paper uses
    /// 100; the scaled benches use 20 to keep per-class counts sane).
    pub fn cifar100_like(seed: u64, scale: usize, classes: usize) -> Self {
        Self::generate(SynthConfig {
            channels: 3,
            height: 16,
            width: 16,
            classes,
            train_per_class: 30 * scale.max(1),
            test_per_class: 8 * scale.max(1),
            noise_std: 0.25,
            shift: 2,
            grid: 4,
            seed,
        })
    }
}

/// Builds one smooth prototype by bilinear upsampling of a coarse grid.
fn make_prototype(config: &SynthConfig, rng: &mut SeededRng) -> Vec<f32> {
    let (c, h, w, g) = (config.channels, config.height, config.width, config.grid);
    let mut proto = vec![0.0f32; c * h * w];
    for ch in 0..c {
        let grid: Vec<f32> = (0..g * g).map(|_| rng.uniform_f32(0.0, 1.0)).collect();
        for y in 0..h {
            // Map pixel -> grid coordinates in [0, g-1].
            let gy = y as f32 / (h - 1) as f32 * (g - 1) as f32;
            let y0 = gy.floor() as usize;
            let y1 = (y0 + 1).min(g - 1);
            let fy = gy - y0 as f32;
            for x in 0..w {
                let gx = x as f32 / (w - 1) as f32 * (g - 1) as f32;
                let x0 = gx.floor() as usize;
                let x1 = (x0 + 1).min(g - 1);
                let fx = gx - x0 as f32;
                let v = grid[y0 * g + x0] * (1.0 - fy) * (1.0 - fx)
                    + grid[y0 * g + x1] * (1.0 - fy) * fx
                    + grid[y1 * g + x0] * fy * (1.0 - fx)
                    + grid[y1 * g + x1] * fy * fx;
                proto[(ch * h + y) * w + x] = v;
            }
        }
    }
    proto
}

/// Draws `per_class` samples of every class.
fn sample_split(
    config: &SynthConfig,
    prototypes: &[Vec<f32>],
    per_class: usize,
    rng: &mut SeededRng,
) -> Dataset {
    let all: Vec<usize> = (0..config.classes).collect();
    sample_labels(config, prototypes, &all, per_class, rng)
}

/// Draws `per_label` samples of each listed label (shared generation core
/// of the global splits and the on-demand per-client sampler).
fn sample_labels(
    config: &SynthConfig,
    prototypes: &[Vec<f32>],
    which: &[usize],
    per_label: usize,
    rng: &mut SeededRng,
) -> Dataset {
    let (c, h, w) = (config.channels, config.height, config.width);
    let n = which.len() * per_label;
    let mut data = Vec::with_capacity(n * c * h * w);
    let mut labels = Vec::with_capacity(n);
    for &class in which {
        let proto = &prototypes[class];
        for _ in 0..per_label {
            let (dy, dx) = if config.shift == 0 {
                (0isize, 0isize)
            } else {
                let s = config.shift as isize;
                (
                    rng.below(2 * config.shift + 1) as isize - s,
                    rng.below(2 * config.shift + 1) as isize - s,
                )
            };
            for ch in 0..c {
                for y in 0..h {
                    for x in 0..w {
                        let sy = (y as isize + dy).clamp(0, h as isize - 1) as usize;
                        let sx = (x as isize + dx).clamp(0, w as isize - 1) as usize;
                        let mut v = proto[(ch * h + sy) * w + sx];
                        if config.noise_std > 0.0 {
                            v += config.noise_std * rng.normal_f32();
                        }
                        // Map [0,1] -> [-1,1] with clamping.
                        data.push((v.clamp(0.0, 1.0)) * 2.0 - 1.0);
                    }
                }
            }
            labels.push(class);
        }
    }
    Dataset::new(Tensor::from_vec(vec![n, c, h, w], data).expect("synth dataset shape"), labels)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> SynthConfig {
        SynthConfig {
            channels: 1,
            height: 8,
            width: 8,
            classes: 4,
            train_per_class: 10,
            test_per_class: 5,
            noise_std: 0.1,
            shift: 1,
            grid: 3,
            seed: 7,
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = SynthVision::generate(small_config());
        let b = SynthVision::generate(small_config());
        assert_eq!(a.train().images().data(), b.train().images().data());
        assert_eq!(a.test().labels(), b.test().labels());
    }

    #[test]
    fn different_seeds_differ() {
        let a = SynthVision::generate(small_config());
        let mut cfg = small_config();
        cfg.seed = 8;
        let b = SynthVision::generate(cfg);
        assert_ne!(a.train().images().data(), b.train().images().data());
    }

    #[test]
    fn counts_and_labels() {
        let s = SynthVision::generate(small_config());
        assert_eq!(s.train().len(), 40);
        assert_eq!(s.test().len(), 20);
        assert_eq!(s.train().distinct_labels(), vec![0, 1, 2, 3]);
        // Balanced classes.
        for class in 0..4 {
            let count = s.train().labels().iter().filter(|&&l| l == class).count();
            assert_eq!(count, 10);
        }
    }

    #[test]
    fn pixel_range_is_bounded() {
        let s = SynthVision::generate(small_config());
        assert!(s.train().images().data().iter().all(|&v| (-1.0..=1.0).contains(&v)));
    }

    #[test]
    fn same_class_samples_are_closer_than_cross_class() {
        // The defining property of a class-prototype dataset: within-class
        // distance is smaller than between-class distance on average.
        let s = SynthVision::generate(SynthConfig { noise_std: 0.1, ..small_config() });
        let ds = s.train();
        let sl: usize = ds.sample_shape().iter().product();
        let dist = |i: usize, j: usize| -> f32 {
            let a = &ds.images().data()[i * sl..(i + 1) * sl];
            let b = &ds.images().data()[j * sl..(j + 1) * sl];
            a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum::<f32>()
        };
        // class 0 occupies rows 0..10, class 1 rows 10..20.
        let within: f32 = (1..10).map(|j| dist(0, j)).sum::<f32>() / 9.0;
        let between: f32 = (10..20).map(|j| dist(0, j)).sum::<f32>() / 10.0;
        assert!(
            within < between,
            "within-class distance {within} should be below between-class {between}"
        );
    }

    #[test]
    fn presets_have_expected_shapes() {
        let m = SynthVision::mnist_like(1, 1);
        assert_eq!(m.train().sample_shape(), [1, 16, 16]);
        assert_eq!(m.config().classes, 10);
        let c = SynthVision::cifar10_like(1, 1);
        assert_eq!(c.train().sample_shape(), [3, 16, 16]);
        let c100 = SynthVision::cifar100_like(1, 1, 20);
        assert_eq!(c100.config().classes, 20);
    }

    #[test]
    fn prototypes_are_smooth() {
        // Neighbouring pixels of an upsampled coarse grid differ little.
        let s = SynthVision::generate(small_config());
        let p = &s.prototypes()[0];
        let (h, w) = (8, 8);
        let mut max_jump = 0.0f32;
        for y in 0..h {
            for x in 0..w - 1 {
                max_jump = max_jump.max((p[y * w + x + 1] - p[y * w + x]).abs());
            }
        }
        // Grid 3 on 8 pixels: one grid cell spans ~3.5 px, so per-pixel
        // jumps are bounded well below the full [0,1] range.
        assert!(max_jump < 0.5, "prototype not smooth: max jump {max_jump}");
    }

    #[test]
    fn splits_are_drawn_on_first_read_and_cloned_with_the_dataset() {
        fn shareable<T: Clone + Send + Sync>(_: &T) {}
        let s = SynthVision::generate(small_config());
        shareable(&s);
        assert!(!s.splits_drawn(), "generate draws only the prototypes");
        let before = s.clone();
        assert_eq!(s.test().len(), 20);
        assert!(s.splits_drawn(), "reading the test split draws both");
        let after = s.clone();
        assert!(after.splits_drawn());
        // A clone taken before the draw draws the same bits on its own.
        assert_eq!(before.train().images().data(), s.train().images().data());
        assert_eq!(before.test().labels(), s.test().labels());
    }

    #[test]
    fn concurrent_first_reads_see_one_split() {
        let s = SynthVision::mnist_like(3, 1);
        let start = std::sync::Barrier::new(4);
        let seen: Vec<(usize, Vec<f32>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        let train = s.train();
                        (std::ptr::from_ref(train) as usize, train.images().data().to_vec())
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("reader thread")).collect()
        });
        for (addr, data) in &seen {
            assert_eq!(*addr, std::ptr::from_ref(s.train()) as usize, "one split, one address");
            assert_eq!(data, s.train().images().data());
        }
    }

    #[test]
    #[should_panic(expected = "grid must be at least 2")]
    fn tiny_grid_rejected() {
        let mut cfg = small_config();
        cfg.grid = 1;
        let _ = SynthVision::generate(cfg);
    }
}
