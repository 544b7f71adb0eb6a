//! Dirichlet label-skew partitioning — the standard non-IID generator of
//! the post-2020 federated-learning literature (and of the Sub-FedAvg
//! authors' follow-up work).
//!
//! For every class, a proportion vector over clients is drawn from
//! `Dir(α)`; small α concentrates each class on few clients (severe
//! heterogeneity), large α approaches an IID split. This extends the
//! paper's pathological 2-shard split with a *tunable* heterogeneity axis,
//! used by the `ext_dirichlet` extension bench.

use crate::{ClientData, Dataset};
use subfed_tensor::init::SeededRng;

/// Parameters of the Dirichlet partition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DirichletConfig {
    /// Number of clients.
    pub num_clients: usize,
    /// Concentration parameter α (0.1 = severe skew, 10 = near IID).
    pub alpha: f32,
    /// Minimum training examples per client (enforced by rebalancing from
    /// the largest clients).
    pub min_per_client: usize,
    /// Fraction of each client's local data held out for validation.
    pub val_fraction: f32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for DirichletConfig {
    fn default() -> Self {
        Self { num_clients: 10, alpha: 0.5, min_per_client: 10, val_fraction: 0.1, seed: 0 }
    }
}

/// Draws one `Gamma(shape, 1)` variate (Marsaglia–Tsang, with the
/// `shape < 1` boosting trick).
fn sample_gamma(shape: f32, rng: &mut SeededRng) -> f32 {
    assert!(shape > 0.0, "gamma shape must be positive");
    if shape < 1.0 {
        // Boost: Gamma(a) = Gamma(a+1) * U^(1/a)
        let u: f32 = rng.uniform_f32(f32::EPSILON, 1.0);
        return sample_gamma(shape + 1.0, rng) * u.powf(1.0 / shape);
    }
    let d = shape - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        let x = rng.normal_f32();
        let v = 1.0 + c * x;
        if v <= 0.0 {
            continue;
        }
        let v3 = v * v * v;
        let u: f32 = rng.uniform_f32(f32::EPSILON, 1.0);
        if u.ln() < 0.5 * x * x + d - d * v3 + d * v3.ln() {
            return d * v3;
        }
    }
}

/// Draws a `Dir(α, …, α)` proportion vector of length `n`.
fn sample_dirichlet(alpha: f32, n: usize, rng: &mut SeededRng) -> Vec<f32> {
    let gammas: Vec<f32> = (0..n).map(|_| sample_gamma(alpha, rng)).collect();
    let sum: f32 = gammas.iter().sum::<f32>().max(f32::MIN_POSITIVE);
    gammas.into_iter().map(|g| g / sum).collect()
}

/// Partitions `train` across clients by per-class Dirichlet proportions
/// and attaches label-filtered test views (same evaluation convention as
/// the pathological partition).
///
/// # Panics
///
/// Panics if the configuration is degenerate (zero clients, α ≤ 0,
/// `val_fraction` outside `[0, 1)`) or the dataset cannot satisfy
/// `min_per_client`.
pub fn partition_dirichlet(
    train: &Dataset,
    test: &Dataset,
    config: &DirichletConfig,
) -> Vec<ClientData> {
    assert!(config.num_clients > 0, "need at least one client");
    assert!(config.alpha > 0.0, "alpha must be positive");
    assert!((0.0..1.0).contains(&config.val_fraction), "val_fraction must be in [0, 1)");
    assert!(
        config.min_per_client * config.num_clients <= train.len(),
        "cannot guarantee {} examples for each of {} clients out of {}",
        config.min_per_client,
        config.num_clients,
        train.len()
    );
    let mut rng = SeededRng::new(config.seed);
    let classes = train.distinct_labels();
    let mut assignment: Vec<Vec<usize>> = vec![Vec::new(); config.num_clients];
    for &class in &classes {
        let mut idx: Vec<usize> = train
            .labels()
            .iter()
            .enumerate()
            .filter(|(_, &l)| l == class)
            .map(|(i, _)| i)
            .collect();
        rng.shuffle(&mut idx);
        let props = sample_dirichlet(config.alpha, config.num_clients, &mut rng);
        // Cumulative split of this class's examples by the proportions.
        let n = idx.len();
        let mut start = 0usize;
        let mut acc = 0.0f32;
        for (client, &p) in props.iter().enumerate() {
            acc += p;
            let end = if client + 1 == config.num_clients {
                n
            } else {
                ((acc * n as f32).round() as usize).clamp(start, n)
            };
            assignment[client].extend_from_slice(&idx[start..end]);
            start = end;
        }
    }
    // Rebalance: top up clients below the minimum from the largest ones.
    loop {
        let small = match assignment.iter().map(Vec::len).enumerate().min_by_key(|&(_, l)| l) {
            Some((i, l)) if l < config.min_per_client => i,
            _ => break,
        };
        let big = assignment
            .iter()
            .map(Vec::len)
            .enumerate()
            .max_by_key(|&(_, l)| l)
            .map(|(i, _)| i)
            .expect("non-empty assignment");
        assert_ne!(big, small, "rebalancing stuck: dataset too small");
        let moved = assignment[big].pop().expect("largest client non-empty");
        assignment[small].push(moved);
    }

    assignment
        .into_iter()
        .enumerate()
        .map(|(id, indices)| {
            let local = train.subset(&indices);
            let mut split_rng = rng.derive(id as u64);
            let (val, train_split) = local.split(config.val_fraction, &mut split_rng);
            let labels = local.distinct_labels();
            let test_view = test.filter_by_labels(&labels);
            ClientData { id, train: train_split, val, test: test_view, labels }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{SynthConfig, SynthVision};

    fn synth(seed: u64) -> SynthVision {
        SynthVision::generate(SynthConfig {
            channels: 1,
            height: 8,
            width: 8,
            classes: 5,
            train_per_class: 100,
            test_per_class: 10,
            noise_std: 0.05,
            shift: 0,
            grid: 3,
            seed,
        })
    }

    fn config(alpha: f32) -> DirichletConfig {
        DirichletConfig { num_clients: 8, alpha, min_per_client: 10, val_fraction: 0.1, seed: 7 }
    }

    #[test]
    fn covers_every_example_exactly_once() {
        let s = synth(1);
        let clients = partition_dirichlet(s.train(), s.test(), &config(0.5));
        let total: usize = clients.iter().map(|c| c.train.len() + c.val.len()).sum();
        assert_eq!(total, s.train().len());
    }

    #[test]
    fn respects_minimum_size() {
        let s = synth(2);
        for alpha in [0.05f32, 0.5, 5.0] {
            let clients = partition_dirichlet(s.train(), s.test(), &config(alpha));
            for c in &clients {
                assert!(
                    c.train.len() + c.val.len() >= 10,
                    "alpha {alpha}: client {} has {}",
                    c.id,
                    c.train.len() + c.val.len()
                );
            }
        }
    }

    #[test]
    fn small_alpha_is_more_skewed_than_large_alpha() {
        let s = synth(3);
        // Heterogeneity statistic: mean max-class share per client.
        let skew = |alpha: f32| -> f32 {
            let clients = partition_dirichlet(s.train(), s.test(), &config(alpha));
            clients
                .iter()
                .map(|c| {
                    let mut hist = [0usize; 5];
                    for &l in c.train.labels().iter().chain(c.val.labels()) {
                        hist[l] += 1;
                    }
                    let total: usize = hist.iter().sum();
                    *hist.iter().max().unwrap() as f32 / total.max(1) as f32
                })
                .sum::<f32>()
                / clients.len() as f32
        };
        let severe = skew(0.1);
        let mild = skew(10.0);
        assert!(
            severe > mild + 0.15,
            "alpha 0.1 skew {severe} should clearly exceed alpha 10 skew {mild}"
        );
        // Near-IID at large alpha: max share close to 1/classes.
        assert!(mild < 0.45, "alpha 10 skew {mild}");
    }

    #[test]
    fn deterministic_in_seed() {
        let s = synth(4);
        let a = partition_dirichlet(s.train(), s.test(), &config(0.3));
        let b = partition_dirichlet(s.train(), s.test(), &config(0.3));
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.labels, y.labels);
            assert_eq!(x.train.len(), y.train.len());
        }
    }

    #[test]
    fn test_views_are_label_filtered() {
        let s = synth(5);
        let clients = partition_dirichlet(s.train(), s.test(), &config(0.2));
        for c in &clients {
            for &l in c.test.labels() {
                assert!(c.labels.contains(&l));
            }
        }
    }

    #[test]
    fn gamma_sampler_has_correct_mean() {
        let mut rng = SeededRng::new(11);
        for shape in [0.3f32, 1.0, 2.5] {
            let n = 4000;
            let mean: f32 = (0..n).map(|_| sample_gamma(shape, &mut rng)).sum::<f32>() / n as f32;
            assert!((mean - shape).abs() < 0.15 * shape.max(1.0), "gamma({shape}) mean {mean}");
        }
    }

    #[test]
    fn dirichlet_sums_to_one() {
        let mut rng = SeededRng::new(12);
        for alpha in [0.1f32, 1.0, 10.0] {
            let p = sample_dirichlet(alpha, 6, &mut rng);
            assert_eq!(p.len(), 6);
            let sum: f32 = p.iter().sum();
            assert!((sum - 1.0).abs() < 1e-5, "{sum}");
            assert!(p.iter().all(|&v| v >= 0.0));
        }
    }

    #[test]
    #[should_panic(expected = "cannot guarantee")]
    fn oversized_minimum_rejected() {
        let s = synth(6);
        let mut cfg = config(0.5);
        cfg.min_per_client = 1000;
        let _ = partition_dirichlet(s.train(), s.test(), &cfg);
    }
}
