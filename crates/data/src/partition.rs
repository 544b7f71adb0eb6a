//! The paper's pathological non-IID partitioner (§4.1):
//!
//! > "we partition all the training dataset into shards of 250 examples
//! > (except for CIFAR-100 where we use 125 examples) and randomly assign
//! > two shards to each client. Evaluation data for each client is all the
//! > test set for the training dataset labels they have."
//!
//! Sorting by label before cutting shards means most clients end up with
//! one or two classes — the label-skew regime where FedAvg collapses and
//! personalization pays off.

use crate::Dataset;
use subfed_tensor::init::SeededRng;

/// Parameters of the pathological partition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartitionConfig {
    /// Number of clients (the paper uses 100; scaled runs use 8–32).
    pub num_clients: usize,
    /// Examples per shard (paper: 250, or 125 for CIFAR-100).
    pub shard_size: usize,
    /// Shards assigned to each client (paper: 2).
    pub shards_per_client: usize,
    /// Fraction of each client's local data held out as validation — the
    /// `D_k^val` the pruning gate tests against (Algorithms 1–2).
    pub val_fraction: f32,
    /// RNG seed for shard shuffling and validation splits.
    pub seed: u64,
}

impl Default for PartitionConfig {
    fn default() -> Self {
        Self { num_clients: 100, shard_size: 250, shards_per_client: 2, val_fraction: 0.1, seed: 0 }
    }
}

/// One client's local data: train/validation splits, its personalized test
/// set, and the labels it owns.
#[derive(Debug, Clone)]
pub struct ClientData {
    /// Client index within the federation.
    pub id: usize,
    /// Local training split.
    pub train: Dataset,
    /// Local validation split (`D_k^val` in the paper).
    pub val: Dataset,
    /// Personalized test set: all test examples whose label the client
    /// owns.
    pub test: Dataset,
    /// The distinct labels in this client's training data, sorted.
    pub labels: Vec<usize>,
}

/// Partitions `train` across clients by the paper's shard scheme and
/// attaches label-filtered views of `test` to every client.
///
/// # Panics
///
/// Panics if the training set cannot supply
/// `num_clients × shards_per_client` shards of `shard_size` examples, or if
/// `val_fraction` is outside `[0, 1)`.
pub fn partition_pathological(
    train: &Dataset,
    test: &Dataset,
    config: &PartitionConfig,
) -> Vec<ClientData> {
    assert!(
        (0.0..1.0).contains(&config.val_fraction),
        "val_fraction must be in [0, 1), got {}",
        config.val_fraction
    );
    assert!(config.shard_size > 0, "shard size must be positive");
    assert!(config.shards_per_client > 0, "shards per client must be positive");
    let num_shards = train.len() / config.shard_size;
    let needed = config.num_clients * config.shards_per_client;
    assert!(
        needed <= num_shards,
        "need {needed} shards but only {num_shards} of size {} fit in {} examples",
        config.shard_size,
        train.len()
    );

    // Sort example indices by label (stable, so generation order breaks
    // ties deterministically), cut into shards, shuffle shard order.
    let mut order: Vec<usize> = (0..train.len()).collect();
    order.sort_by_key(|&i| train.labels()[i]);
    let shards: Vec<&[usize]> = order.chunks(config.shard_size).take(num_shards).collect();
    let mut shard_ids: Vec<usize> = (0..num_shards).collect();
    let mut rng = SeededRng::new(config.seed);
    rng.shuffle(&mut shard_ids);

    let mut clients = Vec::with_capacity(config.num_clients);
    for id in 0..config.num_clients {
        let mut indices = Vec::with_capacity(config.shards_per_client * config.shard_size);
        for s in 0..config.shards_per_client {
            let shard = shards[shard_ids[id * config.shards_per_client + s]];
            indices.extend_from_slice(shard);
        }
        let local = train.subset(&indices);
        let mut split_rng = rng.derive(id as u64);
        let (val, train_split) = local.split(config.val_fraction, &mut split_rng);
        let labels = local.distinct_labels();
        let test_view = test.filter_by_labels(&labels);
        clients.push(ClientData { id, train: train_split, val, test: test_view, labels });
    }
    clients
}

/// Parameters of the quantity-skew partition: label-IID but power-law
/// client sizes — the third heterogeneity axis (after label skew and
/// Dirichlet mixing). Client `i` receives a share proportional to
/// `(i+1)^(-skew)` of the shuffled training data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantitySkewConfig {
    /// Number of clients.
    pub num_clients: usize,
    /// Power-law exponent (0 = equal sizes; 1–2 = heavy skew).
    pub skew: f32,
    /// Minimum examples per client.
    pub min_per_client: usize,
    /// Fraction of each client's data held out for validation.
    pub val_fraction: f32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for QuantitySkewConfig {
    fn default() -> Self {
        Self { num_clients: 10, skew: 1.0, min_per_client: 10, val_fraction: 0.1, seed: 0 }
    }
}

/// Partitions `train` into IID-by-label but power-law-sized client shares.
///
/// # Panics
///
/// Panics on degenerate configs or when `min_per_client` cannot be
/// satisfied.
pub fn partition_quantity_skew(
    train: &Dataset,
    test: &Dataset,
    config: &QuantitySkewConfig,
) -> Vec<ClientData> {
    assert!(config.num_clients > 0, "need at least one client");
    assert!(config.skew >= 0.0, "skew must be non-negative");
    assert!((0.0..1.0).contains(&config.val_fraction), "val_fraction must be in [0, 1)");
    assert!(
        config.min_per_client * config.num_clients <= train.len(),
        "cannot guarantee {} examples for each of {} clients out of {}",
        config.min_per_client,
        config.num_clients,
        train.len()
    );
    let mut rng = SeededRng::new(config.seed);
    let mut order: Vec<usize> = (0..train.len()).collect();
    rng.shuffle(&mut order);
    // Power-law shares, floored at the minimum and renormalised greedily.
    let weights: Vec<f64> =
        (0..config.num_clients).map(|i| ((i + 1) as f64).powf(-config.skew as f64)).collect();
    let wsum: f64 = weights.iter().sum();
    let spare = train.len() - config.min_per_client * config.num_clients;
    let mut sizes: Vec<usize> = weights
        .iter()
        .map(|w| config.min_per_client + ((w / wsum) * spare as f64).floor() as usize)
        .collect();
    // Distribute flooring leftovers to the largest clients first.
    let mut leftover = train.len() - sizes.iter().sum::<usize>();
    let mut i = 0;
    while leftover > 0 {
        sizes[i % config.num_clients] += 1;
        leftover -= 1;
        i += 1;
    }
    let mut start = 0usize;
    sizes
        .into_iter()
        .enumerate()
        .map(|(id, n)| {
            let indices = &order[start..start + n];
            start += n;
            let local = train.subset(indices);
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

    fn synth() -> SynthVision {
        SynthVision::generate(SynthConfig {
            channels: 1,
            height: 8,
            width: 8,
            classes: 5,
            train_per_class: 40,
            test_per_class: 10,
            noise_std: 0.05,
            shift: 0,
            grid: 3,
            seed: 3,
        })
    }

    fn config(clients: usize) -> PartitionConfig {
        PartitionConfig {
            num_clients: clients,
            shard_size: 20,
            shards_per_client: 2,
            val_fraction: 0.1,
            seed: 11,
        }
    }

    #[test]
    fn every_client_gets_two_shards_of_data() {
        let s = synth();
        let clients = partition_pathological(s.train(), s.test(), &config(5));
        assert_eq!(clients.len(), 5);
        for c in &clients {
            assert_eq!(c.train.len() + c.val.len(), 40); // 2 shards x 20
            assert_eq!(c.val.len(), 4); // 10% of 40
        }
    }

    #[test]
    fn clients_hold_at_most_shards_per_client_plus_boundary_labels() {
        // One shard spans at most 2 labels only at a class boundary; with
        // shard_size == train_per_class/2 each shard holds exactly one
        // label here (40 per class / 20 per shard).
        let s = synth();
        let clients = partition_pathological(s.train(), s.test(), &config(5));
        for c in &clients {
            assert!(
                !c.labels.is_empty() && c.labels.len() <= 2,
                "client {} has labels {:?}",
                c.id,
                c.labels
            );
        }
    }

    #[test]
    fn shards_are_disjoint_across_clients() {
        let s = synth();
        let clients = partition_pathological(s.train(), s.test(), &config(5));
        // Each original example appears at most once across all clients.
        // Identify examples by their flat pixels (unique due to noise).
        let total: usize = clients.iter().map(|c| c.train.len() + c.val.len()).sum();
        assert_eq!(total, 5 * 40);
    }

    #[test]
    fn test_set_is_label_filtered() {
        let s = synth();
        let clients = partition_pathological(s.train(), s.test(), &config(5));
        for c in &clients {
            assert!(!c.test.is_empty(), "client {} has empty test set", c.id);
            for &l in c.test.labels() {
                assert!(c.labels.contains(&l), "client {} test has foreign label {l}", c.id);
            }
            // All test examples of the owned labels are present.
            let expected: usize = s.test().labels().iter().filter(|l| c.labels.contains(l)).count();
            assert_eq!(c.test.len(), expected);
        }
    }

    #[test]
    fn partition_is_deterministic() {
        let s = synth();
        let a = partition_pathological(s.train(), s.test(), &config(5));
        let b = partition_pathological(s.train(), s.test(), &config(5));
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.labels, y.labels);
            assert_eq!(x.train.images().data(), y.train.images().data());
        }
    }

    #[test]
    fn different_seed_changes_assignment() {
        let s = synth();
        let a = partition_pathological(s.train(), s.test(), &config(5));
        let mut cfg = config(5);
        cfg.seed = 12;
        let b = partition_pathological(s.train(), s.test(), &cfg);
        let differs = a.iter().zip(b.iter()).any(|(x, y)| x.labels != y.labels);
        assert!(differs, "seed change should move shards around");
    }

    #[test]
    #[should_panic(expected = "need 40 shards")]
    fn too_many_clients_rejected() {
        let s = synth();
        let _ = partition_pathological(s.train(), s.test(), &config(20));
    }

    fn qs_config(skew: f32) -> QuantitySkewConfig {
        QuantitySkewConfig { num_clients: 5, skew, min_per_client: 8, val_fraction: 0.1, seed: 11 }
    }

    #[test]
    fn quantity_skew_covers_everything() {
        let s = synth();
        let parts = partition_quantity_skew(s.train(), s.test(), &qs_config(1.0));
        let total: usize = parts.iter().map(|c| c.train.len() + c.val.len()).sum();
        assert_eq!(total, s.train().len());
        for c in &parts {
            assert!(c.train.len() + c.val.len() >= 8);
        }
    }

    #[test]
    fn quantity_skew_sizes_decrease_with_index() {
        let s = synth();
        let parts = partition_quantity_skew(s.train(), s.test(), &qs_config(1.5));
        let sizes: Vec<usize> = parts.iter().map(|c| c.train.len() + c.val.len()).collect();
        assert!(sizes[0] > 2 * sizes[4], "heavy skew should make client 0 much bigger: {sizes:?}");
    }

    #[test]
    fn zero_skew_is_nearly_uniform() {
        let s = synth();
        let parts = partition_quantity_skew(s.train(), s.test(), &qs_config(0.0));
        let sizes: Vec<usize> = parts.iter().map(|c| c.train.len() + c.val.len()).collect();
        let (lo, hi) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
        assert!(hi - lo <= 2, "near-uniform expected: {sizes:?}");
    }

    #[test]
    fn quantity_skew_is_label_iid() {
        // Shuffled IID assignment: large clients should see most classes.
        let s = synth();
        let parts = partition_quantity_skew(s.train(), s.test(), &qs_config(1.0));
        assert!(parts[0].labels.len() >= 4, "labels {:?}", parts[0].labels);
    }

    #[test]
    #[should_panic(expected = "cannot guarantee")]
    fn quantity_skew_oversized_minimum_rejected() {
        let s = synth();
        let mut cfg = qs_config(1.0);
        cfg.min_per_client = 1000;
        let _ = partition_quantity_skew(s.train(), s.test(), &cfg);
    }
}
