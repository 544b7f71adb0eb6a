//! Ready-made federation presets: the paper's four dataset/architecture
//! pairings at configurable scale. Used by the bench harnesses and the
//! `subfed` CLI.

use crate::{FedConfig, Federation};
use subfed_data::{
    partition_dirichlet, partition_pathological, partition_quantity_skew, ClientData,
    DirichletConfig, PartitionConfig, QuantitySkewConfig, SynthVision,
};
use subfed_nn::models::ModelSpec;

/// Which heterogeneity generator splits the data across clients.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum PartitionKind {
    /// The paper's pathological 2-shard label skew (§4.1).
    #[default]
    Pathological,
    /// Dirichlet label skew with concentration α.
    Dirichlet {
        /// Concentration parameter (0.1 = severe, 10 = near-IID).
        alpha: f32,
    },
    /// Label-IID power-law client sizes.
    QuantitySkew {
        /// Power-law exponent (0 = uniform).
        skew: f32,
    },
}

/// The four benchmark stand-ins of the paper's §4.1, each paired with the
/// architecture the paper trains on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatasetKind {
    /// MNIST stand-in (1×16×16, 10 classes, CNN-5).
    Mnist,
    /// EMNIST stand-in (1×16×16, 10 classes, CNN-5).
    Emnist,
    /// CIFAR-10 stand-in (3×16×16, 10 classes, LeNet-5).
    Cifar10,
    /// CIFAR-100 stand-in (3×16×16, 20 classes at bench scale, LeNet-5).
    Cifar100,
}

impl DatasetKind {
    /// All four benchmarks, in the paper's table order.
    pub const ALL: [DatasetKind; 4] =
        [DatasetKind::Cifar10, DatasetKind::Mnist, DatasetKind::Emnist, DatasetKind::Cifar100];

    /// Display label (`*` marks the synthetic substitution).
    pub fn label(self) -> &'static str {
        match self {
            DatasetKind::Mnist => "MNIST*",
            DatasetKind::Emnist => "EMNIST*",
            DatasetKind::Cifar10 => "CIFAR-10*",
            DatasetKind::Cifar100 => "CIFAR-100*",
        }
    }

    /// Parses a CLI-style name (`mnist`, `emnist`, `cifar10`, `cifar100`).
    pub fn parse(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "mnist" => Some(DatasetKind::Mnist),
            "emnist" => Some(DatasetKind::Emnist),
            "cifar10" | "cifar-10" => Some(DatasetKind::Cifar10),
            "cifar100" | "cifar-100" => Some(DatasetKind::Cifar100),
            _ => None,
        }
    }

    /// Number of classes at bench scale.
    pub fn classes(self) -> usize {
        match self {
            DatasetKind::Cifar100 => 20,
            _ => 10,
        }
    }

    /// The architecture the paper pairs with this dataset.
    pub fn spec(self) -> ModelSpec {
        match self {
            DatasetKind::Mnist | DatasetKind::Emnist => ModelSpec::cnn5(1, 16, 16, 10),
            DatasetKind::Cifar10 => ModelSpec::lenet5(3, 16, 16, 10),
            DatasetKind::Cifar100 => ModelSpec::lenet5(3, 16, 16, 20),
        }
    }

    /// Generates and pathologically partitions the dataset for
    /// `num_clients` clients (paper §4.1: 2 shards each).
    pub fn clients(self, num_clients: usize, seed: u64) -> Vec<ClientData> {
        self.clients_with(num_clients, seed, PartitionKind::Pathological)
    }

    /// Generates the dataset and splits it with the chosen heterogeneity
    /// generator. Each stand-in holds 600 training examples per 20
    /// clients: enough for every client's two 15-example shards, and for
    /// the Dirichlet and quantity-skew splits' 10-example minimum.
    pub fn clients_with(
        self,
        num_clients: usize,
        seed: u64,
        partition: PartitionKind,
    ) -> Vec<ClientData> {
        let scale = num_clients.div_ceil(20);
        let synth = match self {
            DatasetKind::Mnist => SynthVision::mnist_like(seed, scale),
            DatasetKind::Emnist => SynthVision::emnist_like(seed, scale),
            DatasetKind::Cifar10 => SynthVision::cifar10_like(seed, scale),
            DatasetKind::Cifar100 => SynthVision::cifar100_like(seed, scale, 20),
        };
        match partition {
            PartitionKind::Pathological => {
                // The paper cuts CIFAR-100 shards at half size (125 vs
                // 250); the scaled equivalent keeps the same ratio
                // relative to shard supply.
                let shard_size = 15;
                partition_pathological(
                    synth.train(),
                    synth.test(),
                    &PartitionConfig {
                        num_clients,
                        shard_size,
                        shards_per_client: 2,
                        val_fraction: 0.15,
                        seed,
                    },
                )
            }
            PartitionKind::Dirichlet { alpha } => partition_dirichlet(
                synth.train(),
                synth.test(),
                &DirichletConfig {
                    num_clients,
                    alpha,
                    min_per_client: 10,
                    val_fraction: 0.15,
                    seed,
                },
            ),
            PartitionKind::QuantitySkew { skew } => partition_quantity_skew(
                synth.train(),
                synth.test(),
                &QuantitySkewConfig {
                    num_clients,
                    skew,
                    min_per_client: 10,
                    val_fraction: 0.15,
                    seed,
                },
            ),
        }
    }

    /// Builds a federation on this dataset with the given config (clients
    /// are derived from `config.seed`).
    pub fn federation(self, num_clients: usize, config: FedConfig) -> Federation {
        Federation::new(self.spec(), self.clients(num_clients, config.seed), config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_all_names() {
        assert_eq!(DatasetKind::parse("mnist"), Some(DatasetKind::Mnist));
        assert_eq!(DatasetKind::parse("EMNIST"), Some(DatasetKind::Emnist));
        assert_eq!(DatasetKind::parse("cifar-10"), Some(DatasetKind::Cifar10));
        assert_eq!(DatasetKind::parse("cifar100"), Some(DatasetKind::Cifar100));
        assert_eq!(DatasetKind::parse("svhn"), None);
    }

    #[test]
    fn federation_builds_for_every_kind() {
        for kind in DatasetKind::ALL {
            let fed = kind.federation(6, FedConfig { rounds: 2, seed: 3, ..Default::default() });
            assert_eq!(fed.num_clients(), 6);
            assert_eq!(fed.spec().classes(), kind.classes());
        }
    }

    #[test]
    fn labels_mark_substitution() {
        for kind in DatasetKind::ALL {
            assert!(kind.label().ends_with('*'));
        }
    }

    #[test]
    fn alternative_partitions_build() {
        for partition in [
            PartitionKind::Pathological,
            PartitionKind::Dirichlet { alpha: 0.3 },
            PartitionKind::QuantitySkew { skew: 1.2 },
        ] {
            let clients = DatasetKind::Mnist.clients_with(5, 7, partition);
            assert_eq!(clients.len(), 5, "{partition:?}");
            assert!(clients.iter().all(|c| !c.train.is_empty()));
        }
    }

    #[test]
    fn default_partition_is_pathological() {
        assert_eq!(PartitionKind::default(), PartitionKind::Pathological);
        let a = DatasetKind::Mnist.clients(4, 9);
        let b = DatasetKind::Mnist.clients_with(4, 9, PartitionKind::Pathological);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.labels, y.labels);
        }
    }
}
