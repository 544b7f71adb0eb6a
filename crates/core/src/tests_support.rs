//! Shared fixtures for the algorithm test modules.

use crate::{FedConfig, Federation};
use subfed_data::{partition_pathological, PartitionConfig, SynthConfig, SynthVision};
use subfed_nn::models::ModelSpec;

/// A 4-class, `num_clients`-client CNN-5 federation small enough for unit
/// tests: ~40 local examples per client, 2 labels each, 2 local epochs.
pub(crate) fn tiny_federation(rounds: usize, num_clients: usize) -> Federation {
    tiny_federation_of(ModelSpec::cnn5(1, 16, 16, 4), rounds, num_clients)
}

/// [`tiny_federation`] over another model for its 1×16×16, 4-class data.
pub(crate) fn tiny_federation_of(spec: ModelSpec, rounds: usize, num_clients: usize) -> Federation {
    let data = SynthVision::generate(SynthConfig {
        channels: 1,
        height: 16,
        width: 16,
        classes: 4,
        train_per_class: num_clients * 10,
        test_per_class: 6,
        noise_std: 0.1,
        shift: 1,
        grid: 4,
        seed: 17,
    });
    let clients = partition_pathological(
        data.train(),
        data.test(),
        &PartitionConfig {
            num_clients,
            shard_size: 20,
            shards_per_client: 2,
            val_fraction: 0.15,
            seed: 17,
        },
    );
    Federation::new(
        spec,
        clients,
        FedConfig { rounds, local_epochs: 2, sample_frac: 0.5, seed: 17, ..Default::default() },
    )
}
