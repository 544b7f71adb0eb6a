//! # subfed-core
//!
//! The paper's contribution: a federated-learning simulation engine with
//! **Sub-FedAvg** — personalization by iterative unstructured / hybrid
//! pruning with intersection averaging on the server — plus every baseline
//! the paper compares against:
//!
//! | Algorithm | Paper role | Type |
//! |---|---|---|
//! | [`algorithms::Standalone`] | local-only lower/upper bound | baseline |
//! | [`algorithms::FedAvg`] | traditional FL (McMahan et al.) | baseline |
//! | [`algorithms::FedProx`] | proximal FL (Li et al.) | baseline |
//! | [`algorithms::LgFedAvg`] | local representations + global head (Liang et al.) | baseline |
//! | [`algorithms::FedMtl`] | federated multi-task learning (Smith et al.) | baseline |
//! | [`algorithms::SubFedAvgUn`] | **Algorithm 1** — unstructured pruning | contribution |
//! | [`algorithms::SubFedAvgHy`] | **Algorithm 2** — hybrid pruning | contribution |
//! | [`ScaledSubFedAvg`] | Algorithm 1 over a [`ClientRegistry`] of millions | extension |
//!
//! The three Sub-FedAvg rows are one round driver,
//! [`algorithms::SubFedAvg`], generic over the pruning track and over
//! where per-client state lives (resident models, or a registry of masks
//! for sampled cohorts; `docs/SCALING.md`).
//!
//! All algorithms share one [`FedConfig`], one client-sampling scheme, one
//! local trainer, and one [`History`] output, so every Table-1/Fig-3
//! comparison is apples-to-apples.
//!
//! # Example
//!
//! ```no_run
//! use subfed_core::{algorithms::FedAvg, FedConfig, FederatedAlgorithm, Federation};
//! use subfed_data::{partition_pathological, PartitionConfig, SynthVision};
//! use subfed_nn::models::ModelSpec;
//!
//! let data = SynthVision::mnist_like(0, 1);
//! let clients = partition_pathological(
//!     data.train(),
//!     data.test(),
//!     &PartitionConfig { num_clients: 8, shard_size: 30, ..Default::default() },
//! );
//! let spec = ModelSpec::cnn5(1, 16, 16, 10);
//! let fed = Federation::new(spec, clients, FedConfig { rounds: 5, ..Default::default() });
//! let history = FedAvg::new(fed).run();
//! println!("final accuracy: {:.3}", history.final_avg_acc());
//! ```

#![forbid(unsafe_code)]

mod aggregate;
mod config;
mod engine;
mod history;
mod workspace;

pub mod algorithms;
pub mod analysis;
pub mod checkpoint;
pub mod invariants;
pub mod presets;
pub mod registry;
pub mod sampler;
pub mod stream_agg;
pub mod wire;

pub use aggregate::{
    fedavg_aggregate, flatten_mask, subfedavg_aggregate, subfedavg_aggregate_trimmed,
};
pub use algorithms::{ScaledRoundRecord, ScaledSubFedAvg, ScaledSummary};
pub use config::FedConfig;
pub use engine::{evaluate_accuracy, train_client, train_client_ws, Federation, LocalOutcome};
pub use history::{History, RoundRecord};
pub use registry::{ClientRegistry, RegistryError};
pub use sampler::UniformSampler;
pub use stream_agg::{OrderedAccumulator, StreamingAccumulator};
pub use workspace::{PooledWorkspace, WorkspacePool};

#[cfg(test)]
pub(crate) mod tests_support;

/// A federated algorithm that can be run to completion, producing a
/// [`History`].
pub trait FederatedAlgorithm {
    /// Display name used in tables (e.g. `"Sub-FedAvg (Un) 50%"`).
    fn name(&self) -> String;

    /// Runs the configured number of rounds and returns the history.
    fn run(&mut self) -> History;
}
