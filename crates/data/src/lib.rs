//! # subfed-data
//!
//! Dataset substrate for the Sub-FedAvg reproduction:
//!
//! * [`Dataset`] — images + labels with batching, splitting, and
//!   label-filtered views;
//! * [`synth`] — the **SynthVision** class-prototype generators standing in
//!   for MNIST / EMNIST / CIFAR-10 / CIFAR-100 (the substitution is
//!   documented in `DESIGN.md` §2: the paper's phenomena depend on
//!   label-skew and class-conditional structure, not on pixel semantics);
//! * [`partition`] — the paper's pathological non-IID partitioner (§4.1):
//!   training data is sorted by label, cut into shards, and every client
//!   receives two shards, so most clients hold exactly two classes — plus
//!   a quantity-skew partitioner for the heterogeneity extensions;
//! * [`dirichlet`] — Dirichlet label-skew partitioning (the smoother
//!   heterogeneity model used by the extension benches);
//! * [`corrupt`] — label-flipping corruption injection for the
//!   robust-aggregation extension;
//! * [`stats`] — partition diagnostics (label histograms, client overlap);
//! * [`provider`] — client-data providers: the materialized classic path
//!   plus an on-demand synthesizer so million-client registries never hold
//!   more than the sampled cohort's shards in memory (`docs/SCALING.md`).

#![forbid(unsafe_code)]

mod dataset;

pub mod corrupt;
pub mod dirichlet;
pub mod partition;
pub mod provider;
pub mod stats;
pub mod synth;

pub use dataset::{Batch, Dataset};
pub use dirichlet::{partition_dirichlet, DirichletConfig};
pub use partition::{
    partition_pathological, partition_quantity_skew, ClientData, PartitionConfig,
    QuantitySkewConfig,
};
pub use provider::{
    ClientProvider, MaterializedClients, Shard, SynthClientProvider, SynthProviderConfig,
};
pub use synth::{SynthConfig, SynthVision};
