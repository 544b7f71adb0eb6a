//! # subfed-pruning
//!
//! The three pruning levels of the paper (§3.3) plus the client-side gating
//! controllers of Algorithms 1 and 2:
//!
//! * [`unstructured`] — magnitude pruning of weights: zero the lowest
//!   `r_us`% (by |w|) of the *remaining* weights, layer-wise or globally;
//! * [`structured`] — channel pruning driven by BatchNorm scale factors |γ|
//!   (network slimming, Liu et al. 2017): a [`structured::ChannelMask`]
//!   selects surviving channels per conv block and expands to a parameter
//!   [`ModelMask`] covering the filter, its bias, its BN γ/β, and the
//!   downstream weights that consume the channel;
//! * [`controller`] — the pruning *schedules*: a step is taken only when
//!   validation accuracy clears `acc_threshold`, the target rate is not yet
//!   reached, and the first-epoch/last-epoch mask distance Δ clears ε.
//!
//! All functions are pure with respect to the model: they read weights and
//! produce masks; applying a mask is the caller's (the federation
//! engine's) decision. Each mask derivation has one core that reads a flat
//! parameter snapshot through the model's layout (the `ParamMeta` offsets
//! of `Sequential::metas`) — [`unstructured::magnitude_mask_flat`],
//! [`structured::slimming_mask_flat`] and
//! [`structured::expand_channel_mask_flat`] — so the controllers prune
//! from a client's flat weights without building a model; the `&Sequential`
//! forms are thin adapters over those cores.

#![forbid(unsafe_code)]

pub mod controller;
pub mod structured;
pub mod unstructured;

pub use controller::{
    GateDecision, GateReason, HybridController, HybridState, UnstructuredController,
};
pub use structured::ChannelMask;
pub use unstructured::{PruneScope, Ranking};

// Re-exported for downstream convenience: the mask type everything here
// produces.
pub use subfed_nn::ModelMask;
