//! The paper's algorithms and every baseline it compares against.

mod common;
mod fedavg;
mod lg_fedavg;
mod mtl;
mod standalone;
mod subfedavg;

pub use fedavg::{FedAvg, FedProx};
pub use lg_fedavg::LgFedAvg;
pub use mtl::FedMtl;
pub use standalone::Standalone;
pub use subfedavg::{
    ScaledRoundRecord, ScaledSubFedAvg, ScaledSummary, SubFedAvg, SubFedAvgHy, SubFedAvgOptions,
    SubFedAvgUn,
};
