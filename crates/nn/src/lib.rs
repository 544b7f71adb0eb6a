//! # subfed-nn
//!
//! A layer-wise neural-network substrate built on [`subfed_tensor`],
//! providing everything the Sub-FedAvg reproduction trains:
//!
//! * the [`Layer`] trait with explicit forward and backward passes over a
//!   caller-supplied scratch workspace (`forward_ws`/`backward_ws`),
//! * the paper's layers: [`layers::Conv2d`], [`layers::BatchNorm2d`],
//!   [`layers::ReLU`], [`layers::MaxPool2d`], [`layers::Flatten`],
//!   [`layers::Linear`], [`layers::Dropout`],
//! * [`Sequential`] models with flat-parameter (de)serialisation used by the
//!   federated aggregation,
//! * softmax cross-entropy ([`loss`]),
//! * mask-aware SGD with momentum and an optional FedProx proximal term
//!   ([`optim::Sgd`]),
//! * per-parameter binary masks ([`ModelMask`]) — the object the pruning
//!   algorithms manipulate,
//! * the paper's two architectures ([`models::ModelSpec::Cnn5`] and
//!   [`models::ModelSpec::LeNet5`]) with channel-structure metadata for
//!   structured pruning and analytic FLOP counting.
//!
//! # Example
//!
//! ```
//! use subfed_nn::models::ModelSpec;
//! use subfed_nn::{loss, Mode};
//! use subfed_tensor::{init::SeededRng, Tensor};
//!
//! let spec = ModelSpec::cnn5(1, 16, 16, 4);
//! let mut model = spec.build(&mut SeededRng::new(0));
//! let x = Tensor::zeros(&[2, 1, 16, 16]);
//! let logits = model.forward(&x, Mode::Eval);
//! assert_eq!(logits.shape(), &[2, 4]);
//! let (l, _grad) = subfed_nn::loss::softmax_cross_entropy(&logits, &[0, 3]);
//! assert!(l.is_finite());
//! ```

#![forbid(unsafe_code)]

mod layer;
mod mask;
mod param;
mod sequential;

pub mod layers;
pub mod loss;
pub mod models;
pub mod optim;

pub use layer::{Layer, Mode};
pub use mask::{is_kept, is_mask_bit, ModelMask};
pub use param::{Param, ParamKind, ParamMeta};
pub use sequential::Sequential;

#[cfg(test)]
pub(crate) mod gradcheck;
