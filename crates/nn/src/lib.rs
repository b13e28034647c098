//! From-scratch CNN training substrate for the TTFS-CAT reproduction.
//!
//! The paper trains VGG-style ANNs with stochastic gradient descent before
//! converting them to spiking networks. This crate supplies that training
//! stack: layers with manual backprop ([`Conv2dLayer`], [`DenseLayer`],
//! [`BatchNorm2d`], pooling, [`ActivationLayer`]), a [`Sequential`] container,
//! softmax cross-entropy loss, [`Sgd`] with momentum and weight decay, and a
//! step learning-rate [`LrSchedule`].
//!
//! The activation function of every [`ActivationLayer`] is a boxed
//! [`ActivationFn`] and can be *swapped during training* — this is the hook the
//! conversion-aware training (CAT) schedule in `ttfs-core` uses to move the
//! network through its `ReLU → φ_Clip → φ_TTFS` phases.
//!
//! # Example
//!
//! ```
//! use snn_nn::{ActivationLayer, DenseLayer, Layer, Relu, Sequential};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let net = Sequential::new(vec![
//!     Layer::Dense(DenseLayer::new(4, 8, &mut rng)),
//!     Layer::Activation(ActivationLayer::new(Box::new(Relu))),
//!     Layer::Dense(DenseLayer::new(8, 2, &mut rng)),
//! ]);
//! assert_eq!(net.len(), 3);
//! ```

#![forbid(unsafe_code)]

mod activation;
mod error;
mod layer;
mod layers;
mod loss;
pub mod models;
mod network;
mod optim;
mod schedule;
mod train;

pub use activation::{ActivationFn, Identity, Relu};
pub use error::NnError;
pub use layer::Layer;
pub use layers::activation::ActivationLayer;
pub use layers::batchnorm::{BatchNorm2d, BN_EPS};
pub use layers::conv::Conv2dLayer;
pub use layers::dense::DenseLayer;
pub use layers::dropout::DropoutLayer;
pub use layers::flatten::Flatten;
pub use layers::pool::{AvgPool2dLayer, MaxPool2dLayer};
pub use loss::{cross_entropy, softmax, CrossEntropyOutput};
pub use network::Sequential;
pub use optim::Sgd;
pub use schedule::LrSchedule;
pub use train::{evaluate, train_epoch, EpochStats, TrainConfig};
