//! Neural-network layers, training, and structured sparsification for the
//! Learn-to-Scale reproduction.
//!
//! This crate implements everything the paper's three parallelization
//! strategies need from the "deep learning" side:
//!
//! * forward/backward layers — grouped 2-D convolution ([`conv::Conv2d`],
//!   the mechanism behind *structure-level parallelization*), fully-connected
//!   ([`linear::Linear`]), max pooling, ReLU, and softmax cross-entropy;
//! * a sequential [`network::Network`] container and SGD training loop
//!   ([`trainer::Trainer`]);
//! * the **group-Lasso structured-sparsity regularizer** of Eq. (1)–(3)
//!   ([`regularizer::GroupLasso`]) over producer-core × consumer-core weight
//!   blocks ([`grouping::GroupLayout`]), with an arbitrary per-block strength
//!   mask — the uniform mask gives the paper's *SS* scheme and a
//!   hop-distance mask gives *SS_Mask*;
//! * magnitude pruning with group freezing ([`prune`]);
//! * the model zoo of the evaluation section ([`models`]) and analytic
//!   layer descriptors for networks too large to train here
//!   ([`descriptor`], used by Table I).
//!
//! # Examples
//!
//! ```
//! use lts_nn::models;
//!
//! # fn main() -> Result<(), lts_nn::NnError> {
//! let net = models::mlp(28 * 28, 10, 11)?;
//! assert_eq!(net.spec().weight_layer_names(), vec!["ip1", "ip2", "ip3"]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::print_stdout, clippy::print_stderr)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod activation;
pub mod conv;
pub mod descriptor;
pub mod error;
pub mod grouping;
pub mod layer;
pub mod linear;
pub mod loss;
pub mod models;
pub mod network;
pub mod optim;
pub mod param;
pub mod pool;
pub mod prune;
pub mod quantized;
pub mod regularizer;
pub mod saved;
pub mod trainer;

pub use descriptor::{LayerKind, LayerSpec, NetworkSpec};
pub use error::NnError;
pub use grouping::GroupLayout;
pub use layer::Layer;
pub use network::{Network, Tape};
pub use param::Param;
pub use quantized::{quantized_parallel_accuracy, QuantizedNetwork};
pub use regularizer::{GroupLasso, StrengthMask};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, NnError>;
