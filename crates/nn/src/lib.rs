//! Neural-network substrate for Group-FEL local training.
//!
//! The paper trains a 3-block ResNet (CIFAR-10) and a 5-layer CNN (Speech
//! Commands) with plain SGD. This crate provides the from-scratch
//! replacement: fully-connected ReLU networks with softmax cross-entropy and
//! manual backprop over a *flat parameter vector*. The flat representation
//! is the key design decision — every federated operation (group
//! aggregation, global aggregation, secure-aggregation masking, SCAFFOLD
//! control variates, FedProx proximal terms, cosine-similarity defenses) is
//! a BLAS-1 operation over `&[f32]`, so the whole FL stack composes without
//! ever reflecting on model structure.
//!
//! * [`Mlp`] — architecture descriptor + forward/backward kernels.
//! * [`Workspace`] — caller-owned activation buffers so concurrent clients
//!   never contend and the hot loop never allocates.
//! * [`sgd`] — SGD step and learning-rate schedules.
//! * [`zoo`] — the paper's two task models and a tiny test model.

#![forbid(unsafe_code)]

pub mod conv;
pub mod mlp;
pub mod network;
pub mod sgd;
pub mod zoo;

pub use conv::Cnn1d;
pub use mlp::{Mlp, Workspace};
pub use network::{Network, NetworkWorkspace};

/// Flat model parameters. All federated aggregation operates on this.
pub type Params = Vec<f32>;

/// Row-chunk size used by the parallel `evaluate` paths.
///
/// Chunk boundaries depend only on this constant — never on the thread
/// count — and chunk partials are folded in chunk order, so evaluation
/// losses are bit-identical for any parallelism degree.
pub(crate) const EVAL_CHUNK: usize = 256;
