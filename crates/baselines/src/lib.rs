//! Baseline FL methods the paper compares against (§7.1):
//!
//! * **FedAvg** [3] — lives in `gfl-core` ([`gfl_core::local::FedAvg`]).
//! * **FedProx** [6] — [`FedProx`]: local objective gains a proximal term
//!   `μ/2·‖w − x_t‖²` anchoring updates to the round's global model.
//! * **SCAFFOLD** [7] — [`Scaffold`]: client/server control variates
//!   redirect each local gradient by `− c_i + c`; ships double payloads,
//!   hence the costlier SecAgg curve in Fig. 8.
//! * **FedCLAR** [12] — [`fedclar::FedClarRunner`]: personalized FL via
//!   clustering; included to show personalization *hurts* the global-model
//!   objective (its accuracy drops after the clustering round in Fig. 9).
//! * **OUEA** [13] / **SHARE** [14] — these are grouping policies, ported
//!   into `gfl-core::grouping` as `CdgGrouping` / `KldGrouping`; the
//!   "methods" in the figures are FedAvg run on their groupings.
//!
//! All local strategies plug into the unchanged Algorithm 1 engine — the
//! paper evaluates every baseline "modified to a hierarchical version ...
//! with uniform group sampling".

#![forbid(unsafe_code)]

pub mod fedclar;
pub mod fednova;
pub mod fedprox;
pub mod scaffold;

pub use fedclar::{FedClarConfig, FedClarRunner};
pub use fednova::FedNova;
pub use fedprox::FedProx;
pub use scaffold::Scaffold;
