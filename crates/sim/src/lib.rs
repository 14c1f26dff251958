//! Edge-computing simulation substrate: the cloud–edge–client topology and
//! the learning-cost emulation of §3.2 / §7.1.
//!
//! The paper measures per-client costs on Raspberry Pi 4 devices, fits
//! * a **linear** training cost `H_i(n_i) = a·n_i + b` and
//! * a **quadratic** group-operation cost `O_g(|g|) = c₂·|g|² + c₁·|g| + c₀`,
//!
//! and then runs every evaluation on *emulated* cost (accuracy-over-cost
//! plots), not wall-clock. We reproduce exactly that: [`cost`] carries the
//! calibrated coefficient tables (shaped after Fig. 8), [`ledger`]
//! accumulates Eq. 5, and [`topology`] models the client↔edge↔cloud
//! hierarchy of Fig. 1.

#![forbid(unsafe_code)]

pub mod comm;
pub mod cost;
pub mod event;
pub mod ledger;
pub mod topology;

pub use comm::{CommModel, LinkModel, RetryOutcome, StragglerModel};
pub use cost::{CostModel, GroupOpKind, LinearCost, QuadraticCost, Task};
pub use event::{EventId, EventQueue, ScheduledEvent};
pub use ledger::{CostBreakdown, CostLedger};
pub use topology::{ClientId, EdgeId, Topology};
