//! # Group-FEL — Group-based Hierarchical Federated Edge Learning
//!
//! Rust reproduction of *"Group-based Hierarchical Federated Learning:
//! Convergence, Group Formation, and Sampling"* (Liu, Wei, Liu, Gao, Wang —
//! ICPP 2023). The paper's pipeline, end to end:
//!
//! 1. Each **edge server** partitions its clients into groups using only
//!    their label histograms — [`grouping`] implements the paper's
//!    CoV-Grouping (Algorithm 2) plus the three comparison algorithms
//!    (random, OUEA's clustering-then-distribution, SHARE's KLD grouping).
//! 2. The **cloud** computes a sampling probability per group from its
//!    coefficient of variation — [`sampling`] implements Eq. 34 with the
//!    three weighting functions w(x) ∈ {x, x², e^{x²}} and the
//!    unbiased/stabilized aggregation corrections (Eq. 4, Eq. 35).
//! 3. Every global round, sampled groups run `K` group rounds of `E` local
//!    SGD epochs and aggregate hierarchically — [`engine`] implements
//!    Algorithm 1's group mechanics and [`driver`] its one round loop,
//!    charging emulated cost per Eq. 5 through `gfl-sim`.
//!
//! A run has three entry points, all on [`engine::Trainer`]:
//! [`start`](engine::Trainer::start) makes a fresh [`driver::RunState`],
//! [`drive`](engine::Trainer::drive) advances one by some rounds under a
//! [`driver::RunPlan`] — a clock policy (lockstep | event-driven,
//! [`semi_async`]) × a membership policy (static | self-healing,
//! [`membership`]) chosen per call — and
//! [`run`](engine::Trainer::run) is the lockstep × static one-liner.
//! Resuming is driving a state restored from a [`checkpoint`].
//!
//! [`cov`] is the shared grouping criterion (Eq. 27), [`theory`] evaluates
//! the constants of the convergence theorem (Theorem 1), and [`history`]
//! records the accuracy-vs-cost trajectories every figure plots, beside
//! the run's one event log.
//!
//! ## Quick example
//!
//! ```
//! use gfl_core::prelude::*;
//! use gfl_data::{PartitionSpec, SyntheticSpec, ClientPartition};
//!
//! // Tiny synthetic federation: 12 clients on 2 edge servers.
//! let data = SyntheticSpec::tiny().generate(400, 7);
//! let (train, test) = data.split_holdout(5);
//! let part = ClientPartition::dirichlet(&train, &PartitionSpec::tiny(0.5, 7));
//! let topo = gfl_sim::Topology::even_split(2, part.sizes());
//!
//! let grouping = CovGrouping { min_group_size: 2, max_cov: 1.0 };
//! let groups = form_groups_per_edge(&grouping, &topo, &part.label_matrix, 7);
//!
//! let config = GroupFelConfig::tiny();
//! let model = gfl_nn::zoo::tiny(4, 3);
//! let trainer = Trainer::try_new(config, model, (train, part), test)?;
//! let history = trainer.run(&groups, &FedAvg, SamplingStrategy::ESRCov);
//! assert!(history.records().len() > 0);
//! # Ok::<(), ConfigError>(())
//! ```

#![forbid(unsafe_code)]

pub mod checkpoint;
pub mod cov;
pub mod driver;
pub mod engine;
pub mod grouping;
pub mod history;
pub mod local;
pub mod membership;
pub mod sampling;
pub mod semi_async;
pub mod theory;

/// One group: the global client ids of its members.
pub type Group = Vec<usize>;

/// The worker width of the calling thread's runs (`0` = every core): a
/// binary's `--threads`, for callers that do not depend on `gfl-parallel`.
/// Results are bit-identical at every width.
pub use gfl_parallel::set_default_parallelism;

/// Convenient re-exports of the full pipeline.
pub mod prelude {
    pub use crate::cov::group_cov;
    pub use crate::driver::{Clock, Membership, RunPlan, RunState};
    pub use crate::engine::{
        form_groups_per_edge, ConfigError, GroupFelConfig, RobustAggRule, Trainer,
    };
    pub use crate::grouping::{
        CdgGrouping, CovGrouping, GroupingAlgorithm, KldGrouping, PartitionError, RandomGrouping,
        StreamGrouping,
    };
    pub use crate::history::{Event, RoundRecord, RunHistory, TimedEvent};
    pub use crate::local::{FedAvg, LocalTask, LocalUpdate};
    pub use crate::membership::{
        summarize_regroups, MembershipState, RegroupEvent, RegroupPolicy, RegroupSummary,
    };
    pub use crate::sampling::{AggregationWeighting, SamplingStrategy};
    pub use crate::semi_async::{AsyncConfig, AsyncRoundRecord, SchedulerState, StalenessPolicy};
    pub use crate::Group;
    pub use gfl_faults::{
        summarize_attacks, AdversaryPlan, AttackEvent, AttackKind, AttackSummary, DefenseStage,
        FaultConfigError, FaultPlan, FaultPolicy,
    };
}
