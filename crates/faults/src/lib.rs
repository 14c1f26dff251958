//! Deterministic fault injection for the Group-FEL simulator.
//!
//! Real edge federations are messy: devices straggle, crash mid-round,
//! edge servers go dark, and the occasional update arrives corrupted.
//! This crate models all four failure classes **deterministically** — every
//! decision is a pure hash of `(plan seed, round, group round, actor)`, in
//! the same spirit as the engine's per-client RNG streams — so a faulted
//! run is exactly as reproducible as a clean one: identical seed +
//! identical [`FaultPlan`] ⇒ bit-identical trajectory and fault log.
//!
//! The pieces:
//!
//! * [`FaultPlan`] — *what goes wrong*: straggler population and slowdown,
//!   per-(round, group round, client) crash and corruption probabilities,
//!   edge-server outage windows, edge↔cloud upload failure probability.
//! * [`FaultPolicy`] — *how the engine degrades gracefully*: straggler
//!   deadline factor, per-group survivor quorum, the non-finite update
//!   gate, and the upload retry budget.
//! * [`FaultInjector`] — the stateless decision oracle the engine queries.
//! * [`FaultEvent`] — the structured per-round audit record; every injected
//!   fault that affects the run produces exactly one event, serialized
//!   through `RunHistory` and checkpoints.
//! * [`ChurnPlan`] ([`churn`]) — *who comes and goes*: permanent
//!   departures, late arrivals, and flapping availability, consumed by
//!   `gfl-core`'s self-healing membership layer.
//!
//! Decisions deliberately do **not** consume the engine's RNG streams:
//! enabling faults never perturbs sampling, initialization, or minibatch
//! order, so a faulted run differs from its clean twin only through the
//! faults themselves.

use serde::{Deserialize, Serialize};

pub mod adversary;
pub mod churn;

pub use adversary::{
    summarize_attacks, AdversaryPlan, AttackEvent, AttackKind, AttackSummary, DefenseStage,
};
pub use churn::ChurnPlan;

/// A half-open round range `[from_round, until_round)` during which one
/// edge server is unreachable; every sampled group homed on that edge is
/// lost for those global rounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OutageWindow {
    /// Edge server index (matches `Topology` edge ids).
    pub edge: usize,
    /// First global round of the outage (inclusive).
    pub from_round: usize,
    /// First global round after the outage (exclusive).
    pub until_round: usize,
}

impl OutageWindow {
    /// Whether the edge is down at global round `t`.
    pub fn covers(&self, t: usize) -> bool {
        (self.from_round..self.until_round).contains(&t)
    }
}

/// `EDGE:FROM:UNTIL`, three integers — how `gfl simulate --outage` spells
/// a window. Whether it covers any round is [`FaultPlan::validate`]'s rule.
impl std::str::FromStr for OutageWindow {
    type Err = ();

    fn from_str(spec: &str) -> Result<Self, ()> {
        let parts: Vec<Option<usize>> = spec.split(':').map(|p| p.parse().ok()).collect();
        match parts[..] {
            [Some(edge), Some(from_round), Some(until_round)] => Ok(Self {
                edge,
                from_round,
                until_round,
            }),
            _ => Err(()),
        }
    }
}

/// What goes wrong, and how often. All probabilities are per decision
/// point; see each field for the granularity.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed of the fault decision streams (independent of the engine seed,
    /// so the same training run can be replayed under different weather).
    pub seed: u64,
    /// Fraction of clients that are persistent stragglers.
    pub straggler_fraction: f64,
    /// Base compute slowdown of a straggler (≥ 1.0; e.g. 4.0 = 4× slower).
    pub straggler_factor: f64,
    /// Relative jitter on the slowdown per (round, group round): the
    /// effective factor is `factor · (1 ± jitter·u)`, modelling
    /// time-varying contention on the device.
    pub straggler_jitter: f64,
    /// Probability a client crashes during one group round (its update
    /// never reaches the edge aggregator).
    pub crash_prob: f64,
    /// Probability a client's update arrives corrupted (non-finite
    /// parameters) for one group round.
    pub corrupt_prob: f64,
    /// Probability one edge→cloud group-model upload attempt fails and
    /// must be retried.
    pub upload_fail_prob: f64,
    /// Scheduled edge-server outages.
    pub edge_outages: Vec<OutageWindow>,
}

impl FaultPlan {
    /// The clean plan: nothing ever goes wrong.
    pub fn none() -> Self {
        Self {
            seed: 0,
            straggler_fraction: 0.0,
            straggler_factor: 1.0,
            straggler_jitter: 0.0,
            crash_prob: 0.0,
            corrupt_prob: 0.0,
            upload_fail_prob: 0.0,
            edge_outages: Vec::new(),
        }
    }

    /// The documented "moderate weather" preset used by the chaos tests
    /// and `examples/chaos_run.rs`: 20% of clients straggle at ~4×, 5% of
    /// client-rounds crash, 2% of updates arrive corrupted, 10% of
    /// edge→cloud uploads need a retry, and edge 0 is dark for global
    /// rounds 2–3. Under the default [`FaultPolicy`] the engine should
    /// stay within a few accuracy points of the fault-free run.
    pub fn moderate(seed: u64) -> Self {
        Self {
            seed,
            straggler_fraction: 0.2,
            straggler_factor: 4.0,
            straggler_jitter: 0.25,
            crash_prob: 0.05,
            corrupt_prob: 0.02,
            upload_fail_prob: 0.10,
            edge_outages: vec![OutageWindow {
                edge: 0,
                from_round: 2,
                until_round: 4,
            }],
        }
    }

    /// Whether this plan can ever inject a fault.
    pub fn is_clean(&self) -> bool {
        self.straggler_fraction == 0.0
            && self.crash_prob == 0.0
            && self.corrupt_prob == 0.0
            && self.upload_fail_prob == 0.0
            && self.edge_outages.is_empty()
    }

    /// Checks every knob, returning the first violation as a typed error.
    pub fn validate(&self) -> Result<(), FaultConfigError> {
        probabilities(&[
            ("straggler_fraction", self.straggler_fraction),
            ("crash_prob", self.crash_prob),
            ("corrupt_prob", self.corrupt_prob),
            ("upload_fail_prob", self.upload_fail_prob),
        ])?;
        if !self.straggler_factor.is_finite() || self.straggler_factor < 1.0 {
            return Err(FaultConfigError::SlowdownBelowOne {
                value: self.straggler_factor,
            });
        }
        probabilities(&[("straggler_jitter", self.straggler_jitter)])?;
        for w in &self.edge_outages {
            if w.from_round >= w.until_round {
                return Err(FaultConfigError::EmptyOutageWindow {
                    edge: w.edge,
                    from_round: w.from_round,
                    until_round: w.until_round,
                });
            }
        }
        Ok(())
    }
}

/// The one probability rule of every plan: each named knob lies in [0, 1]
/// (NaN does not).
pub(crate) fn probabilities(knobs: &[(&'static str, f64)]) -> Result<(), FaultConfigError> {
    match knobs.iter().find(|(_, p)| !(0.0..=1.0).contains(p)) {
        Some(&(knob, value)) => Err(FaultConfigError::NotAProbability { knob, value }),
        None => Ok(()),
    }
}

/// Why a [`FaultPlan`], [`FaultPolicy`], [`ChurnPlan`] or [`AdversaryPlan`]
/// knob was rejected. NaN, negative, and out-of-range values fail *here* —
/// at CLI parse or construction — instead of as asserts (or silent
/// nonsense) deep inside a run.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultConfigError {
    /// A knob that must lie in [0, 1] (probabilities, fractions) did not.
    NotAProbability { knob: &'static str, value: f64 },
    /// `straggler_factor` below 1.0: slowdowns cannot speed clients up.
    SlowdownBelowOne { value: f64 },
    /// `deadline_factor` must be ≥ 0 and not NaN (`0` disables cutting;
    /// `+inf` means "wait forever", the degenerate sync limit).
    BadDeadlineFactor { value: f64 },
    /// `quorum_fraction` must lie in [0, 1].
    BadQuorumFraction { value: f64 },
    /// `backoff_base_s` must be finite and ≥ 0.
    BadBackoffBase { value: f64 },
    /// `max_backoff_s` must be > 0 (it caps each wait) and not NaN.
    BadMaxBackoff { value: f64 },
    /// An outage window with `from_round >= until_round` covers nothing.
    EmptyOutageWindow {
        edge: usize,
        from_round: usize,
        until_round: usize,
    },
    /// A churn plan whose departures and arrivals spread over zero rounds.
    ZeroChurnHorizon,
    /// The three compromised fractions of an adversary plan sum past 1.
    FractionsOversubscribed { sum: f64 },
    /// `backdoor_boost` must be finite and > 0 while a backdoor runs.
    BadBackdoorBoost { value: f64 },
    /// A label-flip campaign with `flip_from == flip_to` flips nothing.
    IdentityLabelFlip { label: usize },
    /// A model poison with `scale_factor == 1` and no sign flip is honest.
    NoOpModelPoison,
    /// The backdoor trigger must cover 1..=`feature_dim` coordinates.
    BadTriggerWidth { width: usize, feature_dim: usize },
    /// A trigger or flip label the dataset does not have.
    LabelOutOfRange {
        knob: &'static str,
        label: usize,
        num_classes: usize,
    },
}

impl std::fmt::Display for FaultConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultConfigError::NotAProbability { knob, value } => {
                write!(f, "{knob} must be a probability in [0, 1], got {value}")
            }
            FaultConfigError::SlowdownBelowOne { value } => {
                write!(
                    f,
                    "straggler_factor must be >= 1.0 (slowdowns cannot speed up), got {value}"
                )
            }
            FaultConfigError::BadDeadlineFactor { value } => {
                write!(
                    f,
                    "deadline_factor must be >= 0 and not NaN \
                     (0 disables cutting, +inf waits forever), got {value}"
                )
            }
            FaultConfigError::BadQuorumFraction { value } => {
                write!(f, "quorum_fraction must be in [0, 1], got {value}")
            }
            FaultConfigError::BadBackoffBase { value } => {
                write!(f, "backoff_base_s must be finite and >= 0, got {value}")
            }
            FaultConfigError::BadMaxBackoff { value } => {
                write!(f, "max_backoff_s must be > 0 and not NaN, got {value}")
            }
            FaultConfigError::EmptyOutageWindow {
                edge,
                from_round,
                until_round,
            } => {
                write!(
                    f,
                    "outage window for edge {edge} covers no rounds \
                     ([{from_round}, {until_round}) is empty)"
                )
            }
            FaultConfigError::ZeroChurnHorizon => {
                write!(f, "churn horizon must be at least 1 round")
            }
            FaultConfigError::FractionsOversubscribed { sum } => {
                write!(f, "adversary fractions must sum to at most 1, got {sum}")
            }
            FaultConfigError::BadBackdoorBoost { value } => {
                write!(f, "backdoor_boost must be finite and > 0, got {value}")
            }
            FaultConfigError::IdentityLabelFlip { label } => {
                write!(
                    f,
                    "flip_from and flip_to must differ (both are {label}): \
                     a label flip must change the label"
                )
            }
            FaultConfigError::NoOpModelPoison => {
                write!(
                    f,
                    "model poison must amplify or flip the update \
                     (scale_factor 1 with no sign flip is honest)"
                )
            }
            FaultConfigError::BadTriggerWidth { width, feature_dim } => {
                write!(
                    f,
                    "trigger_width must be in 1..={feature_dim} for this dataset, got {width}"
                )
            }
            FaultConfigError::LabelOutOfRange {
                knob,
                label,
                num_classes,
            } => {
                write!(
                    f,
                    "{knob} must be < {num_classes} (the dataset's classes), got {label}"
                )
            }
        }
    }
}

impl std::error::Error for FaultConfigError {}

/// How the engine responds to injected faults (graceful degradation).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultPolicy {
    /// Straggler deadline: a client is cut from a group round when its
    /// estimated wall-clock (compute × slowdown + link transfer) exceeds
    /// `deadline_factor ×` the slowest *nominal* client of the group.
    /// `0.0` disables cutting (stragglers are simply waited for).
    pub deadline_factor: f64,
    /// Minimum fraction of the group's sample-weighted uploads (over all
    /// `K` group rounds) required for the group model to enter global
    /// aggregation; below it the group is skipped and the remaining
    /// weights renormalize. `0.0` disables skipping.
    pub quorum_fraction: f64,
    /// Reject non-finite (NaN/±Inf) updates at both aggregation levels
    /// instead of letting them poison the model.
    pub reject_non_finite: bool,
    /// Edge→cloud upload retries before the group model is declared lost.
    pub max_retries: u32,
    /// Base of the exponential backoff between upload retries, seconds.
    pub backoff_base_s: f64,
    /// Cap on each individual backoff wait, seconds: the i-th wait is
    /// `min(backoff_base_s · 2^i, max_backoff_s)`, so pathological fault
    /// rates cannot charge unbounded emulated time.
    pub max_backoff_s: f64,
}

impl Default for FaultPolicy {
    fn default() -> Self {
        Self {
            deadline_factor: 2.5,
            quorum_fraction: 0.25,
            reject_non_finite: true,
            max_retries: 3,
            backoff_base_s: 0.5,
            max_backoff_s: 60.0,
        }
    }
}

impl FaultPolicy {
    /// Checks every knob, returning the first violation as a typed error.
    ///
    /// `deadline_factor` may be `+inf` (wait forever — the degenerate
    /// sync limit) but not NaN or negative; `quorum_fraction` must be a
    /// fraction; `backoff_base_s` finite and non-negative; `max_backoff_s`
    /// positive (it would otherwise zero out every wait).
    pub fn validate(&self) -> Result<(), FaultConfigError> {
        if self.deadline_factor.is_nan() || self.deadline_factor < 0.0 {
            return Err(FaultConfigError::BadDeadlineFactor {
                value: self.deadline_factor,
            });
        }
        if !self.quorum_fraction.is_finite() || !(0.0..=1.0).contains(&self.quorum_fraction) {
            return Err(FaultConfigError::BadQuorumFraction {
                value: self.quorum_fraction,
            });
        }
        if !self.backoff_base_s.is_finite() || self.backoff_base_s < 0.0 {
            return Err(FaultConfigError::BadBackoffBase {
                value: self.backoff_base_s,
            });
        }
        if self.max_backoff_s.is_nan() || self.max_backoff_s <= 0.0 {
            return Err(FaultConfigError::BadMaxBackoff {
                value: self.max_backoff_s,
            });
        }
        Ok(())
    }
}

// Purpose tags keep the decision streams independent of each other.
const P_STRAGGLER_ID: u64 = 0x5354_5241_4747_4C45; // "STRAGGLE"
const P_STRAGGLER_JITTER: u64 = 0x4A49_5454_4552_0001;
const P_CRASH: u64 = 0x4352_4153_4800_0001;
const P_CORRUPT: u64 = 0x434F_5252_5550_5401;
const P_UPLOAD: u64 = 0x5550_4C4F_4144_0001;

/// SplitMix64 finalizer: a high-quality 64-bit mix.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform draw in [0, 1) from `seed`'s (purpose, a, b, c) stream: the one
/// hash behind every fault, churn and adversary decision. Plans keyed by
/// two values pass `c = 0`, which leaves the hash unchanged.
pub(crate) fn unit(seed: u64, purpose: u64, a: u64, b: u64, c: u64) -> f64 {
    let h = mix(seed.wrapping_mul(0xA076_1D64_78BD_642F)
        ^ purpose
        ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ b.wrapping_mul(0xD1B5_4A32_D192_ED03)
        ^ c.wrapping_mul(0x2545_F491_4F6C_DD1D));
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// The stateless decision oracle: every method is a pure function of the
/// plan and its arguments, so callers may query in any order, from any
/// thread, and still observe identical faults.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
}

impl FaultInjector {
    /// Validates the plan and builds the oracle; bad knobs come back as
    /// typed [`FaultConfigError`]s instead of asserts.
    pub fn try_new(plan: FaultPlan) -> Result<Self, FaultConfigError> {
        plan.validate()?;
        Ok(Self { plan })
    }

    /// Panicking constructor for call sites with known-good plans.
    pub fn new(plan: FaultPlan) -> Self {
        Self::try_new(plan).expect("invalid FaultPlan")
    }

    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Uniform draw in [0, 1) from the plan's (purpose, a, b, c) stream.
    fn unit(&self, purpose: u64, a: u64, b: u64, c: u64) -> f64 {
        unit(self.plan.seed, purpose, a, b, c)
    }

    /// Whether `client` belongs to the persistent straggler population.
    pub fn is_straggler(&self, client: usize) -> bool {
        self.plan.straggler_fraction > 0.0
            && self.unit(P_STRAGGLER_ID, client as u64, 0, 0) < self.plan.straggler_fraction
    }

    /// Effective compute slowdown of `client` in group round `(t, k)`:
    /// 1.0 for non-stragglers, otherwise the base factor with ±jitter
    /// (never below 1.0).
    pub fn slowdown(&self, t: usize, k: usize, client: usize) -> f64 {
        if !self.is_straggler(client) {
            return 1.0;
        }
        let u = self.unit(P_STRAGGLER_JITTER, t as u64, k as u64, client as u64);
        let jitter = self.plan.straggler_jitter * (2.0 * u - 1.0);
        (self.plan.straggler_factor * (1.0 + jitter)).max(1.0)
    }

    /// Whether `client` crashes during group round `(t, k)`.
    pub fn crashes(&self, t: usize, k: usize, client: usize) -> bool {
        self.plan.crash_prob > 0.0
            && self.unit(P_CRASH, t as u64, k as u64, client as u64) < self.plan.crash_prob
    }

    /// Whether `client`'s update for group round `(t, k)` arrives
    /// corrupted (non-finite).
    pub fn corrupts(&self, t: usize, k: usize, client: usize) -> bool {
        self.plan.corrupt_prob > 0.0
            && self.unit(P_CORRUPT, t as u64, k as u64, client as u64) < self.plan.corrupt_prob
    }

    /// Whether edge server `edge` is dark at global round `t`.
    pub fn edge_down(&self, edge: usize, t: usize) -> bool {
        self.plan
            .edge_outages
            .iter()
            .any(|w| w.edge == edge && w.covers(t))
    }

    /// Number of *failed* edge→cloud upload attempts for group `g`'s model
    /// at round `t`, capped at `max_retries + 1` (the initial attempt plus
    /// every retry failing — the upload is then lost).
    pub fn upload_failures(&self, t: usize, group: usize, max_retries: u32) -> u32 {
        if self.plan.upload_fail_prob == 0.0 {
            return 0;
        }
        let mut failures = 0u32;
        while failures <= max_retries
            && self.unit(P_UPLOAD, t as u64, group as u64, u64::from(failures))
                < self.plan.upload_fail_prob
        {
            failures += 1;
        }
        failures
    }
}

/// One injected fault that affected the run. `round` is the global round
/// `t`; `group_round` (where present) is the group round `k` within it;
/// `group` is the global group index.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FaultEvent {
    /// A client crashed mid-group-round; its update never arrived.
    ClientCrash {
        round: usize,
        group_round: usize,
        group: usize,
        client: usize,
    },
    /// A straggler exceeded the round deadline and was cut.
    StragglerCut {
        round: usize,
        group_round: usize,
        group: usize,
        client: usize,
        slowdown: f64,
    },
    /// A non-finite client update was rejected by the gate.
    CorruptRejected {
        round: usize,
        group_round: usize,
        group: usize,
        client: usize,
    },
    /// A sampled group was lost to an edge-server outage.
    EdgeOutage {
        round: usize,
        edge: usize,
        group: usize,
    },
    /// A group fell below the survivor quorum and was skipped; the
    /// remaining groups' aggregation weights renormalized.
    GroupSkipped {
        round: usize,
        group: usize,
        survivors: usize,
        required: usize,
    },
    /// A whole group model arrived non-finite and was rejected.
    CorruptGroupRejected { round: usize, group: usize },
    /// An edge→cloud upload needed retries; the extra wall-clock and
    /// bytes charged by the backoff accounting.
    UploadRetry {
        round: usize,
        group: usize,
        attempts: u32,
        extra_seconds: f64,
        extra_bytes: u64,
    },
    /// Every retry failed; the group's model never reached the cloud.
    UploadLost { round: usize, group: usize },
    /// No surviving update reached global aggregation: `x_{t+1} = x_t`.
    RoundHeld { round: usize },
}

impl FaultEvent {
    /// The global round the event belongs to.
    pub fn round(&self) -> usize {
        match *self {
            FaultEvent::ClientCrash { round, .. }
            | FaultEvent::StragglerCut { round, .. }
            | FaultEvent::CorruptRejected { round, .. }
            | FaultEvent::EdgeOutage { round, .. }
            | FaultEvent::GroupSkipped { round, .. }
            | FaultEvent::CorruptGroupRejected { round, .. }
            | FaultEvent::UploadRetry { round, .. }
            | FaultEvent::UploadLost { round, .. }
            | FaultEvent::RoundHeld { round } => round,
        }
    }
}

/// Event counts by kind, for quick reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultSummary {
    pub crashes: usize,
    pub stragglers_cut: usize,
    pub corrupt_rejected: usize,
    pub edge_outages: usize,
    pub groups_skipped: usize,
    pub corrupt_groups_rejected: usize,
    pub upload_retries: usize,
    pub uploads_lost: usize,
    pub rounds_held: usize,
}

impl FaultSummary {
    /// Total number of events.
    pub fn total(&self) -> usize {
        self.crashes
            + self.stragglers_cut
            + self.corrupt_rejected
            + self.edge_outages
            + self.groups_skipped
            + self.corrupt_groups_rejected
            + self.upload_retries
            + self.uploads_lost
            + self.rounds_held
    }
}

impl std::fmt::Display for FaultSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} crashes, {} stragglers cut, {} corrupt updates rejected, \
             {} edge outages, {} groups skipped, {} corrupt groups rejected, \
             {} upload retries, {} uploads lost, {} rounds held",
            self.crashes,
            self.stragglers_cut,
            self.corrupt_rejected,
            self.edge_outages,
            self.groups_skipped,
            self.corrupt_groups_rejected,
            self.upload_retries,
            self.uploads_lost,
            self.rounds_held
        )
    }
}

/// Tallies a fault log into per-kind counts.
pub fn summarize<'a>(events: impl IntoIterator<Item = &'a FaultEvent>) -> FaultSummary {
    let mut s = FaultSummary::default();
    for e in events {
        match e {
            FaultEvent::ClientCrash { .. } => s.crashes += 1,
            FaultEvent::StragglerCut { .. } => s.stragglers_cut += 1,
            FaultEvent::CorruptRejected { .. } => s.corrupt_rejected += 1,
            FaultEvent::EdgeOutage { .. } => s.edge_outages += 1,
            FaultEvent::GroupSkipped { .. } => s.groups_skipped += 1,
            FaultEvent::CorruptGroupRejected { .. } => s.corrupt_groups_rejected += 1,
            FaultEvent::UploadRetry { .. } => s.upload_retries += 1,
            FaultEvent::UploadLost { .. } => s.uploads_lost += 1,
            FaultEvent::RoundHeld { .. } => s.rounds_held += 1,
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic() {
        let a = FaultInjector::new(FaultPlan::moderate(9));
        let b = FaultInjector::new(FaultPlan::moderate(9));
        for t in 0..4 {
            for k in 0..3 {
                for c in 0..20 {
                    assert_eq!(a.crashes(t, k, c), b.crashes(t, k, c));
                    assert_eq!(a.corrupts(t, k, c), b.corrupts(t, k, c));
                    assert_eq!(a.slowdown(t, k, c), b.slowdown(t, k, c));
                }
            }
        }
        for t in 0..6 {
            for g in 0..8 {
                assert_eq!(a.upload_failures(t, g, 3), b.upload_failures(t, g, 3));
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = FaultInjector::new(FaultPlan::moderate(1));
        let b = FaultInjector::new(FaultPlan::moderate(2));
        let picks = |inj: &FaultInjector| {
            (0..200)
                .filter(|&c| inj.is_straggler(c))
                .collect::<Vec<_>>()
        };
        assert_ne!(picks(&a), picks(&b));
    }

    #[test]
    fn straggler_fraction_is_respected_statistically() {
        let inj = FaultInjector::new(FaultPlan::moderate(7));
        let n = 2_000;
        let slow = (0..n).filter(|&c| inj.is_straggler(c)).count();
        let frac = slow as f64 / n as f64;
        assert!(
            (frac - 0.2).abs() < 0.04,
            "straggler fraction {frac} far from 0.2"
        );
    }

    #[test]
    fn slowdown_is_one_for_non_stragglers_and_jittered_for_stragglers() {
        let inj = FaultInjector::new(FaultPlan::moderate(3));
        for c in 0..300 {
            let s = inj.slowdown(0, 0, c);
            if inj.is_straggler(c) {
                assert!((3.0..=5.0).contains(&s), "jittered 4.0±25% but got {s}");
                // Time-varying: some (t, k) must differ for the same client.
                let other = inj.slowdown(1, 1, c);
                if s != other {
                    return;
                }
            } else {
                assert_eq!(s, 1.0);
            }
        }
        panic!("no straggler showed time-varying slowdown");
    }

    #[test]
    fn clean_plan_injects_nothing() {
        let inj = FaultInjector::new(FaultPlan::none());
        assert!(FaultPlan::none().is_clean());
        assert!(!FaultPlan::moderate(0).is_clean());
        for t in 0..5 {
            for k in 0..3 {
                for c in 0..30 {
                    assert!(!inj.crashes(t, k, c));
                    assert!(!inj.corrupts(t, k, c));
                    assert_eq!(inj.slowdown(t, k, c), 1.0);
                }
            }
            assert!(!inj.edge_down(0, t));
            assert_eq!(inj.upload_failures(t, 0, 3), 0);
        }
    }

    #[test]
    fn outage_windows_are_half_open() {
        let mut plan = FaultPlan::none();
        plan.edge_outages.push(OutageWindow {
            edge: 1,
            from_round: 3,
            until_round: 5,
        });
        let inj = FaultInjector::new(plan);
        assert!(!inj.edge_down(1, 2));
        assert!(inj.edge_down(1, 3));
        assert!(inj.edge_down(1, 4));
        assert!(!inj.edge_down(1, 5));
        assert!(!inj.edge_down(0, 3), "other edges unaffected");
    }

    #[test]
    fn crash_probability_is_respected_statistically() {
        let inj = FaultInjector::new(FaultPlan::moderate(11));
        let mut crashes = 0usize;
        let trials = 10_000;
        for i in 0..trials {
            if inj.crashes(i % 50, i % 5, i) {
                crashes += 1;
            }
        }
        let rate = crashes as f64 / trials as f64;
        assert!(
            (rate - 0.05).abs() < 0.01,
            "crash rate {rate} far from 0.05"
        );
    }

    #[test]
    fn upload_failures_are_capped_and_mostly_zero() {
        let inj = FaultInjector::new(FaultPlan::moderate(5));
        let mut histogram = [0usize; 6];
        for t in 0..100 {
            for g in 0..20 {
                let f = inj.upload_failures(t, g, 3) as usize;
                assert!(f <= 4, "failures must cap at max_retries + 1");
                histogram[f] += 1;
            }
        }
        assert!(histogram[0] > 1_500, "most uploads succeed first try");
        assert!(histogram[1] > 0, "some uploads need a retry");
    }

    #[test]
    fn events_roundtrip_through_json() {
        let events = vec![
            FaultEvent::ClientCrash {
                round: 1,
                group_round: 0,
                group: 2,
                client: 7,
            },
            FaultEvent::StragglerCut {
                round: 1,
                group_round: 1,
                group: 2,
                client: 3,
                slowdown: 4.25,
            },
            FaultEvent::EdgeOutage {
                round: 2,
                edge: 0,
                group: 4,
            },
            FaultEvent::GroupSkipped {
                round: 2,
                group: 4,
                survivors: 10,
                required: 40,
            },
            FaultEvent::UploadRetry {
                round: 3,
                group: 1,
                attempts: 2,
                extra_seconds: 1.25,
                extra_bytes: 80_000,
            },
            FaultEvent::RoundHeld { round: 4 },
        ];
        let json = serde_json::to_string(&events).unwrap();
        let back: Vec<FaultEvent> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, events);
        assert_eq!(back[0].round(), 1);
        assert_eq!(back[5].round(), 4);
    }

    #[test]
    fn summary_counts_every_kind() {
        let events = vec![
            FaultEvent::ClientCrash {
                round: 0,
                group_round: 0,
                group: 0,
                client: 0,
            },
            FaultEvent::ClientCrash {
                round: 1,
                group_round: 0,
                group: 0,
                client: 1,
            },
            FaultEvent::CorruptGroupRejected { round: 1, group: 3 },
            FaultEvent::UploadLost { round: 2, group: 3 },
            FaultEvent::RoundHeld { round: 2 },
        ];
        let s = summarize(&events);
        assert_eq!(s.crashes, 2);
        assert_eq!(s.corrupt_groups_rejected, 1);
        assert_eq!(s.uploads_lost, 1);
        assert_eq!(s.rounds_held, 1);
        assert_eq!(s.total(), 5);
        let text = s.to_string();
        assert!(text.contains("2 crashes") && text.contains("1 rounds held"));
    }

    #[test]
    fn plan_roundtrips_through_json() {
        let plan = FaultPlan::moderate(42);
        let json = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(back, plan);
        let policy = FaultPolicy::default();
        let back: FaultPolicy =
            serde_json::from_str(&serde_json::to_string(&policy).unwrap()).unwrap();
        assert_eq!(back, policy);
    }

    #[test]
    fn policy_validation_rejects_bad_knobs() {
        let good = FaultPolicy::default();
        good.validate().unwrap();
        // +inf deadline is legal: it is the degenerate "wait forever" limit.
        FaultPolicy {
            deadline_factor: f64::INFINITY,
            ..good
        }
        .validate()
        .unwrap();
        let cases = [
            FaultPolicy {
                deadline_factor: f64::NAN,
                ..good
            },
            FaultPolicy {
                deadline_factor: -1.0,
                ..good
            },
            FaultPolicy {
                quorum_fraction: 1.5,
                ..good
            },
            FaultPolicy {
                quorum_fraction: f64::NAN,
                ..good
            },
            FaultPolicy {
                backoff_base_s: -0.5,
                ..good
            },
            FaultPolicy {
                backoff_base_s: f64::INFINITY,
                ..good
            },
            FaultPolicy {
                max_backoff_s: 0.0,
                ..good
            },
            FaultPolicy {
                max_backoff_s: f64::NAN,
                ..good
            },
        ];
        for bad in cases {
            assert!(bad.validate().is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn plan_validation_is_typed_not_an_assert() {
        FaultPlan::moderate(1).validate().unwrap();
        let bad = FaultPlan {
            crash_prob: f64::NAN,
            ..FaultPlan::none()
        };
        assert!(matches!(
            FaultInjector::try_new(bad),
            Err(FaultConfigError::NotAProbability {
                knob: "crash_prob",
                ..
            })
        ));
        let slow = FaultPlan {
            straggler_factor: 0.5,
            ..FaultPlan::none()
        };
        assert!(matches!(
            slow.validate(),
            Err(FaultConfigError::SlowdownBelowOne { .. })
        ));
        let window = FaultPlan {
            edge_outages: vec![OutageWindow {
                edge: 0,
                from_round: 5,
                until_round: 5,
            }],
            ..FaultPlan::none()
        };
        assert!(matches!(
            window.validate(),
            Err(FaultConfigError::EmptyOutageWindow { .. })
        ));
        // A window is spelled EDGE:FROM:UNTIL; an empty one parses and is
        // the plan's to refuse.
        let window: OutageWindow = "0:4:2".parse().unwrap();
        assert_eq!(
            (window.edge, window.from_round, window.until_round),
            (0, 4, 2)
        );
        for spec in ["", "0:1", "0:1:2:3", "0-1-2", "a:1:2", "0:1:-2"] {
            assert!(spec.parse::<OutageWindow>().is_err(), "{spec}");
        }
        // Errors render human-readably.
        let msg = FaultConfigError::BadQuorumFraction { value: 2.0 }.to_string();
        assert!(msg.contains("quorum_fraction"), "{msg}");
    }
}
