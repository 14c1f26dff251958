//! Self-healing membership: online group maintenance under client churn.
//!
//! §6.1 of the paper argues CoV-based group formation can be re-run as
//! membership shifts; this module makes that operational. It owns the
//! *current* partition of a federation whose population changes mid-run
//! (permanent departures, late arrivals — see `gfl_faults::ChurnPlan`) and
//! heals it when groups degrade:
//!
//! * **Departures** remove the client from its group immediately.
//! * **Arrivals** are migrated greedily into the CoV-best existing group
//!   on their edge (the Σ-CoV objective of `grouping::optimal`), or open
//!   a new group when their edge has none.
//! * A **group-health monitor** tracks, per group: the CoV drift since the
//!   group was (re)formed, a size floor, and a sliding window of
//!   survivor-quorum misses. A group degrading past the thresholds of
//!   [`RegroupPolicy`] is dissolved and its members migrate — with
//!   *hysteresis* ([`RegroupPolicy::cooldown`]) so transient noise cannot
//!   thrash the partition.
//! * Zero-member groups are always dissolved immediately (never held),
//!   bypassing hysteresis.
//! * A **periodic full re-formation** fallback
//!   ([`RegroupPolicy::full_reform_every`]) re-runs the grouping
//!   algorithm from scratch over the active population, bounding how far
//!   incremental repair can drift from a fresh formation.
//!
//! Everything is deterministic: membership transitions are pure functions
//! of the churn plan, repair is a greedy scan in fixed client/group order,
//! and re-formation derives its RNG from `(seed, round, edge)`. The whole
//! [`MembershipState`] serializes through checkpoints, so a churned,
//! faulted, healed run resumes bit-identically.
//!
//! # What a tick costs
//!
//! A tick ([`MembershipState::tick`]) pays for what changed, not for what
//! exists. Beside the partition the state keeps a private, derived index
//! (`index.rs`): client→group and client→edge maps, and per edge its
//! non-empty groups in ascending order with their running label
//! histograms in one label-major structure of arrays and their totals;
//! per group its cached CoV — plus the churn plan's per-client arrival and
//! departure rounds, hashed once. A departure or a placement updates it in
//! O(labels); a group emptied or dissolved is compacted out of its edge in
//! O(edge groups · labels); only formation, a full re-formation and the
//! first pass after deserialization build it, in O(clients · labels). Per
//! tick that leaves one pass over two `u32` arrays to find who moved, one
//! pass over the cached CoVs to find who degraded, and — the bulk — one
//! scan of the edge's groups per arrival or orphan, run a block of groups
//! at a time with one lane per group. A tick's arrivals, and a heal's
//! orphans, are placed in one batch whose edges run on the pool.
//!
//! The index changes no result: counts are exact integers (held as `f64`
//! under the 2⁵² bound `index.rs` states and asserts), every CoV is
//! computed by `cov::histogram_cov`'s or `cov::cov_with_candidate`'s
//! operations in their order, candidates are visited in the order a full
//! sweep would visit them, and a batch places its clients in the order,
//! and numbers the groups it opens in the order, one client at a time
//! would — on any number of workers. It is never serialized and never
//! compared: the wire format is the six fields the state has always had.
//! Nothing outside this module can edit the partition, so nothing can
//! leave the index stale.

use std::borrow::Cow;

use gfl_data::LabelMatrix;
use gfl_faults::ChurnPlan;
use gfl_sim::Topology;
use gfl_tensor::Scalar;
use serde::{Deserialize, Serialize};

use crate::cov::group_cov;
pub use crate::engine::form_groups_active;
use crate::grouping::{validate_partition_of, GroupingAlgorithm, PartitionError};
use crate::sampling::SamplingStrategy;
use crate::Group;

mod index;
#[cfg(test)]
mod proptests;

use index::{retain_unmarked, Index, PlanMemo};

/// When and how the engine heals a degraded partition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegroupPolicy {
    /// Master switch: `false` freezes the partition at formation (churn
    /// still removes departed clients from training, but no repair runs
    /// and sampling probabilities stay at their formation values).
    pub enabled: bool,
    /// Dissolve groups that shrink below this many members (when a
    /// sibling group exists on the same edge to absorb them).
    pub size_floor: usize,
    /// Dissolve a group whose CoV rises more than this above its CoV at
    /// (re)formation time.
    pub cov_drift: Scalar,
    /// Sliding window (in sampled rounds) of survivor-quorum outcomes
    /// kept per group.
    pub quorum_window: usize,
    /// Quorum misses within the window that mark a group degraded.
    pub quorum_misses: usize,
    /// Hysteresis: minimum rounds between structural repairs. Zero-member
    /// dissolution bypasses this.
    pub cooldown: usize,
    /// Every this many rounds, re-run the grouping algorithm from scratch
    /// over the active population instead of repairing incrementally.
    /// `None` disables the fallback.
    pub full_reform_every: Option<usize>,
}

impl Default for RegroupPolicy {
    fn default() -> Self {
        Self {
            enabled: true,
            size_floor: 2,
            cov_drift: 0.5,
            quorum_window: 8,
            quorum_misses: 3,
            cooldown: 5,
            full_reform_every: None,
        }
    }
}

impl RegroupPolicy {
    /// The "frozen at round 0" baseline: membership still churns, but the
    /// partition is never repaired.
    pub fn frozen() -> Self {
        Self {
            enabled: false,
            ..Self::default()
        }
    }
}

/// Why a group was dissolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DegradeReason {
    /// Every member departed; nothing left to hold.
    Empty,
    /// Fewer members than [`RegroupPolicy::size_floor`].
    BelowSizeFloor,
    /// CoV drifted past baseline + [`RegroupPolicy::cov_drift`].
    CovDrift,
    /// Too many survivor-quorum misses within the window.
    QuorumMisses,
}

/// One membership or self-healing action, recorded in `RunHistory` and
/// serialized through checkpoints. Group indices refer to the partition
/// *at the time of the event*.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RegroupEvent {
    /// A client permanently departed and was removed from its group.
    ClientDeparted {
        round: usize,
        client: usize,
        group: usize,
    },
    /// A client arrived (late) and was placed; `group` is `None` when the
    /// policy is frozen and the arrival was left unplaced.
    ClientArrived {
        round: usize,
        client: usize,
        group: Option<usize>,
    },
    /// A degraded group was dissolved; its members became orphans.
    GroupDissolved {
        round: usize,
        group: usize,
        reason: DegradeReason,
        orphans: usize,
    },
    /// An orphan was migrated into the CoV-best surviving group.
    ClientMigrated {
        round: usize,
        client: usize,
        to_group: usize,
    },
    /// The periodic fallback re-ran full group formation.
    PartitionReformed { round: usize, groups: usize },
}

impl RegroupEvent {
    /// The global round the event belongs to.
    pub fn round(&self) -> usize {
        match *self {
            RegroupEvent::ClientDeparted { round, .. }
            | RegroupEvent::ClientArrived { round, .. }
            | RegroupEvent::GroupDissolved { round, .. }
            | RegroupEvent::ClientMigrated { round, .. }
            | RegroupEvent::PartitionReformed { round, .. } => round,
        }
    }
}

impl std::fmt::Display for RegroupEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            RegroupEvent::ClientDeparted { client, group, .. } => {
                write!(f, "client {client} departed group {group}")
            }
            RegroupEvent::ClientArrived {
                client,
                group: Some(g),
                ..
            } => write!(f, "client {client} arrived, placed in group {g}"),
            RegroupEvent::ClientArrived {
                client,
                group: None,
                ..
            } => write!(f, "client {client} arrived, left unplaced (frozen)"),
            RegroupEvent::GroupDissolved {
                group,
                reason,
                orphans,
                ..
            } => write!(f, "group {group} dissolved ({reason:?}), {orphans} orphans"),
            RegroupEvent::ClientMigrated {
                client, to_group, ..
            } => write!(f, "client {client} migrated to group {to_group}"),
            RegroupEvent::PartitionReformed { groups, .. } => {
                write!(f, "partition fully re-formed into {groups} groups")
            }
        }
    }
}

/// Event counts by kind, for quick reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RegroupSummary {
    pub departures: usize,
    pub arrivals: usize,
    pub dissolved: usize,
    pub migrations: usize,
    pub reformations: usize,
}

impl RegroupSummary {
    /// Total number of events.
    pub fn total(&self) -> usize {
        self.departures + self.arrivals + self.dissolved + self.migrations + self.reformations
    }
}

impl std::fmt::Display for RegroupSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} departures, {} arrivals, {} groups dissolved, \
             {} clients migrated, {} full reformations",
            self.departures, self.arrivals, self.dissolved, self.migrations, self.reformations
        )
    }
}

/// Tallies a regroup log into per-kind counts.
pub fn summarize_regroups<'a>(
    events: impl IntoIterator<Item = &'a RegroupEvent>,
) -> RegroupSummary {
    let mut s = RegroupSummary::default();
    for e in events {
        match e {
            RegroupEvent::ClientDeparted { .. } => s.departures += 1,
            RegroupEvent::ClientArrived { .. } => s.arrivals += 1,
            RegroupEvent::GroupDissolved { .. } => s.dissolved += 1,
            RegroupEvent::ClientMigrated { .. } => s.migrations += 1,
            RegroupEvent::PartitionReformed { .. } => s.reformations += 1,
        }
    }
    s
}

/// Health record of one group: its CoV at (re)formation and the recent
/// survivor-quorum outcomes (`true` = missed) of rounds it was sampled.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupHealth {
    pub baseline_cov: Scalar,
    pub quorum_misses: Vec<bool>,
}

/// The derived layout, but for a non-finite `baseline_cov` (a group whose
/// clients hold no samples has CoV `inf`): JSON has no such number —
/// `serde_json` prints `null`, which does not read back — so it travels as
/// the string `f32` itself prints and parses: `"inf"`, `"-inf"`, `"NaN"`.
impl Serialize for GroupHealth {
    fn write_json(&self, w: &mut serde::JsonWriter<'_>) {
        w.begin_object();
        if self.baseline_cov.is_finite() {
            w.field("baseline_cov", &self.baseline_cov);
        } else {
            w.field("baseline_cov", &self.baseline_cov.to_string());
        }
        w.field("quorum_misses", &self.quorum_misses);
        w.end_object();
    }
}

impl Deserialize for GroupHealth {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let field = |name: &str| {
            v.get(name)
                .ok_or_else(|| serde::DeError::custom(format!("missing field `{name}`")))
        };
        let baseline_cov = match field("baseline_cov")? {
            serde::Value::String(s) => s
                .parse::<Scalar>()
                .ok()
                .filter(|cov| !cov.is_finite())
                .ok_or_else(|| serde::DeError::custom(format!("bad baseline_cov {s:?}")))?,
            number => Scalar::from_value(number)?,
        };
        Ok(Self {
            baseline_cov,
            quorum_misses: Vec::from_value(field("quorum_misses")?)?,
        })
    }
}

impl GroupHealth {
    fn fresh(baseline_cov: Scalar) -> Self {
        Self {
            baseline_cov,
            quorum_misses: Vec::new(),
        }
    }
}

/// The live membership of a self-healing run: the current partition, who
/// is an active member, per-group health, and the sampling probabilities
/// in force. Serialized whole through checkpoints — as its first six
/// fields, in this order; the index and the plan memo are derived, never
/// written and never compared.
#[derive(Debug, Clone)]
pub struct MembershipState {
    /// Current partition (global client ids). Index-stable between heals.
    groups: Vec<Group>,
    /// `active[c]` ⇔ client `c` is currently a member of some group.
    active: Vec<bool>,
    /// Health records, index-aligned with `groups`.
    health: Vec<GroupHealth>,
    /// Sampling probabilities in force, index-aligned with `groups`.
    /// Refreshed on every structural change when the policy is enabled;
    /// frozen at formation otherwise.
    pub probs: Vec<Scalar>,
    /// Round of the last structural change (for hysteresis).
    pub last_heal: usize,
    /// The healing policy this state was formed under.
    pub policy: RegroupPolicy,
    /// Derived from `groups` (see [`index`]). `None` only in a state fresh
    /// from deserialization, which has neither labels nor topology; the
    /// first churn or heal pass builds it.
    index: Option<Index>,
    /// Arrival and departure rounds of the plan last ticked with.
    memo: Option<PlanMemo>,
}

impl PartialEq for MembershipState {
    fn eq(&self, other: &Self) -> bool {
        self.groups == other.groups
            && self.active == other.active
            && self.health == other.health
            && self.probs == other.probs
            && self.last_heal == other.last_heal
            && self.policy == other.policy
    }
}

/// The derived layout of the six serialized fields, written by hand
/// because the vendored derive has no `skip` and the index and memo must
/// stay off the wire.
impl Serialize for MembershipState {
    fn write_json(&self, w: &mut serde::JsonWriter<'_>) {
        w.begin_object();
        w.field("groups", &self.groups);
        w.field("active", &self.active);
        w.field("health", &self.health);
        w.field("probs", &self.probs);
        w.field("last_heal", &self.last_heal);
        w.field("policy", &self.policy);
        w.end_object();
    }
}

impl Deserialize for MembershipState {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        use serde::__private::{expect_object, field};
        let obj = expect_object(v, "MembershipState")?;
        Ok(Self {
            groups: field(obj, "groups")?,
            active: field(obj, "active")?,
            health: field(obj, "health")?,
            probs: field(obj, "probs")?,
            last_heal: field(obj, "last_heal")?,
            policy: field(obj, "policy")?,
            index: None,
            memo: None,
        })
    }
}

/// The members of each sampled group that can take part in round `t`, in
/// `sampled`'s order: flapping clients sit a round out without leaving
/// their group. Only the groups the sampler drew are filtered — a round
/// trains a handful of the partition's thousands — and without a plan
/// nothing is copied at all.
pub(crate) fn available_members<'a>(
    plan: Option<&ChurnPlan>,
    t: usize,
    groups: &'a [Group],
    sampled: &[usize],
) -> Vec<Cow<'a, [usize]>> {
    sampled
        .iter()
        .map(|&gi| match plan {
            None => Cow::Borrowed(groups[gi].as_slice()),
            Some(p) => groups[gi]
                .iter()
                .copied()
                .filter(|&c| p.available(c, t))
                .collect(),
        })
        .collect()
}

impl MembershipState {
    /// Forms the initial partition over the clients present at
    /// `start_round` and computes its health baselines and sampling
    /// probabilities.
    #[allow(clippy::too_many_arguments)]
    pub fn form(
        algo: &dyn GroupingAlgorithm,
        topology: &Topology,
        labels: &LabelMatrix,
        plan: Option<&ChurnPlan>,
        policy: RegroupPolicy,
        seed: u64,
        sampling: SamplingStrategy,
        start_round: usize,
    ) -> Result<Self, PartitionError> {
        let n = topology.num_clients();
        let memo = plan.map(|p| PlanMemo::new(p, n));
        let active: Vec<bool> = (0..n)
            .map(|c| memo.as_ref().is_none_or(|m| m.present(c, start_round)))
            .collect();
        let groups = form_groups_active(algo, topology, labels, &active, seed, 0);
        let members: Vec<usize> = (0..n).filter(|&c| active[c]).collect();
        validate_partition_of(&groups, &members, n)?;
        let index = Index::build(&groups, labels, topology);
        let mut state = Self {
            health: fresh_health(&index),
            groups,
            active,
            probs: Vec::new(),
            last_heal: start_round,
            policy,
            index: Some(index),
            memo,
        };
        state.refresh_probs(labels, sampling);
        Ok(state)
    }

    /// Current partition (global client ids). Index-stable between heals.
    pub fn groups(&self) -> &[Group] {
        &self.groups
    }

    /// Health records, index-aligned with [`Self::groups`].
    pub fn health(&self) -> &[GroupHealth] {
        &self.health
    }

    /// Recomputes sampling probabilities from the current groups' CoVs —
    /// the cached ones; `labels` is read only by a state fresh from a
    /// checkpoint, which has no index yet and no topology to build one from.
    pub fn refresh_probs(&mut self, labels: &LabelMatrix, sampling: SamplingStrategy) {
        self.probs = match &self.index {
            Some(index) => sampling.probabilities(index.covs()),
            None => {
                let covs: Vec<Scalar> = self.groups.iter().map(|g| group_cov(labels, g)).collect();
                sampling.probabilities(&covs)
            }
        };
    }

    /// Number of currently active members.
    pub fn active_members(&self) -> usize {
        self.active.iter().filter(|&&a| a).count()
    }

    /// Whether any member of any group can take part in round `t`.
    pub(crate) fn anyone_available(&self, plan: Option<&ChurnPlan>, t: usize) -> bool {
        self.groups
            .iter()
            .flatten()
            .any(|&c| plan.is_none_or(|p| p.available(c, t)))
    }

    /// One round's membership work, as both run loops do it: the plan's
    /// departures and arrivals, the health check and repair, and — under a
    /// healing policy, whose CoVs shift with membership — fresh sampling
    /// probabilities (a frozen policy keeps its formation-time values).
    /// Returns the round's transition events.
    #[allow(clippy::too_many_arguments)]
    pub fn tick(
        &mut self,
        plan: Option<&ChurnPlan>,
        t: usize,
        labels: &LabelMatrix,
        topology: &Topology,
        algo: &dyn GroupingAlgorithm,
        seed: u64,
        sampling: SamplingStrategy,
    ) -> Result<Vec<RegroupEvent>, PartitionError> {
        let mut events = match plan {
            Some(plan) => self.apply_churn(plan, t, labels, topology),
            None => Vec::new(),
        };
        events.extend(self.heal(t, labels, algo, topology, seed, sampling)?);
        if self.policy.enabled {
            self.refresh_probs(labels, sampling);
        }
        Ok(events)
    }

    /// Takes the index out of the state (building it if this is the first
    /// pass since deserialization) so a pass can update it next to
    /// `groups`; the pass puts it back.
    fn take_index(&mut self, labels: &LabelMatrix, topology: &Topology) -> Index {
        self.index
            .take()
            .unwrap_or_else(|| Index::build(&self.groups, labels, topology))
    }

    /// Applies round-`t` membership deltas from the churn plan: departed
    /// clients leave their groups; arrivals are placed greedily (or left
    /// unplaced when the policy is frozen). Returns the transition events.
    pub fn apply_churn(
        &mut self,
        plan: &ChurnPlan,
        t: usize,
        labels: &LabelMatrix,
        topology: &Topology,
    ) -> Vec<RegroupEvent> {
        let mut events = Vec::new();
        let n = self.active.len();
        let mut index = self.take_index(labels, topology);
        // The memo answers for the plan it was computed from, no other.
        let memo = self
            .memo
            .take()
            .filter(|memo| memo.is_for(plan, n))
            .unwrap_or_else(|| PlanMemo::new(plan, n));
        // Departures leave at once; arrivals are placed after the last of
        // them, so an arrival can take a departed seat's group.
        let mut arrivals = Vec::new();
        for c in 0..n {
            match (self.active[c], memo.present(c, t)) {
                (true, false) => {
                    if let Some(gi) = index.group_of(c) {
                        self.groups[gi].retain(|&m| m != c);
                        index.remove(labels, c, gi, self.groups[gi].is_empty());
                        events.push(RegroupEvent::ClientDeparted {
                            round: t,
                            client: c,
                            group: gi,
                        });
                    }
                    self.active[c] = false;
                }
                (false, true) => arrivals.push(c),
                _ => {}
            }
        }
        if self.policy.enabled {
            let placed = self.place_clients(labels, &mut index, &arrivals);
            for (&c, gi) in arrivals.iter().zip(placed) {
                self.active[c] = true;
                events.push(RegroupEvent::ClientArrived {
                    round: t,
                    client: c,
                    group: Some(gi),
                });
            }
        } else {
            // Frozen policy: an arrival is noted once, never placed.
            events.extend(
                arrivals
                    .into_iter()
                    .filter(|&c| memo.arrives_at(c, t))
                    .map(|c| RegroupEvent::ClientArrived {
                        round: t,
                        client: c,
                        group: None,
                    }),
            );
        }
        self.index = Some(index);
        self.memo = Some(memo);
        events
    }

    /// Greedy incremental placement of `clients`, one after another: each
    /// joins the group on its edge whose CoV-with-candidate is lowest (the
    /// Σ-CoV objective of `grouping::optimal`, restricted to single-client
    /// moves) — the first strict minimum in ascending group index, empty
    /// groups skipped — or opens a new group at the end of the partition
    /// when its edge has no non-empty group. Edges run on the pool
    /// ([`Index::place`]). Placement counts as a re-formation of the
    /// receiving group: its health baseline resets to its CoV with the
    /// newcomers in it. Returns each client's group.
    fn place_clients(
        &mut self,
        labels: &LabelMatrix,
        index: &mut Index,
        clients: &[usize],
    ) -> Vec<usize> {
        let placed = index.place(labels, clients);
        let covs = index.covs();
        self.groups.resize_with(covs.len(), Vec::new);
        self.health
            .resize_with(covs.len(), || GroupHealth::fresh(Scalar::INFINITY));
        for (&c, &gi) in clients.iter().zip(&placed) {
            self.groups[gi].push(c);
            self.health[gi] = GroupHealth::fresh(covs[gi]);
        }
        placed
    }

    /// Feeds one round's sampling outcome to the health monitor: every
    /// sampled group records whether it missed the survivor quorum.
    pub fn observe_round(&mut self, sampled: &[usize], quorum_missed: &[usize]) {
        let window = self.policy.quorum_window.max(1);
        for &gi in sampled {
            if gi >= self.health.len() {
                continue;
            }
            let h = &mut self.health[gi];
            h.quorum_misses.push(quorum_missed.contains(&gi));
            if h.quorum_misses.len() > window {
                h.quorum_misses.remove(0);
            }
        }
    }

    /// Whether hysteresis permits a structural repair at round `t`.
    fn can_heal(&self, t: usize) -> bool {
        t >= self.last_heal + self.policy.cooldown
    }

    /// The reason a group currently counts as degraded, if any (empty
    /// groups are handled separately and unconditionally).
    fn degrade_reason(&self, index: &Index, gi: usize) -> Option<DegradeReason> {
        let g = &self.groups[gi];
        if g.is_empty() {
            return Some(DegradeReason::Empty);
        }
        if g.len() < self.policy.size_floor {
            return Some(DegradeReason::BelowSizeFloor);
        }
        let cov = index.covs()[gi];
        if cov.is_finite() && cov > self.health[gi].baseline_cov + self.policy.cov_drift {
            return Some(DegradeReason::CovDrift);
        }
        let misses = self.health[gi].quorum_misses.iter().filter(|&&m| m).count();
        if misses >= self.policy.quorum_misses.max(1) {
            return Some(DegradeReason::QuorumMisses);
        }
        None
    }

    /// One health-check-and-repair pass for round `t`:
    ///
    /// 1. Periodic full re-formation when due (and past hysteresis).
    /// 2. Otherwise: dissolve empty groups unconditionally; past
    ///    hysteresis, dissolve degraded groups whose edge has a healthy
    ///    sibling and migrate the orphans greedily.
    ///
    /// Returns the repair events; errors if a repair ever produced a
    /// non-partition (defensive — surfaced instead of corrupting a run).
    pub fn heal(
        &mut self,
        t: usize,
        labels: &LabelMatrix,
        algo: &dyn GroupingAlgorithm,
        topology: &Topology,
        seed: u64,
        sampling: SamplingStrategy,
    ) -> Result<Vec<RegroupEvent>, PartitionError> {
        if !self.policy.enabled {
            return Ok(Vec::new());
        }

        // Fallback: full re-formation on schedule.
        if let Some(period) = self.policy.full_reform_every {
            if period > 0 && t > 0 && t.is_multiple_of(period) && self.can_heal(t) {
                let salt = (t as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
                self.groups = form_groups_active(algo, topology, labels, &self.active, seed, salt);
                self.index = None;
                self.validate(topology)?;
                let index = Index::build(&self.groups, labels, topology);
                self.health = fresh_health(&index);
                self.index = Some(index);
                self.last_heal = t;
                self.refresh_probs(labels, sampling);
                return Ok(vec![RegroupEvent::PartitionReformed {
                    round: t,
                    groups: self.groups.len(),
                }]);
            }
        }

        let mut index = self.take_index(labels, topology);
        let events = self.dissolve_degraded(t, labels, &mut index);
        self.index = Some(index);
        if !events.is_empty() {
            self.validate(topology)?;
            self.last_heal = t;
            self.refresh_probs(labels, sampling);
        }
        Ok(events)
    }

    /// The incremental repair of [`Self::heal`]: marks, dissolves, migrates.
    /// No event means nothing changed.
    fn dissolve_degraded(
        &mut self,
        t: usize,
        labels: &LabelMatrix,
        index: &mut Index,
    ) -> Vec<RegroupEvent> {
        // Mark doomed groups: empty ones always, degraded ones past
        // hysteresis. Indices refer to the current partition.
        let past_cooldown = self.can_heal(t);
        let mut doomed: Vec<(usize, DegradeReason)> = Vec::new();
        for gi in 0..self.groups.len() {
            match self.degrade_reason(index, gi) {
                Some(DegradeReason::Empty) => doomed.push((gi, DegradeReason::Empty)),
                Some(reason) if past_cooldown => doomed.push((gi, reason)),
                _ => {}
            }
        }
        if doomed.is_empty() {
            return Vec::new();
        }
        // A non-empty doomed group needs a surviving sibling on its edge
        // to absorb the orphans; otherwise it limps along. Siblings are
        // judged against the list as first marked: a group spared here for
        // want of one still does not count as one.
        let edge = |gi: usize| index.edge_of(self.groups[gi][0]);
        let mut survivors = index.live_groups_by_edge();
        for &(gi, reason) in &doomed {
            if reason != DegradeReason::Empty {
                survivors[edge(gi)] -= 1;
            }
        }
        doomed.retain(|&(gi, reason)| reason == DegradeReason::Empty || survivors[edge(gi)] > 0);

        // Dissolve: compact the partition over the doomed groups.
        let mut events = Vec::new();
        let mut dissolved = vec![false; self.groups.len()];
        let mut orphans: Vec<usize> = Vec::new();
        for &(gi, reason) in &doomed {
            dissolved[gi] = true;
            events.push(RegroupEvent::GroupDissolved {
                round: t,
                group: gi,
                reason,
                orphans: self.groups[gi].len(),
            });
            orphans.append(&mut self.groups[gi]);
        }
        if events.is_empty() {
            return events;
        }
        retain_unmarked(&mut self.groups, &dissolved);
        retain_unmarked(&mut self.health, &dissolved);
        index.compact(&dissolved);

        // Migrate orphans greedily, in client-id order for determinism.
        orphans.sort_unstable();
        let placed = self.place_clients(labels, index, &orphans);
        events.extend(orphans.into_iter().zip(placed).map(|(client, to_group)| {
            RegroupEvent::ClientMigrated {
                round: t,
                client,
                to_group,
            }
        }));
        events
    }

    /// Checks that the current groups partition the active members.
    pub fn validate(&self, topology: &Topology) -> Result<(), PartitionError> {
        let members: Vec<usize> = (0..self.active.len()).filter(|&c| self.active[c]).collect();
        // Empty groups are legal transiently (before the next heal pass
        // dissolves them); skip them for the partition check.
        validate_partition_of(
            self.groups.iter().filter(|g| !g.is_empty()),
            &members,
            topology.num_clients(),
        )
    }

    /// Hands a test the partition and the activity flags to edit in place,
    /// then drops the index so the next pass rebuilds it from the result.
    #[cfg(test)]
    fn edit(&mut self, edit: impl FnOnce(&mut Vec<Group>, &mut Vec<bool>)) {
        edit(&mut self.groups, &mut self.active);
        self.index = None;
    }
}

/// Fresh health records for a just-(re)formed partition: each group's
/// baseline is its CoV now.
fn fresh_health(index: &Index) -> Vec<GroupHealth> {
    index
        .covs()
        .iter()
        .map(|&cov| GroupHealth::fresh(cov))
        .collect()
}

/// Maps every client to its edge server, the slow obvious way.
#[cfg(test)]
fn edge_map(topology: &Topology) -> Vec<usize> {
    let mut edge_of = vec![0usize; topology.num_clients()];
    for j in 0..topology.num_edges() {
        for &c in topology.clients_of(j) {
            edge_of[c] = j;
        }
    }
    edge_of
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grouping::CovGrouping;
    use gfl_data::{ClientPartition, PartitionSpec, SyntheticSpec};

    fn world(seed: u64) -> (LabelMatrix, Topology) {
        let data = SyntheticSpec::tiny().generate(600, seed);
        let part = ClientPartition::dirichlet(&data, &PartitionSpec::tiny(0.5, seed));
        let topo = Topology::even_split(2, part.sizes());
        (part.label_matrix, topo)
    }

    fn algo() -> CovGrouping {
        // A tight MaxCoV so every edge forms several small groups — the
        // repair tests need sibling groups to migrate orphans into.
        CovGrouping {
            min_group_size: 2,
            max_cov: 0.05,
        }
    }

    #[test]
    fn formation_matches_static_grouping_when_everyone_is_present() {
        let (labels, topo) = world(1);
        let state = MembershipState::form(
            &algo(),
            &topo,
            &labels,
            None,
            RegroupPolicy::default(),
            1,
            SamplingStrategy::ESRCov,
            0,
        )
        .unwrap();
        let expected = crate::engine::form_groups_per_edge(&algo(), &topo, &labels, 1);
        assert_eq!(state.groups, expected);
        assert!(state.active.iter().all(|&a| a));
        assert_eq!(state.probs.len(), state.groups.len());
    }

    #[test]
    fn departures_shrink_and_arrivals_are_placed_on_their_edge() {
        let (labels, topo) = world(2);
        let plan = ChurnPlan {
            seed: 7,
            horizon: 10,
            departure_fraction: 0.4,
            arrival_fraction: 0.3,
            flap_prob: 0.0,
        };
        let mut state = MembershipState::form(
            &algo(),
            &topo,
            &labels,
            Some(&plan),
            RegroupPolicy::default(),
            2,
            SamplingStrategy::ESRCov,
            0,
        )
        .unwrap();
        let edge_of = edge_map(&topo);
        for t in 1..10 {
            let events = state.apply_churn(&plan, t, &labels, &topo);
            for e in &events {
                if let RegroupEvent::ClientArrived {
                    client,
                    group: Some(gi),
                    ..
                } = e
                {
                    // Placement respects the edge boundary.
                    let g = &state.groups[*gi];
                    assert!(g.contains(client));
                    assert!(g.iter().all(|&m| edge_of[m] == edge_of[*client]));
                }
            }
            state.validate(&topo).unwrap();
        }
        // Every departed client is out of every group.
        for c in 0..state.active.len() {
            if !plan.present(c, 9) {
                assert!(state.groups.iter().all(|g| !g.contains(&c)));
            }
        }
    }

    #[test]
    fn empty_groups_dissolve_immediately_despite_hysteresis() {
        let (labels, topo) = world(3);
        let mut state = MembershipState::form(
            &algo(),
            &topo,
            &labels,
            None,
            RegroupPolicy {
                cooldown: 1_000, // hysteresis would block everything else
                ..RegroupPolicy::default()
            },
            3,
            SamplingStrategy::ESRCov,
            0,
        )
        .unwrap();
        // Force group 0 empty by hand (as if every member departed).
        state.edit(|groups, active| {
            for c in groups[0].drain(..) {
                active[c] = false;
            }
        });
        let before = state.groups.len();
        let events = state
            .heal(1, &labels, &algo(), &topo, 3, SamplingStrategy::ESRCov)
            .unwrap();
        assert_eq!(state.groups.len(), before - 1);
        assert!(matches!(
            events[0],
            RegroupEvent::GroupDissolved {
                reason: DegradeReason::Empty,
                orphans: 0,
                ..
            }
        ));
        state.validate(&topo).unwrap();
    }

    #[test]
    fn undersized_group_is_dissolved_and_members_migrate() {
        let (labels, topo) = world(4);
        let mut state = MembershipState::form(
            &algo(),
            &topo,
            &labels,
            None,
            RegroupPolicy {
                size_floor: 2,
                cooldown: 0,
                ..RegroupPolicy::default()
            },
            4,
            SamplingStrategy::ESRCov,
            0,
        )
        .unwrap();
        // Shrink group 0 to a single member.
        state.edit(|groups, active| {
            for c in groups[0].drain(1..) {
                active[c] = false;
            }
        });
        let events = state
            .heal(10, &labels, &algo(), &topo, 4, SamplingStrategy::ESRCov)
            .unwrap();
        let summary = summarize_regroups(&events);
        assert_eq!(summary.dissolved, 1);
        assert_eq!(summary.migrations, 1);
        state.validate(&topo).unwrap();
    }

    #[test]
    fn quorum_miss_streak_triggers_dissolution() {
        let (labels, topo) = world(5);
        let mut state = MembershipState::form(
            &algo(),
            &topo,
            &labels,
            None,
            RegroupPolicy {
                quorum_window: 4,
                quorum_misses: 3,
                cooldown: 0,
                ..RegroupPolicy::default()
            },
            5,
            SamplingStrategy::ESRCov,
            0,
        )
        .unwrap();
        for _ in 0..3 {
            state.observe_round(&[0], &[0]); // group 0 sampled, missed
        }
        let events = state
            .heal(6, &labels, &algo(), &topo, 5, SamplingStrategy::ESRCov)
            .unwrap();
        assert!(
            events.iter().any(|e| matches!(
                e,
                RegroupEvent::GroupDissolved {
                    reason: DegradeReason::QuorumMisses,
                    ..
                }
            )),
            "{events:?}"
        );
        state.validate(&topo).unwrap();
    }

    #[test]
    fn hysteresis_blocks_back_to_back_repairs() {
        let (labels, topo) = world(6);
        let mut state = MembershipState::form(
            &algo(),
            &topo,
            &labels,
            None,
            RegroupPolicy {
                size_floor: 2,
                cooldown: 50,
                ..RegroupPolicy::default()
            },
            6,
            SamplingStrategy::ESRCov,
            0,
        )
        .unwrap();
        // Undersize a group; inside the cooldown the monitor must not act.
        state.edit(|groups, active| {
            for c in groups[0].drain(1..) {
                active[c] = false;
            }
        });
        let events = state
            .heal(10, &labels, &algo(), &topo, 6, SamplingStrategy::ESRCov)
            .unwrap();
        assert!(events.is_empty(), "cooldown must block: {events:?}");
        let events = state
            .heal(50, &labels, &algo(), &topo, 6, SamplingStrategy::ESRCov)
            .unwrap();
        assert!(!events.is_empty(), "past cooldown the repair must run");
    }

    #[test]
    fn full_reformation_runs_on_schedule() {
        let (labels, topo) = world(7);
        let mut state = MembershipState::form(
            &algo(),
            &topo,
            &labels,
            None,
            RegroupPolicy {
                full_reform_every: Some(4),
                cooldown: 0,
                ..RegroupPolicy::default()
            },
            7,
            SamplingStrategy::ESRCov,
            0,
        )
        .unwrap();
        let events = state
            .heal(4, &labels, &algo(), &topo, 7, SamplingStrategy::ESRCov)
            .unwrap();
        assert!(matches!(
            events[0],
            RegroupEvent::PartitionReformed { round: 4, .. }
        ));
        state.validate(&topo).unwrap();
        assert_eq!(state.last_heal, 4);
    }

    #[test]
    fn frozen_policy_never_repairs() {
        let (labels, topo) = world(8);
        let mut state = MembershipState::form(
            &algo(),
            &topo,
            &labels,
            None,
            RegroupPolicy::frozen(),
            8,
            SamplingStrategy::ESRCov,
            0,
        )
        .unwrap();
        state.edit(|groups, active| {
            for c in groups[0].drain(..) {
                active[c] = false;
            }
        });
        let events = state
            .heal(20, &labels, &algo(), &topo, 8, SamplingStrategy::ESRCov)
            .unwrap();
        assert!(events.is_empty());
        assert!(state.groups[0].is_empty(), "frozen keeps the husk");
    }

    #[test]
    fn state_roundtrips_through_json() {
        let (labels, topo) = world(9);
        let state = MembershipState::form(
            &algo(),
            &topo,
            &labels,
            Some(&ChurnPlan::moderate(9)),
            RegroupPolicy::default(),
            9,
            SamplingStrategy::ESRCov,
            0,
        )
        .unwrap();
        let json = serde_json::to_string(&state).unwrap();
        let back: MembershipState = serde_json::from_str(&json).unwrap();
        assert_eq!(back, state);
    }

    #[test]
    fn summary_counts_every_kind() {
        let events = vec![
            RegroupEvent::ClientDeparted {
                round: 1,
                client: 0,
                group: 0,
            },
            RegroupEvent::ClientArrived {
                round: 2,
                client: 5,
                group: Some(1),
            },
            RegroupEvent::GroupDissolved {
                round: 3,
                group: 0,
                reason: DegradeReason::BelowSizeFloor,
                orphans: 1,
            },
            RegroupEvent::ClientMigrated {
                round: 3,
                client: 2,
                to_group: 1,
            },
            RegroupEvent::PartitionReformed {
                round: 8,
                groups: 4,
            },
        ];
        let s = summarize_regroups(&events);
        assert_eq!(
            (
                s.departures,
                s.arrivals,
                s.dissolved,
                s.migrations,
                s.reformations
            ),
            (1, 1, 1, 1, 1)
        );
        assert_eq!(s.total(), 5);
        assert_eq!(events[4].round(), 8);
        let text = s.to_string();
        assert!(text.contains("1 departures") && text.contains("1 full reformations"));
        let json = serde_json::to_string(&events).unwrap();
        let back: Vec<RegroupEvent> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, events);
    }
}
