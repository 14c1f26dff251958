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

use gfl_data::LabelMatrix;
use gfl_faults::ChurnPlan;
use gfl_sim::Topology;
use gfl_tensor::{init, Scalar};
use serde::{Deserialize, Serialize};

use crate::cov::{cov_with_candidate, group_cov};
use crate::grouping::{validate_partition_of, GroupStats, GroupingAlgorithm, PartitionError};
use crate::sampling::SamplingStrategy;
use crate::Group;

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
pub fn summarize_regroups(events: &[RegroupEvent]) -> RegroupSummary {
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
    fn to_value(&self) -> serde::Value {
        let cov = if self.baseline_cov.is_finite() {
            self.baseline_cov.to_value()
        } else {
            serde::Value::String(self.baseline_cov.to_string())
        };
        serde::Value::Object(vec![
            ("baseline_cov".to_string(), cov),
            ("quorum_misses".to_string(), self.quorum_misses.to_value()),
        ])
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
/// in force. Serialized whole through checkpoints.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MembershipState {
    /// Current partition (global client ids). Index-stable between heals.
    pub groups: Vec<Group>,
    /// `active[c]` ⇔ client `c` is currently a member of some group.
    pub active: Vec<bool>,
    /// Health records, index-aligned with `groups`.
    pub health: Vec<GroupHealth>,
    /// Sampling probabilities in force, index-aligned with `groups`.
    /// Refreshed on every structural change when the policy is enabled;
    /// frozen at formation otherwise.
    pub probs: Vec<Scalar>,
    /// Round of the last structural change (for hysteresis).
    pub last_heal: usize,
    /// The healing policy this state was formed under.
    pub policy: RegroupPolicy,
}

/// Maps every client to its edge server.
pub fn edge_map(topology: &Topology) -> Vec<usize> {
    let mut edge_of = vec![0usize; topology.num_clients()];
    for j in 0..topology.num_edges() {
        for &c in topology.clients_of(j) {
            edge_of[c] = j;
        }
    }
    edge_of
}

/// Runs the grouping algorithm per edge over the `active` clients only,
/// returning groups in global ids. With every client active and `salt == 0`
/// this reproduces `engine::form_groups_per_edge` exactly.
pub fn form_groups_active(
    algo: &dyn GroupingAlgorithm,
    topology: &Topology,
    labels: &LabelMatrix,
    active: &[bool],
    seed: u64,
    salt: u64,
) -> Vec<Group> {
    let mut groups = Vec::new();
    for j in 0..topology.num_edges() {
        let members: Vec<usize> = topology
            .clients_of(j)
            .iter()
            .copied()
            .filter(|&c| active[c])
            .collect();
        if members.is_empty() {
            continue;
        }
        let local = labels.restrict(&members);
        let mut rng = init::rng(seed ^ (0x9E37_79B9 ^ (j as u64) << 32) ^ salt);
        for group in algo.form_groups(&local, &mut rng) {
            groups.push(group.into_iter().map(|i| members[i]).collect());
        }
    }
    groups
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
        let active: Vec<bool> = (0..n)
            .map(|c| plan.is_none_or(|p| p.present(c, start_round)))
            .collect();
        let groups = form_groups_active(algo, topology, labels, &active, seed, 0);
        let members: Vec<usize> = (0..n).filter(|&c| active[c]).collect();
        validate_partition_of(&groups, &members, n)?;
        let health = groups
            .iter()
            .map(|g| GroupHealth::fresh(group_cov(labels, g)))
            .collect();
        let mut state = Self {
            groups,
            active,
            health,
            probs: Vec::new(),
            last_heal: start_round,
            policy,
        };
        state.refresh_probs(labels, sampling);
        Ok(state)
    }

    /// Recomputes sampling probabilities from the current groups' CoVs.
    pub fn refresh_probs(&mut self, labels: &LabelMatrix, sampling: SamplingStrategy) {
        let covs: Vec<Scalar> = self.groups.iter().map(|g| group_cov(labels, g)).collect();
        self.probs = sampling.probabilities(&covs);
    }

    /// Number of currently active members.
    pub fn active_members(&self) -> usize {
        self.active.iter().filter(|&&a| a).count()
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
        // Departures first, so an arrival can take a departed seat's group.
        // A one-pass client→group index makes each departure O(|group|)
        // instead of a scan over every group — the difference between a
        // round and a coffee break at 10⁶ clients.
        let mut group_of: Vec<usize> = vec![usize::MAX; n];
        for (gi, g) in self.groups.iter().enumerate() {
            for &m in g {
                group_of[m] = gi;
            }
        }
        for (c, &gi) in group_of.iter().enumerate() {
            if self.active[c] && !plan.present(c, t) {
                if gi != usize::MAX {
                    self.groups[gi].retain(|&m| m != c);
                    events.push(RegroupEvent::ClientDeparted {
                        round: t,
                        client: c,
                        group: gi,
                    });
                }
                self.active[c] = false;
            }
        }
        let edge_of = edge_map(topology);
        // Arrival placement consults running per-group histograms
        // ([`GroupStats`], exact u64 counts ⇒ bitwise-identical CoVs),
        // built lazily on the first arrival and updated in O(labels) per
        // placement.
        let mut index: Option<(Vec<GroupStats>, Vec<Vec<usize>>)> = None;
        for c in 0..n {
            if !self.active[c] && plan.present(c, t) {
                if self.policy.enabled {
                    let (stats, by_edge) = index.get_or_insert_with(|| {
                        (
                            self.groups
                                .iter()
                                .map(|g| GroupStats::from_members(labels, g))
                                .collect(),
                            self.groups_by_edge(&edge_of, topology.num_edges()),
                        )
                    });
                    let gi = self.place_client(labels, &edge_of, stats, by_edge, c);
                    self.active[c] = true;
                    events.push(RegroupEvent::ClientArrived {
                        round: t,
                        client: c,
                        group: Some(gi),
                    });
                } else if plan.arrival_round(c) == t {
                    // Frozen policy: the arrival is noted once, never placed.
                    events.push(RegroupEvent::ClientArrived {
                        round: t,
                        client: c,
                        group: None,
                    });
                }
            }
        }
        events
    }

    /// Greedy incremental placement: the group on `client`'s edge whose
    /// CoV-with-candidate is lowest (the Σ-CoV objective of
    /// `grouping::optimal`, restricted to single-client moves). Opens a
    /// new group when the edge has none. Placement counts as a
    /// re-formation of the receiving group: its health baseline resets.
    ///
    /// `stats` carries one running histogram per group (aligned with
    /// `self.groups`) and is updated in place; since the running counts
    /// are exact `u64`s, every CoV here is bit-identical to recomputing
    /// the candidate's histogram from the member list. `by_edge` narrows
    /// the candidate scan to the client's own edge — at 10⁶ clients the
    /// difference between O(groups-on-edge) and O(all-groups) per arrival
    /// is the difference between a sub-second regroup tick and hours.
    /// Both indices are built once per churn/heal pass.
    fn place_client(
        &mut self,
        labels: &LabelMatrix,
        edge_of: &[usize],
        stats: &mut Vec<GroupStats>,
        by_edge: &mut [Vec<usize>],
        client: usize,
    ) -> usize {
        debug_assert_eq!(stats.len(), self.groups.len());
        let e = edge_of[client];
        let mut best: Option<(usize, Scalar)> = None;
        // `by_edge[e]` holds this edge's group indices in ascending order,
        // so the scan visits the same candidates in the same order as a
        // full filtered sweep — the chosen group is bitwise-identical.
        for &gi in &by_edge[e] {
            if self.groups[gi].is_empty() {
                continue;
            }
            let cov = cov_with_candidate(labels, stats[gi].hist(), client);
            if best.is_none_or(|(_, b)| cov < b) {
                best = Some((gi, cov));
            }
        }
        match best {
            Some((gi, _)) => {
                self.groups[gi].push(client);
                stats[gi].add(labels, client);
                self.health[gi] = GroupHealth::fresh(stats[gi].cov());
                gi
            }
            None => {
                self.groups.push(vec![client]);
                let mut s = GroupStats::new(labels.num_labels());
                s.add(labels, client);
                self.health.push(GroupHealth::fresh(s.cov()));
                stats.push(s);
                let gi = self.groups.len() - 1;
                by_edge[e].push(gi);
                gi
            }
        }
    }

    /// Edge → ascending indices of the non-empty groups homed there
    /// (a group's edge is its first member's edge — groups never span
    /// edges). Built once per churn/heal pass and kept current by
    /// [`Self::place_client`] when it opens a new group.
    fn groups_by_edge(&self, edge_of: &[usize], num_edges: usize) -> Vec<Vec<usize>> {
        let mut by_edge = vec![Vec::new(); num_edges];
        for (gi, g) in self.groups.iter().enumerate() {
            if let Some(&m) = g.first() {
                by_edge[edge_of[m]].push(gi);
            }
        }
        by_edge
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
    fn degrade_reason(&self, labels: &LabelMatrix, gi: usize) -> Option<DegradeReason> {
        let g = &self.groups[gi];
        if g.is_empty() {
            return Some(DegradeReason::Empty);
        }
        if g.len() < self.policy.size_floor {
            return Some(DegradeReason::BelowSizeFloor);
        }
        let cov = group_cov(labels, g);
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
        let mut events = Vec::new();

        // Fallback: full re-formation on schedule.
        if let Some(period) = self.policy.full_reform_every {
            if period > 0 && t > 0 && t.is_multiple_of(period) && self.can_heal(t) {
                let salt = (t as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
                self.groups = form_groups_active(algo, topology, labels, &self.active, seed, salt);
                self.validate(topology)?;
                self.health = self
                    .groups
                    .iter()
                    .map(|g| GroupHealth::fresh(group_cov(labels, g)))
                    .collect();
                self.last_heal = t;
                self.refresh_probs(labels, sampling);
                events.push(RegroupEvent::PartitionReformed {
                    round: t,
                    groups: self.groups.len(),
                });
                return Ok(events);
            }
        }

        let edge_of = edge_map(topology);
        // Mark doomed groups: empty ones always, degraded ones past
        // hysteresis. Indices refer to the current partition.
        let past_cooldown = self.can_heal(t);
        let mut doomed: Vec<(usize, DegradeReason)> = Vec::new();
        for gi in 0..self.groups.len() {
            match self.degrade_reason(labels, gi) {
                Some(DegradeReason::Empty) => doomed.push((gi, DegradeReason::Empty)),
                Some(reason) if past_cooldown => doomed.push((gi, reason)),
                _ => {}
            }
        }
        if doomed.is_empty() {
            return Ok(events);
        }
        // A non-empty doomed group needs a surviving sibling on its edge
        // to absorb the orphans; otherwise it limps along.
        let doomed_set: Vec<usize> = doomed.iter().map(|&(gi, _)| gi).collect();
        doomed.retain(|&(gi, reason)| {
            if reason == DegradeReason::Empty {
                return true;
            }
            let e = edge_of[self.groups[gi][0]];
            self.groups
                .iter()
                .enumerate()
                .any(|(gj, g)| !doomed_set.contains(&gj) && !g.is_empty() && edge_of[g[0]] == e)
        });
        if doomed.is_empty() {
            return Ok(events);
        }

        // Dissolve: rebuild the partition without the doomed groups.
        let mut orphans: Vec<usize> = Vec::new();
        for &(gi, reason) in &doomed {
            events.push(RegroupEvent::GroupDissolved {
                round: t,
                group: gi,
                reason,
                orphans: self.groups[gi].len(),
            });
            orphans.extend(self.groups[gi].iter().copied());
        }
        let keep: Vec<usize> = (0..self.groups.len())
            .filter(|gi| !doomed.iter().any(|&(d, _)| d == *gi))
            .collect();
        self.groups = keep.iter().map(|&gi| self.groups[gi].clone()).collect();
        self.health = keep.iter().map(|&gi| self.health[gi].clone()).collect();

        // Migrate orphans greedily, in client-id order for determinism.
        // One histogram build over the surviving groups, then O(labels)
        // incremental updates per migration (bitwise-exact u64 counts).
        orphans.sort_unstable();
        let mut stats: Vec<GroupStats> = self
            .groups
            .iter()
            .map(|g| GroupStats::from_members(labels, g))
            .collect();
        let mut by_edge = self.groups_by_edge(&edge_of, topology.num_edges());
        for c in orphans {
            let gi = self.place_client(labels, &edge_of, &mut stats, &mut by_edge, c);
            events.push(RegroupEvent::ClientMigrated {
                round: t,
                client: c,
                to_group: gi,
            });
        }
        self.validate(topology)?;
        self.last_heal = t;
        self.refresh_probs(labels, sampling);
        Ok(events)
    }

    /// Checks that the current groups partition the active members.
    pub fn validate(&self, topology: &Topology) -> Result<(), PartitionError> {
        let members: Vec<usize> = (0..self.active.len()).filter(|&c| self.active[c]).collect();
        // Empty groups are legal transiently (before the next heal pass
        // dissolves them); filter them for the partition check.
        let non_empty: Vec<Group> = self
            .groups
            .iter()
            .filter(|g| !g.is_empty())
            .cloned()
            .collect();
        validate_partition_of(&non_empty, &members, topology.num_clients())
    }
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
        for c in state.groups[0].clone() {
            state.active[c] = false;
        }
        state.groups[0].clear();
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
        let victims: Vec<usize> = state.groups[0].iter().skip(1).copied().collect();
        for c in victims {
            state.groups[0].retain(|&m| m != c);
            state.active[c] = false;
        }
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
        let victims: Vec<usize> = state.groups[0].iter().skip(1).copied().collect();
        for c in victims {
            state.groups[0].retain(|&m| m != c);
            state.active[c] = false;
        }
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
        for c in state.groups[0].clone() {
            state.active[c] = false;
        }
        state.groups[0].clear();
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
