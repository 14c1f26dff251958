//! Property layer for the membership index (ISSUE 14).
//!
//! Two oracles. [`Reference`] is a straight-line restatement of the
//! membership pass as it was before the index existed — every tick it
//! rebuilds a client→group map, every group's histogram and CoV from the
//! member lists, and scans candidates one `cov_with_candidate` at a time.
//! [`Index::build`] is the from-scratch index. Over arbitrary worlds,
//! plans, policies and traces the incremental state must emit the
//! reference's events, hold its six serialized fields, and carry an index
//! equal to a rebuild — histograms, totals and CoVs by bit pattern.

use gfl_data::LabelMatrix;
use gfl_faults::ChurnPlan;
use gfl_sim::Topology;
use gfl_tensor::Scalar;
use proptest::prelude::*;

use super::*;
use crate::cov::{cov_with_candidate, histogram_cov};
use crate::grouping::{CovGrouping, StreamGrouping};

/// Every group's label histogram, recounted from its member list.
fn histograms(labels: &LabelMatrix, groups: &[Group]) -> Vec<Vec<u64>> {
    groups.iter().map(|g| labels.group_histogram(g)).collect()
}

/// The rebuild-per-tick membership pass, kept as the oracle.
#[derive(Debug, Clone)]
struct Reference {
    groups: Vec<Group>,
    active: Vec<bool>,
    health: Vec<GroupHealth>,
    probs: Vec<Scalar>,
    last_heal: usize,
    policy: RegroupPolicy,
}

impl Reference {
    fn of(state: &MembershipState) -> Self {
        Self {
            groups: state.groups.clone(),
            active: state.active.clone(),
            health: state.health.clone(),
            probs: state.probs.clone(),
            last_heal: state.last_heal,
            policy: state.policy.clone(),
        }
    }

    fn refresh_probs(&mut self, labels: &LabelMatrix, sampling: SamplingStrategy) {
        let covs: Vec<Scalar> = self.groups.iter().map(|g| group_cov(labels, g)).collect();
        self.probs = sampling.probabilities(&covs);
    }

    fn apply_churn(
        &mut self,
        plan: &ChurnPlan,
        t: usize,
        labels: &LabelMatrix,
        topology: &Topology,
    ) -> Vec<RegroupEvent> {
        let mut events = Vec::new();
        let n = self.active.len();
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
        for c in 0..n {
            if !self.active[c] && plan.present(c, t) {
                if self.policy.enabled {
                    let mut hists = histograms(labels, &self.groups);
                    let gi = self.place_client(labels, &edge_of, &mut hists, c);
                    self.active[c] = true;
                    events.push(RegroupEvent::ClientArrived {
                        round: t,
                        client: c,
                        group: Some(gi),
                    });
                } else if plan.arrival_round(c) == t {
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

    fn place_client(
        &mut self,
        labels: &LabelMatrix,
        edge_of: &[usize],
        hists: &mut Vec<Vec<u64>>,
        client: usize,
    ) -> usize {
        let mut best: Option<(usize, Scalar)> = None;
        for (gi, g) in self.groups.iter().enumerate() {
            if g.is_empty() || edge_of[g[0]] != edge_of[client] {
                continue;
            }
            let cov = cov_with_candidate(labels, &hists[gi], client);
            if best.is_none_or(|(_, b)| cov < b) {
                best = Some((gi, cov));
            }
        }
        match best {
            Some((gi, _)) => {
                self.groups[gi].push(client);
                labels.add_client_into(client, &mut hists[gi]);
                self.health[gi] = GroupHealth::fresh(histogram_cov(&hists[gi]));
                gi
            }
            None => {
                self.groups.push(vec![client]);
                let hist = labels.group_histogram(&[client]);
                self.health.push(GroupHealth::fresh(histogram_cov(&hist)));
                hists.push(hist);
                self.groups.len() - 1
            }
        }
    }

    fn observe_round(&mut self, sampled: &[usize], quorum_missed: &[usize]) {
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

    fn heal(
        &mut self,
        t: usize,
        labels: &LabelMatrix,
        algo: &dyn GroupingAlgorithm,
        topology: &Topology,
        seed: u64,
        sampling: SamplingStrategy,
    ) -> Vec<RegroupEvent> {
        if !self.policy.enabled {
            return Vec::new();
        }
        let mut events = Vec::new();
        let can_heal = t >= self.last_heal + self.policy.cooldown;
        if let Some(period) = self.policy.full_reform_every {
            if period > 0 && t > 0 && t.is_multiple_of(period) && can_heal {
                let salt = (t as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
                self.groups = form_groups_active(algo, topology, labels, &self.active, seed, salt);
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
                return events;
            }
        }
        let edge_of = edge_map(topology);
        let mut doomed: Vec<(usize, DegradeReason)> = Vec::new();
        for gi in 0..self.groups.len() {
            match self.degrade_reason(labels, gi) {
                Some(DegradeReason::Empty) => doomed.push((gi, DegradeReason::Empty)),
                Some(reason) if can_heal => doomed.push((gi, reason)),
                _ => {}
            }
        }
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
            return events;
        }
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
        orphans.sort_unstable();
        let mut hists = histograms(labels, &self.groups);
        for c in orphans {
            let gi = self.place_client(labels, &edge_of, &mut hists, c);
            events.push(RegroupEvent::ClientMigrated {
                round: t,
                client: c,
                to_group: gi,
            });
        }
        self.last_heal = t;
        self.refresh_probs(labels, sampling);
        events
    }

    #[allow(clippy::too_many_arguments)]
    fn tick(
        &mut self,
        plan: Option<&ChurnPlan>,
        t: usize,
        labels: &LabelMatrix,
        topology: &Topology,
        algo: &dyn GroupingAlgorithm,
        seed: u64,
        sampling: SamplingStrategy,
    ) -> Vec<RegroupEvent> {
        let mut events = match plan {
            Some(plan) => self.apply_churn(plan, t, labels, topology),
            None => Vec::new(),
        };
        events.extend(self.heal(t, labels, algo, topology, seed, sampling));
        if self.policy.enabled {
            self.refresh_probs(labels, sampling);
        }
        events
    }
}

fn bits(v: &[Scalar]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The state's serialized fields equal the reference's (floats by bits)
/// and its index equals one rebuilt from its groups.
fn assert_in_step(
    state: &MembershipState,
    reference: &Reference,
    labels: &LabelMatrix,
    topology: &Topology,
) {
    prop_assert_eq!(&state.groups, &reference.groups);
    prop_assert_eq!(&state.active, &reference.active);
    prop_assert_eq!(state.health.len(), reference.health.len());
    for (a, b) in state.health.iter().zip(&reference.health) {
        prop_assert_eq!(a.baseline_cov.to_bits(), b.baseline_cov.to_bits());
        prop_assert_eq!(&a.quorum_misses, &b.quorum_misses);
    }
    prop_assert_eq!(bits(&state.probs), bits(&reference.probs));
    prop_assert_eq!(state.last_heal, reference.last_heal);
    let index = state.index.as_ref().expect("a ticked state is indexed");
    let rebuilt = Index::build(&state.groups, labels, topology);
    prop_assert!(
        *index == rebuilt,
        "index drifted from a rebuild:\n{index:?}\n{rebuilt:?}"
    );
}

/// 1–4 edges of 2–9 clients, 1–5 labels, counts in 0..6 and a fair share
/// of clients holding nothing at all (zero-total groups and candidates).
fn world_strategy() -> impl Strategy<Value = (LabelMatrix, Topology)> {
    (proptest::collection::vec(2usize..10, 1..5), 1usize..6).prop_flat_map(|(edges, m)| {
        let n: usize = edges.iter().sum();
        proptest::collection::vec((0u8..3, proptest::collection::vec(0u32..6, m)), n).prop_map(
            move |rows| {
                let counts: Vec<Vec<u32>> = rows
                    .into_iter()
                    .map(|(dry, row)| if dry == 0 { vec![0; m] } else { row })
                    .collect();
                let sizes: Vec<usize> = counts
                    .iter()
                    .map(|r| r.iter().sum::<u32>() as usize)
                    .collect();
                let mut next = 0;
                let edge_clients = edges
                    .iter()
                    .map(|&k| {
                        next += k;
                        (next - k..next).collect()
                    })
                    .collect();
                (
                    LabelMatrix::new(counts, m),
                    Topology::new(edge_clients, sizes),
                )
            },
        )
    })
}

fn policy_strategy() -> impl Strategy<Value = RegroupPolicy> {
    (
        0u8..4,
        1usize..4,
        0.0f32..0.4,
        (1usize..4, 1usize..3),
        (0usize..3, 0usize..5),
    )
        .prop_map(
            |(frozen, size_floor, cov_drift, (window, misses), (cooldown, reform))| RegroupPolicy {
                enabled: frozen != 0,
                size_floor,
                cov_drift,
                quorum_window: window,
                quorum_misses: misses,
                cooldown,
                // 0 and 1 stand for "no periodic re-formation".
                full_reform_every: (reform >= 2).then_some(reform),
            },
        )
}

fn plan_strategy() -> impl Strategy<Value = ChurnPlan> {
    (
        0u64..u64::MAX,
        2usize..9,
        0.0f64..1.0,
        0.0f64..0.8,
        0.0f64..0.5,
    )
        .prop_map(
            |(seed, horizon, departure_fraction, arrival_fraction, flap_prob)| ChurnPlan {
                seed,
                horizon,
                departure_fraction,
                arrival_fraction,
                flap_prob,
            },
        )
}

/// What happens after a round's tick, besides the health observation.
#[derive(Debug, Clone)]
enum Aside {
    Nothing,
    /// The state goes through JSON and comes back without its index.
    Reload,
    /// Every later tick runs under this other plan.
    SwitchPlan(ChurnPlan),
}

fn aside_strategy() -> impl Strategy<Value = Aside> {
    (0u8..6, plan_strategy()).prop_map(|(pick, plan)| match pick {
        0 => Aside::Reload,
        1 => Aside::SwitchPlan(plan),
        _ => Aside::Nothing,
    })
}

/// One round of a trace: the groups observed as sampled, which of them
/// missed quorum, and the aside.
type Round = (Vec<usize>, Vec<u8>, Aside);

fn trace_strategy() -> impl Strategy<Value = Vec<Round>> {
    proptest::collection::vec(
        (
            proptest::collection::vec(0usize..12, 0..4),
            proptest::collection::vec(0u8..2, 4),
            aside_strategy(),
        ),
        1..10,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn incremental_state_matches_the_rebuild_per_tick_reference(
        (labels, topology) in world_strategy(),
        policy in policy_strategy(),
        plan in (0u8..10, plan_strategy()).prop_map(|(none, plan)| (none != 0).then_some(plan)),
        stream in 0u8..2,
        seed in 0u64..u64::MAX,
        trace in trace_strategy(),
    ) {
        let algo: Box<dyn GroupingAlgorithm> = if stream == 1 {
            Box::new(StreamGrouping { group_size: 2 })
        } else {
            Box::new(CovGrouping { min_group_size: 2, max_cov: 0.3 })
        };
        let sampling = SamplingStrategy::ESRCov;
        let mut plan = plan;
        let mut state = MembershipState::form(
            algo.as_ref(), &topology, &labels, plan.as_ref(), policy, seed, sampling, 0,
        ).unwrap();
        let mut reference = Reference::of(&state);
        assert_in_step(&state, &reference, &labels, &topology);

        for (t, (sampled, missed, aside)) in trace.into_iter().enumerate() {
            let events = state
                .tick(plan.as_ref(), t, &labels, &topology, algo.as_ref(), seed, sampling)
                .unwrap();
            let expected =
                reference.tick(plan.as_ref(), t, &labels, &topology, algo.as_ref(), seed, sampling);
            prop_assert_eq!(events, expected, "round {}", t);
            assert_in_step(&state, &reference, &labels, &topology);
            state.validate(&topology).unwrap();

            // Availability, asked the sampled-groups-only way, is the
            // every-group filter restricted to the sampled groups.
            let drawn: Vec<usize> =
                sampled.iter().copied().filter(|&g| g < state.groups.len()).collect();
            let effective: Vec<Group> = state.groups.iter().map(|g| {
                g.iter().copied().filter(|&c| plan.as_ref().is_none_or(|p| p.available(c, t))).collect()
            }).collect();
            let filtered = available_members(plan.as_ref(), t, &state.groups, &drawn);
            prop_assert_eq!(filtered.len(), drawn.len());
            for (members, &gi) in filtered.iter().zip(&drawn) {
                prop_assert_eq!(&**members, effective[gi].as_slice());
            }
            prop_assert_eq!(
                state.anyone_available(plan.as_ref(), t),
                !effective.iter().all(|g| g.is_empty())
            );

            let missed: Vec<usize> =
                sampled.iter().zip(&missed).filter(|(_, &m)| m == 1).map(|(&g, _)| g).collect();
            state.observe_round(&sampled, &missed);
            reference.observe_round(&sampled, &missed);
            match aside {
                Aside::Nothing => {}
                Aside::Reload => {
                    let json = serde_json::to_string(&state).unwrap();
                    state = serde_json::from_str(&json).unwrap();
                    prop_assert!(state.index.is_none() && state.memo.is_none());
                }
                Aside::SwitchPlan(other) => plan = Some(other),
            }
        }
    }
}

/// `groups` random groups over one edge (some empty), clients with `m`
/// labels of which a share hold nothing.
fn kernel_world(m: usize) -> impl Strategy<Value = (LabelMatrix, Topology, Vec<Group>)> {
    (1usize..40, 2usize..60).prop_flat_map(move |(groups, n)| {
        (
            proptest::collection::vec((0u8..4, proptest::collection::vec(0u32..500, m)), n),
            proptest::collection::vec(0usize..groups + 3, n),
        )
            .prop_map(move |(rows, homes)| {
                let counts: Vec<Vec<u32>> = rows
                    .into_iter()
                    .map(|(dry, row)| if dry == 0 { vec![0; m] } else { row })
                    .collect();
                let sizes: Vec<usize> = counts
                    .iter()
                    .map(|r| r.iter().sum::<u32>() as usize)
                    .collect();
                // Homes past `groups` leave the client in no group: a
                // candidate pool, and empty groups where nobody landed.
                let mut partition = vec![Vec::new(); groups];
                for (c, &home) in homes.iter().enumerate() {
                    if home < groups {
                        partition[home].push(c);
                    }
                }
                (
                    LabelMatrix::new(counts, m),
                    Topology::new(vec![(0..n).collect()], sizes),
                    partition,
                )
            })
    })
}

fn assert_lanes_match(
    (labels, topology, groups): (LabelMatrix, Topology, Vec<Group>),
    picks: Vec<usize>,
) {
    let index = Index::build(&groups, &labels, &topology);
    let live: Vec<usize> = (0..groups.len())
        .filter(|&g| !groups[g].is_empty())
        .collect();
    for cand in picks {
        let cand = cand % labels.num_clients();
        let lanes = index.covs_with_candidate(&labels, 0, cand);
        prop_assert_eq!(lanes.len(), live.len());
        for (&gi, lane) in live.iter().zip(lanes) {
            let hist = labels.group_histogram(&groups[gi]);
            let want = cov_with_candidate(&labels, &hist, cand);
            prop_assert_eq!(
                lane.to_bits(),
                want.to_bits(),
                "group {} candidate {}",
                gi,
                cand
            );
        }
        // And the winner the healer places by — `cov::cov_lanes` reached
        // through `scan_lanes` — is the scalar scan's: the first strict
        // minimum over the edge's non-empty groups.
        let mut want: Option<(usize, Scalar)> = None;
        for &gi in &live {
            let cov = cov_with_candidate(&labels, &labels.group_histogram(&groups[gi]), cand);
            if want.is_none_or(|(_, b)| cov < b) {
                want = Some((gi, cov));
            }
        }
        prop_assert_eq!(index.best_group(&labels, 0, cand), want.map(|(g, _)| g));
    }
}

fn picks_strategy() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(0usize..1 << 16, 1..8)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_lane_is_cov_with_candidate_m1(w in kernel_world(1), p in picks_strategy()) {
        assert_lanes_match(w, p);
    }

    #[test]
    fn every_lane_is_cov_with_candidate_m2(w in kernel_world(2), p in picks_strategy()) {
        assert_lanes_match(w, p);
    }

    #[test]
    fn every_lane_is_cov_with_candidate_m10(w in kernel_world(10), p in picks_strategy()) {
        assert_lanes_match(w, p);
    }

    #[test]
    fn every_lane_is_cov_with_candidate_m35(w in kernel_world(35), p in picks_strategy()) {
        assert_lanes_match(w, p);
    }
}

/// One edge of `groups` groups of one to three clients over `m` ∈ {1, 2,
/// 10, 35} labels, and eight clients in no group to place. Rows are about
/// half zeros (as under α = 0.1), with near-ties planted around a small
/// palette: label-rotated copies (the same key, a different `ss` order),
/// multiples `k·r`, complements `400 − r`, balanced rows, and all-zero rows
/// (a tenth of the groups hold nothing). The newcomers are an all-zero row,
/// the complement of a group's histogram (a union of CoV 0), a rotated copy
/// of one, a palette row and fresh rows. `huge` maps every count `x` to
/// `2²⁷ + 4096·x`, past where the keys are exact.
fn screen_world(
    mi: usize,
    groups: usize,
    seed: u64,
    huge: bool,
) -> (LabelMatrix, Topology, Vec<Group>, Vec<usize>) {
    use gfl_tensor::init;
    use rand::Rng;
    let m = [1, 2, 10, 35][mi];
    let rng = &mut init::rng(seed);
    let sparse = |rng: &mut init::GflRng| -> Vec<u32> {
        (0..m)
            .map(|_| {
                if rng.gen_bool(0.5) {
                    rng.gen_range(0..400)
                } else {
                    0
                }
            })
            .collect()
    };
    let palette: Vec<Vec<u32>> = (0..4).map(|_| sparse(rng)).collect();
    let mut counts: Vec<Vec<u32>> = Vec::new();
    let mut partition = Vec::new();
    for _ in 0..groups {
        let mut group = Vec::new();
        for _ in 0..rng.gen_range(1..4) {
            let row = &palette[rng.gen_range(0..palette.len())];
            let row = match rng.gen_range(0..10) {
                0 => {
                    let mut rotated = row.clone();
                    rotated.rotate_left(rng.gen_range(0..m));
                    rotated
                }
                1 => {
                    let k: u32 = rng.gen_range(1..4);
                    row.iter().map(|&x| k * x).collect()
                }
                2 => row.iter().map(|&x| 400 - x).collect(),
                3 => vec![rng.gen_range(1..50); m],
                4 => vec![0; m],
                _ => sparse(rng),
            };
            group.push(counts.len());
            counts.push(row);
        }
        if rng.gen_range(0..10) == 0 {
            for &c in &group {
                counts[c] = vec![0; m];
            }
        }
        partition.push(group);
    }
    let hist = |counts: &[Vec<u32>], g: &Group| -> Vec<u32> {
        (0..m)
            .map(|j| g.iter().map(|&c| counts[c][j]).sum())
            .collect()
    };
    let mut newcomers = Vec::new();
    for kind in 0..8 {
        let g = &partition[rng.gen_range(0..groups)];
        let row = match kind {
            0 => vec![0; m],
            1 | 2 => {
                let h = hist(&counts, g);
                let top = h.iter().copied().max().unwrap_or(0);
                h.iter().map(|&x| top - x).collect()
            }
            3 => {
                let mut rotated = hist(&counts, g);
                rotated.rotate_left(rng.gen_range(0..m));
                rotated
            }
            4 => palette[rng.gen_range(0..palette.len())].clone(),
            _ => sparse(rng),
        };
        newcomers.push(counts.len());
        counts.push(row);
    }
    if huge {
        for row in &mut counts {
            for x in row.iter_mut() {
                *x = (1 << 27) + 4096 * *x;
            }
        }
    }
    let sizes = counts
        .iter()
        .map(|r| r.iter().map(|&x| x as usize).sum())
        .collect();
    let n = counts.len();
    (
        LabelMatrix::new(counts, m),
        Topology::new(vec![(0..n).collect()], sizes),
        partition,
        newcomers,
    )
}

/// The screened placement against the lanes that score every group: each
/// newcomer lands in the first strict minimum of `covs_with_candidate`
/// (which `every_lane_is_cov_with_candidate_*` hold to the scalar function).
/// Then the whole batch is placed, and the index must equal a rebuild;
/// with `huge` counts every slot keyed was scored.
fn assert_screened_placement(mi: usize, groups: usize, seed: u64, huge: bool) {
    let (labels, topology, mut partition, newcomers) = screen_world(mi, groups, seed, huge);
    let mut index = Index::build(&partition, &labels, &topology);
    for &c in &newcomers {
        let mut want: Option<(usize, Scalar)> = None;
        for (g, cov) in index
            .covs_with_candidate(&labels, 0, c)
            .into_iter()
            .enumerate()
        {
            if want.is_none_or(|(_, b)| cov < b) {
                want = Some((g, cov));
            }
        }
        assert_eq!(
            index.best_group(&labels, 0, c),
            want.map(|(g, _)| g),
            "newcomer {c}"
        );
    }
    for (&c, g) in newcomers.iter().zip(index.place(&labels, &newcomers)) {
        partition[g].push(c);
    }
    assert!(index == Index::build(&partition, &labels, &topology));
    if huge {
        let (keyed, scored) = index.screen(0).tally;
        assert_eq!(keyed, scored, "2^27 counts: every slot scored");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn prop_screened_placement_is_the_scalar_placement(
        mi in 0usize..4,
        groups in 64usize..301,
        seed in 0u64..1 << 20,
        huge in 0u8..8,
    ) {
        assert_screened_placement(mi, groups, seed, huge == 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    /// The property above at depth, for CI's release run:
    /// `cargo test --release -p gfl-core -- --ignored prop_screened_`.
    #[test]
    #[ignore]
    fn prop_screened_placement_is_the_scalar_placement_deep(
        mi in 0usize..4,
        groups in 64usize..301,
        seed in 0u64..1 << 20,
        huge in 0u8..8,
    ) {
        assert_screened_placement(mi, groups, seed, huge == 0);
    }
}

#[test]
fn scores_that_tie_in_f32_go_to_the_first_slot_whatever_their_keys() {
    // Group 0 is group 1 with one sample moved between two labels of equal
    // count: with the sample-free newcomer added, its key is larger by 2m
    // (in units of T²), far below one f32 step of either score, so both
    // scores narrow to the same f32 and slot 0 must win — the margin keeps
    // it in contention. Groups 2 and 3 hold one label only.
    let mut tied: Vec<u32> = vec![1 << 20, 1 << 20, 300_000, 300_007, 250_000];
    tied.extend([200_003, 150_000, 100_001, 60_000, 9]);
    let mut moved = tied.clone();
    moved[0] += 1;
    moved[1] -= 1;
    let mut filler = vec![0; 10];
    filler[3] = 3_000_000;
    let counts = vec![moved, tied, filler.clone(), filler, vec![0; 10]];
    let sizes = counts
        .iter()
        .map(|r| r.iter().map(|&x| x as usize).sum())
        .collect();
    let labels = LabelMatrix::new(counts, 10);
    let topology = Topology::new(vec![(0..5).collect()], sizes);
    let groups: Vec<Group> = (0..4).map(|c| vec![c]).collect();
    let mut index = Index::build(&groups, &labels, &topology);

    let score = |g: usize| cov_with_candidate(&labels, &labels.group_histogram(&[g]), 4);
    assert_eq!(
        score(0).to_bits(),
        score(1).to_bits(),
        "the premise: an f32 tie"
    );
    // Equal totals, so the keys order as `m·Σx²`.
    let squares =
        |g: usize| -> u128 { labels.client(g).iter().map(|&x| u128::from(x).pow(2)).sum() };
    assert_eq!(labels.client_total(0), labels.client_total(1));
    assert_eq!(squares(0), squares(1) + 2, "the premise: keys differ");
    assert_eq!(index.best_group(&labels, 0, 4), Some(0));
    // The keys are exact here, so the screen drops the one-label groups.
    assert_eq!(index.place(&labels, &[4]), vec![0]);
    assert_eq!(index.screen(0).tally, (4, 2));
}

#[test]
fn the_key_screen_scores_under_one_percent_of_slots_at_the_scale_churn_shape() {
    // `scale-churn`'s smoke shape: 18 000 virtual clients (α = 0.1) on 8
    // edges, stream groups of 8, moderate churn over 16 rounds with the
    // default healing policy; every arrival and orphan is keyed against its
    // edge's groups.
    const CLIENTS: usize = 18_000;
    let pop =
        gfl_data::VirtualPopulation::new(gfl_data::VirtualSpec::paper_vision(CLIENTS, 0.1, 7));
    let sizes = (0..CLIENTS).map(|c| pop.client_size(c)).collect();
    let topology = Topology::even_split(8, sizes);
    let labels = pop.label_matrix();
    let algo = StreamGrouping { group_size: 8 };
    let plan = ChurnPlan {
        horizon: 16,
        ..ChurnPlan::moderate(7)
    };
    let sampling = SamplingStrategy::Random;
    let policy = RegroupPolicy::default();
    let mut state = MembershipState::form(
        &algo,
        &topology,
        labels,
        Some(&plan),
        policy,
        7,
        sampling,
        0,
    )
    .unwrap();
    for t in 0..16 {
        state.apply_churn(&plan, t, labels, &topology);
        state
            .heal(t, labels, &algo, &topology, 7, sampling)
            .unwrap();
    }
    let index = state.take_index(labels, &topology);
    let (mut keyed, mut scored) = (0, 0);
    for edge in 0..8 {
        keyed += index.screen(edge).tally.0;
        scored += index.screen(edge).tally.1;
    }
    assert!(keyed > 100_000, "{keyed} slots keyed");
    assert!(scored * 100 < keyed, "{scored} of {keyed} scored exactly");
}

/// Eight clients with the given label counts, four to an edge.
fn two_edges(counts: Vec<Vec<u32>>) -> (LabelMatrix, Topology) {
    let sizes = counts
        .iter()
        .map(|r| r.iter().sum::<u32>() as usize)
        .collect();
    let m = counts[0].len();
    (
        LabelMatrix::new(counts, m),
        Topology::new(vec![(0..4).collect(), (4..8).collect()], sizes),
    )
}

fn form_pairs(labels: &LabelMatrix, topology: &Topology, policy: RegroupPolicy) -> MembershipState {
    MembershipState::form(
        &StreamGrouping { group_size: 2 },
        topology,
        labels,
        None,
        policy,
        1,
        SamplingStrategy::Random,
        0,
    )
    .unwrap()
}

#[test]
fn doomed_groups_with_only_doomed_siblings_all_limp_along() {
    // Edge 0's two groups are both under the size floor. Each is the
    // other's only sibling and both are on the list as first marked, so
    // neither may dissolve into the other — not even the second, judged
    // after the first was spared.
    let (labels, topology) = two_edges(vec![vec![1, 0]; 8]);
    let policy = RegroupPolicy {
        size_floor: 2,
        cooldown: 0,
        ..RegroupPolicy::default()
    };
    let mut state = form_pairs(&labels, &topology, policy);
    assert_eq!(state.groups.len(), 4);
    state.edit(|groups, active| {
        for g in &mut groups[..2] {
            for c in g.drain(1..) {
                active[c] = false;
            }
        }
    });
    let before = state.groups.clone();
    let events = state
        .heal(
            3,
            &labels,
            &StreamGrouping { group_size: 2 },
            &topology,
            1,
            SamplingStrategy::Random,
        )
        .unwrap();
    assert!(events.is_empty(), "{events:?}");
    assert_eq!(state.groups, before);
}

#[test]
fn an_edge_with_no_live_group_opens_one_at_the_global_end() {
    // Every member of edge 0 leaves at round 1 and client 0 is a late
    // arrival there: its edge's groups are husks (skipped, not joined), so
    // it founds a new group after edge 1's.
    let (labels, topology) = two_edges(vec![vec![1, 0]; 8]);
    let mut state = form_pairs(&labels, &topology, RegroupPolicy::default());
    state.edit(|groups, active| {
        groups[0].retain(|&c| c != 0);
        active[0] = false;
        for g in &mut groups[..2] {
            for c in g.drain(..) {
                active[c] = false;
            }
        }
    });
    let mut index = state.take_index(&labels, &topology);
    assert_eq!(index.best_group(&labels, 0, 0), None);
    assert_eq!(state.place_clients(&labels, &mut index, &[0]), vec![4]);
    assert_eq!(state.groups[4], vec![0]);
    assert!(index == Index::build(&state.groups, &labels, &topology));
}

#[test]
fn placement_takes_the_first_strict_minimum_and_resets_the_baseline() {
    // Edge 0 holds groups {1} and {2}, identical, so the newcomer's CoV
    // ties exactly between them: the lower index wins, and its baseline
    // becomes its CoV with the newcomer in it.
    let mut counts = vec![vec![2, 0]; 8];
    counts[0] = vec![0, 1];
    let (labels, topology) = two_edges(counts);
    let mut state = form_pairs(&labels, &topology, RegroupPolicy::default());
    state.edit(|groups, active| {
        *groups = vec![vec![1], vec![2], vec![4, 5], vec![6, 7]];
        active[0] = false;
        active[3] = false;
    });
    let mut index = state.take_index(&labels, &topology);
    assert_eq!(index.best_group(&labels, 0, 0), Some(0));
    assert_eq!(state.place_clients(&labels, &mut index, &[0]), vec![0]);
    assert_eq!(state.groups[0], vec![1, 0]);
    let cov = group_cov(&labels, &[1, 0]);
    assert!(cov.is_finite() && cov > 0.0);
    assert_eq!(state.health[0].baseline_cov.to_bits(), cov.to_bits());
}

#[test]
fn a_batch_numbers_the_groups_it_opens_in_the_order_their_openers_come() {
    // Two edges whose clients interleave — edge 0 holds the odd ids — and
    // whose groups are both husks. Client 0 opens a group on edge 1 before
    // client 1 opens one on edge 0, although edge 0's pass is the first
    // task; 2 and 3 then join their edge's one group.
    let counts = vec![vec![1, 2]; 4];
    let sizes = vec![3; 4];
    let labels = LabelMatrix::new(counts, 2);
    let topology = Topology::new(vec![vec![1, 3], vec![0, 2]], sizes);
    let mut state = MembershipState {
        groups: vec![Vec::new(), Vec::new()],
        active: vec![false; 4],
        health: vec![GroupHealth::fresh(Scalar::INFINITY); 2],
        probs: Vec::new(),
        last_heal: 0,
        policy: RegroupPolicy::default(),
        index: None,
        memo: None,
    };
    let mut index = state.take_index(&labels, &topology);
    assert_eq!(
        state.place_clients(&labels, &mut index, &[0, 1, 2, 3]),
        vec![2, 3, 2, 3]
    );
    assert_eq!(state.groups[2..], [vec![0, 2], vec![1, 3]]);
    let cov = group_cov(&labels, &[0, 2]);
    assert!(state.health[2..]
        .iter()
        .all(|h| h.baseline_cov.to_bits() == cov.to_bits()));
    assert!(index == Index::build(&state.groups, &labels, &topology));
}

#[test]
fn a_dry_candidate_on_a_dry_group_is_infinitely_bad_not_nan() {
    let (labels, topology) = two_edges(vec![vec![0, 0]; 8]);
    let mut state = form_pairs(&labels, &topology, RegroupPolicy::default());
    let index = state.take_index(&labels, &topology);
    let lanes = index.covs_with_candidate(&labels, 0, 0);
    assert!(lanes.iter().all(|c| *c == Scalar::INFINITY), "{lanes:?}");
    // First candidate wins an all-infinite field.
    assert_eq!(index.best_group(&labels, 0, 1), Some(0));
}

#[test]
fn a_frozen_policy_notes_an_arrival_once_and_never_places_it() {
    let (labels, topology) = two_edges(vec![vec![1, 1]; 8]);
    let plan = (0u64..)
        .map(|seed| ChurnPlan {
            seed,
            horizon: 6,
            departure_fraction: 0.0,
            arrival_fraction: 0.5,
            flap_prob: 0.0,
        })
        .find(|p| (0..8).any(|c| p.arrival_round(c) > 0))
        .unwrap();
    let mut state = MembershipState::form(
        &StreamGrouping { group_size: 2 },
        &topology,
        &labels,
        Some(&plan),
        RegroupPolicy::frozen(),
        1,
        SamplingStrategy::Random,
        0,
    )
    .unwrap();
    let founding = state.groups.clone();
    let mut noted = Vec::new();
    for t in 0..8 {
        for e in state.apply_churn(&plan, t, &labels, &topology) {
            match e {
                RegroupEvent::ClientArrived {
                    round,
                    client,
                    group: None,
                } => {
                    assert_eq!(round, plan.arrival_round(client));
                    noted.push(client);
                }
                other => panic!("frozen, departure-free plan emitted {other:?}"),
            }
        }
    }
    let late: Vec<usize> = (0..8).filter(|&c| plan.arrival_round(c) > 0).collect();
    noted.sort_unstable();
    assert_eq!(noted, late);
    assert_eq!(state.groups, founding);
    assert!(late.iter().all(|&c| !state.active[c]));
}

#[test]
fn the_memo_answers_only_for_the_plan_it_was_computed_from() {
    let (labels, topology) = two_edges(vec![vec![1, 1]; 8]);
    let plan_a = ChurnPlan {
        seed: 1,
        horizon: 4,
        departure_fraction: 0.9,
        arrival_fraction: 0.0,
        flap_prob: 0.0,
    };
    let plan_b = ChurnPlan {
        departure_fraction: 0.0,
        ..plan_a.clone()
    };
    let form = |plan| {
        MembershipState::form(
            &StreamGrouping { group_size: 2 },
            &topology,
            &labels,
            Some(plan),
            RegroupPolicy::default(),
            1,
            SamplingStrategy::Random,
            0,
        )
        .unwrap()
    };
    // Formed (and memoised) under A, ticked under B: nobody departs.
    let mut state = form(&plan_a);
    assert!(state.apply_churn(&plan_b, 3, &labels, &topology).is_empty());
    // And back under A: its departures happen.
    let mut fresh = form(&plan_a);
    assert_eq!(
        state.apply_churn(&plan_a, 3, &labels, &topology),
        fresh.apply_churn(&plan_a, 3, &labels, &topology)
    );
    assert!(state.active_members() < 8);
}

/// Up to four edges whose clients interleave by id, each edge homing up to
/// five groups that interleave by index with the other edges' (some empty,
/// some edges with none), and a share of clients in no group — the batch.
fn batch_world() -> impl Strategy<Value = (LabelMatrix, Topology, Vec<Group>)> {
    (1usize..5, 1usize..6, 2usize..50, 1usize..12).prop_flat_map(|(edges, per_edge, n, m)| {
        proptest::collection::vec(
            (
                0..edges,
                0..per_edge + 2,
                0u8..4,
                proptest::collection::vec(0u32..500, m),
            ),
            n,
        )
        .prop_map(move |clients| {
            let mut edge_clients = vec![Vec::new(); edges];
            let mut groups = vec![Vec::new(); edges * per_edge];
            let mut counts = Vec::new();
            for (c, (edge, home, dry, row)) in clients.into_iter().enumerate() {
                edge_clients[edge].push(c);
                if home < per_edge {
                    groups[home * edges + edge].push(c);
                }
                counts.push(if dry == 0 { vec![0; m] } else { row });
            }
            let sizes = counts
                .iter()
                .map(|r| r.iter().sum::<u32>() as usize)
                .collect();
            (
                LabelMatrix::new(counts, m),
                Topology::new(edge_clients, sizes),
                groups,
            )
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn a_batch_places_as_the_reference_does_one_client_at_a_time_at_any_thread_count(
        (labels, topology, groups) in batch_world(),
    ) {
        let mut active = vec![false; labels.num_clients()];
        for &c in groups.iter().flatten() {
            active[c] = true;
        }
        let batch: Vec<usize> = (0..active.len()).filter(|&c| !active[c]).collect();
        let health: Vec<GroupHealth> =
            groups.iter().map(|g| GroupHealth::fresh(group_cov(&labels, g))).collect();
        let state = MembershipState {
            groups,
            active,
            health,
            probs: Vec::new(),
            last_heal: 0,
            policy: RegroupPolicy::default(),
            index: None,
            memo: None,
        };

        let mut reference = Reference::of(&state);
        let edge_of = edge_map(&topology);
        let mut hists = histograms(&labels, &reference.groups);
        let want: Vec<usize> = batch
            .iter()
            .map(|&c| reference.place_client(&labels, &edge_of, &mut hists, c))
            .collect();

        gfl_test_support::for_each_thread_count(&[1, 2, 8], |threads| {
            let mut state = state.clone();
            let mut index = state.take_index(&labels, &topology);
            let placed = state.place_clients(&labels, &mut index, &batch);
            assert_eq!(placed, want, "{threads} threads");
            assert_eq!(state.groups, reference.groups, "{threads} threads");
            let health = |h: &[GroupHealth]| h.iter().map(|h| h.baseline_cov.to_bits()).collect::<Vec<_>>();
            assert_eq!(health(&state.health), health(&reference.health), "{threads} threads");
            assert!(
                index == Index::build(&state.groups, &labels, &topology),
                "{threads} threads: index drifted from a rebuild"
            );
        });
    }
}
