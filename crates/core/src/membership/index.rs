//! The derived index a [`super::MembershipState`] keeps beside its
//! partition, so a tick costs what changed instead of what exists.
//!
//! Everything here is a pure function of `(groups, labels, topology)`; the
//! state maintains it event by event and [`Index::build`] is the rebuild it
//! must stay equal to (pinned, field by field and bit by bit, by the
//! property suite in `proptests.rs`).
//!
//! **Layout.** Per-group label histograms live in one label-major
//! structure of arrays — `hist[j][g]` is group `g`'s count of label `j` —
//! so the placement scan reads `m` contiguous columns for a block of
//! neighbouring groups instead of chasing `m`-element rows through three
//! levels of `Vec`.
//!
//! **Exactness.** The columns and totals hold *counts as `f64`*, which is
//! what lets the scan be `cov::cov_lanes` — `cov::cov_with_candidate`'s
//! operations in its order, a lane per group (its docs say why no rounding
//! moves). Its precondition is kept here: [`Index::add`] and
//! [`Index::build`] assert each group's total stays at most 2⁵²
//! ([`MAX_EXACT_TOTAL`]); a candidate row is `m` `u32`s, so with `m` < 2²⁰
//! (asserted in `build`) `group + candidate` is below 2⁵³ too. A cached CoV
//! is [`histogram_cov`] itself, applied to the group's column entries
//! converted back to `u64`.

use gfl_data::LabelMatrix;
use gfl_faults::ChurnPlan;
use gfl_sim::Topology;
use gfl_tensor::Scalar;

use crate::cov::{histogram_cov, scan_lanes, Cov};
use crate::Group;

/// "No group" in [`Index::group_of`].
const NONE: u32 = u32::MAX;

/// Largest total sample count a group may hold (see the module docs).
const MAX_EXACT_TOTAL: f64 = (1u64 << 52) as f64;

#[derive(Debug, Clone)]
pub(super) struct Index {
    /// Client → its group, [`NONE`] for clients in no group.
    group_of: Vec<u32>,
    /// Client → its edge server.
    edge_of: Vec<u32>,
    /// Edge → ascending indices of the non-empty groups homed there (a
    /// group's edge is its members' edge — groups never span edges).
    by_edge: Vec<Vec<u32>>,
    /// `hist[j][g]`: samples of label `j` in group `g`.
    hist: Vec<Vec<f64>>,
    /// Group → its total sample count.
    totals: Vec<f64>,
    /// Group → `histogram_cov` of its histogram (`inf` for an empty one).
    covs: Vec<Scalar>,
    /// Scratch: one histogram row, for [`Index::refresh_cov`].
    row: Vec<u64>,
    /// Scratch: the candidate's label counts, for [`Index::best_group`].
    cand: Vec<f64>,
}

impl Index {
    /// The index of `groups` — what every incremental update must equal.
    pub(super) fn build(groups: &[Group], labels: &LabelMatrix, topology: &Topology) -> Self {
        let (n, m, g) = (topology.num_clients(), labels.num_labels(), groups.len());
        assert!(m < 1 << 20, "{m} labels: group + candidate could pass 2^53");
        assert!(
            g < NONE as usize && topology.num_edges() < NONE as usize,
            "group and edge indices are held as u32"
        );
        let mut edge_of = vec![0u32; n];
        for e in 0..topology.num_edges() {
            for &c in topology.clients_of(e) {
                edge_of[c] = e as u32;
            }
        }
        let mut ix = Self {
            group_of: vec![NONE; n],
            edge_of,
            by_edge: vec![Vec::new(); topology.num_edges()],
            hist: (0..m).map(|_| Vec::with_capacity(g)).collect(),
            totals: Vec::with_capacity(g),
            covs: Vec::with_capacity(g),
            row: vec![0; m],
            cand: vec![0.0; m],
        };
        for (gi, group) in groups.iter().enumerate() {
            ix.row.fill(0);
            for &c in group {
                labels.add_client_into(c, &mut ix.row);
                ix.group_of[c] = gi as u32;
            }
            ix.push_row();
            if let Some(&first) = group.first() {
                ix.by_edge[ix.edge_of[first] as usize].push(gi as u32);
            }
        }
        ix
    }

    /// Appends `self.row` as a new group's histogram, total and CoV.
    fn push_row(&mut self) {
        for (col, &h) in self.hist.iter_mut().zip(&self.row) {
            col.push(h as f64);
        }
        let total = self.row.iter().sum::<u64>() as f64;
        assert!(total <= MAX_EXACT_TOTAL, "group total {total} is not exact");
        self.totals.push(total);
        self.covs.push(histogram_cov(&self.row));
    }

    /// Per-group CoVs, index-aligned with the partition.
    pub(super) fn covs(&self) -> &[Scalar] {
        &self.covs
    }

    /// The group `client` is a member of.
    pub(super) fn group_of(&self, client: usize) -> Option<usize> {
        let g = self.group_of[client];
        (g != NONE).then_some(g as usize)
    }

    pub(super) fn edge_of(&self, client: usize) -> usize {
        self.edge_of[client] as usize
    }

    /// Per edge, how many non-empty groups it homes.
    pub(super) fn live_groups_by_edge(&self) -> Vec<usize> {
        self.by_edge.iter().map(Vec::len).collect()
    }

    /// Recomputes group `gi`'s cached CoV from its column entries.
    fn refresh_cov(&mut self, gi: usize) {
        for (h, col) in self.row.iter_mut().zip(&self.hist) {
            *h = col[gi] as u64;
        }
        self.covs[gi] = histogram_cov(&self.row);
    }

    /// `client` left group `gi`; `emptied` says it was the last member.
    pub(super) fn remove(&mut self, labels: &LabelMatrix, client: usize, gi: usize, emptied: bool) {
        for (col, &c) in self.hist.iter_mut().zip(labels.client(client)) {
            col[gi] -= f64::from(c);
        }
        self.totals[gi] -= labels.client_total(client) as f64;
        self.refresh_cov(gi);
        self.group_of[client] = NONE;
        if emptied {
            let list = &mut self.by_edge[self.edge_of[client] as usize];
            let at = list
                .binary_search(&(gi as u32))
                .expect("a non-empty group is listed on its edge");
            list.remove(at);
        }
    }

    /// `client` joined the non-empty group `gi`.
    pub(super) fn add(&mut self, labels: &LabelMatrix, client: usize, gi: usize) {
        for (col, &c) in self.hist.iter_mut().zip(labels.client(client)) {
            col[gi] += f64::from(c);
        }
        self.totals[gi] += labels.client_total(client) as f64;
        assert!(
            self.totals[gi] <= MAX_EXACT_TOTAL,
            "group {gi}'s total {} is not exact",
            self.totals[gi]
        );
        self.refresh_cov(gi);
        self.group_of[client] = gi as u32;
    }

    /// `client` opened a new group at the end of the partition; returns its
    /// index.
    pub(super) fn open_group(&mut self, labels: &LabelMatrix, client: usize) -> usize {
        let gi = self.totals.len();
        assert!(gi < NONE as usize, "group indices are held as u32");
        self.row.fill(0);
        labels.add_client_into(client, &mut self.row);
        self.push_row();
        self.group_of[client] = gi as u32;
        self.by_edge[self.edge_of[client] as usize].push(gi as u32);
        gi
    }

    /// Drops every group `doomed[g]` marks and renumbers the rest in order.
    /// The dropped groups' members end up in no group.
    pub(super) fn compact(&mut self, doomed: &[bool]) {
        let mut kept = 0u32;
        let remap: Vec<u32> = doomed
            .iter()
            .map(|&d| {
                if d {
                    NONE
                } else {
                    kept += 1;
                    kept - 1
                }
            })
            .collect();
        for g in self.group_of.iter_mut().filter(|g| **g != NONE) {
            *g = remap[*g as usize];
        }
        for list in &mut self.by_edge {
            list.retain_mut(|g| {
                *g = remap[*g as usize];
                *g != NONE
            });
        }
        for col in &mut self.hist {
            retain_unmarked(col, doomed);
        }
        retain_unmarked(&mut self.totals, doomed);
        retain_unmarked(&mut self.covs, doomed);
    }

    /// Loads `client`'s label counts into the candidate scratch row and
    /// returns their total.
    fn load_candidate(&mut self, labels: &LabelMatrix, client: usize) -> f64 {
        for (c, &r) in self.cand.iter_mut().zip(labels.client(client)) {
            *c = f64::from(r);
        }
        labels.client_total(client) as f64
    }

    /// The group on `client`'s edge whose CoV with `client` added is lowest:
    /// the first strict minimum in ascending group index over the edge's
    /// non-empty groups. `None` when the edge has none.
    pub(super) fn best_group(&mut self, labels: &LabelMatrix, client: usize) -> Option<usize> {
        let cand_total = self.load_candidate(labels, client);
        let list = &self.by_edge[self.edge_of[client] as usize];
        let mut best: Option<(u32, Scalar)> = None;
        // The list is scanned as its maximal runs of consecutive indices —
        // formation lays an edge's groups out contiguously, so this is one
        // run plus whatever churn has split off.
        let mut i = 0;
        while i < list.len() {
            let lo = list[i] as usize;
            let mut len = 1;
            while i + len < list.len() && list[i + len] as usize == lo + len {
                len += 1;
            }
            let run = lo..lo + len;
            scan_lanes::<Cov>(
                &self.hist,
                &self.totals,
                run,
                &self.cand,
                cand_total,
                |g, cov| {
                    if best.is_none_or(|(_, b)| cov < b) {
                        best = Some((g as u32, cov));
                    }
                },
            );
            i += len;
        }
        best.map(|(g, _)| g as usize)
    }

    /// The placement scan's values for `client` over `range`, for the tests.
    #[cfg(test)]
    pub(super) fn covs_with_candidate(
        &mut self,
        labels: &LabelMatrix,
        client: usize,
        range: std::ops::Range<usize>,
    ) -> Vec<Scalar> {
        let cand_total = self.load_candidate(labels, client);
        let mut covs = Vec::new();
        scan_lanes::<Cov>(
            &self.hist,
            &self.totals,
            range,
            &self.cand,
            cand_total,
            |_, cov| covs.push(cov),
        );
        covs
    }
}

/// Drops the elements of `column` whose mark is set; one mark per element.
pub(super) fn retain_unmarked<T>(column: &mut Vec<T>, marks: &[bool]) {
    debug_assert_eq!(column.len(), marks.len());
    let mut marks = marks.iter();
    column.retain(|_| !marks.next().expect("one mark per element"));
}

/// Equality of everything derived (the scratch rows are not), floats by
/// bit pattern: what "the incremental index equals a rebuild" means.
#[cfg(test)]
impl PartialEq for Index {
    fn eq(&self, other: &Self) -> bool {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        self.group_of == other.group_of
            && self.edge_of == other.edge_of
            && self.by_edge == other.by_edge
            && self.hist.len() == other.hist.len()
            && self
                .hist
                .iter()
                .zip(&other.hist)
                .all(|(a, b)| bits(a) == bits(b))
            && bits(&self.totals) == bits(&other.totals)
            && self.covs.iter().map(|c| c.to_bits()).collect::<Vec<_>>()
                == other.covs.iter().map(|c| c.to_bits()).collect::<Vec<_>>()
    }
}

/// "Never departs" in [`PlanMemo::depart`]; rounds saturate one below it.
const NEVER: u32 = u32::MAX;

fn round_u32(t: usize) -> u32 {
    u32::try_from(t).map_or(NEVER - 1, |t| t.min(NEVER - 1))
}

/// A churn plan's per-client arrival and departure rounds. They are pure
/// hashes of `(plan, client)`, asked of every client every tick; the memo
/// hashes each once. Rounds are held as saturating `u32`s, exact for every
/// round below 2³² − 2.
#[derive(Debug, Clone)]
pub(super) struct PlanMemo {
    plan: ChurnPlan,
    arrive: Vec<u32>,
    depart: Vec<u32>,
}

impl PlanMemo {
    pub(super) fn new(plan: &ChurnPlan, clients: usize) -> Self {
        Self {
            plan: plan.clone(),
            arrive: (0..clients)
                .map(|c| round_u32(plan.arrival_round(c)))
                .collect(),
            depart: (0..clients)
                .map(|c| plan.departure_round(c).map_or(NEVER, round_u32))
                .collect(),
        }
    }

    /// Whether this memo answers for `plan` over `clients` clients.
    pub(super) fn is_for(&self, plan: &ChurnPlan, clients: usize) -> bool {
        self.plan == *plan && self.arrive.len() == clients
    }

    /// `ChurnPlan::present`.
    pub(super) fn present(&self, client: usize, t: usize) -> bool {
        let t = round_u32(t);
        t >= self.arrive[client] && t < self.depart[client]
    }

    /// `ChurnPlan::arrival_round(client) == t`.
    pub(super) fn arrives_at(&self, client: usize, t: usize) -> bool {
        self.arrive[client] == round_u32(t)
    }
}
