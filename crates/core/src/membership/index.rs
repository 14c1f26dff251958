//! The derived index a [`super::MembershipState`] keeps beside its
//! partition, so a tick costs what changed instead of what exists.
//!
//! Everything here is a pure function of `(groups, labels, topology)`; the
//! state maintains it event by event and [`Index::build`] is the rebuild it
//! must stay equal to (pinned, field by field and bit by bit, by the
//! property suite in `proptests.rs`).
//!
//! **Layout: by edge.** A group's edge is its members' edge — groups never
//! span edges — and a client is only ever scored against, and placed into,
//! its own edge's groups. So each edge keeps its non-empty groups as
//! *slots*, in ascending group index, with their label histograms in one
//! label-major structure of arrays: `hist[j][slot]` is the slot's count of
//! label `j`, beside each slot's total and its sum of squared counts. A
//! placement reads contiguous columns for a block of neighbouring slots
//! instead of chasing `m`-element rows through three levels of `Vec`, and
//! every edge's columns can be placed into by its own worker. Per group the
//! index keeps only its slot and its cached CoV.
//!
//! **Placement: one exact integer key per slot.** Which group's CoV is
//! lowest with the client added is Algorithm 2's Line 5 with the roles
//! swapped — one client against many groups — and it is answered by the
//! same `cov::Screen`. With the slot's counts `h`, the client's `c` and
//! `x = h + c`, `m·Σx_j² − T²` is `m·(S + 2·X + C) − T²`: `S = Σh_j²` is
//! the slot's `squares`, `C = Σc_j²` the client's, and the cross term
//! `X = Σh_j·c_j` runs over the client's non-zero labels only (about four
//! of ten at α = 0.1). A block of [`LANES`] slots is keyed at a time, and
//! only the slots whose key is within the screen's proven margin of the
//! smallest are scored with `cov::cov_lanes`, one lane a call; the winner
//! is the first strict minimum of those scores in slot order, the slot the
//! full scan picked. The key pass also finds the largest union total `T`
//! it keyed, and the screen drops slots only while `(m + 1)·T²` is below
//! 2⁵³, where every key is an exact integer; past that every slot is
//! scored.
//!
//! **Exactness.** The columns, totals and squares hold *whole numbers as
//! `f64`*, which is what lets a scored lane be `cov::cov_lanes` —
//! `cov::cov_with_candidate`'s operations in its order, a lane per group
//! (its docs say why no rounding moves). Its precondition is kept here: a
//! placement and [`Index::build`] assert each group's total stays at most
//! 2⁵² ([`MAX_EXACT_TOTAL`]); a candidate row is `m` `u32`s, so with `m` <
//! 2²⁰ (asserted in `build`) `group + candidate` is below 2⁵³ too. A slot's
//! squares are summed from its column entries in label order whenever they
//! change, so they are a rebuild's bits. A cached CoV is [`histogram_cov`]
//! itself, applied to the group's column entries converted back to `u64`.
//!
//! **Placement: one pass per edge, on the pool.** [`Index::place`] splits a
//! batch of newcomers by edge and runs each edge's share — its clients
//! landing one after another in its slots, exactly as they would one at a
//! time — as one pool task. The one thing edges share is the partition's
//! length: a client whose edge has no non-empty group opens one at the end
//! of it. Its pass marks the slot, and the serial merge numbers the group
//! when it reaches the client that opened it in batch order — the index one
//! client at a time would have given it.

use gfl_data::LabelMatrix;
use gfl_faults::ChurnPlan;
use gfl_sim::Topology;
use gfl_tensor::Scalar;

use crate::cov::{histogram_cov, Cov, Criterion, Screen, LANES};
use crate::Group;

/// "No group" in [`Index::group_of`], "no slot" in [`Index::slot_of`], and a
/// group a pass opened but the merge has yet to number in
/// [`EdgeGroups::groups`].
const NONE: u32 = u32::MAX;

/// Largest total sample count a group may hold (see the module docs).
const MAX_EXACT_TOTAL: f64 = (1u64 << 52) as f64;

#[derive(Debug, Clone)]
pub(super) struct Index {
    /// Client → its group, [`NONE`] for clients in no group.
    group_of: Vec<u32>,
    /// Client → its edge server.
    edge_of: Vec<u32>,
    /// Group → its slot on its edge, [`NONE`] for an empty group.
    slot_of: Vec<u32>,
    /// Group → `histogram_cov` of its histogram (`inf` for an empty one).
    covs: Vec<Scalar>,
    /// Edge → its non-empty groups' histograms.
    edges: Vec<EdgeGroups>,
    /// Scratch: one histogram row, for [`Index::refresh_cov`].
    row: Vec<u64>,
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
        let mut homed = vec![0usize; topology.num_edges()];
        for &first in groups.iter().filter_map(|g| g.first()) {
            homed[edge_of[first] as usize] += 1;
        }
        let mut ix = Self {
            group_of: vec![NONE; n],
            edge_of,
            slot_of: Vec::with_capacity(g),
            covs: Vec::with_capacity(g),
            edges: homed
                .into_iter()
                .map(|slots| EdgeGroups {
                    groups: Vec::with_capacity(slots),
                    hist: (0..m).map(|_| Vec::with_capacity(slots)).collect(),
                    totals: Vec::with_capacity(slots),
                    squares: Vec::with_capacity(slots),
                    cand: vec![0.0; m],
                    nonzero: Vec::with_capacity(m),
                    keys: Vec::with_capacity(slots),
                    ..EdgeGroups::default()
                })
                .collect(),
            row: vec![0; m],
        };
        for (gi, group) in groups.iter().enumerate() {
            ix.row.fill(0);
            for &c in group {
                labels.add_client_into(c, &mut ix.row);
                ix.group_of[c] = gi as u32;
            }
            let slot = match group.first() {
                Some(&first) => ix.edges[ix.edge_of[first] as usize].push_slot(gi as u32, &ix.row),
                None => NONE,
            };
            ix.slot_of.push(slot);
            ix.covs.push(histogram_cov(&ix.row));
        }
        ix
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
        self.edges.iter().map(|e| e.groups.len()).collect()
    }

    /// Recomputes group `gi`'s cached CoV from its column entries, at `slot`
    /// on `edge`.
    fn refresh_cov(&mut self, edge: usize, slot: usize, gi: usize) {
        for (h, col) in self.row.iter_mut().zip(&self.edges[edge].hist) {
            *h = col[slot] as u64;
        }
        self.covs[gi] = histogram_cov(&self.row);
    }

    /// `client` left group `gi`; `emptied` says it was the last member.
    pub(super) fn remove(&mut self, labels: &LabelMatrix, client: usize, gi: usize, emptied: bool) {
        let (e, slot) = (self.edge_of[client] as usize, self.slot_of[gi] as usize);
        let edge = &mut self.edges[e];
        for (col, &c) in edge.hist.iter_mut().zip(labels.client(client)) {
            col[slot] -= f64::from(c);
        }
        edge.totals[slot] -= labels.client_total(client) as f64;
        edge.squares[slot] = edge.slot_squares(slot);
        self.refresh_cov(e, slot, gi);
        self.group_of[client] = NONE;
        if emptied {
            let edge = &mut self.edges[e];
            edge.groups.remove(slot);
            for col in &mut edge.hist {
                col.remove(slot);
            }
            edge.totals.remove(slot);
            edge.squares.remove(slot);
            for &g in &edge.groups[slot..] {
                self.slot_of[g as usize] -= 1;
            }
            self.slot_of[gi] = NONE;
        }
    }

    /// Places `clients`, in order, each into the group on its edge whose
    /// CoV with the client added is lowest — the first strict minimum in
    /// ascending group index over the edge's non-empty groups, with the
    /// clients before it already placed — or, when the edge has none, into
    /// a new group opened at the end of the partition. Returns each client's
    /// group. None of `clients` may be in a group.
    pub(super) fn place(&mut self, labels: &LabelMatrix, clients: &[usize]) -> Vec<usize> {
        if clients.is_empty() {
            return Vec::new();
        }
        for edge in &mut self.edges {
            edge.clients.clear();
        }
        for &c in clients {
            debug_assert_eq!(self.group_of[c], NONE, "client {c} is already placed");
            self.edges[self.edge_of[c] as usize].clients.push(c);
        }
        // Sized here, so a pass allocates on its worker only to open a slot.
        for edge in &mut self.edges {
            edge.landed.clear();
            edge.landed.reserve(edge.clients.len());
            edge.merged = 0;
        }
        gfl_parallel::par_for_each_init(&mut self.edges, || (), |(), _, edge| edge.place(labels));

        // Merge in batch order: number each opened group when its opener
        // comes up, as placing one client at a time would have.
        let mut placed = Vec::with_capacity(clients.len());
        for &c in clients {
            let edge = &mut self.edges[self.edge_of[c] as usize];
            let slot = edge.landed[edge.merged] as usize;
            edge.merged += 1;
            if edge.groups[slot] == NONE {
                let gi = self.covs.len();
                assert!(gi < NONE as usize, "group indices are held as u32");
                edge.groups[slot] = gi as u32;
                self.slot_of.push(slot as u32);
                self.covs.push(Scalar::INFINITY);
            }
            self.group_of[c] = edge.groups[slot];
            placed.push(edge.groups[slot] as usize);
        }
        for e in 0..self.edges.len() {
            for i in 0..self.edges[e].landed.len() {
                let slot = self.edges[e].landed[i] as usize;
                let gi = self.edges[e].groups[slot] as usize;
                self.refresh_cov(e, slot, gi);
            }
        }
        placed
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
        retain_unmarked(&mut self.covs, doomed);
        self.slot_of = vec![NONE; kept as usize];
        for edge in &mut self.edges {
            let mut kept = 0;
            for slot in 0..edge.groups.len() {
                let g = remap[edge.groups[slot] as usize];
                if g != NONE {
                    edge.groups[kept] = g;
                    for col in &mut edge.hist {
                        col[kept] = col[slot];
                    }
                    edge.totals[kept] = edge.totals[slot];
                    edge.squares[kept] = edge.squares[slot];
                    self.slot_of[g as usize] = kept as u32;
                    kept += 1;
                }
            }
            edge.groups.truncate(kept);
            for col in &mut edge.hist {
                col.truncate(kept);
            }
            edge.totals.truncate(kept);
            edge.squares.truncate(kept);
        }
    }

    /// Where a placement scan for `client` over `edge` lands: the winning
    /// group, `None` when the edge has no non-empty group. For the tests.
    #[cfg(test)]
    pub(super) fn best_group(
        &self,
        labels: &LabelMatrix,
        edge: usize,
        client: usize,
    ) -> Option<usize> {
        let mut edge = self.edges[edge].clone();
        edge.best(labels, client)
            .map(|slot| edge.groups[slot] as usize)
    }

    /// `edge`'s key screen, with its tally of slots keyed and scored by
    /// placements. For the tests.
    #[cfg(test)]
    pub(super) fn screen(&self, edge: usize) -> &Screen {
        &self.edges[edge].screen
    }

    /// The placement scan's values for `client` over `edge`'s groups, in
    /// ascending group index. For the tests.
    #[cfg(test)]
    pub(super) fn covs_with_candidate(
        &self,
        labels: &LabelMatrix,
        edge: usize,
        client: usize,
    ) -> Vec<Scalar> {
        let edge = &self.edges[edge];
        let cand: Vec<f64> = labels
            .client(client)
            .iter()
            .map(|&c| f64::from(c))
            .collect();
        let mut covs = Vec::new();
        crate::cov::scan_lanes::<Cov>(
            &edge.hist,
            &edge.totals,
            0..edge.totals.len(),
            &cand,
            labels.client_total(client) as f64,
            |_, cov| covs.push(cov),
        );
        covs
    }
}

/// The non-empty groups homed on one edge, as slots in ascending group
/// index, and the edge's share of a placement batch.
#[derive(Debug, Clone, Default)]
struct EdgeGroups {
    /// Slot → group index; [`NONE`] for a group this edge's pass opened and
    /// the merge has yet to number.
    groups: Vec<u32>,
    /// `hist[j][slot]`: the slot's samples of label `j`.
    hist: Vec<Vec<f64>>,
    /// Slot → its total sample count.
    totals: Vec<f64>,
    /// Slot → `Σ_j hist[j][slot]²`, summed in label order.
    squares: Vec<f64>,
    /// Scratch for [`Index::place`]: this edge's clients in the batch, in
    /// batch order …
    clients: Vec<usize>,
    /// … the slot each landed in …
    landed: Vec<u32>,
    /// … and how many of those the merge has read.
    merged: usize,
    /// Scratch: the candidate's label counts, one per label …
    cand: Vec<f64>,
    /// … its non-zero ones as `(label, count)` …
    nonzero: Vec<(usize, f64)>,
    /// … and each slot's key for it.
    keys: Vec<f64>,
    /// The key screen over this edge's slots.
    screen: Screen,
}

impl EdgeGroups {
    /// Appends group `gi`, whose histogram is `row`, as the last slot.
    fn push_slot(&mut self, gi: u32, row: &[u64]) -> u32 {
        for (col, &h) in self.hist.iter_mut().zip(row) {
            col.push(h as f64);
        }
        let total = row.iter().sum::<u64>() as f64;
        assert!(total <= MAX_EXACT_TOTAL, "group total {total} is not exact");
        self.totals.push(total);
        self.groups.push(gi);
        let slot = self.groups.len() - 1;
        self.squares.push(self.slot_squares(slot));
        slot as u32
    }

    /// `Σ_j hist[j][slot]²`, in label order: the same bits however the
    /// slot's counts were reached.
    fn slot_squares(&self, slot: usize) -> f64 {
        self.hist.iter().map(|col| col[slot] * col[slot]).sum()
    }

    /// Places this edge's clients, one after another.
    fn place(&mut self, labels: &LabelMatrix) {
        for i in 0..self.clients.len() {
            let client = self.clients[i];
            let slot = self.best(labels, client).unwrap_or_else(|| {
                for col in &mut self.hist {
                    col.push(0.0);
                }
                self.totals.push(0.0);
                self.squares.push(0.0);
                self.groups.push(NONE);
                self.groups.len() - 1
            });
            for (col, &c) in self.hist.iter_mut().zip(&self.cand) {
                col[slot] += c;
            }
            self.totals[slot] += labels.client_total(client) as f64;
            self.squares[slot] = self.slot_squares(slot);
            assert!(
                self.totals[slot] <= MAX_EXACT_TOTAL,
                "a group's total {} is not exact",
                self.totals[slot]
            );
            self.landed.push(slot as u32);
        }
    }

    /// The slot whose CoV with `client` added is lowest, the first strict
    /// minimum in slot order; loads the client's counts into `cand`. Every
    /// slot is keyed, a block of [`LANES`] at a time, and the screen scores
    /// only those near the smallest key.
    fn best(&mut self, labels: &LabelMatrix, client: usize) -> Option<usize> {
        self.nonzero.clear();
        for (j, (c, &r)) in self.cand.iter_mut().zip(labels.client(client)).enumerate() {
            *c = f64::from(r);
            if r != 0 {
                self.nonzero.push((j, *c));
            }
        }
        let total = labels.client_total(client) as f64;
        // Whole numbers the screen's exactness test covers (or it scores
        // every slot): the sum is exact in any order.
        let squares = self.nonzero.iter().map(|&(_, c)| c * c).sum();
        let newcomer = (self.nonzero.as_slice(), squares, total);
        // Each lane's largest union total, for the screen's exactness test.
        let mut top = [0.0f64; LANES];
        let slots = (
            self.hist.as_slice(),
            self.squares.as_slice(),
            self.totals.as_slice(),
        );
        self.keys.resize(self.totals.len(), 0.0);
        let mut blocks = self.keys.chunks_exact_mut(LANES);
        for (b, out) in (&mut blocks).enumerate() {
            let out: &mut [f64; LANES] = out.try_into().expect("a whole block");
            key_lanes(slots, b * LANES, newcomer, &mut top, out);
        }
        let tail = blocks.into_remainder();
        key_lanes(
            slots,
            self.totals.len() - tail.len(),
            newcomer,
            &mut top,
            tail,
        );
        let t_max = top.iter().fold(0.0, |a, &t| if t > a { t } else { a });
        let best = self.screen.best::<Cov>(
            &self.hist,
            &self.totals,
            0,
            &self.keys,
            &self.cand,
            total,
            t_max,
        );
        best.map(|(slot, _)| slot)
    }
}

/// One lane per slot: `out[k]` is the key of slot `lo + k` of `(hist,
/// squares, totals)` joined by a client of `(nonzero, squares, total)` —
/// its non-zero `(label, count)` pairs, `Σ c_j²` and its total —
/// `Cov::key(m·(S + 2·X + C) − T², T)` with the slot's `S = Σ h_j²`, the
/// cross term `X = Σ h_j·c_j` over the client's non-zero labels only, and
/// `T` the two totals summed; `top[k]`
/// keeps the largest such `T` lane `k` has seen. Every term is a whole
/// number, exact while the screen's test on `top` passes, so the order of
/// the sums changes no bit. The keys are formed in a local block and copied
/// out, so that the lanes vectorise.
#[inline(always)]
fn key_lanes(
    (hist, squares, totals): (&[Vec<f64>], &[f64], &[f64]),
    lo: usize,
    (nonzero, client_squares, client_total): (&[(usize, f64)], f64, f64),
    top: &mut [f64; LANES],
    out: &mut [f64],
) {
    let w = out.len();
    let m = hist.len() as f64;
    let mut cross = [0.0f64; LANES];
    for &(j, c) in nonzero {
        for (x, &h) in cross.iter_mut().zip(&hist[j][lo..lo + w]) {
            *x += h * c;
        }
    }
    let mut keys = [0.0f64; LANES];
    let slots = squares[lo..lo + w].iter().zip(&totals[lo..lo + w]);
    let lanes = keys.iter_mut().zip(top.iter_mut()).zip(&cross);
    for (((key, top), &x), (&s, &t)) in lanes.zip(slots) {
        let t = t + client_total;
        *top = if t > *top { t } else { *top };
        *key = Cov::key(m * (s + 2.0 * x + client_squares) - t * t, t);
    }
    out.copy_from_slice(&keys[..w]);
}

/// Drops the elements of `column` whose mark is set; one mark per element.
pub(super) fn retain_unmarked<T>(column: &mut Vec<T>, marks: &[bool]) {
    debug_assert_eq!(column.len(), marks.len());
    let mut marks = marks.iter();
    column.retain(|_| !marks.next().expect("one mark per element"));
}

/// Equality of everything derived (the scratch is not), floats by bit
/// pattern: what "the incremental index equals a rebuild" means.
#[cfg(test)]
impl PartialEq for Index {
    fn eq(&self, other: &Self) -> bool {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let same_edge = |a: &EdgeGroups, b: &EdgeGroups| {
            a.groups == b.groups
                && a.hist.len() == b.hist.len()
                && a.hist.iter().zip(&b.hist).all(|(a, b)| bits(a) == bits(b))
                && bits(&a.totals) == bits(&b.totals)
                && bits(&a.squares) == bits(&b.squares)
        };
        self.group_of == other.group_of
            && self.edge_of == other.edge_of
            && self.slot_of == other.slot_of
            && self.edges.len() == other.edges.len()
            && self
                .edges
                .iter()
                .zip(&other.edges)
                .all(|(a, b)| same_edge(a, b))
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
