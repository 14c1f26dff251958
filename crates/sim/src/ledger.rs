//! Accumulates the total learning cost of Eq. 5 over a training run.
//!
//! `O = Σ_t Σ_{g∈S_t} K · Σ_{c_i∈g} (O_g(|g|) + E·H_i(n_i))`
//!
//! The trainer charges the ledger once per *(global round, group)*; the
//! ledger applies the `K` group-round multiplier and keeps a
//! training-vs-group-ops breakdown so experiments can report where the
//! budget went (the paper's Fig. 2(a) motivation).

use serde::{Deserialize, Serialize};

use crate::cost::{CostModel, GroupOpKind};

/// Where the emulated seconds went.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct CostBreakdown {
    /// Local-training seconds (`E·H_i` terms).
    pub training: f64,
    /// Group-operation seconds (`O_g` terms).
    pub group_ops: f64,
    /// Measured defense seconds (actual `gfl-defense` filter work, charged
    /// on top of the emulated `O_g` ops only when the filter really runs).
    pub defense: f64,
}

impl CostBreakdown {
    pub fn total(&self) -> f64 {
        self.training + self.group_ops + self.defense
    }
}

/// Running cost account for one training run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CostLedger {
    model: CostModel,
    /// Group operations performed in every group round.
    ops: Vec<GroupOpKind>,
    breakdown: CostBreakdown,
    /// Bytes moved on client↔edge links (model downloads plus client
    /// uploads within groups), from `CommModel::client_bytes_per_round`.
    client_edge_bytes: u64,
    /// Bytes moved on edge↔cloud links (group uploads including retry
    /// retransmissions, plus broadcast downloads).
    edge_cloud_bytes: u64,
}

impl CostLedger {
    /// Creates a ledger charging with `model`, performing `ops` once per
    /// group round.
    pub fn new(model: CostModel, ops: Vec<GroupOpKind>) -> Self {
        Self {
            model,
            ops,
            breakdown: CostBreakdown::default(),
            client_edge_bytes: 0,
            edge_cloud_bytes: 0,
        }
    }

    /// Charges one group's participation in one global round: `K` group
    /// rounds, each with `E` local epochs per client.
    pub fn charge_group(
        &mut self,
        client_samples: &[usize],
        group_rounds: usize,
        local_rounds: usize,
    ) {
        let g = client_samples.len();
        if g == 0 {
            return;
        }
        let per_client_ops: f64 = self.ops.iter().map(|&k| self.model.group_op(k, g)).sum();
        let ops_cost = group_rounds as f64 * g as f64 * per_client_ops;
        let train_cost: f64 = group_rounds as f64
            * local_rounds as f64
            * client_samples
                .iter()
                .map(|&n| self.model.training(n))
                .sum::<f64>();
        self.breakdown.group_ops += ops_cost;
        self.breakdown.training += train_cost;
    }

    /// Charges measured defense work (the `DefenseCost` counters the
    /// FLAME-style filter reports) at the model's calibrated rates, so
    /// running a real defense shows up in the emulated round time.
    pub fn charge_defense(&mut self, similarity_evals: u64, norm_passes: u64) {
        self.breakdown.defense += self.model.defense_seconds(similarity_evals, norm_passes);
    }

    /// Charges bytes moved on client↔edge links (in-group traffic).
    pub fn charge_client_edge_bytes(&mut self, bytes: u64) {
        self.client_edge_bytes += bytes;
    }

    /// Charges bytes moved on edge↔cloud links (group↔server traffic,
    /// including retransmissions of failed uploads).
    pub fn charge_edge_cloud_bytes(&mut self, bytes: u64) {
        self.edge_cloud_bytes += bytes;
    }

    /// Cumulative client↔edge bytes charged so far.
    pub fn client_edge_bytes(&self) -> u64 {
        self.client_edge_bytes
    }

    /// Cumulative edge↔cloud bytes charged so far.
    pub fn edge_cloud_bytes(&self) -> u64 {
        self.edge_cloud_bytes
    }

    /// Total emulated seconds so far.
    pub fn total(&self) -> f64 {
        self.breakdown.total()
    }

    /// The training/group-op split.
    pub fn breakdown(&self) -> CostBreakdown {
        self.breakdown
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::Task;

    #[test]
    fn charge_matches_eq5_manual_computation() {
        let model = CostModel::for_task(Task::Vision);
        let ops = vec![
            GroupOpKind::SecureAggregation,
            GroupOpKind::BackdoorDetection,
        ];
        let mut ledger = CostLedger::new(model, ops.clone());
        let samples = [10usize, 40];
        let (k, e) = (5usize, 2usize);
        ledger.charge_group(&samples, k, e);

        let og: f64 = ops.iter().map(|&o| model.group_op(o, 2)).sum();
        let want: f64 = k as f64
            * samples
                .iter()
                .map(|&n| og + e as f64 * model.training(n))
                .sum::<f64>();
        assert!((ledger.total() - want).abs() < 1e-9);
    }

    #[test]
    fn breakdown_sums_to_total() {
        let mut ledger = CostLedger::new(
            CostModel::for_task(Task::Speech),
            vec![GroupOpKind::SecureAggregation],
        );
        ledger.charge_group(&[5, 6, 7], 3, 2);
        ledger.charge_group(&[20], 3, 2);
        let b = ledger.breakdown();
        assert!((b.total() - ledger.total()).abs() < 1e-12);
        assert!(b.training > 0.0 && b.group_ops > 0.0);
    }

    #[test]
    fn round_totals_are_nondecreasing() {
        let mut ledger = CostLedger::new(
            CostModel::for_task(Task::Vision),
            vec![GroupOpKind::SecureAggregation],
        );
        let totals: Vec<f64> = (0..5)
            .map(|r| {
                ledger.charge_group(&[10 + r, 20], 2, 1);
                ledger.total()
            })
            .collect();
        for w in totals.windows(2) {
            assert!(w[1] >= w[0]);
        }
    }

    #[test]
    fn defense_work_is_charged_and_shows_in_the_total() {
        let model = CostModel::for_task(Task::Vision);
        let mut ledger = CostLedger::new(model, vec![GroupOpKind::BackdoorDetection]);
        ledger.charge_group(&[10, 20, 30], 2, 1);
        let before = ledger.total();
        // A real 16-client filter pass: 16·15/2 pairwise sims, 2·16 norms.
        ledger.charge_defense(120, 32);
        let charged = ledger.total() - before;
        assert!((charged - model.defense_seconds(120, 32)).abs() < 1e-12);
        assert!(charged > 0.0);
        assert!((ledger.breakdown().defense - charged).abs() < 1e-12);
        // Vision defense work must stay costlier than Speech, like O_g.
        assert!(
            CostModel::for_task(Task::Vision).defense_seconds(120, 32)
                > CostModel::for_task(Task::Speech).defense_seconds(120, 32)
        );
    }

    #[test]
    fn byte_charges_accumulate_per_link_and_do_not_move_the_cost_total() {
        let mut ledger = CostLedger::new(
            CostModel::for_task(Task::Vision),
            vec![GroupOpKind::SecureAggregation],
        );
        ledger.charge_group(&[10, 20], 2, 1);
        let total_before = ledger.total();
        ledger.charge_client_edge_bytes(4_096);
        ledger.charge_client_edge_bytes(1_024);
        ledger.charge_edge_cloud_bytes(512);
        assert_eq!(ledger.client_edge_bytes(), 5_120);
        assert_eq!(ledger.edge_cloud_bytes(), 512);
        // Byte accounting is bookkeeping, not emulated time: Eq. 5 cost is
        // untouched.
        assert_eq!(ledger.total(), total_before);
    }

    #[test]
    fn empty_group_charges_nothing() {
        let mut ledger = CostLedger::new(CostModel::for_task(Task::Vision), vec![]);
        ledger.charge_group(&[], 5, 5);
        assert_eq!(ledger.total(), 0.0);
    }

    #[test]
    fn larger_groups_pay_superlinear_group_ops() {
        let model = CostModel::for_task(Task::Vision);
        let cost_for = |g: usize| {
            let mut ledger = CostLedger::new(model, vec![GroupOpKind::SecureAggregation]);
            ledger.charge_group(&vec![10; g], 1, 0);
            ledger.breakdown().group_ops
        };
        let c5 = cost_for(5);
        let c20 = cost_for(20);
        // 4× the clients but far more than 4× the group-op cost.
        assert!(c20 > 8.0 * c5, "c5={c5} c20={c20}");
    }
}
