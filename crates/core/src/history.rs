//! Training-run telemetry: the accuracy-vs-round and accuracy-vs-cost
//! trajectories that every figure in §7 plots, plus the structured fault
//! log a degraded run leaves behind (who was cut, which groups were
//! skipped, what was retried or rejected).

use gfl_faults::{
    summarize, summarize_attacks, AttackEvent, AttackSummary, FaultEvent, FaultSummary,
};
use gfl_tensor::Scalar;
use serde::{Deserialize, Serialize};

use crate::membership::{summarize_regroups, RegroupEvent, RegroupSummary};

/// One attack-success-rate measurement, taken at the same cadence as the
/// accuracy evaluations of an adversarial run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AsrRecord {
    /// Global round index `t` (0-based, recorded after the round).
    pub round: usize,
    /// Fraction of the held-out *trigger set* (non-target test samples
    /// stamped with the backdoor trigger) the global model classifies as
    /// the attacker's target label. `None` when no backdoor campaign runs.
    pub trigger_asr: Option<Scalar>,
    /// Fraction of the held-out *flip set* (test samples whose true label
    /// is the flip source) the model classifies as the flip target.
    /// `None` when no label-flip campaign runs.
    pub flip_asr: Option<Scalar>,
}

/// One emulated-clock incident of a semi-async run. Only *incidents* are
/// logged — quorum closes that cut nobody, on-time arrivals, and idle
/// edges leave no record — so a semi-async run in the degenerate lockstep
/// limit (full quorum, no deadline, clean plan) produces a history
/// bit-identical to the synchronous engine's.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TimedEvent {
    /// A group round closed (quorum filled or deadline fired) with at
    /// least one member's report still outstanding; the stragglers were
    /// cut as [`FaultEvent::StragglerCut`]s.
    GroupRoundClosed {
        round: usize,
        group: usize,
        group_round: usize,
        /// Absolute emulated close time, seconds.
        close_s: f64,
        /// Reports that made the close.
        reported: usize,
        /// Members cut at the close.
        cut: usize,
    },
    /// An edge upload reached the cloud after its dispatch round had
    /// already closed. `admitted` is `true` when the staleness policy
    /// weighted it into a later round (recorded at that round), `false`
    /// when drop-stale discarded it (recorded at the dispatch round).
    StaleArrival {
        round: usize,
        group: usize,
        dispatch_round: usize,
        /// Absolute emulated arrival time, seconds.
        arrival_s: f64,
        admitted: bool,
    },
    /// A sampled group sat the round out because its edge was still
    /// working on (or uploading) an earlier round's result.
    GroupBusySkipped {
        round: usize,
        group: usize,
        /// Absolute emulated time the edge frees up, seconds.
        busy_until_s: f64,
    },
    /// The cloud's own deadline closed the round before every dispatched
    /// group had reported back; `late` results became stale arrivals.
    CloudRoundClosed {
        round: usize,
        /// Absolute emulated close time, seconds.
        close_s: f64,
        /// Results admitted at the close.
        admitted: usize,
        /// Dispatched results still in flight at the close.
        late: usize,
    },
}

impl TimedEvent {
    /// The global round the event was recorded at.
    pub fn round(&self) -> usize {
        match *self {
            TimedEvent::GroupRoundClosed { round, .. }
            | TimedEvent::StaleArrival { round, .. }
            | TimedEvent::GroupBusySkipped { round, .. }
            | TimedEvent::CloudRoundClosed { round, .. } => round,
        }
    }
}

/// One evaluated point of a training run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RoundRecord {
    /// Global round index `t` (0-based, recorded after the round).
    pub round: usize,
    /// Cumulative emulated cost (Eq. 5) at this point.
    pub cost: f64,
    /// Global-model test accuracy.
    pub accuracy: Scalar,
    /// Global-model test loss.
    pub loss: Scalar,
    /// Mean local training loss over this round's participants.
    pub train_loss: Scalar,
}

/// The full trajectory of one run: evaluation records plus the per-round
/// fault log (empty for clean runs). Both are serialized through
/// checkpoints, so a resumed session carries its complete audit trail.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RunHistory {
    records: Vec<RoundRecord>,
    faults: Vec<FaultEvent>,
    /// Membership transitions of a self-healing run. `Option` (rather
    /// than a bare `Vec`) so pre-churn serialized histories, which lack
    /// the field entirely, still deserialize; static runs leave it `None`.
    regroups: Option<Vec<RegroupEvent>>,
    /// Attack log of an adversarial run (injections and defense filters).
    /// `Option` for the same legacy-tolerance reason as `regroups`; clean
    /// runs leave it `None`.
    attacks: Option<Vec<AttackEvent>>,
    /// Attack-success-rate trajectory, one entry per evaluation round of
    /// an adversarial run. `None` for clean runs.
    asr: Option<Vec<AsrRecord>>,
    /// Emulated-clock incident log of a semi-async run. `Option` for the
    /// same legacy-tolerance reason as `regroups`; synchronous runs — and
    /// semi-async runs in the degenerate lockstep limit — leave it `None`.
    timed: Option<Vec<TimedEvent>>,
}

impl RunHistory {
    pub fn push(&mut self, r: RoundRecord) {
        self.records.push(r);
    }

    /// Pre-reserves capacity for `n` upcoming round records so a run's
    /// steady-state rounds never pay an amortized regrow inside
    /// the round driver (the alloc-budget gate counts those).
    pub fn reserve_rounds(&mut self, n: usize) {
        self.records.reserve(n);
    }

    pub fn records(&self) -> &[RoundRecord] {
        &self.records
    }

    /// Appends one fault event to the log.
    pub fn record_fault(&mut self, e: FaultEvent) {
        self.faults.push(e);
    }

    /// Appends a batch of fault events (one round's worth, in order).
    pub fn record_faults(&mut self, events: impl IntoIterator<Item = FaultEvent>) {
        self.faults.extend(events);
    }

    /// The full fault log, in injection order.
    pub fn fault_events(&self) -> &[FaultEvent] {
        &self.faults
    }

    /// Event counts by kind.
    pub fn fault_summary(&self) -> FaultSummary {
        summarize(&self.faults)
    }

    /// Fault events of one global round.
    pub fn faults_in_round(&self, round: usize) -> impl Iterator<Item = &FaultEvent> {
        self.faults.iter().filter(move |e| e.round() == round)
    }

    /// Appends a batch of membership/regroup events (one round's worth).
    /// An empty batch is a no-op, so clean self-healing runs stay equal
    /// (`PartialEq`) to static runs of the same trajectory.
    pub fn record_regroups(&mut self, events: impl IntoIterator<Item = RegroupEvent>) {
        let mut it = events.into_iter().peekable();
        if it.peek().is_some() {
            self.regroups.get_or_insert_with(Vec::new).extend(it);
        }
    }

    /// The full membership-transition log, in order.
    pub fn regroup_events(&self) -> &[RegroupEvent] {
        self.regroups.as_deref().unwrap_or(&[])
    }

    /// Membership-event counts by kind.
    pub fn regroup_summary(&self) -> RegroupSummary {
        summarize_regroups(self.regroup_events())
    }

    /// Membership events of one global round.
    pub fn regroups_in_round(&self, round: usize) -> impl Iterator<Item = &RegroupEvent> {
        self.regroup_events()
            .iter()
            .filter(move |e| e.round() == round)
    }

    /// Appends a batch of attack events (one round's worth, in order).
    /// An empty batch is a no-op, so clean runs stay equal (`PartialEq`)
    /// to runs with no adversary plan at all.
    pub fn record_attacks(&mut self, events: impl IntoIterator<Item = AttackEvent>) {
        let mut it = events.into_iter().peekable();
        if it.peek().is_some() {
            self.attacks.get_or_insert_with(Vec::new).extend(it);
        }
    }

    /// The full attack log, in injection order.
    pub fn attack_events(&self) -> &[AttackEvent] {
        self.attacks.as_deref().unwrap_or(&[])
    }

    /// Attack-event counts by kind.
    pub fn attack_summary(&self) -> AttackSummary {
        summarize_attacks(self.attack_events())
    }

    /// Attack events of one global round.
    pub fn attacks_in_round(&self, round: usize) -> impl Iterator<Item = &AttackEvent> {
        self.attack_events()
            .iter()
            .filter(move |e| e.round() == round)
    }

    /// Appends a batch of emulated-clock events (one round's worth, in
    /// order). An empty batch is a no-op, so a semi-async run that never
    /// cut, skipped, or dropped anything stays equal (`PartialEq`) to a
    /// synchronous run of the same trajectory.
    pub fn record_timed(&mut self, events: impl IntoIterator<Item = TimedEvent>) {
        let mut it = events.into_iter().peekable();
        if it.peek().is_some() {
            self.timed.get_or_insert_with(Vec::new).extend(it);
        }
    }

    /// The full emulated-clock incident log, in recording order.
    pub fn timed_events(&self) -> &[TimedEvent] {
        self.timed.as_deref().unwrap_or(&[])
    }

    /// Emulated-clock events of one global round.
    pub fn timed_in_round(&self, round: usize) -> impl Iterator<Item = &TimedEvent> {
        self.timed_events()
            .iter()
            .filter(move |e| e.round() == round)
    }

    /// Appends one attack-success-rate measurement. A record with neither
    /// rate present is dropped, so runs without an adversary stay equal
    /// (`PartialEq`) to clean runs.
    pub fn record_asr(&mut self, r: AsrRecord) {
        if r.trigger_asr.is_some() || r.flip_asr.is_some() {
            self.asr.get_or_insert_with(Vec::new).push(r);
        }
    }

    /// The attack-success-rate trajectory, in evaluation order.
    pub fn asr_records(&self) -> &[AsrRecord] {
        self.asr.as_deref().unwrap_or(&[])
    }

    /// The latest attack-success-rate measurement, if any.
    pub fn last_asr(&self) -> Option<&AsrRecord> {
        self.asr_records().last()
    }

    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The earliest evaluation record, if any round was evaluated. Prefer
    /// this over `records().first().unwrap()` — a zero-round or fully-held
    /// run produces an empty trajectory.
    pub fn first_record(&self) -> Option<&RoundRecord> {
        self.records.first()
    }

    /// The latest evaluation record, if any round was evaluated.
    pub fn last_record(&self) -> Option<&RoundRecord> {
        self.records.last()
    }

    /// Final accuracy (0.0 for an empty history).
    pub fn final_accuracy(&self) -> Scalar {
        self.records.last().map_or(0.0, |r| r.accuracy)
    }

    /// Best accuracy seen.
    pub fn best_accuracy(&self) -> Scalar {
        self.records
            .iter()
            .map(|r| r.accuracy)
            .fold(0.0, Scalar::max)
    }

    /// Highest accuracy achieved within a cost budget (Fig. 10/11's
    /// "accuracy by certain learning costs" metric).
    pub fn accuracy_within_cost(&self, budget: f64) -> Scalar {
        self.records
            .iter()
            .filter(|r| r.cost <= budget)
            .map(|r| r.accuracy)
            .fold(0.0, Scalar::max)
    }

    /// Cost needed to first reach `target` accuracy; `None` if never
    /// reached.
    pub fn cost_to_accuracy(&self, target: Scalar) -> Option<f64> {
        self.records
            .iter()
            .find(|r| r.accuracy >= target)
            .map(|r| r.cost)
    }

    /// Rounds needed to first reach `target` accuracy.
    pub fn rounds_to_accuracy(&self, target: Scalar) -> Option<usize> {
        self.records
            .iter()
            .find(|r| r.accuracy >= target)
            .map(|r| r.round)
    }

    /// CSV rows (`round,cost,accuracy,loss,train_loss`) with a header.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("round,cost,accuracy,loss,train_loss\n");
        for r in &self.records {
            out.push_str(&format!(
                "{},{:.4},{:.6},{:.6},{:.6}\n",
                r.round, r.cost, r.accuracy, r.loss, r.train_loss
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist() -> RunHistory {
        let mut h = RunHistory::default();
        for (i, (cost, acc)) in [(10.0, 0.2), (20.0, 0.5), (30.0, 0.45), (40.0, 0.6)]
            .iter()
            .enumerate()
        {
            h.push(RoundRecord {
                round: i,
                cost: *cost,
                accuracy: *acc,
                loss: 1.0 - acc,
                train_loss: 1.0,
            });
        }
        h
    }

    #[test]
    fn accessors() {
        let h = hist();
        assert_eq!(h.final_accuracy(), 0.6);
        assert_eq!(h.best_accuracy(), 0.6);
        assert_eq!(h.accuracy_within_cost(25.0), 0.5);
        assert_eq!(h.accuracy_within_cost(5.0), 0.0);
        assert_eq!(h.cost_to_accuracy(0.5), Some(20.0));
        assert_eq!(h.cost_to_accuracy(0.99), None);
        assert_eq!(h.rounds_to_accuracy(0.45), Some(1));
    }

    #[test]
    fn empty_history_is_safe() {
        let h = RunHistory::default();
        assert_eq!(h.final_accuracy(), 0.0);
        assert_eq!(h.best_accuracy(), 0.0);
        assert!(h.cost_to_accuracy(0.1).is_none());
        assert!(h.first_record().is_none());
        assert!(h.last_record().is_none());
    }

    #[test]
    fn first_and_last_record_bracket_the_trajectory() {
        let h = hist();
        assert_eq!(h.first_record().unwrap().round, 0);
        assert_eq!(h.last_record().unwrap().round, 3);
    }

    #[test]
    fn fault_log_accumulates_and_summarizes() {
        let mut h = hist();
        assert!(h.fault_events().is_empty());
        assert_eq!(h.fault_summary().total(), 0);
        h.record_fault(FaultEvent::RoundHeld { round: 1 });
        h.record_faults(vec![
            FaultEvent::ClientCrash {
                round: 2,
                group_round: 0,
                group: 1,
                client: 4,
            },
            FaultEvent::ClientCrash {
                round: 2,
                group_round: 1,
                group: 1,
                client: 5,
            },
        ]);
        assert_eq!(h.fault_events().len(), 3);
        let s = h.fault_summary();
        assert_eq!(s.rounds_held, 1);
        assert_eq!(s.crashes, 2);
        assert_eq!(h.faults_in_round(2).count(), 2);
        assert_eq!(h.faults_in_round(0).count(), 0);
    }

    #[test]
    fn regroup_log_accumulates_and_summarizes() {
        let mut h = hist();
        assert!(h.regroup_events().is_empty());
        assert_eq!(h.regroup_summary().total(), 0);
        h.record_regroups(vec![
            RegroupEvent::ClientDeparted {
                round: 1,
                client: 3,
                group: 0,
            },
            RegroupEvent::ClientMigrated {
                round: 2,
                client: 3,
                to_group: 1,
            },
        ]);
        assert_eq!(h.regroup_events().len(), 2);
        assert_eq!(h.regroup_summary().departures, 1);
        assert_eq!(h.regroups_in_round(2).count(), 1);
        // A pre-churn serialized history (no `regroups` field) still loads.
        let legacy = r#"{"records":[],"faults":[]}"#;
        let back: RunHistory = serde_json::from_str(legacy).unwrap();
        assert!(back.regroup_events().is_empty());
    }

    #[test]
    fn attack_log_and_asr_accumulate_and_summarize() {
        let mut h = hist();
        assert!(h.attack_events().is_empty());
        assert_eq!(h.attack_summary().injected(), 0);
        assert!(h.asr_records().is_empty());
        h.record_attacks(vec![
            AttackEvent::BackdoorInjected {
                round: 1,
                group_round: 0,
                group: 0,
                client: 2,
                rows: 7,
            },
            AttackEvent::UpdatePoisoned {
                round: 2,
                group_round: 1,
                group: 1,
                client: 9,
            },
        ]);
        // Empty batches and all-`None` ASR records must not materialize
        // the optional fields.
        h.record_attacks(Vec::new());
        h.record_asr(AsrRecord {
            round: 0,
            trigger_asr: None,
            flip_asr: None,
        });
        h.record_asr(AsrRecord {
            round: 2,
            trigger_asr: Some(0.8),
            flip_asr: None,
        });
        assert_eq!(h.attack_events().len(), 2);
        assert_eq!(h.attack_summary().backdoor, 1);
        assert_eq!(h.attack_summary().model_poison, 1);
        assert_eq!(h.attacks_in_round(2).count(), 1);
        assert_eq!(h.asr_records().len(), 1);
        assert_eq!(h.last_asr().unwrap().trigger_asr, Some(0.8));
        // A pre-adversary serialized history still loads.
        let legacy = r#"{"records":[],"faults":[]}"#;
        let back: RunHistory = serde_json::from_str(legacy).unwrap();
        assert!(back.attack_events().is_empty());
        assert!(back.asr_records().is_empty());
    }

    #[test]
    fn timed_log_accumulates_and_tolerates_legacy_json() {
        let mut h = hist();
        assert!(h.timed_events().is_empty());
        // An empty batch must not materialize the field: semi-async runs
        // in the lockstep limit stay equal to synchronous histories.
        h.record_timed(Vec::new());
        assert_eq!(h, hist());
        h.record_timed(vec![
            TimedEvent::GroupRoundClosed {
                round: 1,
                group: 0,
                group_round: 2,
                close_s: 14.5,
                reported: 3,
                cut: 1,
            },
            TimedEvent::StaleArrival {
                round: 2,
                group: 1,
                dispatch_round: 1,
                arrival_s: 30.0,
                admitted: true,
            },
        ]);
        assert_eq!(h.timed_events().len(), 2);
        assert_eq!(h.timed_in_round(2).count(), 1);
        assert_eq!(h.timed_events()[0].round(), 1);
        // A pre-semi-async serialized history still loads.
        let legacy = r#"{"records":[],"faults":[]}"#;
        let back: RunHistory = serde_json::from_str(legacy).unwrap();
        assert!(back.timed_events().is_empty());
    }

    #[test]
    fn clean_history_with_no_attacks_stays_equal_to_default_shape() {
        let mut h = RunHistory::default();
        h.record_attacks(Vec::new());
        h.record_asr(AsrRecord {
            round: 0,
            trigger_asr: None,
            flip_asr: None,
        });
        assert_eq!(h, RunHistory::default());
    }

    #[test]
    fn csv_has_header_and_rows() {
        let csv = hist().to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 5);
        assert!(lines[0].starts_with("round,cost"));
        assert!(lines[1].starts_with("0,10.0000,0.2"));
    }
}
