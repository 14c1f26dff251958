//! Training-run telemetry: the accuracy-vs-round and accuracy-vs-cost
//! trajectories that every figure in §7 plots, plus the one event log a
//! degraded run leaves behind — every fault, attack, membership transition
//! and emulated-clock incident, in the order the rounds produced them.

use gfl_faults::{AttackEvent, FaultEvent};
use gfl_tensor::Scalar;
use serde::{DeError, Deserialize, JsonWriter, Serialize, Value};

use crate::membership::RegroupEvent;

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

/// One incident of a run, at any level of the hierarchy: a client, group
/// or upload fault, an attack or its interception, a membership
/// transition, or an emulated-clock incident of the event clock.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    Fault(FaultEvent),
    Attack(AttackEvent),
    Regroup(RegroupEvent),
    Timed(TimedEvent),
}

impl Event {
    /// The global round the event belongs to.
    pub fn round(&self) -> usize {
        match self {
            Event::Fault(e) => e.round(),
            Event::Attack(e) => e.round(),
            Event::Regroup(e) => e.round(),
            Event::Timed(e) => e.round(),
        }
    }

    pub fn fault(&self) -> Option<&FaultEvent> {
        match self {
            Event::Fault(e) => Some(e),
            _ => None,
        }
    }

    pub fn attack(&self) -> Option<&AttackEvent> {
        match self {
            Event::Attack(e) => Some(e),
            _ => None,
        }
    }

    pub fn regroup(&self) -> Option<&RegroupEvent> {
        match self {
            Event::Regroup(e) => Some(e),
            _ => None,
        }
    }

    pub fn timed(&self) -> Option<&TimedEvent> {
        match self {
            Event::Timed(e) => Some(e),
            _ => None,
        }
    }
}

/// An event travels as its inner event, unwrapped (`{"RoundHeld": {..}}`):
/// the four kinds' variant names are disjoint, so the tag alone names the
/// kind.
impl Serialize for Event {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        self.inner().write_json(w)
    }
}

impl Event {
    /// The inner event, which is what travels.
    fn inner(&self) -> &dyn Serialize {
        match self {
            Event::Fault(e) => e,
            Event::Attack(e) => e,
            Event::Regroup(e) => e,
            Event::Timed(e) => e,
        }
    }
}

impl Deserialize for Event {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let tag = v
            .as_object()
            .and_then(|o| o.first())
            .map(|(tag, _)| tag.as_str());
        match tag {
            Some(
                "ClientCrash"
                | "StragglerCut"
                | "CorruptRejected"
                | "EdgeOutage"
                | "GroupSkipped"
                | "CorruptGroupRejected"
                | "UploadRetry"
                | "UploadLost"
                | "RoundHeld",
            ) => FaultEvent::from_value(v).map(Event::Fault),
            Some("BackdoorInjected" | "LabelsFlipped" | "UpdatePoisoned" | "AttackFiltered") => {
                AttackEvent::from_value(v).map(Event::Attack)
            }
            Some(
                "ClientDeparted" | "ClientArrived" | "GroupDissolved" | "ClientMigrated"
                | "PartitionReformed",
            ) => RegroupEvent::from_value(v).map(Event::Regroup),
            Some("GroupRoundClosed" | "StaleArrival" | "GroupBusySkipped" | "CloudRoundClosed") => {
                TimedEvent::from_value(v).map(Event::Timed)
            }
            _ => Err(DeError::custom(format!("no event kind matches {v:?}"))),
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
    /// Fraction of the held-out *trigger set* (non-target test samples
    /// stamped with the backdoor trigger) the global model classifies as
    /// the attacker's target label. `None` when no backdoor campaign runs.
    pub trigger_asr: Option<Scalar>,
    /// Fraction of the held-out *flip set* (test samples whose true label
    /// is the flip source) the model classifies as the flip target.
    /// `None` when no label-flip campaign runs.
    pub flip_asr: Option<Scalar>,
}

/// The full trajectory of one run: evaluation records plus the event log
/// (empty for clean runs). Both are serialized through checkpoints, so a
/// resumed session carries its complete audit trail.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RunHistory {
    records: Vec<RoundRecord>,
    /// Every event of round `t` is recorded during round `t`, in the order
    /// the round produced it, so the log is sorted by round.
    events: Vec<Event>,
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

    /// Appends events of the round being run, in the order it produced
    /// them.
    pub fn record(&mut self, events: impl IntoIterator<Item = Event>) {
        let from = self.events.len().saturating_sub(1);
        self.events.extend(events);
        debug_assert!(
            self.events[from..].is_sorted_by_key(Event::round),
            "events are recorded round by round"
        );
    }

    /// The whole event log, in round order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// The events of one global round, in the order it produced them.
    pub fn events_in_round(&self, round: usize) -> &[Event] {
        let from = self.events.partition_point(|e| e.round() < round);
        let to = self.events.partition_point(|e| e.round() <= round);
        &self.events[from..to]
    }

    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
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
                trigger_asr: None,
                flip_asr: None,
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
    }

    #[test]
    fn empty_history_is_safe() {
        let h = RunHistory::default();
        assert_eq!(h.final_accuracy(), 0.0);
        assert_eq!(h.best_accuracy(), 0.0);
        assert!(h.last_record().is_none());
    }

    #[test]
    fn first_and_last_record_bracket_the_trajectory() {
        let h = hist();
        assert_eq!(h.records().first().unwrap().round, 0);
        assert_eq!(h.last_record().unwrap().round, 3);
    }

    #[test]
    fn fault_log_accumulates_and_summarizes() {
        let mut h = hist();
        assert!(h.events().is_empty());
        h.record([Event::Fault(FaultEvent::RoundHeld { round: 1 })]);
        h.record(
            [
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
            ]
            .map(Event::Fault),
        );
        assert_eq!(h.events().len(), 3);
        let s = gfl_faults::summarize(h.events().iter().filter_map(Event::fault));
        assert_eq!(s.rounds_held, 1);
        assert_eq!(s.crashes, 2);
        assert_eq!(h.events_in_round(2).len(), 2);
        assert!(h.events_in_round(0).is_empty());
        assert!(h.events_in_round(3).is_empty());
    }

    #[test]
    fn regroup_log_accumulates_and_summarizes() {
        let mut h = hist();
        h.record([
            Event::Regroup(RegroupEvent::ClientDeparted {
                round: 1,
                client: 3,
                group: 0,
            }),
            Event::Fault(FaultEvent::RoundHeld { round: 1 }),
            Event::Regroup(RegroupEvent::ClientMigrated {
                round: 2,
                client: 3,
                to_group: 1,
            }),
        ]);
        let s = crate::membership::summarize_regroups(h.events().iter().filter_map(Event::regroup));
        assert_eq!((s.total(), s.departures), (2, 1));
        assert_eq!(h.events_in_round(1).len(), 2);
        assert!(
            h.events_in_round(1)[1].fault().is_some(),
            "recording order kept"
        );
        assert!(h.events_in_round(2)[0].regroup().is_some());
    }

    #[test]
    fn attack_log_and_asr_accumulate_and_summarize() {
        let mut h = hist();
        h.record(
            [
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
            ]
            .map(Event::Attack),
        );
        h.push(RoundRecord {
            round: 4,
            trigger_asr: Some(0.8),
            ..hist().records()[0]
        });
        let s = gfl_faults::summarize_attacks(h.events().iter().filter_map(Event::attack));
        assert_eq!((s.backdoor, s.model_poison, s.injected()), (1, 1, 2));
        assert_eq!(h.events_in_round(2).len(), 1);
        let last = h.last_record().unwrap();
        assert_eq!((last.trigger_asr, last.flip_asr), (Some(0.8), None));
    }

    #[test]
    fn timed_log_accumulates() {
        let mut h = hist();
        h.record(
            [
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
            ]
            .map(Event::Timed),
        );
        assert_eq!(h.events().iter().filter_map(Event::timed).count(), 2);
        assert_eq!(h.events_in_round(2).len(), 1);
        assert_eq!(h.events()[0].round(), 1);
    }

    #[test]
    fn clean_history_with_no_attacks_stays_equal_to_default_shape() {
        let mut h = RunHistory::default();
        h.record(Vec::new());
        assert_eq!(h, RunHistory::default());
        let json = serde_json::to_string(&h).unwrap();
        assert_eq!(json, r#"{"records":[],"events":[]}"#);
    }

    #[test]
    fn every_event_serializes_as_its_inner_event() {
        use crate::membership::DegradeReason;
        use gfl_faults::DefenseStage;
        let (round, group, client) = (3, 1, 7);
        let gr = 0;
        let events = [
            Event::Fault(FaultEvent::ClientCrash {
                round,
                group_round: gr,
                group,
                client,
            }),
            Event::Fault(FaultEvent::StragglerCut {
                round,
                group_round: gr,
                group,
                client,
                slowdown: 4.5,
            }),
            Event::Fault(FaultEvent::CorruptRejected {
                round,
                group_round: gr,
                group,
                client,
            }),
            Event::Fault(FaultEvent::EdgeOutage {
                round,
                edge: 0,
                group,
            }),
            Event::Fault(FaultEvent::GroupSkipped {
                round,
                group,
                survivors: 1,
                required: 2,
            }),
            Event::Fault(FaultEvent::CorruptGroupRejected { round, group }),
            Event::Fault(FaultEvent::UploadRetry {
                round,
                group,
                attempts: 2,
                extra_seconds: 0.25,
                extra_bytes: 64,
            }),
            Event::Fault(FaultEvent::UploadLost { round, group }),
            Event::Fault(FaultEvent::RoundHeld { round }),
            Event::Attack(AttackEvent::BackdoorInjected {
                round,
                group_round: gr,
                group,
                client,
                rows: 5,
            }),
            Event::Attack(AttackEvent::LabelsFlipped {
                round,
                group_round: gr,
                group,
                client,
                rows: 5,
            }),
            Event::Attack(AttackEvent::UpdatePoisoned {
                round,
                group_round: gr,
                group,
                client,
            }),
            Event::Attack(AttackEvent::AttackFiltered {
                round,
                group_round: gr,
                group,
                client,
                stage: DefenseStage::FlameFilter,
            }),
            Event::Regroup(RegroupEvent::ClientDeparted {
                round,
                client,
                group,
            }),
            Event::Regroup(RegroupEvent::ClientArrived {
                round,
                client,
                group: None,
            }),
            Event::Regroup(RegroupEvent::GroupDissolved {
                round,
                group,
                reason: DegradeReason::CovDrift,
                orphans: 2,
            }),
            Event::Regroup(RegroupEvent::ClientMigrated {
                round,
                client,
                to_group: group,
            }),
            Event::Regroup(RegroupEvent::PartitionReformed { round, groups: 4 }),
            Event::Timed(TimedEvent::GroupRoundClosed {
                round,
                group,
                group_round: gr,
                close_s: 1.5,
                reported: 2,
                cut: 1,
            }),
            Event::Timed(TimedEvent::StaleArrival {
                round,
                group,
                dispatch_round: 2,
                arrival_s: 2.5,
                admitted: false,
            }),
            Event::Timed(TimedEvent::GroupBusySkipped {
                round,
                group,
                busy_until_s: 3.5,
            }),
            Event::Timed(TimedEvent::CloudRoundClosed {
                round,
                close_s: 4.5,
                admitted: 1,
                late: 1,
            }),
        ];
        for e in &events {
            let inner = match e {
                Event::Fault(x) => serde_json::to_string(x),
                Event::Attack(x) => serde_json::to_string(x),
                Event::Regroup(x) => serde_json::to_string(x),
                Event::Timed(x) => serde_json::to_string(x),
            }
            .unwrap();
            assert_eq!(
                serde_json::to_string(e).unwrap(),
                inner,
                "no wrapper around {e:?}"
            );
            assert_eq!(serde_json::from_str::<Event>(&inner).unwrap(), *e);
            assert_eq!(e.round(), round);
        }
        let json = serde_json::to_string(&events.to_vec()).unwrap();
        let back: Vec<Event> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, events);
        assert!(serde_json::from_str::<Event>(r#"{"Meteor":{"round":1}}"#).is_err());
        assert!(serde_json::from_str::<Event>(r#"{"RoundHeld":{}}"#).is_err());
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
