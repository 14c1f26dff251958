//! The event clock ([`crate::driver::Clock::EventDriven`]): deterministic
//! quorum-or-deadline rounds over an event-driven cost ledger.
//!
//! The lockstep clock closes every round at a global barrier: the slowest
//! sampled client paces the whole fleet. This module replaces the barrier
//! with events on an **emulated clock** (never the wall clock, never an
//! RNG):
//!
//! * every client report, group-round close, and edge→cloud arrival is a
//!   timed event, priced by the same [`gfl_sim::cost`] / [`gfl_sim::comm`]
//!   models the ledger charges (Eq. 5);
//! * each **edge** closes group round `k` at the *first* of: a quorum of
//!   member reports (`quorum_fraction`), every deliverable report in, or
//!   `deadline_factor ×` the slowest *nominal* member's elapsed time.
//!   Late reports are cut as timed [`gfl_faults::FaultEvent::StragglerCut`]s;
//! * the **cloud** admits edge results as they arrive. Results landing
//!   after the cloud's own close are *stale*: dropped
//!   ([`StalenessPolicy::DropStale`]) or parked and folded into a later
//!   round with a staleness-decayed weight ([`StalenessPolicy::Weighted`]),
//!   after HierFAVG-style semi-async aggregation.
//!
//! # Determinism
//!
//! The clock adds two passes to the shared round skeleton
//! ([`crate::driver`]). The *timing pass* is pure
//! arithmetic over the cost/comm models and the fault oracle — it decides,
//! in emulated time, which reports miss which close, using
//! [`gfl_sim::EventQueue`] (ties broken by the stable `(round, group,
//! client)` id). The *compute pass* is the skeleton's own
//! client-granular parallel trainer, fed the precomputed cut sets. Neural
//! results therefore stay bit-identical across thread counts and across
//! checkpoint resume, and the degenerate limit — full quorum, disabled
//! deadlines, clean fault plan — reproduces the lockstep
//! [`crate::history::RunHistory`] bit for bit (asserted by
//! `tests/semi_async.rs`).
//!
//! Two knowing simplifications, both documented in `docs/ASYNC.md`: client
//! dropout (`dropout_prob`) drops the *payload*, not the timing — a
//! dropped client still counts toward the quorum clock; and under
//! [`crate::driver::Membership::SelfHealing`] a membership transition
//! resets in-flight edge state (busy map + parked stale uploads), since
//! both are keyed by group indices the transition invalidates, and group
//! health sees no quorum-miss signal (straggler cuts live on the emulated
//! clock, not the lockstep quorum gate).

use gfl_faults::{FaultEvent, FaultInjector, FaultPlan, FaultPolicy};
use gfl_nn::Params;
use gfl_obs::TraceCollector;
use gfl_sim::{CostLedger, EventId, EventQueue, RetryOutcome};
use gfl_tensor::Scalar;
use serde::{Deserialize, Serialize};

use crate::engine::{FaultState, GroupCuts, GroupOutcome, Trainer};
use crate::history::{Event, TimedEvent};

/// What the cloud does with an edge result that arrives after its round
/// already closed.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum StalenessPolicy {
    /// Discard it. Simple, biased toward fast edges.
    #[default]
    DropStale,
    /// Park it and fold it into the first round whose close covers the
    /// arrival, damping its aggregation weight by `(1 + s)^{-decay}`
    /// where `s` is the staleness in global rounds (HierFAVG-style).
    Weighted { decay: f64 },
}

/// Knobs of the semi-async runtime that have no lockstep counterpart.
/// Edge-level quorum and deadlines come from the attached
/// [`FaultPolicy`] (`quorum_fraction`, `deadline_factor`,
/// `backoff_base_s`, `max_backoff_s`); without [`Trainer::with_faults`]
/// the runtime defaults to the degenerate lockstep limit (full quorum,
/// no deadline) so plain runs stay bit-identical to the sync engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct AsyncConfig {
    /// Stale-arrival handling at the cloud.
    pub staleness: StalenessPolicy,
    /// The cloud closes its round at `cloud_deadline_factor ×` the slowest
    /// dispatched group's *nominal* duration after dispatch. `0.0` (or any
    /// non-positive / non-finite value) disables the deadline: the cloud
    /// waits for every dispatched result, and nothing ever goes stale.
    pub cloud_deadline_factor: f64,
}

impl AsyncConfig {
    fn cloud_deadline_enabled(&self) -> bool {
        self.cloud_deadline_factor > 0.0 && self.cloud_deadline_factor.is_finite()
    }
}

/// An edge result that arrived after its dispatch round closed, parked by
/// [`StalenessPolicy::Weighted`] until a later round's close covers it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PendingUpload {
    /// Global group index at dispatch time.
    pub group: usize,
    /// The round that dispatched (and already charged) this work.
    pub dispatch_round: usize,
    /// Absolute emulated arrival time at the cloud, seconds.
    pub arrival_s: f64,
    /// Group data volume `n_g` at dispatch time.
    pub samples: usize,
    /// Sampling probability of the group at dispatch time.
    pub prob: Scalar,
    /// Surviving uploads across the group's `K` rounds (0 ⇒ the result
    /// carries no update and cannot lift a held round).
    pub uploads: usize,
    /// Member client ids at dispatch time (for `end_global_round`).
    pub members: Vec<usize>,
    /// The trained group model.
    pub params: Params,
}

/// Persistent scheduler state of a semi-async run: everything the event
/// loop needs beyond `(params, ledger, history)` to resume bit-identically
/// from a checkpoint, and the emulated-time report of every round so far.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SchedulerState {
    /// The emulated clock, seconds: the close time of the last round.
    pub clock_s: f64,
    /// Sparse `group → busy-until` map: an edge is busy from dispatch
    /// until its upload lands (or its loss is known).
    pub busy: Vec<(usize, f64)>,
    /// Stale results awaiting admission under [`StalenessPolicy::Weighted`].
    pub pending: Vec<PendingUpload>,
    /// One report row per round run on the event clock.
    pub rounds: Vec<AsyncRoundRecord>,
}

impl SchedulerState {
    fn busy_until(&self, group: usize) -> f64 {
        self.busy
            .iter()
            .find(|&&(g, _)| g == group)
            .map_or(0.0, |&(_, until)| until)
    }

    fn set_busy(&mut self, group: usize, until_s: f64) {
        match self.busy.iter_mut().find(|(g, _)| *g == group) {
            Some(entry) => entry.1 = until_s,
            None => self.busy.push((group, until_s)),
        }
    }

    /// Total member reports cut across the run.
    pub fn total_cut_reports(&self) -> usize {
        self.rounds.iter().map(|r| r.cut_reports).sum()
    }

    /// CSV rows (`round,clock_s,trained,admitted,stale_admitted,
    /// stale_dropped,busy_skipped,cut_reports`) with a header.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "round,clock_s,trained,admitted,stale_admitted,stale_dropped,busy_skipped,cut_reports\n",
        );
        for r in &self.rounds {
            out.push_str(&format!(
                "{},{:.4},{},{},{},{},{},{}\n",
                r.round,
                r.clock_s,
                r.trained,
                r.admitted,
                r.stale_admitted,
                r.stale_dropped,
                r.busy_skipped,
                r.cut_reports
            ));
        }
        out
    }
}

/// Per-round emulated-clock accounting of a semi-async run. This is the
/// runtime's own report — deliberately *not* part of the
/// [`crate::history::RunHistory`], so the degenerate-limit bit-identity of
/// histories is never at stake.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct AsyncRoundRecord {
    /// Global round index `t`.
    pub round: usize,
    /// Absolute emulated close time of the round, seconds.
    pub clock_s: f64,
    /// Groups dispatched and trained this round.
    pub trained: usize,
    /// Fresh (on-time) results admitted at the close.
    pub admitted: usize,
    /// Parked stale results folded in this round (weighted policy).
    pub stale_admitted: usize,
    /// Stale results discarded this round (drop policy).
    pub stale_dropped: usize,
    /// Sampled groups skipped because their edge was still busy.
    pub busy_skipped: usize,
    /// Member reports cut at group-round closes this round.
    pub cut_reports: usize,
}

/// One group's fully-resolved round in the time domain: when each of its
/// `K` group rounds closed, who got cut, and when (or whether) the final
/// upload reached the cloud.
struct GroupTimeline {
    /// Per-`k` straggler cuts, ready for the compute pass.
    cuts: GroupCuts,
    /// Per-`k` `(close_s_rel, reported, cut)` — close time relative to
    /// the group's dispatch.
    closes: Vec<(f64, usize, usize)>,
    /// Edge→cloud retry accounting of the final upload.
    upload: RetryOutcome,
    /// Seconds from dispatch until the upload lands at the cloud — or,
    /// for a lost upload, until the loss is known.
    arrival_rel_s: f64,
    /// Nominal (fault-free) duration estimate, for the cloud deadline.
    nominal_rel_s: f64,
}

impl Trainer {
    /// The timing models of an event-clock run without
    /// [`Trainer::with_faults`]: the degenerate lockstep limit (wait for
    /// every report, never cut, never reject), so a plain event-clock run
    /// stays bit-identical to the lockstep one.
    pub(crate) fn lockstep_limit(&self) -> FaultState {
        FaultState {
            injector: FaultInjector::new(FaultPlan::none()),
            policy: FaultPolicy {
                quorum_fraction: 1.0,
                deadline_factor: 0.0,
                reject_non_finite: false,
                ..FaultPolicy::default()
            },
            edge_of_client: Vec::new(),
        }
    }

    /// Resolves one dispatched group in the time domain. Pure arithmetic:
    /// nothing here consumes an RNG stream or touches model state.
    fn group_timeline(
        &self,
        tc: &FaultState,
        t: usize,
        gi: usize,
        members: &[usize],
        param_len: usize,
    ) -> GroupTimeline {
        let cfg = &self.config;
        let m = members.len();
        let transfer = self.transfer_s(param_len);
        let nominal_slowest = self.nominal_slowest(members, transfer);
        let deadline_rel =
            if tc.policy.deadline_factor > 0.0 && tc.policy.deadline_factor.is_finite() {
                tc.policy.deadline_factor * nominal_slowest
            } else {
                f64::INFINITY
            };
        let required = ((tc.policy.quorum_fraction * m as f64).ceil() as usize).clamp(1, m);

        let mut cuts = GroupCuts {
            by_round: Vec::with_capacity(cfg.group_rounds),
        };
        let mut closes = Vec::with_capacity(cfg.group_rounds);
        let mut start = 0.0f64;
        for k in 0..cfg.group_rounds {
            // Every member's report (or crash-detection) time this `k`.
            let reports: Vec<(f64, f64, bool)> = members
                .iter()
                .map(|&c| {
                    let slowdown = tc.injector.slowdown(t, k, c);
                    let elapsed = self.report_s(c, slowdown, transfer);
                    (start + elapsed, slowdown, tc.injector.crashes(t, k, c))
                })
                .collect();
            let deadline_abs = start + deadline_rel;
            let mut q = EventQueue::new();
            for (mi, (&c, &(time, _, _))) in members.iter().zip(reports.iter()).enumerate() {
                q.push(time, EventId::new(t, gi, c), mi);
            }
            // Walk the queue to the close: the first of quorum filled,
            // every report accounted for, or the deadline.
            let mut close = deadline_abs;
            let mut delivered = 0usize;
            let mut seen = 0usize;
            while let Some(ev) = q.pop() {
                if ev.time > deadline_abs {
                    break; // deadline fires before this report lands
                }
                seen += 1;
                if !reports[ev.payload].2 {
                    delivered += 1;
                }
                if delivered >= required {
                    // Reports landing at the exact close instant still
                    // make it: the cut rule below is strictly `> close`.
                    close = ev.time;
                    break;
                }
                if seen == m {
                    close = ev.time; // all deliverable reports accounted
                    break;
                }
            }
            let cut_k: Vec<(usize, f64)> = reports
                .iter()
                .enumerate()
                .filter(|(_, &(time, _, crashed))| !crashed && time > close)
                .map(|(mi, &(_, slowdown, _))| (mi, slowdown))
                .collect();
            let reported = reports
                .iter()
                .filter(|&&(time, _, crashed)| !crashed && time <= close)
                .count();
            closes.push((close, reported, cut_k.len()));
            cuts.by_round.push(cut_k);
            start = close;
        }

        let failures = tc.injector.upload_failures(t, gi, tc.policy.max_retries);
        let payload = self.comm.group_cloud_bytes(param_len);
        let upload = self.comm.upload_with_retries(
            payload,
            failures,
            tc.policy.max_retries,
            tc.policy.backoff_base_s,
            tc.policy.max_backoff_s,
        );
        let arrival_rel_s = start + upload.seconds;
        let nominal_rel_s =
            cfg.group_rounds as f64 * nominal_slowest + self.comm.edge_cloud.transfer_time(payload);
        GroupTimeline {
            cuts,
            closes,
            upload,
            arrival_rel_s,
            nominal_rel_s,
        }
    }
}

/// The event clock's side of one global round: the timing pass before
/// training, then arrival resolution, the cloud close and staleness
/// admission after it. Built by the round skeleton
/// ([`crate::driver`]), which owns everything around these calls.
pub(crate) struct EventRound<'a> {
    acfg: AsyncConfig,
    /// The fault oracle and policy the timing pass decides by.
    tc: &'a FaultState,
    sched: &'a mut SchedulerState,
    /// Emulated dispatch time: the close of the previous round.
    dispatch: f64,
    /// One per dispatched group, aligned with the round's outcomes.
    timelines: Vec<GroupTimeline>,
    /// The precomputed straggler cuts for the compute pass.
    pub(crate) cuts: Vec<GroupCuts>,
    /// Arrival time of every result that landed, aligned with `admitted`.
    arrivals: Vec<f64>,
    /// Outcomes whose arrival has been resolved so far.
    resolved: usize,
    /// When the last dispatched upload resolves (lands or is known lost).
    expected_end: f64,
    /// This round's report row, filled in as the round unfolds.
    record: AsyncRoundRecord,
}

impl<'a> EventRound<'a> {
    pub(crate) fn new(
        (acfg, tc): (AsyncConfig, &'a FaultState),
        sched: &'a mut SchedulerState,
        t: usize,
    ) -> Self {
        let dispatch = sched.clock_s;
        Self {
            acfg,
            tc,
            sched,
            dispatch,
            timelines: Vec::new(),
            cuts: Vec::new(),
            arrivals: Vec::new(),
            resolved: 0,
            expected_end: dispatch,
            record: AsyncRoundRecord {
                round: t,
                clock_s: dispatch,
                ..AsyncRoundRecord::default()
            },
        }
    }

    /// Drops sampled groups whose edge is still busy, then runs the timing
    /// pass: every remaining group is resolved in emulated time.
    pub(crate) fn dispatch(
        &mut self,
        trainer: &Trainer,
        active: &mut Vec<(usize, &[usize])>,
        param_len: usize,
        events: &mut Vec<Event>,
    ) {
        let round = self.record.round;
        active.retain(|&(group, _)| {
            let busy_until_s = self.sched.busy_until(group);
            if busy_until_s > self.dispatch {
                events.push(Event::Timed(TimedEvent::GroupBusySkipped {
                    round,
                    group,
                    busy_until_s,
                }));
                self.record.busy_skipped += 1;
            }
            busy_until_s <= self.dispatch
        });
        self.record.trained = active.len();
        for &(group, members) in active.iter() {
            let mut tl = trainer.group_timeline(self.tc, round, group, members, param_len);
            for (group_round, &(close_rel, reported, cut)) in tl.closes.iter().enumerate() {
                if cut > 0 {
                    self.record.cut_reports += cut;
                    events.push(Event::Timed(TimedEvent::GroupRoundClosed {
                        round,
                        group,
                        group_round,
                        close_s: self.dispatch + close_rel,
                        reported,
                        cut,
                    }));
                }
            }
            self.cuts.push(std::mem::take(&mut tl.cuts));
            self.timelines.push(tl);
        }
    }

    /// Arrival resolution for the next outcome (call once per outcome, in
    /// order): corrupt results are rejected, lost uploads never land,
    /// everything else gets an arrival time and returns `true`. The edge
    /// stays busy until its upload resolves either way.
    pub(crate) fn resolve_arrival(
        &mut self,
        o: &GroupOutcome,
        ledger: &mut CostLedger,
        events: &mut Vec<Event>,
    ) -> bool {
        let (round, group) = (self.record.round, o.group);
        let tl = &self.timelines[self.resolved];
        let (upload, resolved) = (tl.upload, self.dispatch + tl.arrival_rel_s);
        self.resolved += 1;
        // The upload put bytes on the edge↔cloud wire no matter how it
        // resolves — rejected and lost results still transmitted.
        ledger.charge_edge_cloud_bytes(upload.bytes);
        self.sched.set_busy(group, resolved);
        self.expected_end = self.expected_end.max(resolved);
        if self.tc.policy.reject_non_finite && !gfl_defense::is_update_finite(&o.params) {
            events.push(Event::Fault(FaultEvent::CorruptGroupRejected {
                round,
                group,
            }));
            return false;
        }
        if upload.attempts > 1 {
            events.push(Event::Fault(FaultEvent::UploadRetry {
                round,
                group,
                attempts: upload.attempts,
                extra_seconds: upload.seconds,
                extra_bytes: upload.bytes,
            }));
        }
        if !upload.delivered {
            events.push(Event::Fault(FaultEvent::UploadLost { round, group }));
            return false;
        }
        self.arrivals.push(resolved);
        true
    }

    /// The cloud's close time: wait for every dispatched result, unless
    /// its own deadline (scaled off the slowest *nominal* group) fires
    /// first and strands the rest as stale. If nothing was dispatched —
    /// every sampled group busy, dark or empty, or nobody reachable — the
    /// cloud sleeps to the next upload resolution instead of freezing the
    /// emulated clock, so parked stale results can still mature.
    fn close_time(&self) -> f64 {
        if self.timelines.is_empty() {
            let next = self
                .sched
                .busy
                .iter()
                .map(|&(_, until)| until)
                .filter(|&until| until > self.dispatch)
                .fold(f64::INFINITY, f64::min);
            if next.is_finite() {
                return next;
            }
        }
        let acfg = &self.acfg;
        if !acfg.cloud_deadline_enabled() {
            return self.expected_end;
        }
        let nominal = self
            .timelines
            .iter()
            .map(|tl| tl.nominal_rel_s)
            .fold(0.0f64, f64::max);
        self.expected_end
            .min(self.dispatch + acfg.cloud_deadline_factor * nominal)
    }

    /// Closes the cloud round. `admitted` (the results that landed, in
    /// sampled order) keeps the fresh ones; late ones are dropped or
    /// parked per the staleness policy. Returns the parked results of
    /// earlier rounds that this close covers, in parking order — both
    /// orders deterministic.
    pub(crate) fn cloud_close(
        &mut self,
        probs: &[Scalar],
        admitted: &mut Vec<&GroupOutcome>,
        events: &mut Vec<Event>,
    ) -> Vec<PendingUpload> {
        let t = self.record.round;
        let close = self.close_time();
        let landed = admitted.len();
        let mut arrivals = std::mem::take(&mut self.arrivals).into_iter();
        admitted.retain(|o| {
            let arrival = arrivals.next().expect("one arrival per landed result");
            if arrival <= close {
                return true;
            }
            match self.acfg.staleness {
                StalenessPolicy::DropStale => {
                    self.record.stale_dropped += 1;
                    events.push(Event::Timed(TimedEvent::StaleArrival {
                        round: t,
                        group: o.group,
                        dispatch_round: t,
                        arrival_s: arrival,
                        admitted: false,
                    }));
                }
                StalenessPolicy::Weighted { .. } => self.sched.pending.push(PendingUpload {
                    group: o.group,
                    dispatch_round: t,
                    arrival_s: arrival,
                    samples: o.samples,
                    prob: probs[o.group],
                    uploads: o.uploads,
                    members: o.members.clone(),
                    params: o.params.clone(),
                }),
            }
            false
        });
        let late = landed - admitted.len();
        if late > 0 {
            events.push(Event::Timed(TimedEvent::CloudRoundClosed {
                round: t,
                close_s: close,
                admitted: admitted.len(),
                late,
            }));
        }
        let (matured, parked): (Vec<_>, Vec<_>) = std::mem::take(&mut self.sched.pending)
            .into_iter()
            .partition(|p| p.arrival_s <= close && p.dispatch_round < t);
        self.sched.pending = parked;
        for p in &matured {
            events.push(Event::Timed(TimedEvent::StaleArrival {
                round: t,
                group: p.group,
                dispatch_round: p.dispatch_round,
                arrival_s: p.arrival_s,
                admitted: true,
            }));
        }
        self.record.clock_s = close;
        self.record.admitted = admitted.len();
        self.record.stale_admitted = matured.len();
        matured
    }

    /// Line 15, event-clock flavor: damps the trailing `matured` weights
    /// by `(1 + s)^{-decay}` (`s` = staleness in global rounds), then
    /// rescales so the total mass `aggregation_weights` assigned is
    /// preserved — the update never shrinks toward zero.
    pub(crate) fn damp_stale(&self, weights: &mut [Scalar], matured: &[PendingUpload]) {
        let StalenessPolicy::Weighted { decay } = self.acfg.staleness else {
            return;
        };
        if matured.is_empty() {
            return;
        }
        let before: Scalar = weights.iter().sum();
        let fresh = weights.len() - matured.len();
        for (w, p) in weights[fresh..].iter_mut().zip(matured) {
            let staleness = (self.record.round - p.dispatch_round) as f64;
            *w *= (1.0 + staleness).powf(-decay) as Scalar;
        }
        let after: Scalar = weights.iter().sum();
        if after > 0.0 {
            let scale = before / after;
            for w in weights.iter_mut() {
                *w *= scale;
            }
        }
    }

    /// Advances the emulated clock to the close — the next round
    /// dispatches from there — and reports the round.
    pub(crate) fn finish(self, obs: Option<&TraceCollector>) {
        let r = self.record;
        self.sched.clock_s = r.clock_s;
        self.sched.rounds.push(r);
        if let Some(ob) = obs {
            // Event-clock telemetry only exists on event-clock runs, so
            // lockstep traces stay byte-identical to pre-async ones.
            let m = ob.metrics();
            m.gauge("async.clock_s").set(r.clock_s);
            m.counter("async.cut_reports").add(r.cut_reports as u64);
            m.counter("async.busy_skips").add(r.busy_skipped as u64);
            m.counter("async.stale.admitted")
                .add(r.stale_admitted as u64);
            m.counter("async.stale.dropped").add(r.stale_dropped as u64);
        }
    }
}
