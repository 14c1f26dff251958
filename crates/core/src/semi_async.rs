//! Deterministic semi-async runtime: quorum-or-deadline rounds over an
//! event-driven cost ledger.
//!
//! The lockstep engine ([`Trainer::run_resumable`]) closes every round at
//! a global barrier: the slowest sampled client paces the whole fleet.
//! This module replaces the barrier with events on an **emulated clock**
//! (never the wall clock, never an RNG):
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
//! The runtime is two passes per round. The *timing pass* is pure
//! arithmetic over the cost/comm models and the fault oracle — it decides,
//! in emulated time, which reports miss which close, using
//! [`gfl_sim::EventQueue`] (ties broken by the stable `(round, group,
//! client)` id). The *compute pass* is the lockstep engine's own
//! client-granular parallel trainer, fed the precomputed cut sets. Neural
//! results therefore stay bit-identical across thread counts and across
//! checkpoint resume, and the degenerate limit — full quorum, disabled
//! deadlines, clean fault plan — reproduces the lockstep [`RunHistory`]
//! bit for bit (asserted by `tests/semi_async.rs`).
//!
//! Two knowing simplifications, both documented in `docs/ASYNC.md`: client
//! dropout (`dropout_prob`) drops the *payload*, not the timing — a
//! dropped client still counts toward the quorum clock; and a membership
//! transition under [`Trainer::run_semi_async_self_healing`] resets
//! in-flight edge state (busy map + parked stale uploads), since both are
//! keyed by group indices the transition invalidates.

use gfl_faults::{ChurnPlan, FaultEvent, FaultInjector, FaultPlan, FaultPolicy};
use gfl_nn::Params;
use gfl_obs::{RoundMetrics, SpanAttrs, SpanKind};
use gfl_sim::{CommModel, CostLedger, CostModel, EventId, EventQueue, RetryOutcome, Topology};
use gfl_tensor::init;
use gfl_tensor::{ops, Scalar};
use serde::{Deserialize, Serialize};

use crate::cov::group_cov;
use crate::engine::{GroupCuts, GroupOutcome, Trainer};
use crate::grouping::{GroupingAlgorithm, PartitionError};
use crate::history::{AsrRecord, RoundRecord, RunHistory, TimedEvent};
use crate::local::LocalUpdate;
use crate::membership::{available_members, MembershipState, RegroupPolicy};
use crate::sampling::{aggregation_weights, sample_without_replacement, SamplingStrategy};
use crate::Group;

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
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AsyncConfig {
    /// Stale-arrival handling at the cloud.
    pub staleness: StalenessPolicy,
    /// The cloud closes its round at `cloud_deadline_factor ×` the slowest
    /// dispatched group's *nominal* duration after dispatch. `0.0` (or any
    /// non-positive / non-finite value) disables the deadline: the cloud
    /// waits for every dispatched result, and nothing ever goes stale.
    pub cloud_deadline_factor: f64,
}

impl Default for AsyncConfig {
    fn default() -> Self {
        Self {
            staleness: StalenessPolicy::DropStale,
            cloud_deadline_factor: 0.0,
        }
    }
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
/// from a checkpoint.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SchedulerState {
    /// The emulated clock, seconds: the close time of the last round.
    pub clock_s: f64,
    /// Sparse `group → busy-until` map: an edge is busy from dispatch
    /// until its upload lands (or its loss is known).
    pub busy: Vec<(usize, f64)>,
    /// Stale results awaiting admission under [`StalenessPolicy::Weighted`].
    pub pending: Vec<PendingUpload>,
}

impl SchedulerState {
    pub fn new() -> Self {
        Self::default()
    }

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
}

/// Per-round emulated-clock accounting of a semi-async run. This is the
/// runtime's own report — deliberately *not* part of [`RunHistory`], so
/// the degenerate-limit bit-identity of histories is never at stake.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
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

/// The emulated-time trajectory of a semi-async run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct AsyncReport {
    pub rounds: Vec<AsyncRoundRecord>,
}

impl AsyncReport {
    /// The emulated clock at the end of the run, seconds.
    pub fn final_clock_s(&self) -> f64 {
        self.rounds.last().map_or(0.0, |r| r.clock_s)
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

/// The timing models of the run: the fault oracle plus the cost/comm
/// tables, either borrowed from the trainer's [`Trainer::with_faults`]
/// state or defaulted to the degenerate lockstep limit.
struct TimingCtx {
    injector: FaultInjector,
    policy: FaultPolicy,
    comm: CommModel,
    cost: CostModel,
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
    fn timing_ctx(&self) -> TimingCtx {
        match &self.faults {
            Some(fs) => TimingCtx {
                injector: fs.injector.clone(),
                policy: fs.policy,
                comm: fs.comm,
                cost: fs.cost,
            },
            // No fault state attached: run in the degenerate lockstep
            // limit (wait for every report, never cut) so a plain
            // semi-async run stays bit-identical to the sync engine.
            None => TimingCtx {
                injector: FaultInjector::new(FaultPlan::none()),
                policy: FaultPolicy {
                    quorum_fraction: 1.0,
                    deadline_factor: 0.0,
                    ..FaultPolicy::default()
                },
                comm: CommModel::edge_default(),
                cost: CostModel::for_task(self.config.task),
            },
        }
    }

    /// Resolves one dispatched group in the time domain. Pure arithmetic:
    /// nothing here consumes an RNG stream or touches model state.
    fn group_timeline(
        &self,
        tc: &TimingCtx,
        t: usize,
        gi: usize,
        members: &[usize],
        param_len: usize,
    ) -> GroupTimeline {
        let cfg = &self.config;
        let m = members.len();
        let e = cfg.local_rounds as f64;
        let transfer = 2.0
            * tc.comm
                .client_edge
                .transfer_time(CommModel::model_bytes(param_len));
        let nominal_slowest = members
            .iter()
            .map(|&c| tc.cost.training(self.data.client_size(c)) * e + transfer)
            .fold(0.0f64, f64::max);
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
                    let elapsed =
                        tc.cost.training(self.data.client_size(c)) * e * slowdown + transfer;
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
        let payload = tc.comm.group_cloud_bytes(param_len);
        let upload = tc.comm.upload_with_retries(
            payload,
            failures,
            tc.policy.max_retries,
            tc.policy.backoff_base_s,
            tc.policy.max_backoff_s,
        );
        let arrival_rel_s = start + upload.seconds;
        let nominal_rel_s =
            cfg.group_rounds as f64 * nominal_slowest + tc.comm.edge_cloud.transfer_time(payload);
        GroupTimeline {
            cuts,
            closes,
            upload,
            arrival_rel_s,
            nominal_rel_s,
        }
    }

    /// Runs Algorithm 1 under the semi-async runtime. Mirrors
    /// [`Trainer::run_returning_params`], additionally returning the
    /// emulated-time trajectory.
    pub fn run_semi_async<S: LocalUpdate>(
        &self,
        groups: &[Group],
        strategy: &S,
        sampling: SamplingStrategy,
        acfg: &AsyncConfig,
    ) -> (RunHistory, Params, AsyncReport) {
        let (history, params, report, _) =
            self.run_semi_async_with_scheduler(groups, strategy, sampling, acfg);
        (history, params, report)
    }

    /// Like [`Trainer::run_semi_async`], additionally returning the final
    /// [`SchedulerState`] so callers can carry it through a checkpoint
    /// ([`crate::checkpoint::Checkpoint::with_scheduler`]).
    pub fn run_semi_async_with_scheduler<S: LocalUpdate>(
        &self,
        groups: &[Group],
        strategy: &S,
        sampling: SamplingStrategy,
        acfg: &AsyncConfig,
    ) -> (RunHistory, Params, AsyncReport, SchedulerState) {
        let covs: Vec<Scalar> = groups
            .iter()
            .map(|g| group_cov(self.data.label_matrix(), g))
            .collect();
        let probs = sampling.probabilities(&covs);
        let mut rng = init::rng(self.config.seed);
        let mut params = self.model.init_params(&mut rng);
        let mut ledger = self.ledger_for(strategy);
        let mut history = RunHistory::default();
        let mut sched = SchedulerState::new();
        let mut report = AsyncReport::default();
        self.run_semi_async_resumable(
            groups,
            strategy,
            &probs,
            acfg,
            &mut params,
            &mut ledger,
            &mut history,
            &mut sched,
            &mut report,
            0,
            self.config.global_rounds,
        );
        (history, params, report, sched)
    }

    /// Runs the semi-async runtime under **online membership**: forms the
    /// initial partition over the clients present at round 0, then every
    /// round applies the churn plan (departures, arrivals, flaps), lets
    /// the group-health monitor heal the partition per the configured
    /// [`RegroupPolicy`], and dispatches whoever is available to the
    /// quorum-or-deadline scheduler. This closes the gap the module doc
    /// used to flag: churned runs now have a semi-async entry point.
    ///
    /// Two semantics are specific to the semi-async flavor, both
    /// documented in `docs/ASYNC.md`:
    ///
    /// * any membership transition **resets in-flight edge state**. The
    ///   busy map and parked stale uploads are keyed by group index, which
    ///   a heal renumbers and a departure invalidates, so results in
    ///   flight at a transition are dropped rather than misattributed to
    ///   whatever group inherits the index.
    /// * group health sees **no quorum-miss signal**. The runtime's
    ///   straggler cuts live on the emulated clock, not the lockstep
    ///   quorum path that feeds [`MembershipState::observe_round`], so
    ///   `RegroupPolicy::quorum_misses` never fires here — healing reacts
    ///   to size floors, CoV drift, and emptiness only.
    ///
    /// Without [`Trainer::with_churn`] no membership event ever fires, so
    /// the run is bit-identical to [`Trainer::run_semi_async`] on the
    /// formation-time groups (asserted by `tests/semi_async.rs`).
    pub fn run_semi_async_self_healing<S: LocalUpdate>(
        &self,
        algo: &dyn GroupingAlgorithm,
        topology: &Topology,
        strategy: &S,
        sampling: SamplingStrategy,
        acfg: &AsyncConfig,
    ) -> Result<(RunHistory, Params, AsyncReport, MembershipState), PartitionError> {
        let policy = self
            .churn
            .as_ref()
            .map_or_else(RegroupPolicy::default, |c| c.policy.clone());
        let plan = self.churn.as_ref().map(|c| &c.plan);
        let labels = self.data.label_matrix();
        let mut membership = MembershipState::form(
            algo,
            topology,
            labels,
            plan,
            policy,
            self.config.seed,
            sampling,
            0,
        )?;
        let mut rng = init::rng(self.config.seed);
        let mut params = self.model.init_params(&mut rng);
        let mut ledger = self.ledger_for(strategy);
        let mut history = RunHistory::default();
        let mut sched = SchedulerState::new();
        let mut report = AsyncReport::default();
        let tc = self.timing_ctx();
        for t in 0..self.config.global_rounds {
            let events =
                membership.tick(plan, t, labels, topology, algo, self.config.seed, sampling)?;
            if !events.is_empty() {
                // The partition changed under the scheduler: busy-until
                // entries and parked stale uploads reference group indices
                // that may now mean a different member set. Start clean.
                sched.busy.clear();
                sched.pending.clear();
            }
            history.record_regroups(events);
            // Flapping clients sit out the round without leaving their
            // group; a sampled group with nobody available is dispatched
            // to nobody and the round-held path inside `semi_async_round`
            // covers the all-dark case.
            let last = t + 1 == self.config.global_rounds;
            let over_budget = self.semi_async_round(
                t,
                membership.groups(),
                plan,
                strategy,
                &membership.probs,
                acfg,
                &tc,
                &mut params,
                &mut ledger,
                &mut history,
                &mut sched,
                &mut report,
                last,
            );
            if over_budget {
                break;
            }
        }
        Ok((history, params, report, membership))
    }

    /// Resumable core of the semi-async runtime: runs `rounds` global
    /// rounds from `start_round`, mutating every piece of state in place.
    /// Checkpointing `(params, history, ledger-total, sched)` after any
    /// round and resuming reproduces the uninterrupted run bit for bit —
    /// the scheduler's clock, busy map, and pending stale uploads are the
    /// *only* cross-round state beyond the lockstep engine's.
    #[allow(clippy::too_many_arguments)]
    pub fn run_semi_async_resumable<S: LocalUpdate>(
        &self,
        groups: &[Group],
        strategy: &S,
        probs: &[Scalar],
        acfg: &AsyncConfig,
        params: &mut Params,
        ledger: &mut CostLedger,
        history: &mut RunHistory,
        sched: &mut SchedulerState,
        report: &mut AsyncReport,
        start_round: usize,
        rounds: usize,
    ) {
        assert_eq!(groups.len(), probs.len(), "one probability per group");
        assert!(!groups.is_empty(), "need at least one group");
        let tc = self.timing_ctx();
        for t in start_round..start_round + rounds {
            let last = t + 1 == start_round + rounds;
            let over_budget = self.semi_async_round(
                t, groups, None, strategy, probs, acfg, &tc, params, ledger, history, sched,
                report, last,
            );
            if over_budget {
                break;
            }
        }
    }

    /// One semi-async global round: sample, resolve timings, train with
    /// the precomputed cuts, charge Eq. 5, admit arrivals at the cloud
    /// close, aggregate (fresh + matured stale), and evaluate on the
    /// lockstep cadence. Returns `true` when the cost budget is exhausted.
    #[allow(clippy::too_many_arguments)]
    fn semi_async_round<S: LocalUpdate>(
        &self,
        t: usize,
        groups: &[Group],
        churn: Option<&ChurnPlan>,
        strategy: &S,
        probs: &[Scalar],
        acfg: &AsyncConfig,
        tc: &TimingCtx,
        params: &mut Params,
        ledger: &mut CostLedger,
        history: &mut RunHistory,
        sched: &mut SchedulerState,
        report: &mut AsyncReport,
        last: bool,
    ) -> bool {
        let cfg = &self.config;
        let total_samples = self.data.total_samples();
        let s = cfg.sampled_groups.clamp(1, groups.len());
        let obs = self.obs.as_deref();
        let round_start = obs.map(|o| o.now_ns());
        let bytes_before = (ledger.client_edge_bytes(), ledger.edge_cloud_bytes());
        let dispatch = sched.clock_s;
        let lr = cfg.lr.at(t);
        // Identical sampling stream to the lockstep engine: a pure
        // function of (seed, t), so the degenerate limit draws the same
        // groups and a resumed session replays the same schedule.
        let mut rng = init::rng(cfg.seed ^ (t as u64).wrapping_mul(0xA076_1D64_78BD_642F));
        let sampled = sample_without_replacement(&mut rng, probs, s);

        let mut round_events: Vec<FaultEvent> = Vec::new();
        let mut timed: Vec<TimedEvent> = Vec::new();
        let mut busy_skipped = 0usize;
        let members = available_members(churn, t, groups, &sampled);
        let active: Vec<(usize, &[usize])> = sampled
            .iter()
            .zip(&members)
            .map(|(&gi, members)| (gi, &**members))
            .filter(|(_, members)| !members.is_empty())
            .filter(|&(gi, members)| match &self.faults {
                Some(fs) => {
                    let edge = fs.edge_of_client[members[0]];
                    let down = fs.injector.edge_down(edge, t);
                    if down {
                        round_events.push(FaultEvent::EdgeOutage {
                            round: t,
                            edge,
                            group: gi,
                        });
                    }
                    !down
                }
                None => true,
            })
            .filter(|&(gi, _)| {
                let busy_until = sched.busy_until(gi);
                if busy_until > dispatch {
                    timed.push(TimedEvent::GroupBusySkipped {
                        round: t,
                        group: gi,
                        busy_until_s: busy_until,
                    });
                    busy_skipped += 1;
                    false
                } else {
                    true
                }
            })
            .collect();

        // Timing pass: resolve every dispatched group in emulated time.
        let timelines: Vec<GroupTimeline> = active
            .iter()
            .map(|&(gi, members)| self.group_timeline(tc, t, gi, members, params.len()))
            .collect();
        let mut cut_reports = 0usize;
        for (tl, &(gi, _)) in timelines.iter().zip(active.iter()) {
            for (k, &(close_rel, reported, cut)) in tl.closes.iter().enumerate() {
                if cut > 0 {
                    cut_reports += cut;
                    timed.push(TimedEvent::GroupRoundClosed {
                        round: t,
                        group: gi,
                        group_round: k,
                        close_s: dispatch + close_rel,
                        reported,
                        cut,
                    });
                }
            }
        }

        // Compute pass: the lockstep parallel trainer, fed the cut sets.
        let cuts: Vec<GroupCuts> = timelines.iter().map(|tl| tl.cuts.clone()).collect();
        let outcomes = self.train_groups_with_cuts(params, &active, strategy, t, lr, Some(&cuts));
        let train_end = obs.map(|o| {
            let end = o.now_ns();
            o.record_span_at(
                SpanKind::Train,
                round_start.unwrap(),
                end,
                SpanAttrs::round(t),
            );
            end
        });

        // Charge Eq. 5 for every group that attempted the round — stale
        // or not, the work was done and the ledger is effort, not luck.
        // Same rule for client↔edge bytes: every member moved its
        // downloads and uploads whether or not the result beats the close.
        let client_bytes = self.comm_model().client_bytes_per_round(
            params.len(),
            cfg.group_rounds,
            strategy.upload_payload_factor(),
        );
        for o in &outcomes {
            let sizes: Vec<usize> = o
                .members
                .iter()
                .map(|&c| self.data.client_size(c))
                .collect();
            ledger.charge_group(&sizes, cfg.group_rounds, cfg.local_rounds);
            ledger.charge_client_edge_bytes(o.members.len() as u64 * client_bytes);
        }
        let (defense_sims, defense_norms) = outcomes.iter().fold((0u64, 0u64), |acc, o| {
            (
                acc.0 + o.defense.similarity_evals,
                acc.1 + o.defense.norm_passes,
            )
        });
        if defense_sims > 0 || defense_norms > 0 {
            ledger.charge_defense(defense_sims, defense_norms);
        }
        ledger.end_round();

        // Arrival resolution: corrupt results are rejected, lost uploads
        // never land, everything else gets an arrival time. The edge stays
        // busy until its upload resolves either way.
        let mut arrival_of: Vec<Option<f64>> = vec![None; outcomes.len()];
        let mut round_attacks = Vec::new();
        let mut expected_end = dispatch;
        for (i, (o, tl)) in outcomes.iter().zip(timelines.iter()).enumerate() {
            round_events.extend(o.events.iter().cloned());
            round_attacks.extend(o.attacks.iter().cloned());
            // The upload put bytes on the edge↔cloud wire no matter how it
            // resolves — rejected and lost results still transmitted.
            ledger.charge_edge_cloud_bytes(tl.upload.bytes);
            let resolved = dispatch + tl.arrival_rel_s;
            sched.set_busy(o.group, resolved);
            expected_end = expected_end.max(resolved);
            if self.faults.as_ref().is_some_and(|fs| {
                fs.policy.reject_non_finite && !gfl_defense::is_update_finite(&o.params)
            }) {
                round_events.push(FaultEvent::CorruptGroupRejected {
                    round: t,
                    group: o.group,
                });
                continue;
            }
            if tl.upload.attempts > 1 {
                round_events.push(FaultEvent::UploadRetry {
                    round: t,
                    group: o.group,
                    attempts: tl.upload.attempts,
                    extra_seconds: tl.upload.seconds,
                    extra_bytes: tl.upload.bytes,
                });
            }
            if !tl.upload.delivered {
                round_events.push(FaultEvent::UploadLost {
                    round: t,
                    group: o.group,
                });
                continue;
            }
            arrival_of[i] = Some(resolved);
        }

        // The cloud close: wait for every dispatched result, unless its
        // own deadline (scaled off the slowest *nominal* group) fires
        // first and strands the rest as stale.
        let close = if acfg.cloud_deadline_enabled() {
            let nominal = timelines
                .iter()
                .map(|tl| tl.nominal_rel_s)
                .fold(0.0f64, f64::max);
            expected_end.min(dispatch + acfg.cloud_deadline_factor * nominal)
        } else {
            expected_end
        };
        // If every sampled group sat the round out (busy, dark, or empty),
        // nothing was dispatched and `close == dispatch` — the cloud
        // sleeps to the next upload resolution instead of freezing the
        // emulated clock, so parked stale results can still mature.
        let close = if active.is_empty() {
            let next = sched
                .busy
                .iter()
                .map(|&(_, until)| until)
                .filter(|&until| until > dispatch)
                .fold(f64::INFINITY, f64::min);
            if next.is_finite() {
                next
            } else {
                close
            }
        } else {
            close
        };

        // Admission: fresh results in sampled order, then matured stale
        // results in parking order — both deterministic.
        let mut fresh: Vec<&GroupOutcome> = Vec::new();
        let mut stale_dropped = 0usize;
        let mut late = 0usize;
        for (i, o) in outcomes.iter().enumerate() {
            let Some(arrival) = arrival_of[i] else {
                continue;
            };
            if arrival <= close {
                fresh.push(o);
            } else {
                late += 1;
                match acfg.staleness {
                    StalenessPolicy::DropStale => {
                        stale_dropped += 1;
                        timed.push(TimedEvent::StaleArrival {
                            round: t,
                            group: o.group,
                            dispatch_round: t,
                            arrival_s: arrival,
                            admitted: false,
                        });
                    }
                    StalenessPolicy::Weighted { .. } => {
                        sched.pending.push(PendingUpload {
                            group: o.group,
                            dispatch_round: t,
                            arrival_s: arrival,
                            samples: o.samples,
                            prob: probs[o.group],
                            uploads: o.uploads,
                            members: o.members.clone(),
                            params: o.params.clone(),
                        });
                    }
                }
            }
        }
        if late > 0 {
            timed.push(TimedEvent::CloudRoundClosed {
                round: t,
                close_s: close,
                admitted: fresh.len(),
                late,
            });
        }
        let mut matured: Vec<PendingUpload> = Vec::new();
        sched.pending.retain(|p| {
            if p.arrival_s <= close && p.dispatch_round < t {
                matured.push(p.clone());
                false
            } else {
                true
            }
        });
        for p in &matured {
            timed.push(TimedEvent::StaleArrival {
                round: t,
                group: p.group,
                dispatch_round: p.dispatch_round,
                arrival_s: p.arrival_s,
                admitted: true,
            });
        }

        // Line 15, semi-async flavor: aggregate fresh + matured results,
        // damping matured weights by staleness, holding the round when no
        // surviving update reached the cloud at all.
        let no_update =
            fresh.iter().all(|o| o.uploads == 0) && matured.iter().all(|p| p.uploads == 0);
        if no_update {
            round_events.push(FaultEvent::RoundHeld { round: t });
        } else {
            let mut sizes: Vec<usize> = fresh.iter().map(|o| o.samples).collect();
            sizes.extend(matured.iter().map(|p| p.samples));
            let mut sampled_probs: Vec<Scalar> = fresh.iter().map(|o| probs[o.group]).collect();
            sampled_probs.extend(matured.iter().map(|p| p.prob));
            let mut weights =
                aggregation_weights(cfg.weighting, &sizes, &sampled_probs, total_samples);
            if !matured.is_empty() {
                if let StalenessPolicy::Weighted { decay } = acfg.staleness {
                    // Damp matured weights by (1+s)^-decay, then rescale so
                    // the total mass aggregation_weights assigned is
                    // preserved — the update never shrinks toward zero.
                    let before: Scalar = weights.iter().sum();
                    for (j, p) in matured.iter().enumerate() {
                        let staleness = (t - p.dispatch_round) as f64;
                        weights[fresh.len() + j] *= (1.0 + staleness).powf(-decay) as Scalar;
                    }
                    let after: Scalar = weights.iter().sum();
                    if after > 0.0 {
                        let scale = before / after;
                        for w in weights.iter_mut() {
                            *w *= scale;
                        }
                    }
                }
            }
            let mut views: Vec<&[Scalar]> = fresh.iter().map(|o| o.params.as_slice()).collect();
            views.extend(matured.iter().map(|p| p.params.as_slice()));
            ops::weighted_sum_into(&views, &weights, params);
        }

        let mut participants: Vec<usize> = fresh
            .iter()
            .flat_map(|o| o.members.iter().copied())
            .collect();
        participants.extend(matured.iter().flat_map(|p| p.members.iter().copied()));
        strategy.end_global_round(&participants);

        let agg_end = obs.map(|ob| {
            let end = ob.now_ns();
            ob.record_span_at(
                SpanKind::Aggregate,
                train_end.unwrap(),
                end,
                SpanAttrs::round(t),
            );
            end
        });

        let train_loss =
            outcomes.iter().map(|o| o.train_loss).sum::<Scalar>() / outcomes.len().max(1) as Scalar;

        let fault_events = round_events.len() as u64;
        history.record_faults(round_events);
        history.record_attacks(round_attacks);
        let stale_admitted = matured.len();
        let admitted = fresh.len();
        let trained = outcomes.len();
        history.record_timed(timed);

        let over_budget = cfg.cost_budget.is_some_and(|b| ledger.total() >= b);
        let mut eval_ns = 0u64;
        if t.is_multiple_of(cfg.eval_every) || last || over_budget {
            let eval_start = obs.map(|ob| ob.now_ns());
            let eval = self.evaluate(params);
            if let Some(adv) = &self.adversary {
                let rate = |d: &gfl_data::Dataset| {
                    self.model
                        .evaluate(params, d.features(), d.labels())
                        .accuracy
                };
                history.record_asr(AsrRecord {
                    round: t,
                    trigger_asr: adv.trigger_eval.as_ref().map(&rate),
                    flip_asr: adv.flip_eval.as_ref().map(&rate),
                });
            }
            if let Some(ob) = obs {
                let start = eval_start.unwrap();
                let end = ob.now_ns();
                eval_ns = end.saturating_sub(start);
                ob.record_span_at(SpanKind::Eval, start, end, SpanAttrs::round(t));
            }
            history.push(RoundRecord {
                round: t,
                cost: ledger.total(),
                accuracy: eval.accuracy,
                loss: eval.loss,
                train_loss,
            });
        }

        // Advance the emulated clock to the close; the next round
        // dispatches from here.
        sched.clock_s = close;
        report.rounds.push(AsyncRoundRecord {
            round: t,
            clock_s: close,
            trained,
            admitted,
            stale_admitted,
            stale_dropped,
            busy_skipped,
            cut_reports,
        });

        if let Some(ob) = obs {
            let start = round_start.unwrap();
            let end = ob.now_ns();
            ob.record_span_at(SpanKind::Round, start, end, SpanAttrs::round(t));
            let train_ns = train_end.unwrap().saturating_sub(start);
            let agg_ns = agg_end.unwrap().saturating_sub(train_end.unwrap());
            let clients_trained: u64 = (0..trained)
                .map(|i| (active[i].1.len() * cfg.group_rounds) as u64)
                .sum();
            let ce_bytes = ledger.client_edge_bytes() - bytes_before.0;
            let ec_bytes = ledger.edge_cloud_bytes() - bytes_before.1;
            ob.record_round(RoundMetrics {
                round: t as u64,
                wall_ns: end.saturating_sub(start),
                train_ns,
                aggregate_ns: agg_ns,
                comm_ns: 0,
                eval_ns,
                groups_trained: trained as u64,
                clients_trained,
                fault_events,
                cost_total: ledger.total(),
                pool_regions: 0,
                pool_claims: 0,
                pool_steals: 0,
                pool_utilization: 0.0,
                allocs: 0,
                client_edge_bytes: Some(ce_bytes),
                edge_cloud_bytes: Some(ec_bytes),
            });
            let m = ob.metrics();
            m.counter("rounds.total").inc();
            m.counter("events.faults").add(fault_events);
            m.counter("clients.trained").add(clients_trained);
            m.counter("comm.bytes.client_edge").add(ce_bytes);
            m.counter("comm.bytes.edge_cloud").add(ec_bytes);
            m.gauge("cost.total").set(ledger.total());
            // Semi-async telemetry only exists on semi-async runs, so
            // lockstep traces stay byte-identical to pre-async ones.
            m.gauge("async.clock_s").set(close);
            m.counter("async.cut_reports").add(cut_reports as u64);
            m.counter("async.busy_skips").add(busy_skipped as u64);
            m.counter("async.stale.admitted").add(stale_admitted as u64);
            m.counter("async.stale.dropped").add(stale_dropped as u64);
            self.record_secagg_metrics(m, &outcomes);
        }

        over_budget
    }
}
