//! The round driver: Algorithm 1's one loop, over one [`RunState`], under a
//! [`RunPlan`] of two orthogonal policies.
//!
//! | | [`Membership::Static`] | [`Membership::SelfHealing`] |
//! |---|---|---|
//! | [`Clock::Lockstep`] | the paper's Algorithm 1 | churn + healing on the round boundary |
//! | [`Clock::EventDriven`] | quorum-or-deadline rounds | both at once |
//!
//! One round skeleton owns, once, everything every cell shares: the
//! `(seed, t)` sampling stream, the availability and edge-outage filters,
//! Eq. 5 / byte / defense charging, Line 15, evaluation, the telemetry
//! tail, and the held round. It asks the clock only what genuinely
//! differs — *which group results reach Line 15, and when*: lockstep's
//! survivor quorum, non-finite gate and upload retries (below), or the
//! event clock's timing pass, busy edges, arrivals, cloud close and
//! staleness ([`crate::semi_async`]).
//!
//! Resuming is not a second API: a run advances a [`RunState`], and a
//! [`crate::checkpoint::Checkpoint`] round-trips one.

use gfl_data::FedData;
use gfl_faults::{summarize_attacks, FaultEvent};
use gfl_nn::Params;
use gfl_obs::{RoundMetrics, SpanAttrs, SpanKind};
use gfl_sim::{CostLedger, Topology};
use gfl_tensor::{init, ops, Scalar};

use crate::engine::{FaultState, GroupOutcome, Trainer};
use crate::grouping::{GroupingAlgorithm, PartitionError};
use crate::history::{Event, RoundRecord, RunHistory};
use crate::local::LocalUpdate;
use crate::membership::{available_members, MembershipState};
use crate::sampling::{aggregation_weights_into, sample_without_replacement, SamplingStrategy};
use crate::semi_async::{AsyncConfig, EventRound, SchedulerState};
use crate::Group;

/// When a global round closes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Clock {
    /// At a global barrier: every sampled group reports, then a
    /// sample-weighted survivor quorum, a non-finite gate and edge→cloud
    /// upload retries decide which group models reach Line 15.
    Lockstep,
    /// At quorum-or-deadline closes on an emulated clock: edges cut late
    /// member reports, and the cloud admits, parks or drops edge results
    /// by arrival time (see [`crate::semi_async`]).
    EventDriven(AsyncConfig),
}

/// Who trains.
#[derive(Clone, Copy)]
pub enum Membership<'a> {
    /// A fixed partition and its sampling probabilities (Line 4's `p`,
    /// e.g. from [`Trainer::sampling_probs`]). Swapping either between
    /// [`Trainer::drive`] calls is the §6.1 regrouping extension.
    Static {
        groups: &'a [Group],
        probs: &'a [Scalar],
    },
    /// Online membership: the first [`Trainer::drive`] forms the partition
    /// over the clients then present; every round applies the trainer's
    /// churn plan ([`Trainer::with_churn`]; none ⇒ no event ever fires),
    /// heals per its [`crate::membership::RegroupPolicy`], and trains
    /// whoever is available. Transitions land in the history's regroup log.
    SelfHealing {
        algo: &'a dyn GroupingAlgorithm,
        topology: &'a Topology,
        sampling: SamplingStrategy,
    },
}

/// The two policies of a run, chosen per [`Trainer::drive`] call.
#[derive(Clone, Copy)]
pub struct RunPlan<'a> {
    pub clock: Clock,
    pub membership: Membership<'a>,
}

/// Everything a run carries from one global round to the next. Driving a
/// state `a + b` rounds, or `a` rounds, through a checkpoint, then `b`
/// more, gives the same bits.
#[derive(Debug, Clone)]
pub struct RunState {
    /// The global model `x_t`.
    pub params: Params,
    /// The Eq. 5 cost account.
    pub ledger: CostLedger,
    /// Evaluation trajectory and event log so far.
    pub history: RunHistory,
    /// Next global round to run (rounds `0..next_round` are complete).
    pub next_round: usize,
    /// The live partition of a self-healing run.
    pub membership: Option<MembershipState>,
    /// The event clock's scheduler state and per-round report.
    pub scheduler: Option<SchedulerState>,
}

/// Lockstep's per-round gate state.
#[derive(Default)]
struct LockstepGate {
    /// Sampled groups whose survivor quorum failed (health-monitor feed).
    quorum_missed: Vec<usize>,
    /// Wall time and bytes of upload retries, carved out of the aggregate
    /// phase so the four phase durations stay disjoint.
    comm_ns: u64,
    comm_bytes: u64,
}

impl Trainer {
    /// A fresh run: the seed-initialized model, an empty ledger priced for
    /// `strategy`, an empty history, round 0.
    pub fn start(&self, strategy: &dyn LocalUpdate) -> RunState {
        RunState {
            params: self.model.init_params(&mut init::rng(self.config.seed)),
            ledger: self.ledger_for(strategy),
            history: RunHistory::default(),
            next_round: 0,
            membership: None,
            scheduler: None,
        }
    }

    /// A whole run: a fresh [`Trainer::start`] state driven through all the
    /// configured `global_rounds` under `plan`. Callers that run a *part* of
    /// a run (a resume, a warm-up leg, a regrouping span) call
    /// [`Trainer::start`] and [`Trainer::drive`] themselves.
    pub fn run_plan(
        &self,
        strategy: &dyn LocalUpdate,
        plan: &RunPlan<'_>,
    ) -> Result<RunState, PartitionError> {
        let mut state = self.start(strategy);
        self.drive(strategy, plan, &mut state, self.config.global_rounds)?;
        Ok(state)
    }

    /// Runs `rounds` global rounds of Algorithm 1 from `state.next_round`
    /// under `plan`, advancing `state` in place; stops early once the cost
    /// budget is exhausted. Fails only if a self-healing repair cannot
    /// re-form a valid partition.
    pub fn drive(
        &self,
        strategy: &dyn LocalUpdate,
        plan: &RunPlan<'_>,
        state: &mut RunState,
        rounds: usize,
    ) -> Result<(), PartitionError> {
        let labels = self.data.label_matrix();
        let seed = self.config.seed;
        let churn = self.churn.as_ref().map(|c| &c.plan);
        if let Membership::Static { groups, probs } = plan.membership {
            assert_eq!(groups.len(), probs.len(), "one probability per group");
            assert!(!groups.is_empty(), "need at least one group");
        }
        // The event clock's timing models: the fault state's, or the
        // degenerate lockstep limit without one.
        let limit = self.faults.is_none().then(|| self.lockstep_limit());
        let timing = match plan.clock {
            Clock::Lockstep => None,
            Clock::EventDriven(acfg) => {
                state.scheduler.get_or_insert_with(Default::default);
                self.faults.as_ref().or(limit.as_ref()).map(|fs| (acfg, fs))
            }
        };
        let evals = rounds.div_ceil(self.config.eval_every) + 1;
        state.history.reserve_rounds(evals);
        let end = state.next_round + rounds;
        for t in state.next_round..end {
            if let Membership::SelfHealing {
                algo,
                topology,
                sampling,
            } = plan.membership
            {
                let membership = match &mut state.membership {
                    Some(live) => live,
                    // First self-healing round of this state: form the
                    // partition over the clients present now.
                    unformed => {
                        let policy = self.churn.as_ref().map(|c| c.policy.clone());
                        let policy = policy.unwrap_or_default();
                        unformed.insert(MembershipState::form(
                            algo, topology, labels, churn, policy, seed, sampling, t,
                        )?)
                    }
                };
                // The event clock never traced its membership tick; it
                // still does not, so its traces keep their span set.
                let obs = self.obs.as_deref().filter(|_| timing.is_none());
                let tick_start = obs.map_or(0, |ob| ob.now_ns());
                let events = membership.tick(churn, t, labels, topology, algo, seed, sampling)?;
                if let Some(ob) = obs {
                    ob.record_span(SpanKind::Regroup, tick_start, SpanAttrs::round(t));
                    let regroups = ob.metrics().counter("events.regroups");
                    regroups.add(events.len() as u64);
                }
                if let Some(sched) = state.scheduler.as_mut().filter(|_| !events.is_empty()) {
                    // The partition changed under the scheduler: busy-until
                    // entries and parked stale uploads reference group
                    // indices that may now mean a different member set.
                    sched.busy.clear();
                    sched.pending.clear();
                }
                state.history.record(events.into_iter().map(Event::Regroup));
            }
            let over_budget = self.round(strategy, plan, timing, state, t, t + 1 == end);
            state.next_round = t + 1;
            if over_budget {
                break;
            }
        }
        Ok(())
    }

    /// One global round of Algorithm 1 (Lines 6–15) under either clock and
    /// either membership: sample, train whoever is reachable, charge Eq. 5,
    /// let the clock decide what reaches Line 15, aggregate, evaluate on
    /// the cadence. Returns `true` when the cost budget is exhausted.
    fn round(
        &self,
        strategy: &dyn LocalUpdate,
        plan: &RunPlan<'_>,
        timing: Option<(AsyncConfig, &FaultState)>,
        state: &mut RunState,
        t: usize,
        last: bool,
    ) -> bool {
        let cfg = &self.config;
        let RunState {
            params,
            ledger,
            history,
            membership,
            scheduler,
            ..
        } = state;
        let healing = matches!(plan.membership, Membership::SelfHealing { .. });
        let (groups, probs, churn, reachable) = match plan.membership {
            Membership::Static { groups, probs } => (groups, probs, None, true),
            Membership::SelfHealing { .. } => {
                let m = membership.as_ref().expect("drive forms the partition");
                let churn = self.churn.as_ref().map(|c| &c.plan);
                let reachable = m.anyone_available(churn, t);
                (m.groups(), m.probs.as_slice(), churn, reachable)
            }
        };
        let mut event = timing.map(|timing| {
            let sched = scheduler.as_mut().expect("drive starts the scheduler");
            EventRound::new(timing, sched, t)
        });
        let mut gate = LockstepGate::default();
        // Observation is read-only: timestamps (0 when untraced) and
        // counter snapshots are taken around the simulation sections but
        // never feed back into them, keeping traced runs bit-identical to
        // untraced ones.
        let obs = self.obs.as_deref();
        let round_start = obs.map_or(0, |ob| ob.now_ns());
        let pool_before = obs.map(|_| gfl_parallel::stats::snapshot());
        let allocs_before = obs.map_or(0, |_| gfl_obs::alloc::current_allocs());
        // Byte accounting is charged unconditionally (it is a deterministic
        // function of the sampled groups, never of timing); the snapshot
        // lets the round record report per-round deltas.
        let bytes_before = (ledger.client_edge_bytes(), ledger.edge_cloud_bytes());

        let lr = cfg.lr.at(t);
        // Sampling randomness is a pure function of (seed, t) so that a
        // checkpointed-and-resumed session draws exactly the same groups
        // as an uninterrupted one — under either clock. With nobody
        // reachable (every member flapped out, or every group dissolved)
        // nothing is drawn: the round trains no one and Line 15 holds it.
        let mut sampled = Vec::new();
        if reachable {
            let mut rng = init::rng(cfg.seed ^ (t as u64).wrapping_mul(0xA076_1D64_78BD_642F));
            let s = cfg.sampled_groups.clamp(1, groups.len());
            sampled = sample_without_replacement(&mut rng, probs, s);
        }

        // Flapping clients sit the round out without leaving their group,
        // a group with nobody available (or nobody left, transiently under
        // churn, before the next heal pass) sits out whole, and a dark edge
        // server takes all of its sampled groups offline for this round.
        // Every producer below appends to the round's one event list.
        let mut events: Vec<Event> = Vec::new();
        let members = available_members(churn, t, groups, &sampled);
        let mut active: Vec<(usize, &[usize])> = sampled
            .iter()
            .zip(&members)
            .map(|(&gi, members)| (gi, &**members))
            .filter(|(_, members)| !members.is_empty())
            .filter(|&(group, members)| {
                let Some(fs) = &self.faults else { return true };
                let edge = fs.edge_of_client[members[0]];
                let down = fs.injector.edge_down(edge, t);
                if down {
                    events.push(Event::Fault(FaultEvent::EdgeOutage {
                        round: t,
                        edge,
                        group,
                    }));
                }
                !down
            })
            .collect();
        // Event clock: busy edges sit out too, and the timing pass decides,
        // in emulated time, which reports miss which group-round close.
        if let Some(ev) = &mut event {
            ev.dispatch(self, &mut active, params.len(), &mut events);
        }

        // Lines 7–14: every (group × client) pair of this round trains on
        // one shared work-stealing queue, client-granular.
        let cuts = event.as_ref().map(|ev| ev.cuts.as_slice());
        let outcomes = self.train_groups(params, &active, strategy, t, lr, cuts);
        let train_end = obs.map_or(0, |ob| {
            ob.record_span(SpanKind::Train, round_start, SpanAttrs::round(t))
        });

        // Charge Eq. 5 for every group that attempted the round — the
        // ledger is effort, not luck. One pooled size buffer serves every
        // group (and Line 15 below). Every member that attempted the round
        // also moved its downloads and uploads on the client↔edge link,
        // whether or not the group's result later reaches the cloud.
        let mut sizes = self.members.take_empty();
        let client_bytes = self.comm.client_bytes_per_round(
            params.len(),
            cfg.group_rounds,
            strategy.upload_payload_factor(),
        );
        for o in &outcomes {
            sizes.clear();
            sizes.extend(o.members.iter().map(|&c| self.data.client_size(c)));
            ledger.charge_group(&sizes, cfg.group_rounds, cfg.local_rounds);
            ledger.charge_client_edge_bytes(o.members.len() as u64 * client_bytes);
        }
        // Measured defense-filter work (FLAME-style cosine clustering)
        // lands in the ledger alongside the emulated group ops, so a real
        // defense shows up in the emulated round time.
        let defense_sims: u64 = outcomes.iter().map(|o| o.defense.similarity_evals).sum();
        let defense_norms: u64 = outcomes.iter().map(|o| o.defense.norm_passes).sum();
        if defense_sims > 0 || defense_norms > 0 {
            ledger.charge_defense(defense_sims, defense_norms);
        }

        // The clock decides which group results reach Line 15, in sampled
        // order. Clean lockstep runs pass every outcome through; the event
        // clock may also fold in `matured` stale results parked earlier.
        let mut admitted: Vec<&GroupOutcome> = Vec::with_capacity(outcomes.len());
        for o in &outcomes {
            events.extend(o.events.iter().cloned());
            let passes = match &mut event {
                Some(ev) => ev.resolve_arrival(o, ledger, &mut events),
                None => self.lockstep_admits(&mut gate, t, o, ledger, &mut events),
            };
            if passes {
                admitted.push(o);
            }
        }
        let matured = match &mut event {
            Some(ev) => ev.cloud_close(probs, &mut admitted, &mut events),
            None => Vec::new(),
        };

        // Line 15: global aggregation — held (`x_{t+1} = x_t`, params stay
        // finite) when no surviving update reached the cloud.
        if admitted.iter().all(|o| o.uploads == 0) && matured.iter().all(|p| p.uploads == 0) {
            events.push(Event::Fault(FaultEvent::RoundHeld { round: t }));
        } else {
            sizes.clear();
            sizes.extend(admitted.iter().map(|o| o.samples));
            sizes.extend(matured.iter().map(|p| p.samples));
            let mut sampled_probs = self.params.take_empty();
            sampled_probs.extend(admitted.iter().map(|o| probs[o.group]));
            sampled_probs.extend(matured.iter().map(|p| p.prob));
            let mut weights = self.params.take_empty();
            let total = self.data.total_samples();
            aggregation_weights_into(cfg.weighting, &sizes, &sampled_probs, total, &mut weights);
            if let Some(ev) = &event {
                ev.damp_stale(&mut weights, &matured);
            }
            // The exact fill-then-axpy loop of `ops::weighted_sum_into`,
            // inlined so no view vector is built.
            params.fill(0.0);
            let fresh = admitted.iter().map(|o| &o.params);
            let updates = fresh.chain(matured.iter().map(|p| &p.params));
            for (x, &w) in updates.zip(weights.iter()) {
                ops::axpy(w, x, params);
            }
            self.params.put(sampled_probs);
            self.params.put(weights);
        }
        self.members.put(sizes);

        let fresh = admitted.iter().map(|o| &o.members);
        let stale = matured.iter().map(|p| &p.members);
        let participants: Vec<usize> = fresh.chain(stale).flatten().copied().collect();
        strategy.end_global_round(&participants);

        // Aggregate phase = charge + gate + Line 15, minus the
        // upload-retry (comm) time carved out by the lockstep gate, so the
        // four phase durations stay disjoint.
        let agg_end = obs.map_or(0, |ob| ob.now_ns());
        let aggregate_ns = agg_end
            .saturating_sub(train_end)
            .saturating_sub(gate.comm_ns);
        if let Some(ob) = obs {
            let (start, attrs) = (train_end, SpanAttrs::round(t));
            ob.record_span_at(SpanKind::Aggregate, start, start + aggregate_ns, attrs);
            if gate.comm_ns > 0 {
                let attrs = attrs.with_bytes(gate.comm_bytes);
                ob.record_span_at(SpanKind::Comm, start, start + gate.comm_ns, attrs);
            }
        }

        let train_loss =
            outcomes.iter().map(|o| o.train_loss).sum::<Scalar>() / outcomes.len().max(1) as Scalar;
        history.record(events);
        let (over_budget, eval_ns) =
            self.evaluate_round(t, last, params, train_loss, ledger, history);
        match event {
            // Advance the emulated clock to the close and report the round.
            Some(ev) => ev.finish(obs),
            // Feed the health monitor: which sampled groups missed quorum.
            None if healing => membership
                .as_mut()
                .expect("drive forms the partition")
                .observe_round(&sampled, &gate.quorum_missed),
            None => {}
        }

        if let Some(ob) = obs {
            let logged = history.events_in_round(t);
            let end = ob.record_span(SpanKind::Round, round_start, SpanAttrs::round(t));
            let pool = gfl_parallel::stats::snapshot().since(pool_before.unwrap());
            ob.record_round(RoundMetrics {
                round: t as u64,
                wall_ns: end.saturating_sub(round_start),
                train_ns: train_end.saturating_sub(round_start),
                aggregate_ns,
                comm_ns: gate.comm_ns,
                eval_ns,
                groups_trained: outcomes.len() as u64,
                clients_trained: outcomes
                    .iter()
                    .map(|o| (o.members.len() * cfg.group_rounds) as u64)
                    .sum(),
                fault_events: logged.iter().filter(|e| e.fault().is_some()).count() as u64,
                cost_total: ledger.total(),
                pool_regions: pool.regions,
                pool_claims: pool.claims,
                pool_steals: pool.steals,
                pool_utilization: pool.utilization(),
                allocs: gfl_obs::alloc::current_allocs().saturating_sub(allocs_before),
                client_edge_bytes: Some(ledger.client_edge_bytes() - bytes_before.0),
                edge_cloud_bytes: Some(ledger.edge_cloud_bytes() - bytes_before.1),
            });
            // The round families come from the record; attack, defense and
            // SecAgg telemetry only exists on runs that opted in, so clean
            // traces are byte-identical to earlier ones.
            let m = ob.metrics();
            let mut counters = Vec::new();
            if self.adversary.is_some() {
                let attack_summary = summarize_attacks(logged.iter().filter_map(Event::attack));
                counters.extend([
                    ("attacks.injected", attack_summary.injected() as u64),
                    (
                        "attacks.filtered.flame",
                        attack_summary.filtered_flame as u64,
                    ),
                    (
                        "attacks.filtered.non_finite",
                        attack_summary.filtered_non_finite as u64,
                    ),
                ]);
                // The record is this round's only when it was evaluated.
                let evaluated = history.last_record().filter(|r| r.round == t);
                if let Some(v) = evaluated.and_then(|r| r.trigger_asr) {
                    m.gauge("asr.trigger").set(v as f64);
                }
                if let Some(v) = evaluated.and_then(|r| r.flip_asr) {
                    m.gauge("asr.flip").set(v as f64);
                }
            }
            if defense_sims > 0 || defense_norms > 0 {
                counters.push(("defense.similarity_evals", defense_sims));
                counters.push(("defense.norm_passes", defense_norms));
            }
            if cfg.secure_aggregation {
                // What the protocol's parties did: sessions run, and
                // pairwise masks expanded — `s(g−1)` by `s` survivors of
                // `g` members plus `(g−s)s` recovered by the server. The
                // simulator itself expands each pair once; the counters are
                // the protocol's, exact at any thread count.
                let sum = |f: fn(&GroupOutcome) -> u64| outcomes.iter().map(f).sum();
                counters.push(("secagg.sessions", sum(|o| o.secagg_sessions)));
                counters.push(("secagg.pair_masks", sum(|o| o.secagg_pair_masks)));
            }
            if matches!(self.data, FedData::Virtual(_)) {
                // One derivation per (round, member that trained in any of
                // the K group rounds), and one step per group round a
                // member trained on it: summed per group, so exact at any
                // thread count.
                let derived = outcomes.iter().map(|o| o.shards_derived).sum();
                counters.push(("data.shards_derived", derived));
                let steps = outcomes.iter().map(|o| o.shard_steps).sum();
                counters.push(("data.shard_steps", steps));
            }
            for (name, value) in counters {
                m.counter(name).add(value);
            }
        }

        // Hand the round's parameter and member buffers back to the pools
        // so the next round's groups start from warm capacity.
        for o in outcomes {
            self.params.put(o.params);
            self.members.put(o.members);
        }
        over_budget
    }

    /// Lockstep's gate for one group result — graceful degradation: the
    /// sample-weighted survivor quorum, the non-finite gate, and edge→cloud
    /// upload retries. Charges the upload's edge↔cloud bytes: one payload
    /// first try, one per attempt when retried (delivered or not — failed
    /// attempts still put bytes on the wire).
    fn lockstep_admits(
        &self,
        gate: &mut LockstepGate,
        t: usize,
        o: &GroupOutcome,
        ledger: &mut CostLedger,
        events: &mut Vec<Event>,
    ) -> bool {
        let (round, group) = (t, o.group);
        let payload = self.comm.group_cloud_bytes(o.params.len());
        let Some(fs) = &self.faults else {
            ledger.charge_edge_cloud_bytes(payload);
            return true;
        };
        let policy = &fs.policy;
        let quorum = policy.quorum_fraction * (self.config.group_rounds * o.samples) as f64;
        let required = quorum.ceil() as usize;
        if o.upload_samples < required {
            events.push(Event::Fault(FaultEvent::GroupSkipped {
                round,
                group,
                survivors: o.upload_samples,
                required,
            }));
            gate.quorum_missed.push(group);
            return false;
        }
        if policy.reject_non_finite && !gfl_defense::is_update_finite(&o.params) {
            events.push(Event::Fault(FaultEvent::CorruptGroupRejected {
                round,
                group,
            }));
            return false;
        }
        let failures = fs.injector.upload_failures(t, group, policy.max_retries);
        if failures == 0 {
            ledger.charge_edge_cloud_bytes(payload);
            return true;
        }
        let obs = self.obs.as_deref();
        let retry_start = obs.map_or(0, |ob| ob.now_ns());
        let retry = self.comm.upload_with_retries(
            payload,
            failures,
            policy.max_retries,
            policy.backoff_base_s,
            policy.max_backoff_s,
        );
        events.push(Event::Fault(FaultEvent::UploadRetry {
            round,
            group,
            attempts: retry.attempts,
            extra_seconds: retry.seconds,
            extra_bytes: retry.bytes,
        }));
        ledger.charge_edge_cloud_bytes(retry.bytes);
        gate.comm_bytes += retry.bytes;
        if let Some(ob) = obs {
            let attrs = SpanAttrs::group(t, group).with_bytes(retry.bytes);
            let end = ob.record_span(SpanKind::UploadRetry, retry_start, attrs);
            gate.comm_ns += end.saturating_sub(retry_start);
        }
        if !retry.delivered {
            events.push(Event::Fault(FaultEvent::UploadLost { round, group }));
        }
        retry.delivered
    }

    /// Evaluates the global model when round `t` is on the cadence (or is
    /// the drive's last, or exhausted the budget): test accuracy, loss and
    /// attack-success rates into a [`RoundRecord`]. Returns whether the
    /// budget is exhausted and the evaluation's wall time.
    fn evaluate_round(
        &self,
        t: usize,
        last: bool,
        params: &[Scalar],
        train_loss: Scalar,
        ledger: &CostLedger,
        history: &mut RunHistory,
    ) -> (bool, u64) {
        let cfg = &self.config;
        let over_budget = cfg.cost_budget.is_some_and(|b| ledger.total() >= b);
        if !(t.is_multiple_of(cfg.eval_every) || last || over_budget) {
            return (over_budget, 0);
        }
        let obs = self.obs.as_deref();
        let eval_start = obs.map_or(0, |ob| ob.now_ns());
        let eval = self.evaluate(params);
        // Attack-success rates, on the same cadence as accuracy: both eval
        // sets carry the attacker's label, so plain accuracy on them *is*
        // the success rate.
        let rate = |d: &gfl_data::Dataset| {
            let (x, y) = (d.features(), d.labels());
            self.model
                .evaluate_pooled(params, x, y, &self.eval)
                .accuracy
        };
        let adv = self.adversary.as_ref();
        let trigger_asr = adv.and_then(|a| a.trigger_eval.as_ref()).map(&rate);
        let flip_asr = adv.and_then(|a| a.flip_eval.as_ref()).map(&rate);
        let eval_end = obs.map_or(0, |ob| {
            ob.record_span(SpanKind::Eval, eval_start, SpanAttrs::round(t))
        });
        history.push(RoundRecord {
            round: t,
            cost: ledger.total(),
            accuracy: eval.accuracy,
            loss: eval.loss,
            train_loss,
            trigger_asr,
            flip_asr,
        });
        (over_budget, eval_end.saturating_sub(eval_start))
    }
}
