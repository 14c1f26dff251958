//! Churn suite: online membership + self-healing regrouping under
//! deterministic abuse.
//!
//! Every test runs the real Algorithm 1 engine on a tiny synthetic
//! federation with a seeded [`ChurnPlan`] and checks the self-healing
//! contract: clean plans are bit-identical to the static engine, churned
//! runs are deterministic down to the regroup log, zero-survivor groups
//! are dissolved rather than held forever, healed runs stay close to the
//! clean baseline while frozen partitions degrade, and a faulted-churn
//! run resumed from a post-regroup checkpoint reproduces the original
//! trajectory exactly.
//!
//! Set `GFL_SEED` (CI runs 1 and 2) to shift every seed in the suite and
//! shake out seed-sensitive nondeterminism.

use gfl_core::checkpoint::Checkpoint;
use gfl_core::membership::{MembershipState, RegroupEvent, RegroupPolicy};
use gfl_core::prelude::*;
use gfl_data::{ClientPartition, PartitionSpec};
use gfl_faults::{ChurnPlan, FaultPlan, FaultPolicy};
use gfl_sim::Topology;
use gfl_test_support::{covg, seed_offset, tiny_world, Runs, TinyWorld};

#[test]
fn clean_churn_plan_is_bit_identical_to_static_run() {
    // Compiling the churn machinery in must cost nothing behaviorally: a
    // clean plan through the self-healing loop reproduces the static
    // engine bit for bit.
    let w = tiny_world(21);
    let (h_static, p_static) = w.trainer().run_static(&w.groups, SamplingStrategy::ESRCov);

    let churned = w
        .trainer()
        .with_churn(ChurnPlan::none(), RegroupPolicy::default());
    let (h_churn, p_churn, membership) = churned
        .run_healing(&covg(2, 1.0), &w.topo, SamplingStrategy::ESRCov)
        .unwrap();

    assert_eq!(membership.groups(), w.groups);
    assert_eq!(p_static, p_churn);
    assert_eq!(h_static, h_churn);
    assert!(h_churn.events().iter().all(|e| e.regroup().is_none()));
}

#[test]
fn churned_run_is_deterministic_down_to_the_regroup_log() {
    // Same seed ⇒ identical trajectory AND identical RegroupEvent log.
    let plan = ChurnPlan {
        seed: 31 + seed_offset(),
        horizon: 4,
        departure_fraction: 0.4,
        arrival_fraction: 0.3,
        flap_prob: 0.1,
    };
    let run = || {
        let w = tiny_world(22);
        let t = w
            .trainer()
            .with_churn(plan.clone(), RegroupPolicy::default());
        t.run_healing(&covg(2, 1.0), &w.topo, SamplingStrategy::ESRCov)
            .unwrap()
    };
    let (h_a, p_a, m_a) = run();
    let (h_b, p_b, m_b) = run();
    assert_eq!(h_a, h_b, "trajectories diverged");
    assert_eq!(p_a, p_b, "models diverged");
    assert_eq!(m_a, m_b, "membership state diverged");
    assert!(
        h_a.events().iter().any(|e| e.regroup().is_some()),
        "a 40%-departure plan over 4 rounds should move somebody"
    );
}

#[test]
fn zero_survivor_groups_are_dissolved_not_held_forever() {
    // Every client departs within the horizon: every group must dissolve
    // (never lingering empty), later rounds are held safely, and the
    // final partition is empty — under either clock (the event clock used
    // to panic sampling from zero groups).
    for clock in [Clock::Lockstep, Clock::EventDriven(AsyncConfig::default())] {
        let w = tiny_world(23).rounds(10);
        let plan = ChurnPlan {
            seed: 41 + seed_offset(),
            horizon: 6,
            departure_fraction: 1.0,
            arrival_fraction: 0.0,
            flap_prob: 0.0,
        };
        let n_clients = w.part.num_clients();
        let t = w.trainer().with_churn(plan, RegroupPolicy::default());
        let membership = Membership::SelfHealing {
            algo: &covg(2, 1.0),
            topology: &w.topo,
            sampling: SamplingStrategy::ESRCov,
        };
        let state = t.run_plan(&FedAvg, &RunPlan { clock, membership }).unwrap();
        let (h, membership) = (&state.history, state.membership.as_ref().unwrap());

        assert!(membership.groups().is_empty(), "{:?}", membership.groups());
        assert_eq!(membership.active_members(), 0);
        let s = summarize_regroups(h.events().iter().filter_map(Event::regroup));
        assert_eq!(s.departures, n_clients);
        assert!(s.dissolved > 0, "no group was ever dissolved: {s}");
        // Emptied-out rounds are held, and the model stays finite throughout.
        let held = gfl_faults::summarize(h.events().iter().filter_map(Event::fault)).rounds_held;
        assert!(held > 0);
        assert!(state.params.iter().all(|w| w.is_finite()));
        assert_eq!(state.next_round, 10, "{clock:?}: held rounds still count");
        assert_eq!(
            h.last_record().unwrap().round,
            9,
            "{clock:?}: eval on cadence"
        );
        // The event clock reports its held rounds too: nothing trained, and
        // the emulated clock never runs backwards.
        if let Some(sched) = &state.scheduler {
            assert_eq!(sched.rounds.len(), 10);
            let idle = sched.rounds.iter().filter(|r| r.trained == 0);
            assert!(idle.count() >= held, "{sched:?}");
            assert!(sched
                .rounds
                .windows(2)
                .all(|w| w[0].clock_s <= w[1].clock_s));
            assert_eq!(Some(sched.clock_s), sched.rounds.last().map(|r| r.clock_s));
        }
    }
}

#[test]
fn arrivals_join_groups_on_their_own_edge() {
    let plan = ChurnPlan {
        seed: 43 + seed_offset(),
        horizon: 4,
        departure_fraction: 0.0,
        arrival_fraction: 0.5,
        flap_prob: 0.0,
    };
    let w = tiny_world(24);
    let topo = &w.topo;
    let t = w
        .trainer()
        .with_churn(plan.clone(), RegroupPolicy::default());
    let (h, _, membership) = t
        .run_healing(&covg(2, 1.0), topo, SamplingStrategy::ESRCov)
        .unwrap();
    let arrivals: Vec<&RegroupEvent> = h
        .events()
        .iter()
        .filter_map(Event::regroup)
        .filter(|e| matches!(e, RegroupEvent::ClientArrived { .. }))
        .collect();
    assert!(!arrivals.is_empty(), "half the clients should arrive late");
    // Every arrival was actually placed, and the final partition keeps
    // every group within one edge.
    for e in &arrivals {
        let RegroupEvent::ClientArrived { group, .. } = e else {
            unreachable!()
        };
        assert!(group.is_some(), "healing policy must place arrivals");
    }
    for g in membership.groups() {
        let on_first_edge = topo.clients_of(0).iter().any(|c| g.contains(c));
        let on_second_edge = topo.clients_of(1).iter().any(|c| g.contains(c));
        assert!(
            !(on_first_edge && on_second_edge),
            "group {g:?} spans both edges"
        );
    }
}

#[test]
fn frozen_policy_leaves_arrivals_unplaced() {
    let plan = ChurnPlan {
        seed: 47 + seed_offset(),
        horizon: 4,
        departure_fraction: 0.0,
        arrival_fraction: 0.5,
        flap_prob: 0.0,
    };
    let w = tiny_world(25);
    let topo = &w.topo;
    let t = w
        .trainer()
        .with_churn(plan.clone(), RegroupPolicy::frozen());
    let (h, _, membership) = t
        .run_healing(&covg(2, 1.0), topo, SamplingStrategy::ESRCov)
        .unwrap();
    let placed = h.events().iter().any(|e| {
        matches!(
            e,
            Event::Regroup(RegroupEvent::ClientArrived { group: Some(_), .. })
        )
    });
    assert!(!placed, "frozen policy must never place arrivals");
    let s = summarize_regroups(h.events().iter().filter_map(Event::regroup));
    assert!(s.dissolved == 0 && s.migrations == 0);
    // The partition is exactly the round-0 formation over the founding
    // cohort (clients already present at round 0) — nobody joins after.
    let founders: Vec<bool> = (0..t.partition().num_clients())
        .map(|c| plan.present(c, 0))
        .collect();
    let founding_groups = gfl_core::engine::form_groups_active(
        &covg(2, 1.0),
        topo,
        &t.partition().label_matrix,
        &founders,
        t.config().seed,
        0,
    );
    assert_eq!(membership.groups(), founding_groups);
}

#[test]
fn self_healing_stays_close_to_clean_while_frozen_degrades() {
    // The acceptance scenario: 20% permanent departures (plus a wave of
    // late arrivals) over 100 rounds. The healed run must finish within 5
    // accuracy points of the clean run; the same churn with regrouping
    // frozen must do no better than the healed run.
    let mut w = tiny_world(26).rounds(100);
    w.cfg.eval_every = 20;
    w.cfg.lr = gfl_nn::sgd::LrSchedule::Constant(0.2);
    let topo = &w.topo;
    let plan = ChurnPlan {
        seed: 53 + seed_offset(),
        horizon: 100,
        departure_fraction: 0.2,
        arrival_fraction: 0.25,
        flap_prob: 0.02,
    };
    let clean = w
        .trainer()
        .run(&w.groups, &FedAvg, SamplingStrategy::ESRCov);

    let healed_trainer = w
        .trainer()
        .with_churn(plan.clone(), RegroupPolicy::default());
    let (healed, p_healed, _) = healed_trainer
        .run_healing(&covg(2, 1.0), topo, SamplingStrategy::ESRCov)
        .unwrap();

    let frozen_trainer = w.trainer().with_churn(plan, RegroupPolicy::frozen());
    let (frozen, p_frozen, _) = frozen_trainer
        .run_healing(&covg(2, 1.0), topo, SamplingStrategy::ESRCov)
        .unwrap();

    assert!(p_healed.iter().all(|w| w.is_finite()));
    assert!(p_frozen.iter().all(|w| w.is_finite()));
    assert!(
        healed.events().iter().any(|e| e.regroup().is_some()),
        "the healed run should have membership transitions"
    );

    let gap_healed = clean.best_accuracy() - healed.best_accuracy();
    assert!(
        gap_healed <= 0.05,
        "healed run degraded too far: clean {} vs healed {} (gap {gap_healed})",
        clean.best_accuracy(),
        healed.best_accuracy()
    );
    assert!(
        frozen.best_accuracy() <= healed.best_accuracy() + 0.02,
        "frozen partition should not beat self-healing: frozen {} vs healed {}",
        frozen.best_accuracy(),
        healed.best_accuracy()
    );
}

/// The hardest determinism contract: faults AND churn AND healing,
/// interrupted after a regroup, checkpointed through the JSON round-trip
/// (membership state included), resumed on a fresh trainer — everything
/// must match the uninterrupted run exactly. Returns the membership state
/// that went through the checkpoint.
fn assert_resume_is_bit_identical(w: TinyWorld, cooldown: usize) -> MembershipState {
    let w = w.rounds(10);
    let topo = &w.topo;
    let plan = ChurnPlan {
        seed: 61 + seed_offset(),
        horizon: 5,
        departure_fraction: 0.5,
        arrival_fraction: 0.3,
        flap_prob: 0.1,
    };
    let policy = RegroupPolicy {
        cooldown,
        ..RegroupPolicy::default()
    };
    let make = || {
        w.trainer()
            .with_faults(FaultPlan::moderate(5), FaultPolicy::default(), topo)
            .with_churn(plan.clone(), policy.clone())
    };
    let algo = covg(2, 1.0);
    let run = RunPlan {
        clock: Clock::Lockstep,
        membership: Membership::SelfHealing {
            algo: &algo,
            topology: topo,
            sampling: SamplingStrategy::ESRCov,
        },
    };

    // Uninterrupted 10 rounds.
    let t = make();
    let mut straight = t.start(&FedAvg);
    t.drive(&FedAvg, &run, &mut straight, 10).unwrap();

    // 5 rounds → checkpoint (with membership) → JSON → fresh trainer → 5.
    let t1 = make();
    let mut half = t1.start(&FedAvg);
    t1.drive(&FedAvg, &run, &mut half, 5).unwrap();
    assert!(
        half.history.events().iter().any(|e| e.regroup().is_some()),
        "need a regroup before the cut for the test to mean anything"
    );
    let cp = Checkpoint::from_state(&half, w.cfg.clone());
    let restored = Checkpoint::from_json(&cp.to_json()).unwrap();
    assert_eq!(
        restored.membership, half.membership,
        "membership state changed in transit"
    );

    let t2 = make();
    let mut resumed = restored.into_state(half.ledger);
    t2.drive(&FedAvg, &run, &mut resumed, 5).unwrap();

    assert_eq!(resumed.params, straight.params, "resumed model diverged");
    assert_eq!(
        resumed.history, straight.history,
        "resumed trajectory diverged"
    );
    assert_eq!(
        resumed.membership, straight.membership,
        "resumed membership diverged"
    );
    half.membership.expect("self-healing runs carry membership")
}

#[test]
fn faulted_churn_resume_from_post_regroup_checkpoint_is_bit_identical() {
    assert_resume_is_bit_identical(tiny_world(27), 1);
}

#[test]
fn checkpoint_roundtrips_a_group_with_infinite_baseline_cov() {
    // The CLI's larger runs exhaust the sample pool, so the last clients
    // hold no data and a group of them has CoV `inf` — which JSON cannot
    // spell as a number, and which used to make the checkpoint unloadable.
    // Here the first edge's eight clients take all 480 samples, so every
    // group the second edge ever forms is one of those.
    let mut w = tiny_world(27);
    let spec = PartitionSpec {
        num_clients: 16,
        alpha: 0.5,
        min_size: 60,
        max_size: 60,
        seed: w.cfg.seed,
    };
    w.part = ClientPartition::dirichlet(&w.train, &spec);
    assert_eq!(w.part.sizes()[8..], [0; 8], "the pool must run dry");
    w.topo = Topology::even_split(2, w.part.sizes());
    let saved = assert_resume_is_bit_identical(w, 1);
    assert!(
        saved.health().iter().any(|h| h.baseline_cov.is_infinite()),
        "no data-less group went through the checkpoint"
    );

    // A hostile `null` in its place is a typed error, not a panic.
    let json = serde_json::to_string(&saved).unwrap();
    assert!(json.contains("\"inf\""), "{json}");
    let hostile = json.replace("\"inf\"", "null");
    assert!(serde_json::from_str::<MembershipState>(&hostile).is_err());
    let hostile = json.replace("\"inf\"", "\"1.5\"");
    assert!(serde_json::from_str::<MembershipState>(&hostile).is_err());
}
