//! Chaos suite: the fault-injection subsystem under deterministic abuse.
//!
//! Every test runs the real Algorithm 1 engine on a tiny synthetic
//! federation with a seeded [`FaultPlan`] and checks the graceful-
//! degradation contract: identical seeds + identical plan ⇒ bit-identical
//! trajectories, injected faults leave structured [`FaultEvent`]s behind,
//! the global model never absorbs a non-finite update, and a moderately
//! faulted run still learns.
//!
//! Set `GFL_SEED` (CI runs 1 and 2) to shift every seed in the suite and
//! shake out seed-sensitive nondeterminism.

use gfl_core::checkpoint::Checkpoint;
use gfl_core::prelude::*;
use gfl_faults::{FaultPlan, FaultPolicy, OutageWindow};
use gfl_tensor::init;
use gfl_test_support::{tiny_world, Runs};

#[test]
fn empty_plan_is_bit_identical_to_no_faults() {
    // Compiling the fault machinery in must cost nothing behaviorally:
    // fault decisions are pure hashes, never draws from the engine RNG.
    let w = tiny_world(11);
    let armed = w
        .trainer()
        .with_faults(FaultPlan::none(), FaultPolicy::default(), &w.topo);
    let a = w
        .trainer()
        .run(&w.groups, &FedAvg, SamplingStrategy::ESRCov);
    let b = armed.run(&w.groups, &FedAvg, SamplingStrategy::ESRCov);
    assert_eq!(a, b);
    assert!(b.events().iter().all(|e| e.fault().is_none()));
}

#[test]
fn faulted_run_is_deterministic() {
    // Identical seeds + identical plan ⇒ bit-identical RunHistory,
    // fault log included.
    let run = || {
        let w = tiny_world(12);
        let t = w
            .trainer()
            .with_faults(FaultPlan::moderate(99), FaultPolicy::default(), &w.topo);
        t.run(&w.groups, &FedAvg, SamplingStrategy::ESRCov)
    };
    let a = run();
    let b = run();
    assert_eq!(a, b);
    assert!(
        a.events().iter().any(|e| e.fault().is_some()),
        "moderate plan should inject something over 4 rounds"
    );
}

#[test]
fn total_dropout_holds_the_round() {
    // dropout_prob = 1.0: every client drops every group round. The global
    // model must be held (x_{t+1} = x_t), stay finite, and each held round
    // must be recorded — even without a fault plan attached.
    let mut w = tiny_world(13);
    w.cfg.dropout_prob = 1.0;
    let rounds = w.cfg.global_rounds;
    let t = w.trainer();
    let initial = t.model().init_params(&mut init::rng(w.cfg.seed));
    let (h, params) = t.run_static(&w.groups, SamplingStrategy::Random);
    assert_eq!(params, initial, "held rounds must not move the model");
    assert!(params.iter().all(|w| w.is_finite()));
    assert_eq!(
        gfl_faults::summarize(h.events().iter().filter_map(Event::fault)).rounds_held,
        rounds
    );
    assert!((0..rounds).all(|r| h.events_in_round(r).len() == 1));
}

#[test]
fn total_dropout_with_quorum_skips_every_group() {
    // Same zero-survivor storm, but with the fault policy armed: every
    // group misses quorum, is skipped, and the round is still held safely.
    let mut w = tiny_world(13);
    w.cfg.dropout_prob = 1.0;
    let rounds = w.cfg.global_rounds;
    let t = w
        .trainer()
        .with_faults(FaultPlan::none(), FaultPolicy::default(), &w.topo);
    let initial = t.model().init_params(&mut init::rng(w.cfg.seed));
    let (h, params) = t.run_static(&w.groups, SamplingStrategy::Random);
    assert_eq!(params, initial);
    let s = gfl_faults::summarize(h.events().iter().filter_map(Event::fault));
    assert_eq!(s.rounds_held, rounds);
    assert!(s.groups_skipped > 0, "quorum should reject empty groups");
}

#[test]
fn corrupt_updates_never_reach_the_global_model() {
    // Every update arrives as NaN; the non-finite gate must reject them
    // all at the client level and leave the global model untouched.
    let plan = FaultPlan {
        corrupt_prob: 1.0,
        ..FaultPlan::none()
    };
    let w = tiny_world(14);
    let t = w
        .trainer()
        .with_faults(plan, FaultPolicy::default(), &w.topo);
    let initial = t.model().init_params(&mut init::rng(w.cfg.seed));
    let (h, params) = t.run_static(&w.groups, SamplingStrategy::Random);
    assert!(params.iter().all(|w| w.is_finite()));
    assert_eq!(params, initial);
    let s = gfl_faults::summarize(h.events().iter().filter_map(Event::fault));
    assert!(s.corrupt_rejected > 0);
    assert_eq!(s.rounds_held, w.cfg.global_rounds);
}

#[test]
fn every_fault_kind_leaves_an_event() {
    // A plan hot enough that each injector fires within a short run, so
    // the audit trail covers the whole taxonomy.
    let plan = FaultPlan {
        seed: 5,
        straggler_fraction: 0.5,
        straggler_factor: 20.0,
        straggler_jitter: 0.0,
        crash_prob: 0.3,
        corrupt_prob: 0.2,
        upload_fail_prob: 0.85,
        edge_outages: vec![OutageWindow {
            edge: 0,
            from_round: 1,
            until_round: 3,
        }],
    };
    let policy = FaultPolicy {
        quorum_fraction: 0.6,
        max_retries: 1,
        ..FaultPolicy::default()
    };
    let w = tiny_world(15).rounds(8);
    let t = w.trainer().with_faults(plan, policy, &w.topo);
    let h = t.run(&w.groups, &FedAvg, SamplingStrategy::Random);
    let s = gfl_faults::summarize(h.events().iter().filter_map(Event::fault));
    assert!(s.crashes > 0, "no crashes recorded: {s}");
    assert!(s.stragglers_cut > 0, "no straggler cuts recorded: {s}");
    assert!(
        s.corrupt_rejected > 0,
        "no corrupt rejections recorded: {s}"
    );
    assert!(s.edge_outages > 0, "no edge outages recorded: {s}");
    assert!(s.upload_retries > 0, "no upload retries recorded: {s}");
    assert!(s.uploads_lost > 0, "no lost uploads recorded: {s}");
    assert!(s.groups_skipped > 0, "no quorum skips recorded: {s}");
}

#[test]
fn moderate_faults_degrade_gracefully() {
    // The headline contract: a moderate fault plan completes with finite
    // parameters, a populated fault log, and accuracy within 5 points of
    // the fault-free baseline.
    let mut w = tiny_world(16).rounds(12);
    w.cfg.lr = gfl_nn::sgd::LrSchedule::Constant(0.2);
    let baseline = w
        .trainer()
        .run(&w.groups, &FedAvg, SamplingStrategy::ESRCov);
    let faulted = w
        .trainer()
        .with_faults(FaultPlan::moderate(3), FaultPolicy::default(), &w.topo);
    let (h, params) = faulted.run_static(&w.groups, SamplingStrategy::ESRCov);
    assert!(params.iter().all(|w| w.is_finite()));
    assert!(h.events().iter().any(|e| e.fault().is_some()));
    let gap = baseline.best_accuracy() - h.best_accuracy();
    assert!(
        gap <= 0.05,
        "faulted run degraded too far: clean {} vs faulted {} (gap {gap})",
        baseline.best_accuracy(),
        h.best_accuracy()
    );
}

#[test]
fn faulted_checkpoint_resume_is_bit_identical() {
    // Satellite: interrupt a *faulted* run midway, checkpoint through the
    // JSON round-trip, resume — the trajectory (records AND fault log)
    // must match the uninterrupted run exactly.
    let w = tiny_world(17).rounds(6);
    let make = || {
        w.trainer()
            .with_faults(FaultPlan::moderate(21), FaultPolicy::default(), &w.topo)
    };
    let t = make();
    let probs = t.sampling_probs(&w.groups, SamplingStrategy::ESRCov);
    let plan = RunPlan {
        clock: Clock::Lockstep,
        membership: Membership::Static {
            groups: &w.groups,
            probs: &probs,
        },
    };

    // Uninterrupted 6 rounds.
    let mut straight = t.start(&FedAvg);
    t.drive(&FedAvg, &plan, &mut straight, 6).unwrap();

    // 3 rounds → checkpoint → JSON round-trip → fresh trainer → 3 more.
    let mut half = t.start(&FedAvg);
    t.drive(&FedAvg, &plan, &mut half, 3).unwrap();
    assert!(
        half.history.events().iter().any(|e| e.fault().is_some()),
        "need faults before the cut for the test to mean anything"
    );
    let cp = Checkpoint::from_state(&half, w.cfg.clone());
    let restored = Checkpoint::from_json(&cp.to_json()).unwrap();
    assert_eq!(restored.history.events(), cp.history.events());

    let t2 = make();
    let mut resumed = restored.into_state(half.ledger);
    t2.drive(&FedAvg, &plan, &mut resumed, 3).unwrap();
    let (p_straight, hist) = (straight.params, straight.history);
    let (p_resumed, hist3) = (resumed.params, resumed.history);
    assert_eq!(p_resumed, p_straight, "resumed model diverged");
    assert_eq!(hist3, hist, "resumed trajectory or fault log diverged");
}

#[test]
fn hostile_checkpoint_bytes_are_typed_errors_never_panics() {
    // The checkpoint of a secure, faulted run — fault log, dropouts and all
    // — cut at every byte and corrupted at every byte: a torn or tampered
    // file must come back as a `CheckpointError` (or, where the damage
    // leaves well-formed JSON of the right shape, as a checkpoint), never
    // as a panic.
    let mut w = tiny_world(23);
    w.cfg.secure_aggregation = true;
    w.cfg.dropout_prob = 0.2;
    let t = w
        .trainer()
        .with_faults(FaultPlan::moderate(21), FaultPolicy::default(), &w.topo);
    let probs = t.sampling_probs(&w.groups, SamplingStrategy::Random);
    let plan = RunPlan {
        clock: Clock::Lockstep,
        membership: Membership::Static {
            groups: &w.groups,
            probs: &probs,
        },
    };
    let state = t.run_plan(&FedAvg, &plan).unwrap();
    assert!(
        state.history.events().iter().any(|e| e.fault().is_some()),
        "need a fault log to tear"
    );
    let json = Checkpoint::from_state(&state, w.cfg).to_json();
    let json = json.trim_end();
    Checkpoint::from_json(json).expect("the intact checkpoint loads");

    for cut in (0..json.len()).filter(|&i| json.is_char_boundary(i)) {
        let torn = Checkpoint::from_json(&json[..cut]);
        assert!(torn.is_err(), "prefix of {cut} bytes loaded");
    }

    let path = std::env::temp_dir().join(format!("gfl_hostile_cp_{}.json", std::process::id()));
    let mut bytes = json.as_bytes().to_vec();
    for at in 0..bytes.len() {
        let intact = bytes[at];
        // A raw control byte is legal nowhere in JSON; the rest may or may
        // not leave a loadable document, and must not panic either way.
        for hostile in [0x00, b'"', b'\\', b'}', b'[', b',', b'e', b'-', b'9'] {
            bytes[at] = hostile;
            if let Ok(text) = std::str::from_utf8(&bytes) {
                let loaded = Checkpoint::from_json(text);
                assert!(
                    hostile != 0x00 || loaded.is_err(),
                    "NUL at byte {at} loaded"
                );
            }
        }
        // Invalid UTF-8 can only arrive through the file.
        if at % 16 == 0 {
            bytes[at] = 0xFF;
            std::fs::write(&path, &bytes).unwrap();
            assert!(Checkpoint::load(&path).is_err(), "0xFF at byte {at} loaded");
        }
        bytes[at] = intact;
    }
    std::fs::remove_file(&path).ok();
}
