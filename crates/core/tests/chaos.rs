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
use gfl_data::{ClientPartition, PartitionSpec, SyntheticSpec};
use gfl_faults::{FaultPlan, FaultPolicy, OutageWindow};
use gfl_nn::Params;
use gfl_sim::Topology;
use gfl_tensor::init;

/// Whole FedAvg runs from a fresh state, one method per clock × membership
/// cell this suite drives.
trait Runs {
    fn run_plan(
        &self,
        clock: Clock,
        membership: Membership<'_>,
    ) -> Result<RunState, PartitionError>;
    fn run_static(&self, groups: &[Group], sampling: SamplingStrategy) -> (RunHistory, Params);
}

impl Runs for Trainer {
    fn run_plan(
        &self,
        clock: Clock,
        membership: Membership<'_>,
    ) -> Result<RunState, PartitionError> {
        let mut state = self.start(&FedAvg);
        let plan = RunPlan { clock, membership };
        self.drive(&FedAvg, &plan, &mut state, self.config().global_rounds)?;
        Ok(state)
    }
    fn run_static(&self, groups: &[Group], sampling: SamplingStrategy) -> (RunHistory, Params) {
        let probs = self.sampling_probs(groups, sampling);
        let membership = Membership::Static {
            groups,
            probs: &probs,
        };
        let s = self.run_plan(Clock::Lockstep, membership).unwrap();
        (s.history, s.params)
    }
}

/// CI seed shift: `GFL_SEED=n` offsets every seed in the suite.
fn seed_offset() -> u64 {
    std::env::var("GFL_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// Tiny two-edge federation shared by every chaos test.
fn world(
    seed: u64,
) -> (
    GroupFelConfig,
    gfl_nn::Network,
    ClientPartition,
    Topology,
    Vec<Group>,
    gfl_data::Dataset,
    gfl_data::Dataset,
) {
    let seed = seed + seed_offset();
    let data = SyntheticSpec::tiny().generate(600, seed);
    let (train, test) = data.split_holdout(5);
    let part = ClientPartition::dirichlet(&train, &PartitionSpec::tiny(0.5, seed));
    let topo = Topology::even_split(2, part.sizes());
    let groups = form_groups_per_edge(
        &CovGrouping {
            min_group_size: 2,
            max_cov: 1.0,
        },
        &topo,
        &part.label_matrix,
        seed,
    );
    let mut cfg = GroupFelConfig::tiny();
    cfg.seed = seed;
    (
        cfg,
        gfl_nn::zoo::tiny(4, 3),
        part,
        topo,
        groups,
        train,
        test,
    )
}

fn trainer(seed: u64) -> (Trainer, Topology, Vec<Group>) {
    let (cfg, model, part, topo, groups, train, test) = world(seed);
    (Trainer::new(cfg, model, train, part, test), topo, groups)
}

#[test]
fn empty_plan_is_bit_identical_to_no_faults() {
    // Compiling the fault machinery in must cost nothing behaviorally:
    // fault decisions are pure hashes, never draws from the engine RNG.
    let (clean, _, groups) = trainer(11);
    let (armed, topo, _) = trainer(11);
    let armed = armed.with_faults(FaultPlan::none(), FaultPolicy::default(), &topo);
    let a = clean.run(&groups, &FedAvg, SamplingStrategy::ESRCov);
    let b = armed.run(&groups, &FedAvg, SamplingStrategy::ESRCov);
    assert_eq!(a, b);
    assert!(b.fault_events().is_empty());
}

#[test]
fn faulted_run_is_deterministic() {
    // Identical seeds + identical plan ⇒ bit-identical RunHistory,
    // fault log included.
    let run = || {
        let (t, topo, groups) = trainer(12);
        let t = t.with_faults(FaultPlan::moderate(99), FaultPolicy::default(), &topo);
        t.run(&groups, &FedAvg, SamplingStrategy::ESRCov)
    };
    let a = run();
    let b = run();
    assert_eq!(a, b);
    assert!(
        !a.fault_events().is_empty(),
        "moderate plan should inject something over 4 rounds"
    );
}

#[test]
fn total_dropout_holds_the_round() {
    // dropout_prob = 1.0: every client drops every group round. The global
    // model must be held (x_{t+1} = x_t), stay finite, and each held round
    // must be recorded — even without a fault plan attached.
    let (cfg, model, part, _topo, groups, train, test) = world(13);
    let mut cfg = cfg;
    cfg.dropout_prob = 1.0;
    let seed = cfg.seed;
    let rounds = cfg.global_rounds;
    let t = Trainer::new(cfg, model, train, part, test);
    let initial = t.model().init_params(&mut init::rng(seed));
    let (h, params) = t.run_static(&groups, SamplingStrategy::Random);
    assert_eq!(params, initial, "held rounds must not move the model");
    assert!(params.iter().all(|w| w.is_finite()));
    assert_eq!(h.fault_summary().rounds_held, rounds);
    assert!((0..rounds).all(|r| h.faults_in_round(r).count() == 1));
}

#[test]
fn total_dropout_with_quorum_skips_every_group() {
    // Same zero-survivor storm, but with the fault policy armed: every
    // group misses quorum, is skipped, and the round is still held safely.
    let (cfg, model, part, topo, groups, train, test) = world(13);
    let mut cfg = cfg;
    cfg.dropout_prob = 1.0;
    let seed = cfg.seed;
    let rounds = cfg.global_rounds;
    let t = Trainer::new(cfg, model, train, part, test).with_faults(
        FaultPlan::none(),
        FaultPolicy::default(),
        &topo,
    );
    let initial = t.model().init_params(&mut init::rng(seed));
    let (h, params) = t.run_static(&groups, SamplingStrategy::Random);
    assert_eq!(params, initial);
    let s = h.fault_summary();
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
    let (t, topo, groups) = trainer(14);
    let t = t.with_faults(plan, FaultPolicy::default(), &topo);
    let seed = t.config().seed;
    let initial = t.model().init_params(&mut init::rng(seed));
    let (h, params) = t.run_static(&groups, SamplingStrategy::Random);
    assert!(params.iter().all(|w| w.is_finite()));
    assert_eq!(params, initial);
    let s = h.fault_summary();
    assert!(s.corrupt_rejected > 0);
    assert_eq!(s.rounds_held, t.config().global_rounds);
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
    let (cfg, model, part, topo, groups, train, test) = world(15);
    let mut cfg = cfg;
    cfg.global_rounds = 8;
    let t = Trainer::new(cfg, model, train, part, test).with_faults(plan, policy, &topo);
    let h = t.run(&groups, &FedAvg, SamplingStrategy::Random);
    let s = h.fault_summary();
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
    let (cfg, model, part, topo, groups, train, test) = world(16);
    let mut cfg = cfg;
    cfg.global_rounds = 12;
    cfg.lr = gfl_nn::sgd::LrSchedule::Constant(0.2);
    let clean = Trainer::new(
        cfg.clone(),
        model.clone(),
        train.clone(),
        part.clone(),
        test.clone(),
    );
    let baseline = clean.run(&groups, &FedAvg, SamplingStrategy::ESRCov);
    let faulted = Trainer::new(cfg, model, train, part, test).with_faults(
        FaultPlan::moderate(3),
        FaultPolicy::default(),
        &topo,
    );
    let (h, params) = faulted.run_static(&groups, SamplingStrategy::ESRCov);
    assert!(params.iter().all(|w| w.is_finite()));
    assert!(!h.fault_events().is_empty());
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
    let (cfg, model, part, topo, groups, train, test) = world(17);
    let mut cfg = cfg;
    cfg.global_rounds = 6;
    let make = || {
        Trainer::new(
            cfg.clone(),
            model.clone(),
            train.clone(),
            part.clone(),
            test.clone(),
        )
        .with_faults(FaultPlan::moderate(21), FaultPolicy::default(), &topo)
    };
    let t = make();
    let probs = t.sampling_probs(&groups, SamplingStrategy::ESRCov);
    let plan = RunPlan {
        clock: Clock::Lockstep,
        membership: Membership::Static {
            groups: &groups,
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
        !half.history.fault_events().is_empty(),
        "need faults before the cut for the test to mean anything"
    );
    let cp = Checkpoint::from_state(&half, cfg.clone());
    let restored = Checkpoint::from_json(&cp.to_json()).unwrap();
    assert_eq!(restored.history.fault_events(), cp.history.fault_events());

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
    let (cfg, model, part, topo, groups, train, test) = world(23);
    let mut cfg = cfg;
    cfg.secure_aggregation = true;
    cfg.dropout_prob = 0.2;
    let t = Trainer::new(cfg.clone(), model, train, part, test).with_faults(
        FaultPlan::moderate(21),
        FaultPolicy::default(),
        &topo,
    );
    let probs = t.sampling_probs(&groups, SamplingStrategy::Random);
    let membership = Membership::Static {
        groups: &groups,
        probs: &probs,
    };
    let state = t.run_plan(Clock::Lockstep, membership).unwrap();
    assert!(
        !state.history.fault_events().is_empty(),
        "need a fault log to tear"
    );
    let json = Checkpoint::from_state(&state, cfg).to_json();
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
