//! Adversarial suite: deterministic poisoning campaigns end to end.
//!
//! Covers the attack↔defense loop the engine now closes: campaign
//! injection at the client update boundary, attack-success-rate (ASR)
//! evaluation on the accuracy cadence, defense interceptions (FLAME
//! filter, non-finite gate), and composition with churn, faults, robust
//! aggregation, and secure aggregation.
//!
//! Set `GFL_SEED` (CI runs 1 and 2) to shift every seed in the suite.

use gfl_core::checkpoint::Checkpoint;
use gfl_core::membership::RegroupPolicy;
use gfl_core::prelude::*;
use gfl_faults::{ChurnPlan, FaultPlan, FaultPolicy};
use gfl_test_support::{covg, tiny_world, Runs};

/// A plan aggressive enough that a tiny federation reliably contains
/// adversaries of every kind.
fn heavy_plan(seed: u64) -> AdversaryPlan {
    AdversaryPlan {
        backdoor_fraction: 0.25,
        label_flip_fraction: 0.2,
        model_poison_fraction: 0.2,
        ..AdversaryPlan::moderate(seed)
    }
}

#[test]
fn clean_plan_is_bit_identical_to_no_adversary() {
    // Chaos-style guarantee: compiling the adversary machinery in with a
    // zero-fraction plan must not move a single bit — no engine RNG stream
    // is consumed and no history field materializes.
    let w = tiny_world(41).rounds(6);
    let (h_clean, p_clean) = w.trainer().run_static(&w.groups, SamplingStrategy::ESRCov);
    let (h_adv, p_adv) = w
        .trainer()
        .with_adversary(AdversaryPlan::none())
        .run_static(&w.groups, SamplingStrategy::ESRCov);
    assert_eq!(h_clean, h_adv);
    assert_eq!(p_clean, p_adv);
    assert_eq!(
        serde_json::to_string(&h_clean).unwrap(),
        serde_json::to_string(&h_adv).unwrap(),
        "clean histories must serialize byte-identically"
    );
    assert!(h_adv.events().iter().all(|e| e.attack().is_none()));
    let measured = |r: &RoundRecord| r.trigger_asr.is_some() || r.flip_asr.is_some();
    assert!(!h_adv.records().iter().any(measured));
}

#[test]
fn attacked_run_is_deterministic_and_replayable() {
    let w = tiny_world(42).rounds(6);
    let run = || {
        w.trainer()
            .with_adversary(heavy_plan(w.cfg.seed))
            .run_static(&w.groups, SamplingStrategy::ESRCov)
    };
    let (h1, p1) = run();
    let (h2, p2) = run();
    assert!(
        summarize_attacks(h1.events().iter().filter_map(Event::attack)).injected() > 0,
        "plan must attack"
    );
    assert_eq!(h1, h2);
    assert_eq!(p1, p2);
}

#[test]
fn every_campaign_kind_is_logged_and_measured() {
    // The tiny federation has ~12 clients, so a single plan seed may hash
    // a campaign to zero members. Deterministically scan a few plan seeds
    // until one run exhibits all three campaigns — every assertion below
    // then checks that run.
    let w = tiny_world(43).rounds(6);
    let h = (0..16)
        .map(|d| {
            w.trainer()
                .with_adversary(heavy_plan(w.cfg.seed + 101 * d))
                .run(&w.groups, &FedAvg, SamplingStrategy::ESRCov)
        })
        .find(|h| {
            let s = summarize_attacks(h.events().iter().filter_map(Event::attack));
            s.backdoor > 0 && s.label_flip > 0 && s.model_poison > 0
        })
        .expect("no plan seed produced all three campaigns in 16 tries");
    let s = summarize_attacks(h.events().iter().filter_map(Event::attack));
    assert!(s.backdoor > 0, "no backdoor injections: {s}");
    assert!(s.label_flip > 0, "no label flips: {s}");
    assert!(s.model_poison > 0, "no model poison: {s}");
    // ASR is measured on the same cadence as accuracy, with both
    // campaign-specific rates present.
    for rec in h.records() {
        let t = rec
            .trigger_asr
            .expect("backdoor campaign measures trigger ASR");
        let f = rec.flip_asr.expect("label-flip campaign measures flip ASR");
        assert!((0.0..=1.0).contains(&t));
        assert!((0.0..=1.0).contains(&f));
    }
}

#[test]
fn attacked_run_perturbs_the_model() {
    // The campaigns must actually reach the global model: an attacked run
    // cannot coincide with the clean trajectory.
    let w = tiny_world(44).rounds(6);
    let (_, p_clean) = w.trainer().run_static(&w.groups, SamplingStrategy::ESRCov);
    let (_, p_adv) = w
        .trainer()
        .with_adversary(heavy_plan(w.cfg.seed))
        .run_static(&w.groups, SamplingStrategy::ESRCov);
    assert_ne!(p_clean, p_adv, "attacks never reached the global model");
}

#[test]
fn flame_filter_intercepts_model_poison() {
    // 5×, sign-flipped uploads point away from every honest update; the
    // cosine-clustering filter must cut at least some of them, and each
    // interception must land in the attack log.
    let w = tiny_world(45).rounds(6);
    let plan = AdversaryPlan {
        model_poison_fraction: 0.25,
        ..AdversaryPlan::moderate(w.cfg.seed)
    };
    let groups = w.groups_with(4, 10.0);
    let h = w
        .trainer()
        .with_adversary(plan)
        .with_robust_agg(RobustAggRule::FlameFilter)
        .run(&groups, &FedAvg, SamplingStrategy::ESRCov);
    let s = summarize_attacks(h.events().iter().filter_map(Event::attack));
    assert!(s.model_poison > 0, "no poison to filter: {s}");
    assert!(s.filtered_flame > 0, "filter never fired: {s}");
}

#[test]
fn non_finite_gate_reclassifies_overflowed_poison() {
    // An amplification factor beyond f32 range overflows the poisoned
    // update; the reject-non-finite gate catches it and the injection is
    // recorded as an interception instead.
    let w = tiny_world(46).rounds(6);
    let plan = AdversaryPlan {
        backdoor_fraction: 0.0,
        label_flip_fraction: 0.0,
        model_poison_fraction: 0.3,
        scale_factor: 1e39, // casts to f32 infinity
        ..AdversaryPlan::moderate(w.cfg.seed)
    };
    let (h, p) = w
        .trainer()
        .with_faults(FaultPlan::none(), FaultPolicy::default(), &w.topo)
        .with_adversary(plan)
        .run_static(&w.groups, SamplingStrategy::ESRCov);
    let s = summarize_attacks(h.events().iter().filter_map(Event::attack));
    assert!(s.filtered_non_finite > 0, "gate never fired: {s}");
    assert_eq!(s.model_poison, 0, "overflowed poison still logged: {s}");
    assert!(p.iter().all(|v| v.is_finite()), "poison reached the model");
}

#[test]
fn attacks_survive_secure_aggregation() {
    // Poison is applied before masking, so SecAgg must neither strip the
    // attack nor break the run: the attacked secure trajectory diverges
    // from the clean secure one and still logs its campaign.
    let mut w = tiny_world(47).rounds(6);
    w.cfg.secure_aggregation = true;
    let (h_clean, p_clean) = w.trainer().run_static(&w.groups, SamplingStrategy::Random);
    let (h_adv, p_adv) = w
        .trainer()
        .with_adversary(heavy_plan(w.cfg.seed))
        .run_static(&w.groups, SamplingStrategy::Random);
    assert!(summarize_attacks(h_adv.events().iter().filter_map(Event::attack)).injected() > 0);
    assert!(h_adv.records().iter().any(|r| r.trigger_asr.is_some()));
    assert_ne!(p_clean, p_adv, "SecAgg stripped the attack");
    assert!(h_clean.events().iter().all(|e| e.attack().is_none()));
}

#[test]
fn adversary_composes_with_faults_and_churn() {
    // The full gauntlet: churned self-healing + fault injection + a live
    // adversary, twice — completing without panicking and replaying
    // bit-identically.
    let w = tiny_world(48).rounds(6);
    let algo = covg(2, 1.0);
    let run = || {
        let t = w
            .trainer()
            .with_faults(
                FaultPlan::moderate(w.cfg.seed ^ 0x51),
                FaultPolicy::default(),
                &w.topo,
            )
            .with_churn(
                ChurnPlan {
                    horizon: w.cfg.global_rounds,
                    ..ChurnPlan::moderate(w.cfg.seed ^ 0x52)
                },
                RegroupPolicy::default(),
            )
            .with_adversary(heavy_plan(w.cfg.seed ^ 0x53));
        let (h, p, m) = t
            .run_healing(&algo, &w.topo, SamplingStrategy::ESRCov)
            .expect("self-healing attacked run failed");
        (h, p, m.groups().to_vec())
    };
    let (h1, p1, g1) = run();
    let (h2, p2, g2) = run();
    assert!(
        summarize_attacks(h1.events().iter().filter_map(Event::attack)).injected() > 0,
        "nothing attacked"
    );
    assert_eq!(h1, h2);
    assert_eq!(p1, p2);
    assert_eq!(g1, g2);
}

#[test]
fn attacked_checkpoint_resume_is_bit_identical() {
    // The attack log and ASR trajectory ride through checkpoint JSON: a
    // split session must reproduce the straight run's history bit for bit.
    let w = tiny_world(49).rounds(6);
    let trainer = w.trainer().with_adversary(heavy_plan(w.cfg.seed));
    let probs = trainer.sampling_probs(&w.groups, SamplingStrategy::ESRCov);
    let plan = RunPlan {
        clock: Clock::Lockstep,
        membership: Membership::Static {
            groups: &w.groups,
            probs: &probs,
        },
    };

    let mut straight = trainer.start(&FedAvg);
    trainer.drive(&FedAvg, &plan, &mut straight, 6).unwrap();

    let mut half = trainer.start(&FedAvg);
    trainer.drive(&FedAvg, &plan, &mut half, 3).unwrap();
    let cp = Checkpoint::from_state(&half, w.cfg.clone());
    let restored = Checkpoint::from_json(&cp.to_json()).expect("checkpoint roundtrip");
    assert!(
        restored
            .history
            .events()
            .iter()
            .any(|e| e.attack().is_some()),
        "attack log lost in checkpoint"
    );
    let mut resumed = restored.into_state(half.ledger);
    trainer.drive(&FedAvg, &plan, &mut resumed, 3).unwrap();
    let (p_straight, h_straight) = (straight.params, straight.history);
    let (p_resumed, h_resumed) = (resumed.params, resumed.history);
    assert_eq!(p_straight, p_resumed);
    // The records carry the ASR trajectory.
    assert_eq!(h_straight, h_resumed, "history diverged across resume");
    assert!(h_straight.records().iter().all(|r| r.trigger_asr.is_some()));
}

#[test]
fn attack_defense_telemetry_reaches_the_collector() {
    // gfl-obs surfaces the loop: injected vs filtered counters and ASR
    // gauges exist on attacked runs, and defense counters record the
    // filter's measured work — under either clock (the event clock's
    // traced rounds used to carry none of this, and literal zeros for the
    // pool and allocation fields).
    for clock in [Clock::Lockstep, Clock::EventDriven(AsyncConfig::default())] {
        let w = tiny_world(50).rounds(6);
        let obs = gfl_obs::TraceCollector::new();
        let plan = AdversaryPlan {
            model_poison_fraction: 0.25,
            ..AdversaryPlan::moderate(w.cfg.seed)
        };
        let groups = w.groups_with(4, 10.0);
        let t = w
            .trainer()
            .with_adversary(plan)
            .with_robust_agg(RobustAggRule::FlameFilter)
            .with_observer(std::sync::Arc::clone(&obs));
        let probs = t.sampling_probs(&groups, SamplingStrategy::ESRCov);
        let membership = Membership::Static {
            groups: &groups,
            probs: &probs,
        };
        let plan = RunPlan { clock, membership };
        let h = t.run_plan(&FedAvg, &plan).unwrap().history;
        let trace = obs.finish(1);
        let metrics = &trace.summary.as_ref().expect("trace summary").metrics;
        let get = |name: &str| metrics.counter(name).unwrap_or(0);
        assert!(get("attacks.injected") > 0, "{clock:?}: nothing attacked");
        assert_eq!(
            get("attacks.injected"),
            summarize_attacks(h.events().iter().filter_map(Event::attack)).injected() as u64
        );
        assert_eq!(
            get("attacks.filtered.flame"),
            summarize_attacks(h.events().iter().filter_map(Event::attack)).filtered_flame as u64
        );
        assert!(
            get("defense.similarity_evals") > 0,
            "filter work not counted"
        );
        assert!(get("defense.norm_passes") > 0, "clip work not counted");
        assert!(metrics.gauge("asr.trigger").is_some(), "{clock:?}: no ASR");
        // One thread never fans out, so it has no region to count.
        assert!(
            gfl_parallel::default_parallelism() == 1
                || trace.rounds.iter().all(|r| r.pool_regions > 0),
            "{clock:?}: pool deltas missing from the round records"
        );
        let phases = metrics.histograms.iter().map(|h| h.name.as_str());
        assert!(phases.clone().any(|n| n == "round.train_ms"), "{clock:?}");
        assert!(phases.clone().any(|n| n == "round.eval_ms"), "{clock:?}");
    }
}

#[test]
fn defense_work_shows_up_in_the_cost_ledger() {
    // Satellite: DefenseCost flows into the emulated round time, so a
    // FLAME-defended run is strictly costlier than the same run without
    // the filter.
    let w = tiny_world(51).rounds(6);
    let plan = heavy_plan(w.cfg.seed);
    let groups = w.groups_with(4, 10.0);
    let run_cost = |rule: RobustAggRule| {
        let t = w
            .trainer()
            .with_adversary(plan.clone())
            .with_robust_agg(rule);
        let h = t.run(&groups, &FedAvg, SamplingStrategy::ESRCov);
        h.last_record().expect("trajectory").cost
    };
    let plain = run_cost(RobustAggRule::Mean);
    let defended = run_cost(RobustAggRule::FlameFilter);
    assert!(
        defended > plain,
        "defense cost missing from ledger: defended {defended} <= plain {plain}"
    );
}
