//! Golden-trace regression tests: canonical `RunHistory` snapshots.
//!
//! Each scenario (clean, faulted, churned/self-healing, secure, attacked)
//! runs a small fixed federation at two fixed seeds and compares the
//! pretty-printed `RunHistory` — evaluation records, fault log, and regroup
//! log, one field a line — byte for byte against a committed JSON snapshot
//! under `tests/golden/`. Any behavioral drift in sampling, training,
//! aggregation, fault injection, or healing shows up as the first line
//! that differs.
//!
//! ## Regenerating snapshots (blessing)
//!
//! When a change *intentionally* alters trajectories, regenerate with:
//!
//! ```text
//! GFL_BLESS=1 cargo test -p gfl-core --test golden
//! ```
//!
//! then inspect `git diff crates/core/tests/golden/` and commit the new
//! snapshots together with the change that explains them.
//!
//! Unlike the determinism suite, these tests deliberately **ignore**
//! `GFL_SEED`: snapshots are pinned to fixed seeds so the same goldens
//! hold in every CI shard. Thread count is also irrelevant — the
//! determinism suite proves trajectories are thread-count invariant.

use gfl_core::membership::RegroupPolicy;
use gfl_core::prelude::*;
use gfl_faults::{AdversaryPlan, ChurnPlan, FaultPlan, FaultPolicy};
use gfl_obs::diff::first_divergence;
use gfl_sim::Topology;
use gfl_test_support::{covg, for_each_thread_count, golden, Runs, Streamed, TinyWorld};
use serde::Value;

/// Fixed seeds every scenario is snapshotted at.
const GOLDEN_SEEDS: [u64; 2] = [1, 2];

fn golden_file(scenario: &str, seed: u64) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{scenario}_seed{seed}.json"))
}

fn run_scenario(name: &str, seed: u64) -> RunHistory {
    run_scenario_observed(name, seed, None)
}

/// Vision-shaped virtual federation (paper §7.2 client shape: 20–200
/// rows, 10 classes, 64-dim features) at an arbitrary population size.
/// Groups are stream-formed — the only formation that stays sub-second at
/// 10⁶ clients — and only `cfg.sampled_groups` of them train per round.
fn virtual_world(
    clients: usize,
    seed: u64,
) -> (
    GroupFelConfig,
    gfl_nn::Network,
    gfl_data::VirtualPopulation,
    Vec<Group>,
    gfl_data::Dataset,
) {
    let pop =
        gfl_data::VirtualPopulation::new(gfl_data::VirtualSpec::paper_vision(clients, 0.1, seed));
    let sizes: Vec<usize> = (0..pop.num_clients()).map(|c| pop.client_size(c)).collect();
    let topo = Topology::even_split(8, sizes);
    let groups = form_groups_per_edge(
        &StreamGrouping { group_size: 8 },
        &topo,
        pop.label_matrix(),
        seed,
    );
    let test = pop.test_set(512);
    let mut cfg = GroupFelConfig::tiny();
    cfg.seed = seed;
    cfg.global_rounds = 3;
    (cfg, gfl_nn::zoo::vision_model(), pop, groups, test)
}

/// Like [`run_scenario`], with an optional trace collector attached to the
/// trainer — used to replay the golden scenarios under observation.
fn run_scenario_observed(
    name: &str,
    seed: u64,
    obs: Option<std::sync::Arc<gfl_obs::TraceCollector>>,
) -> RunHistory {
    let attach = |t: Trainer| match &obs {
        Some(o) => t.with_observer(std::sync::Arc::clone(o)),
        None => t,
    };
    // Virtual scenarios derive their population instead of materializing
    // one; they never touch the eager world.
    let virtual_clients = match name {
        "virtual" => Some(20_000),
        "virtual-1m" => Some(1_000_000),
        _ => None,
    };
    if let Some(clients) = virtual_clients {
        let (cfg, model, pop, groups, test) = virtual_world(clients, seed);
        let t = attach(Trainer::try_new(cfg, model, pop, test).unwrap());
        return t.run(&groups, &FedAvg, SamplingStrategy::ESRCov);
    }
    // The determinism suite's world, with no seed shifting.
    let mut w = TinyWorld::at(seed);
    match name {
        "clean" => attach(w.trainer()).run(&w.groups, &FedAvg, SamplingStrategy::ESRCov),
        "faulted" => {
            let t = attach(w.trainer().with_faults(
                FaultPlan::moderate(99 + seed),
                FaultPolicy::default(),
                &w.topo,
            ));
            t.run(&w.groups, &FedAvg, SamplingStrategy::ESRCov)
        }
        "churned" => {
            let t = attach(w.trainer().with_churn(
                ChurnPlan {
                    horizon: w.cfg.global_rounds,
                    ..ChurnPlan::moderate(w.cfg.seed)
                },
                RegroupPolicy::default(),
            ));
            let (h, _, _) = t
                .run_healing(&covg(2, 1.0), &w.topo, SamplingStrategy::ESRCov)
                .expect("self-healing run failed");
            h
        }
        "secure" => {
            w.cfg.secure_aggregation = true;
            attach(w.trainer()).run(&w.groups, &FedAvg, SamplingStrategy::Random)
        }
        "attacked" => {
            // Attacked + defended: a mixed campaign against FLAME-filtered
            // aggregation. Groups are re-formed larger so the filter's
            // ≥3-live-member floor is met and interceptions actually land
            // in the snapshot.
            let groups = w.groups_with(4, 10.0);
            let plan = AdversaryPlan {
                backdoor_fraction: 0.2,
                label_flip_fraction: 0.15,
                model_poison_fraction: 0.15,
                ..AdversaryPlan::moderate(77 + seed)
            };
            let t = attach(
                w.trainer()
                    .with_adversary(plan)
                    .with_robust_agg(RobustAggRule::FlameFilter),
            );
            let h = t.run(&groups, &FedAvg, SamplingStrategy::ESRCov);
            assert!(
                h.attack_summary().injected() > 0,
                "attacked snapshot must contain injections"
            );
            h
        }
        other => panic!("unknown scenario {other}"),
    }
}

fn check_golden(scenario: &str, seed: u64) {
    let history = run_scenario(scenario, seed);
    let rendered = serde_json::to_string_pretty(&history).expect("serialize history") + "\n";
    golden::check(&golden_file(scenario, seed), rendered.as_bytes());
}

#[test]
fn golden_clean_histories_match() {
    for seed in GOLDEN_SEEDS {
        check_golden("clean", seed);
    }
}

#[test]
fn golden_faulted_histories_match() {
    for seed in GOLDEN_SEEDS {
        check_golden("faulted", seed);
    }
}

#[test]
fn golden_churned_histories_match() {
    for seed in GOLDEN_SEEDS {
        check_golden("churned", seed);
    }
}

#[test]
fn golden_secure_histories_match() {
    for seed in GOLDEN_SEEDS {
        check_golden("secure", seed);
    }
}

#[test]
fn golden_attacked_histories_match() {
    for seed in GOLDEN_SEEDS {
        check_golden("attacked", seed);
    }
}

#[test]
fn golden_virtual_histories_match() {
    // The paper_vision-shaped virtual scenario at a CI-sized population.
    // The same trajectory shape at 10⁶ clients is pinned by
    // `golden_virtual_million_matches` below (GFL_SCALE-gated).
    for seed in GOLDEN_SEEDS {
        check_golden("virtual", seed);
    }
}

#[test]
fn golden_virtual_million_matches() {
    // The acceptance-criteria run: 10⁶ paper_vision-shaped virtual clients,
    // a small sampled-group count, snapshot-pinned. ~30 s in debug builds,
    // ~1 s in release, so it only runs when the scale smoke asks for it:
    // `GFL_SCALE=1 cargo test --release -p gfl-core --test golden`.
    if std::env::var("GFL_SCALE").ok().as_deref() != Some("1") {
        return;
    }
    check_golden("virtual-1m", GOLDEN_SEEDS[0]);
}

#[test]
fn divergence_reporting_finds_the_first_differing_field() {
    let a: Value = serde_json::from_str(r#"{"x":[{"y":1.5},{"y":2.0}],"z":"s"}"#).unwrap();
    let b: Value = serde_json::from_str(r#"{"x":[{"y":1.5},{"y":2.5}],"z":"s"}"#).unwrap();
    let d = first_divergence("h", &a, &b).expect("must diverge");
    assert!(d.starts_with("h.x[1].y:"), "got {d}");
    assert_eq!(first_divergence("h", &a, &a), None);
}

#[test]
fn streamed_golden_scenarios_are_unperturbed_by_observation() {
    // Streaming observation must change nothing: for every golden scenario,
    // at 1 and 8 threads, the run under a streaming collector still matches
    // its golden snapshot, and what it streamed parses to a complete trace.
    for_each_thread_count(&[1, 8], |threads| {
        for scenario in ["clean", "faulted", "churned", "secure"] {
            let streamed = Streamed::new(threads);
            let obs = std::sync::Arc::clone(&streamed.obs);
            let history = run_scenario_observed(scenario, GOLDEN_SEEDS[0], Some(obs));
            let back = streamed.finish();
            assert!(back.summary.is_some(), "{scenario}: summary line missing");

            let rendered = serde_json::to_string_pretty(&history).expect("serialize history");
            let expected = std::fs::read_to_string(golden_file(scenario, GOLDEN_SEEDS[0]))
                .expect("golden snapshot present");
            assert_eq!(
                rendered.trim(),
                expected.trim(),
                "{scenario} @ {threads} threads: streaming observation perturbed the run"
            );
        }
    });
}
