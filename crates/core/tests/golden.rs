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

use gfl_obs::diff::first_divergence;
use gfl_test_support::{for_each_thread_count, golden, golden_scenario, Streamed};
use serde::Value;

/// Fixed seeds every scenario is snapshotted at.
const GOLDEN_SEEDS: [u64; 2] = [1, 2];

fn golden_file(scenario: &str, seed: u64) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{scenario}_seed{seed}.json"))
}

fn check_golden(scenario: &str, seed: u64) {
    let history = golden_scenario(scenario, seed, None);
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
    // `golden_virtual_million_matches` below.
    for seed in GOLDEN_SEEDS {
        check_golden("virtual", seed);
    }
}

#[test]
fn golden_virtual_million_matches() {
    // The acceptance-criteria run: 10⁶ paper_vision-shaped virtual clients,
    // a small sampled-group count, snapshot-pinned. ~2 s in debug builds
    // (the kernel crates compile optimised there too), ~1 s in release.
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
            let history = golden_scenario(scenario, GOLDEN_SEEDS[0], Some(obs));
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
