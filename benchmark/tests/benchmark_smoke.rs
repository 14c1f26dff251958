//! `BENCHMARK.json` against the metric catalogue, and an end-to-end `--smoke`
//! run of every workload against the real `gfl` binary.

use std::path::{Path, PathBuf};
use std::process::Command;

use gfl_benchmark::metrics::{END_TO_END, PER_LAYER};
use gfl_benchmark::workloads::WORKLOADS;
use serde_json::Value;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .unwrap()
        .to_path_buf()
}

fn benchmark_json() -> Value {
    let path = repo_root().join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    assert!(text.len() <= 64 * 1024, "BENCHMARK.json is over 64 KiB");
    serde_json::from_str(&text).unwrap()
}

fn name_ok(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.chars().next().unwrap().is_ascii_alphanumeric()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn unit_ok(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

fn str_of<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("`{key}` missing in {v:?}"))
}

fn keys_of(v: &Value) -> Vec<&str> {
    v.as_object()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect()
}

#[test]
fn benchmark_json_matches_the_catalogue() {
    let doc = benchmark_json();
    assert_eq!(
        keys_of(&doc),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let paths: Vec<&str> = doc
        .get("paths")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .map(|p| p.as_str().unwrap())
        .collect();
    assert_eq!(paths, ["benchmark"]);
    let command: Vec<&str> = doc
        .get("command")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .map(|p| p.as_str().unwrap())
        .collect();
    assert_eq!(command, ["bash", "benchmark/run.sh"]);
    let seconds = doc.get("run_seconds").unwrap().as_u64().unwrap();
    assert!((1..=60).contains(&seconds));

    let workloads = doc.get("workloads").unwrap().as_array().unwrap();
    assert_eq!(workloads.len(), WORKLOADS.len());
    for (listed, w) in workloads.iter().zip(&WORKLOADS) {
        assert_eq!(keys_of(listed), ["name", "why"]);
        assert_eq!(str_of(listed, "name"), w.name);
        assert_eq!(str_of(listed, "why"), w.why);
        assert!(name_ok(w.name) && w.why.len() <= 200 && !w.why.contains('\n'));
    }

    let end_to_end = doc.get("end_to_end").unwrap().as_array().unwrap();
    assert_eq!(end_to_end.len(), END_TO_END.len());
    for (listed, e) in end_to_end.iter().zip(&END_TO_END) {
        assert_eq!(keys_of(listed), ["name", "unit", "better", "bound"]);
        assert_eq!(str_of(listed, "name"), e.name);
        assert_eq!(str_of(listed, "unit"), e.unit);
        assert_eq!(str_of(listed, "better"), e.better.as_str());
        let bound = listed.get("bound").unwrap().as_f64().unwrap();
        assert_eq!(bound, e.bound, "{}", e.name);
        assert!(bound > 0.0 && bound <= 0.25 && name_ok(e.name) && unit_ok(e.unit));
    }
    assert!(END_TO_END
        .iter()
        .any(|e| e.name == "setup_s" && e.unit == "s"));

    let per_layer = doc.get("per_layer").unwrap().as_array().unwrap();
    assert_eq!(per_layer.len(), PER_LAYER.len());
    assert!(per_layer.len() <= 128);
    for (listed, p) in per_layer.iter().zip(&PER_LAYER) {
        assert_eq!(keys_of(listed), ["name", "unit", "better"]);
        assert_eq!(str_of(listed, "name"), p.name);
        assert_eq!(str_of(listed, "unit"), p.unit);
        assert_eq!(str_of(listed, "better"), p.better.as_str());
        assert!(name_ok(p.name) && unit_ok(p.unit), "{}", p.name);
    }
}

/// The `gfl` binary tier-1 built (`cargo build --release`), or a debug one.
fn find_gfl() -> PathBuf {
    let mut dirs = Vec::new();
    if let Ok(target) = std::env::var("CARGO_TARGET_DIR") {
        dirs.push(PathBuf::from(target));
    }
    dirs.push(repo_root().join("target"));
    for dir in &dirs {
        for profile in ["release", "debug"] {
            let gfl = dir.join(profile).join("gfl");
            if gfl.is_file() && gfl.with_file_name("gfl-trace").is_file() {
                return gfl;
            }
        }
    }
    panic!("no gfl binary under {dirs:?}: run `cargo build --release -p gfl-cli` at the repository root first");
}

#[test]
fn smoke_run_reports_every_listed_metric_for_every_workload() {
    let gfl = find_gfl();
    let out = Command::new(env!("CARGO_BIN_EXE_gfl-benchmark"))
        .args(["run", "--smoke", "--reps", "2", "--seed", "3", "--gfl"])
        .arg(&gfl)
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "exit {:?}\n{stdout}\n{stderr}",
        out.status.code()
    );
    let results_path = stdout
        .lines()
        .rev()
        .find_map(|l| l.strip_prefix("wrote "))
        .unwrap_or_else(|| panic!("no `wrote <results.json>` line:\n{stdout}"));
    let run_dir = Path::new(results_path).parent().unwrap();
    assert!(run_dir.join("trace.jsonl").is_file() && run_dir.join("logs").is_dir());

    let results: Value =
        serde_json::from_str(&std::fs::read_to_string(results_path).unwrap()).unwrap();
    assert_eq!(results.get("seed").unwrap().as_u64(), Some(3));
    assert_eq!(results.get("size").unwrap().as_str(), Some("smoke"));
    assert_eq!(results.get("failure_share").unwrap().as_f64(), Some(0.0));
    let env = results.get("environment").unwrap();
    for key in [
        "nproc",
        "cpu_model",
        "simd_tier",
        "child_threads",
        "undersized",
        "rustc",
        "git_commit",
    ] {
        assert!(env.get(key).is_some(), "environment lacks {key}");
    }

    let listed = benchmark_json();
    let workloads = results.get("workloads").unwrap();
    for w in listed.get("workloads").unwrap().as_array().unwrap() {
        let name = str_of(w, "name");
        let result = workloads
            .get(name)
            .unwrap_or_else(|| panic!("results lack workload {name}"));
        assert_eq!(result.get("failed").unwrap().as_u64(), Some(0), "{name}");
        for e in listed.get("end_to_end").unwrap().as_array().unwrap() {
            let metric = result
                .get("end_to_end")
                .and_then(|m| m.get(str_of(e, "name")))
                .unwrap_or_else(|| panic!("{name} lacks {}", str_of(e, "name")));
            assert_eq!(str_of(metric, "unit"), str_of(e, "unit"));
            let value = metric.get("value").unwrap().as_f64().unwrap();
            assert!(
                value.is_finite() && value > 0.0,
                "{name}.{}: {value}",
                str_of(e, "name")
            );
            assert_eq!(metric.get("runs").unwrap().as_array().unwrap().len(), 2);
        }
        for p in listed.get("per_layer").unwrap().as_array().unwrap() {
            let metric = result
                .get("per_layer")
                .and_then(|m| m.get(str_of(p, "name")))
                .unwrap_or_else(|| panic!("{name} lacks {}", str_of(p, "name")));
            assert!(metric.get("value").unwrap().as_f64().unwrap().is_finite());
        }
        let ledgers = result.get("ledgers").unwrap().as_array().unwrap();
        assert_eq!(ledgers.len(), 2, "{name}: a set-up and a rounds ledger");
    }
    // Every span line is valid JSON with a known parent.
    let trace = std::fs::read_to_string(run_dir.join("trace.jsonl")).unwrap();
    let mut ids = Vec::new();
    for line in trace.lines() {
        let span: Value = serde_json::from_str(line).unwrap();
        if let Some(parent) = span.get("parent").unwrap().as_u64() {
            assert!(ids.contains(&parent), "span {line} names an unknown parent");
        }
        ids.push(span.get("id").unwrap().as_u64().unwrap());
    }
    assert!(ids.len() > 100);
}

#[test]
fn usage_errors_exit_non_zero_without_a_result_line() {
    for args in [
        &["--workload", "no-such-workload", "--seed", "1"][..],
        &["run", "--reps", "0"],
        &["frobnicate"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_gfl-benchmark"))
            .args(args)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(!String::from_utf8_lossy(&out.stdout).contains("\"correct\""));
    }
    let missing = Command::new(env!("CARGO_BIN_EXE_gfl-benchmark"))
        .args([
            "--workload",
            "dense-train",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
            "--gfl",
            "/nonexistent/gfl",
        ])
        .output()
        .unwrap();
    assert_eq!(missing.status.code(), Some(2));
}
