//! Median / quartile / verdict arithmetic, ledger reconciliation on a
//! synthetic span set, and `compare` on two synthetic result files.

use std::time::{Duration, Instant};

use gfl_benchmark::spans::{Ledger, Recorder, Span};
use gfl_benchmark::stats::{compare, Better, Summary, Verdict};

#[test]
fn quartiles_follow_pythons_exclusive_method() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    let s = Summary::of(&v).unwrap();
    assert_eq!(
        (s.q1, s.median, s.q3, s.min, s.max, s.n),
        (2.75, 5.5, 8.25, 1.0, 10.0, 10)
    );
    assert!((s.spread() - 1.0).abs() < 1e-12);
    // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
    let s = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
    assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
    // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
    let s = Summary::of(&[16.0, 1.0, 4.0, 2.0, 8.0]).unwrap();
    assert_eq!((s.q1, s.median, s.q3), (1.5, 4.0, 12.0));
    // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
    let s = Summary::of(&[1.0, 2.0]).unwrap();
    assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
    let one = Summary::of(&[7.0]).unwrap();
    assert_eq!(
        (one.q1, one.median, one.q3, one.spread()),
        (7.0, 7.0, 7.0, 0.0)
    );
    assert!(Summary::of(&[]).is_none());
    assert!(Summary::of(&[1.0, f64::NAN]).is_none());
    assert!(Summary::of(&[1.0, f64::INFINITY]).is_none());
}

#[test]
fn verdicts_respect_direction_bound_and_spread() {
    let a = [10.0, 10.1, 9.9, 10.0, 10.05];
    let v = |b: &[f64], better| compare(&a, b, better, 0.1).unwrap().verdict;
    assert_eq!(v(&[10.2, 10.3, 10.1], Better::Lower), Verdict::Same);
    assert_eq!(
        v(&[10.9, 11.0, 11.05], Better::Lower),
        Verdict::Same,
        "within the bound"
    );
    assert_eq!(v(&[11.5, 11.6, 11.4], Better::Lower), Verdict::Worse);
    assert_eq!(v(&[11.5, 11.6, 11.4], Better::Higher), Verdict::Better);
    assert_eq!(v(&[8.0, 8.1, 10.0], Better::Lower), Verdict::Better);
    assert_eq!(v(&[8.0, 8.1, 10.0], Better::Higher), Verdict::Worse);
    // A's own quartiles are wider than the bound: a 10% change cannot be
    // told from noise …
    let noisy = [8.0, 10.0, 12.0, 9.0, 11.0];
    let c = compare(&noisy, &[11.5, 9.0, 10.0], Better::Lower, 0.1).unwrap();
    assert_eq!(c.verdict, Verdict::Unresolved);
    // … unless every run of B beats every run of A.
    let c = compare(&noisy, &[7.0, 7.5, 7.9], Better::Lower, 0.1).unwrap();
    assert_eq!(c.verdict, Verdict::Better);
    assert!((c.ratio - 0.75).abs() < 1e-12, "the ratio's base is A");
    assert_eq!((c.a.median, c.b.median), (10.0, 7.5));
    assert!(compare(&[], &[1.0], Better::Lower, 0.1).is_none());
}

/// A recorder holding a root, its phases and probe spans of known lengths.
fn synthetic() -> Recorder {
    let mut rec = Recorder::new();
    let t0 = Instant::now();
    let at = |ms: u64| t0 + Duration::from_millis(ms);
    let root = rec.record(None, "w", "cli", "child", at(0), at(1000), 1);
    let setup = rec.record(Some(root), "w", "cli", "setup", at(0), at(200), 1);
    let rounds = rec.record(
        Some(root),
        "w",
        "core.engine",
        "rounds",
        at(200),
        at(1000),
        10,
    );
    rec.record(Some(setup), "w", "data", "generate", at(2000), at(2150), 1);
    // Three spans of 100 calls each: 2 ms, 3 ms and 10 ms per call.
    for (i, per_call_ms) in [2u64, 3, 10].into_iter().enumerate() {
        let start = 3000 + 2000 * i as u64;
        rec.record(
            Some(rounds),
            "w",
            "core.local",
            "step",
            at(start),
            at(start + 100 * per_call_ms),
            100,
        );
    }
    rec.record(
        Some(rounds),
        "other",
        "core.local",
        "step",
        at(9000),
        at(9999),
        1,
    );
    rec
}

#[test]
fn ledger_reconciles_a_synthetic_span_set() {
    let rec = synthetic();
    // Seconds per call of the workload's own step spans: 2, 3 and 10 ms.
    let per_call: Vec<f64> = rec
        .spans()
        .iter()
        .filter(|s: &&Span| s.workload == "w" && s.name == "step")
        .map(|s| s.duration_ns() as f64 * 1e-9 / s.calls as f64)
        .collect();
    let step = gfl_benchmark::stats::median(&per_call).unwrap();
    assert!((step - 0.003).abs() < 1e-9, "{per_call:?}");

    // 200 steps of 3 ms and 4 evaluations of 10 ms against 0.8 s of rounds.
    let ledger = Ledger::build(
        "w",
        "rounds",
        0.8,
        &[
            ("core.local", "step", 200.0, step),
            ("nn", "evaluate", 4.0, 0.010),
        ],
    );
    assert!((ledger.rows[0].modelled_s - 0.6).abs() < 1e-9);
    assert!((ledger.rows[0].share - 0.75).abs() < 1e-9);
    assert!((ledger.layer_share("nn") - 0.05).abs() < 1e-9);
    assert_eq!(ledger.layer_share("secagg"), 0.0);
    assert!((ledger.remainder_s - 0.16).abs() < 1e-9);
    assert!((ledger.remainder_share - 0.2).abs() < 1e-9);
    let shares: f64 = ledger.rows.iter().map(|r| r.share).sum::<f64>() + ledger.remainder_share;
    assert!(
        (shares - 1.0).abs() < 1e-12,
        "rows and remainder account for the whole phase"
    );

    // A model that explains more than was measured shows as a negative
    // remainder rather than being clamped away.
    let over = Ledger::build("w", "rounds", 0.5, &[("core.local", "step", 200.0, step)]);
    assert!(over.remainder_share < 0.0);
}

#[test]
fn spans_serialise_one_json_object_per_line() {
    let rec = synthetic();
    let mut bytes = Vec::new();
    rec.write_jsonl(&mut bytes).unwrap();
    let text = String::from_utf8(bytes).unwrap();
    assert_eq!(text.lines().count(), rec.spans().len());
    let keys = [
        "id", "parent", "workload", "layer", "name", "start_ns", "end_ns", "calls",
    ];
    for (line, span) in text.lines().zip(rec.spans()) {
        let v: serde_json::Value = serde_json::from_str(line).unwrap();
        assert!(keys.iter().all(|k| v.get(k).is_some()), "{line}");
        assert_eq!(v.get("id").unwrap().as_u64(), Some(span.id));
        assert_eq!(v.get("parent").unwrap().as_u64(), span.parent);
        assert!(v.get("end_ns").unwrap().as_u64() >= v.get("start_ns").unwrap().as_u64());
    }
    // Every parent is an earlier span: the file reads top-down.
    assert!(rec
        .spans()
        .iter()
        .all(|s| s.parent.is_none_or(|p| p < s.id)));
}

fn result_file(
    dir: &std::path::Path,
    name: &str,
    seed: u64,
    wall: [f64; 3],
    failure_share: f64,
    acc: f64,
) -> std::path::PathBuf {
    let doc = format!(
        r#"{{"seed": {seed}, "failure_share": {failure_share}, "workloads": {{"dense-train": {{
            "end_to_end": {{
                "run_wall_s": {{"better": "lower", "bound": 0.1, "runs": [{}, {}, {}]}},
                "rounds_per_s": {{"better": "higher", "bound": 0.1, "runs": [5.0, 5.1, 4.9]}}
            }},
            "per_layer": {{"engine.best_accuracy": {{"value": {acc}, "unit": "ratio"}}}}
        }}}}}}"#,
        wall[0], wall[1], wall[2]
    );
    let path = dir.join(name);
    std::fs::write(&path, doc).unwrap();
    path
}

#[test]
fn compare_prints_ratio_with_base_and_exits_on_worse() {
    let dir = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("compare");
    std::fs::create_dir_all(&dir).unwrap();
    let a = result_file(&dir, "a.json", 1, [1.00, 1.01, 0.99], 0.0, 0.654);
    let run = |b: &std::path::Path| {
        let mut out = Vec::new();
        let code = gfl_benchmark::compare::run(&a, b, &mut out).unwrap();
        (code, String::from_utf8(out).unwrap())
    };

    let same = result_file(&dir, "same.json", 1, [1.02, 1.00, 1.01], 0.0, 0.654);
    let (code, text) = run(&same);
    assert_eq!(code, 0, "{text}");
    assert!(
        text.contains("B/A") && text.contains("same") && text.contains("identical"),
        "{text}"
    );

    let worse = result_file(&dir, "worse.json", 1, [1.30, 1.31, 1.29], 0.0, 0.654);
    let (code, text) = run(&worse);
    assert_eq!(code, 1, "{text}");
    assert!(text.contains("1.300x") && text.contains("worse"), "{text}");

    let failing = result_file(&dir, "failing.json", 1, [1.0, 1.0, 1.0], 0.25, 0.654);
    assert_eq!(
        run(&failing).0,
        1,
        "a higher failure share fails the comparison"
    );

    let drifted = result_file(&dir, "drifted.json", 1, [1.0, 1.0, 1.0], 0.0, 0.655);
    let (code, text) = run(&drifted);
    assert_eq!(
        code, 1,
        "an exact metric that differs for one seed fails it"
    );
    assert!(text.contains("DIFFERS"), "{text}");

    let other_seed = result_file(&dir, "seed2.json", 2, [1.0, 1.0, 1.0], 0.0, 0.7);
    assert_eq!(
        run(&other_seed).0,
        0,
        "exact metrics are only compared for one seed"
    );

    std::fs::write(dir.join("garbage.json"), "{ not json").unwrap();
    assert_eq!(run(&dir.join("garbage.json")).0, 2);
    assert_eq!(run(&dir.join("missing.json")).0, 2);
}
