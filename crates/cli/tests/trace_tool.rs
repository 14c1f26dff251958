//! End-to-end tests for the `gfl-trace` analyzer: run real simulations
//! through the `gfl` command layer, then analyze the streamed traces with
//! `summarize` / `diff` / `flame`, and exercise the `regress` perf gate
//! against checked-in fixtures.

use std::path::PathBuf;

fn argv(s: &str) -> Vec<String> {
    s.split_whitespace().map(str::to_string).collect()
}

/// Runs `gfl <args>`, asserting success.
fn gfl(args: &str) -> String {
    let mut out = Vec::new();
    let code = gfl_cli::run(&argv(args), &mut out);
    let text = String::from_utf8(out).unwrap();
    assert_eq!(code, 0, "gfl {args} failed:\n{text}");
    text
}

/// Runs `gfl-trace <args>`, returning (exit code, output).
fn gfl_trace(args: &str) -> (i32, String) {
    let mut out = Vec::new();
    let code = gfl_cli::trace_cli::run(&argv(args), &mut out);
    (code, String::from_utf8(out).unwrap())
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("gfl_trace_tool_{}_{name}", std::process::id()))
}

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

const SIM: &str = "simulate --clients 8 --edges 2 --samples 900 --rounds 2 --k 1 --e 1 \
                   --sample 2 --min-gs 2 --alpha 0.5 --seed 3 --eval-every 1";

fn traced_run(path: &std::path::Path) {
    gfl(&format!("{SIM} --trace-out {}", path.display()));
}

#[test]
fn summarize_reports_phases_bytes_and_rounds() {
    let path = tmp("summarize.jsonl");
    traced_run(&path);
    let (code, out) = gfl_trace(&format!("summarize {}", path.display()));
    std::fs::remove_file(&path).ok();
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("schema v2"), "{out}");
    assert!(out.contains("rounds: 2"), "{out}");
    for phase in ["round", "train", "group_round", "client_step", "aggregate"] {
        assert!(out.contains(phase), "missing phase {phase}:\n{out}");
    }
    assert!(out.contains("client<->edge"), "{out}");
    assert!(out.contains("edge<->cloud"), "{out}");
    // Byte totals must be non-zero: comm accounting is always on.
    assert!(
        !out.contains("client<->edge           0"),
        "client-edge bytes should be non-zero:\n{out}"
    );
}

#[test]
fn summarize_prints_the_same_coverage_for_a_trace_cut_before_its_summary() {
    // A complete trace reports its summary line's coverage; the same bytes
    // without that line re-derive it from the round records — by the same
    // Σcovered / Σwall fold, so the two agree.
    let (whole, cut) = (tmp("cov_whole.jsonl"), tmp("cov_cut.jsonl"));
    traced_run(&whole);
    let text = std::fs::read_to_string(&whole).unwrap();
    let last = text.trim_end().rfind('\n').unwrap() + 1;
    assert!(text[last..].starts_with("{\"type\":\"summary\""), "{text}");
    std::fs::write(&cut, &text[..last]).unwrap();
    let coverage = |path: &PathBuf| {
        let (code, out) = gfl_trace(&format!("summarize {}", path.display()));
        assert_eq!(code, 0, "{out}");
        let at = out.find("phase coverage").expect("coverage line");
        out[at..].lines().next().unwrap().to_string()
    };
    assert_eq!(coverage(&whole), coverage(&cut));
    std::fs::remove_file(&whole).ok();
    std::fs::remove_file(&cut).ok();
}

#[test]
fn summarize_refuses_a_v1_trace_naming_its_version() {
    let path = tmp("v1.jsonl");
    std::fs::write(
        &path,
        "{\"type\":\"meta\",\"schema_version\":1,\"producer\":\"gfl-obs 0.1.0\",\"threads\":2}\n",
    )
    .unwrap();
    let (code, out) = gfl_trace(&format!("summarize {}", path.display()));
    std::fs::remove_file(&path).ok();
    assert_eq!(code, 2, "{out}");
    assert!(out.contains("error:"), "{out}");
    assert!(out.contains("schema version 1"), "{out}");
}

#[test]
fn summarize_of_deeply_nested_json_exits_with_an_error_naming_the_file() {
    // Run as its own process: a parser that recursed without limit would
    // overflow the stack and abort (exit 134) rather than answer.
    let path = tmp("deep.jsonl");
    std::fs::write(&path, "[".repeat(200_000)).unwrap();
    let run = std::process::Command::new(env!("CARGO_BIN_EXE_gfl-trace"))
        .arg("summarize")
        .arg(&path)
        .output()
        .unwrap();
    std::fs::remove_file(&path).ok();
    let out = String::from_utf8_lossy(&run.stdout);
    assert_eq!(run.status.code(), Some(2), "{out}");
    assert!(out.contains(&format!("error: {}", path.display())), "{out}");
    assert!(out.contains("recursion limit exceeded"), "{out}");
}

#[test]
fn summarize_and_flame_saturate_durations_that_sum_past_u64_max() {
    // A summary-less trace whose spans, phases, walls and bytes each sum
    // past u64::MAX. Run as its own process: an unchecked `+` panics in a
    // debug build and wraps silently in release.
    let path = tmp("overflow.jsonl");
    let max = u64::MAX;
    let span = |kind: &str, dur: u64, round: u64| {
        format!(
            "{{\"type\":\"span\",\"kind\":\"{kind}\",\"start_ns\":0,\"dur_ns\":{dur},\
             \"round\":{round},\"group_round\":null,\"group\":null,\"client\":null,\
             \"bytes\":null}}\n"
        )
    };
    let round = |round: u64, wall: u64, train: u64, bytes: u64| {
        format!(
            "{{\"type\":\"round\",\"round\":{round},\"wall_ns\":{wall},\"train_ns\":{train},\
             \"aggregate_ns\":0,\"comm_ns\":0,\"eval_ns\":5,\"groups_trained\":1,\
             \"clients_trained\":1,\"fault_events\":0,\"cost_total\":1.0,\"pool_regions\":0,\
             \"pool_claims\":0,\"pool_steals\":0,\"pool_utilization\":0.0,\"allocs\":0,\
             \"client_edge_bytes\":{bytes},\"edge_cloud_bytes\":{bytes}}}\n"
        )
    };
    let text = [
        "{\"type\":\"meta\",\"schema_version\":2,\"producer\":\"gfl-obs 0.1.0\",\"threads\":1}\n"
            .to_string(),
        span("Round", max, 0),
        span("Round", 1_000_000, 1),
        span("Train", max, 0),
        span("Eval", 2_000_000, 1),
        round(0, max, max, max),
        round(1, 1_000_000, 400_000, 7),
    ]
    .concat();
    std::fs::write(&path, text).unwrap();
    let run = |args: &[&str]| {
        let run = std::process::Command::new(env!("CARGO_BIN_EXE_gfl-trace"))
            .args(args)
            .arg(&path)
            .output()
            .unwrap();
        let out = String::from_utf8_lossy(&run.stdout).into_owned();
        let err = String::from_utf8_lossy(&run.stderr);
        assert_eq!(
            run.status.code(),
            Some(0),
            "gfl-trace {args:?}:\n{out}{err}"
        );
        out
    };
    let summary = run(&["summarize"]);
    let flame = run(&["flame"]);
    std::fs::remove_file(&path).ok();
    // u64::MAX ns, not a wrapped 0.001 s.
    let saturated = "18446744073.710 s";
    assert!(summary.contains(&format!("wall: {saturated}")), "{summary}");
    assert!(summary.contains("phase coverage: 100.0%"), "{summary}");
    let round_row = summary.lines().find(|l| l.starts_with("round ")).unwrap();
    assert!(round_row.contains(saturated), "{summary}");
    assert!(
        summary.contains(&format!("client<->edge  {max:>10}")),
        "{summary}"
    );
    // Train saturates the round's children, so the round has no self time.
    assert!(
        flame.contains(&format!("round;train {}", max / 1_000)),
        "{flame}"
    );
    assert!(flame.contains("round;eval 2000\n"), "{flame}");
    assert!(!flame.lines().any(|l| l.starts_with("round ")), "{flame}");
}

#[test]
fn diff_of_two_same_seed_runs_reports_zero_divergence() {
    let (a, b) = (tmp("diff_a.jsonl"), tmp("diff_b.jsonl"));
    traced_run(&a);
    traced_run(&b);
    let (code, out) = gfl_trace(&format!("diff {} {}", a.display(), b.display()));
    assert_eq!(code, 0, "same-seed runs must not diverge:\n{out}");
    assert!(out.contains("no divergence"), "{out}");
    std::fs::remove_file(&a).ok();
    std::fs::remove_file(&b).ok();
}

#[test]
fn diff_detects_a_divergent_run() {
    let (a, b) = (tmp("div_a.jsonl"), tmp("div_b.jsonl"));
    traced_run(&a);
    gfl(&format!(
        "simulate --clients 8 --edges 2 --samples 900 --rounds 2 --k 1 --e 1 \
         --sample 2 --min-gs 2 --alpha 0.5 --seed 4 --eval-every 1 --trace-out {}",
        b.display()
    ));
    let (code, out) = gfl_trace(&format!("diff {} {}", a.display(), b.display()));
    assert_eq!(code, 1, "different seeds must diverge:\n{out}");
    assert!(out.contains("diverged:"), "{out}");
    std::fs::remove_file(&a).ok();
    std::fs::remove_file(&b).ok();
}

#[test]
fn exact_diff_finds_timing_differences_between_same_seed_runs() {
    let (a, b) = (tmp("exact_a.jsonl"), tmp("exact_b.jsonl"));
    traced_run(&a);
    traced_run(&b);
    // Wall-clock timings differ between runs, so --exact reports the first
    // differing field (while the default deterministic projection does not).
    let (code, out) = gfl_trace(&format!("diff {} {} --exact", a.display(), b.display()));
    assert_eq!(code, 1, "{out}");
    assert!(out.contains("diverged:"), "{out}");
    // A file against itself agrees line for line, as it is on disk (the
    // switch may also come before the files).
    let (code, out) = gfl_trace(&format!("diff --exact {0} {0}", a.display()));
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("identical"), "{out}");
    std::fs::remove_file(&a).ok();
    std::fs::remove_file(&b).ok();
}

#[test]
fn flame_emits_collapsed_stacks_on_both_clocks() {
    let path = tmp("flame.jsonl");
    traced_run(&path);
    let (code, wall) = gfl_trace(&format!("flame {}", path.display()));
    assert_eq!(code, 0, "{wall}");
    assert!(
        wall.contains("round;train;group_round;client_step "),
        "{wall}"
    );
    for line in wall.lines() {
        let (stack, weight) = line.rsplit_once(' ').expect("stack<space>weight");
        assert!(!stack.is_empty());
        assert!(weight.parse::<u64>().is_ok(), "bad weight in {line}");
    }
    let (code, emu) = gfl_trace(&format!("flame {} --clock emulated", path.display()));
    assert_eq!(code, 0, "{emu}");
    assert!(emu.contains("emulated;round_0 "), "{emu}");
    assert!(emu.contains("emulated;round_1 "), "{emu}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn regress_passes_a_snapshot_against_itself() {
    let base = fixture("bench_baseline.json");
    let (code, out) = gfl_trace(&format!("regress {} {}", base.display(), base.display()));
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("0 regression(s)"), "{out}");
    // The unreliable threads=16 row must not be throughput-checked.
    assert!(!out.contains("rounds_per_sec[threads=16]"), "{out}");
    // But its alloc count (machine-independent) is.
    assert!(out.contains("allocs_per_round[threads=16]"), "{out}");
}

#[test]
fn regress_fails_on_the_injected_regression_fixture() {
    let base = fixture("bench_baseline.json");
    let cur = fixture("bench_regressed.json");
    let (code, out) = gfl_trace(&format!("regress {} {}", base.display(), cur.display()));
    assert_eq!(code, 2, "{out}");
    assert!(out.contains("FAIL rounds_per_sec[threads=1]"), "{out}");
    assert!(out.contains("FAIL allocs_per_round[threads=8]"), "{out}");
    assert!(out.contains("FAIL gemm_gflops[avx2]"), "{out}");
    assert!(
        out.contains("FAIL formation.covg_clients_per_sec[threads=1]"),
        "{out}"
    );
    // Within-threshold drift still passes.
    assert!(
        out.contains("PASS formation.covg_clients_per_sec[threads=2]"),
        "{out}"
    );
    assert!(out.contains("PASS rounds_per_sec[threads=8]"), "{out}");
    assert!(out.contains("PASS gemm_gflops[scalar]"), "{out}");
    assert!(out.contains("REGRESSION"), "{out}");
}

#[test]
fn regress_thresholds_are_tunable_from_the_command_line() {
    let base = fixture("bench_baseline.json");
    let cur = fixture("bench_regressed.json");
    // Loosen every threshold until the regressed fixture passes.
    let (code, out) = gfl_trace(&format!(
        "regress {} {} --min-rps-ratio 0.1 --max-alloc-delta 100 --min-gflops-ratio 0.1",
        base.display(),
        cur.display()
    ));
    assert_eq!(code, 0, "{out}");
}

#[test]
fn regress_gates_the_scale_section_sub_second() {
    let base = fixture("bench_baseline.json");
    // Current = baseline + a scale section (as bench_scale merges it).
    let with_scale = |name: &str, formation: f64, regroup: f64| {
        let mut v: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&base).unwrap()).unwrap();
        let serde_json::Value::Object(pairs) = &mut v else {
            panic!("fixture must be an object")
        };
        pairs.push((
            "scale".to_string(),
            serde_json::json!({
                "clients": 1_000_000usize,
                "formation_seconds_1m": formation,
                "regroup_seconds_1m": regroup,
            }),
        ));
        let path = tmp(name);
        std::fs::write(&path, serde_json::to_string(&v).unwrap()).unwrap();
        path
    };

    let fast = with_scale("bench_scale_fast.json", 0.4, 0.7);
    let (code, out) = gfl_trace(&format!("regress {} {}", base.display(), fast.display()));
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("PASS scale.formation_seconds_1m"), "{out}");
    assert!(out.contains("PASS scale.regroup_seconds_1m"), "{out}");

    let slow = with_scale("bench_scale_slow.json", 2.5, 0.7);
    let (code, out) = gfl_trace(&format!("regress {} {}", base.display(), slow.display()));
    assert_eq!(code, 2, "{out}");
    assert!(out.contains("FAIL scale.formation_seconds_1m"), "{out}");

    // The cap is tunable; a baseline without the section is never gated.
    let (code, out) = gfl_trace(&format!(
        "regress {} {} --max-formation-seconds 5",
        base.display(),
        slow.display()
    ));
    assert_eq!(code, 0, "{out}");
    let (code, out) = gfl_trace(&format!("regress {} {}", base.display(), base.display()));
    assert_eq!(code, 0, "{out}");
    assert!(!out.contains("scale."), "{out}");
    std::fs::remove_file(&fast).ok();
    std::fs::remove_file(&slow).ok();
}

#[test]
fn regress_holds_the_population_build_to_the_baselines_clients_per_second() {
    let fixture_text = std::fs::read_to_string(fixture("bench_baseline.json")).unwrap();
    // The fixture + a scale section; `build` absent = a snapshot that
    // predates the key.
    let with_build = |name: &str, clients: usize, build: Option<f64>| {
        let mut v: serde_json::Value = serde_json::from_str(&fixture_text).unwrap();
        let serde_json::Value::Object(pairs) = &mut v else {
            panic!("fixture must be an object")
        };
        let mut scale = vec![("clients".to_string(), serde_json::json!(clients))];
        if let Some(seconds) = build {
            scale.push((
                "population_build_seconds_1m".to_string(),
                serde_json::json!(seconds),
            ));
        }
        pairs.push(("scale".to_string(), serde_json::Value::Object(scale)));
        let path = tmp(name);
        std::fs::write(&path, serde_json::to_string(&v).unwrap()).unwrap();
        path
    };
    let label = "scale.population_build_clients_per_sec";

    let base = with_build("bench_build_base.json", 1_000_000, Some(1.0));
    // A tenth of the clients in a tenth of the time is the same rate.
    let same = with_build("bench_build_same.json", 100_000, Some(0.1));
    let (code, out) = gfl_trace(&format!("regress {} {}", base.display(), same.display()));
    assert_eq!(code, 0, "{out}");
    assert!(out.contains(&format!("PASS {label}")), "{out}");

    // 2.5x slower is under the default 0.5 floor; a looser floor admits it.
    let slow = with_build("bench_build_slow.json", 1_000_000, Some(2.5));
    let (code, out) = gfl_trace(&format!("regress {} {}", base.display(), slow.display()));
    assert_eq!(code, 2, "{out}");
    assert!(out.contains(&format!("FAIL {label}")), "{out}");
    assert!(out.contains("ratio 0.40"), "{out}");
    let (code, out) = gfl_trace(&format!(
        "regress {} {} --min-rps-ratio 0.3",
        base.display(),
        slow.display()
    ));
    assert_eq!(code, 0, "{out}");

    // A snapshot without the key on either side is skipped, not failed.
    let old = with_build("bench_build_old.json", 1_000_000, None);
    for (a, b) in [(&old, &slow), (&slow, &old)] {
        let (code, out) = gfl_trace(&format!("regress {} {}", a.display(), b.display()));
        assert_eq!(code, 0, "{out}");
        assert!(!out.contains(label), "{out}");
    }
    for path in [base, same, slow, old] {
        std::fs::remove_file(path).ok();
    }
}

#[test]
fn regress_holds_the_active_tiers_softmax_rows_to_the_baselines_rows_per_second() {
    // The fixture's `simd` section with an active tier and, per tier, the
    // two rows/s figures (`None` = a snapshot that predates the keys).
    let with_rows = |name: &str, active: &str, rows: Option<[f64; 2]>| {
        let [scalar, avx2] = rows.map_or([String::new(), String::new()], |[s, a]| {
            [s, a].map(|r| {
                format!(
                    ", \"softmax_xent_rows_per_s\": {r}, \"xent_argmax_rows_per_s\": {}",
                    r * 1.5
                )
            })
        });
        let simd = format!(
            "{{\"simd\": {{\"active_tier\": \"{active}\", \"tiers\": [\
             {{\"tier\": \"scalar\", \"gemm_gflops\": 20.0{scalar}}},\
             {{\"tier\": \"avx2\", \"gemm_gflops\": 40.0{avx2}}}]}}}}"
        );
        let path = tmp(name);
        std::fs::write(&path, simd).unwrap();
        path
    };
    let regress = |a: &std::path::Path, b: &std::path::Path, extra: &str| {
        gfl_trace(&format!("regress {} {}{extra}", a.display(), b.display()))
    };

    let base = with_rows("bench_rows_base.json", "avx2", Some([5e6, 15e6]));
    // The scalar tier collapsing is not the active tier's business.
    let same = with_rows("bench_rows_same.json", "avx2", Some([1e6, 15e6]));
    let (code, out) = regress(&base, &same, "");
    assert_eq!(code, 0, "{out}");
    for key in ["softmax_xent_rows_per_s", "xent_argmax_rows_per_s"] {
        assert!(out.contains(&format!("PASS {key}[avx2]")), "{out}");
        assert!(!out.contains(&format!("{key}[scalar]")), "{out}");
    }

    // The active tier 2.5x slower is under the default 0.5 floor; a looser
    // floor admits it.
    let slow = with_rows("bench_rows_slow.json", "avx2", Some([5e6, 6e6]));
    let (code, out) = regress(&base, &slow, "");
    assert_eq!(code, 2, "{out}");
    assert!(out.contains("FAIL softmax_xent_rows_per_s[avx2]"), "{out}");
    assert!(out.contains("FAIL xent_argmax_rows_per_s[avx2]"), "{out}");
    assert!(out.contains("ratio 0.40"), "{out}");
    let (code, out) = regress(&base, &slow, " --min-rps-ratio 0.3");
    assert_eq!(code, 0, "{out}");

    // A snapshot without the keys on either side is skipped, not failed.
    let old = with_rows("bench_rows_old.json", "avx2", None);
    for (a, b) in [(&old, &slow), (&slow, &old)] {
        let (code, out) = regress(a, b, "");
        assert_eq!(code, 0, "{out}");
        assert!(!out.contains("rows_per_s"), "{out}");
    }
    for path in [base, same, slow, old] {
        std::fs::remove_file(path).ok();
    }
}

#[test]
fn regress_refuses_snapshots_of_different_runs() {
    let base = fixture("bench_baseline.json");
    let fixture_text = std::fs::read_to_string(&base).unwrap();
    // The baseline fixture with one identity key set to `value` (or
    // removed, for `None`).
    let with = |name: &str, key: &str, value: Option<serde_json::Value>| {
        let mut v: serde_json::Value = serde_json::from_str(&fixture_text).unwrap();
        let serde_json::Value::Object(pairs) = &mut v else {
            panic!("fixture must be an object")
        };
        pairs.retain(|(k, _)| k != key);
        pairs.extend(value.map(|value| (key.to_string(), value)));
        let path = tmp(name);
        std::fs::write(&path, serde_json::to_string(&v).unwrap()).unwrap();
        path
    };
    for (key, other) in [
        ("rounds_measured", serde_json::json!(1)),
        ("param_count", serde_json::json!(4_096)),
        ("workload", serde_json::json!("another run")),
    ] {
        let changed = with(&format!("bench_other_{key}.json"), key, Some(other));
        // Either way round: an error naming the key, and no verdicts.
        for (a, b) in [(&base, &changed), (&changed, &base)] {
            let (code, out) = gfl_trace(&format!("regress {} {}", a.display(), b.display()));
            assert_eq!(code, 2, "{out}");
            assert!(out.starts_with("error: "), "{out}");
            assert!(out.contains(&format!("`{key}`")), "{out}");
            assert!(!out.contains("PASS") && !out.contains("FAIL"), "{out}");
        }
        // A snapshot that lacks the key is compared as before.
        let missing = with(&format!("bench_without_{key}.json"), key, None);
        let (code, out) = gfl_trace(&format!("regress {} {}", base.display(), missing.display()));
        assert_eq!(code, 0, "{out}");
        for path in [changed, missing] {
            std::fs::remove_file(path).ok();
        }
    }
}

#[test]
fn regress_with_no_overlap_is_an_error() {
    let base = fixture("bench_baseline.json");
    let empty = tmp("empty_bench.json");
    std::fs::write(&empty, "{\"results\": []}").unwrap();
    let (code, out) = gfl_trace(&format!("regress {} {}", base.display(), empty.display()));
    std::fs::remove_file(&empty).ok();
    assert_eq!(code, 2, "{out}");
    assert!(out.contains("no comparable entries"), "{out}");
}

#[test]
fn hostile_trace_bytes_are_typed_errors_never_panics() {
    // The streamed trace of a churned run — regroup spans and all — cut at
    // every byte and corrupted at every byte. `TraceReader` must answer
    // with a trace or a `TraceError`, and `gfl-trace regress`, handed the
    // wreck in place of a bench snapshot, with its usage-error exit; a
    // panic in either fails the test.
    let path = tmp("hostile.jsonl");
    // One round of one sampled group keeps the file near 2 kB: the loops
    // below parse it some thirty thousand times.
    gfl(&format!(
        "simulate --clients 8 --edges 2 --samples 900 --rounds 1 --k 1 --e 1 --sample 1 \
         --min-gs 2 --alpha 0.5 --seed 3 --churn moderate --trace-out {}",
        path.display()
    ));
    let text = std::fs::read_to_string(&path).unwrap();
    let intact = gfl_obs::TraceReader::read(&path).expect("the intact trace loads");
    assert!(
        intact
            .spans
            .iter()
            .any(|s| s.kind == gfl_obs::SpanKind::Regroup),
        "need regroup spans to tear"
    );

    let regress_rejects = |bytes: &[u8], what: &str| {
        std::fs::write(&path, bytes).unwrap();
        let (code, out) = gfl_trace(&format!("regress {0} {0}", path.display()));
        assert_eq!(code, 2, "regress accepted {what}:\n{out}");
        assert!(out.contains("error:"), "{what}:\n{out}");
    };

    for cut in (0..text.len()).filter(|&i| text.is_char_boundary(i)) {
        let torn = &text[..cut];
        let loaded = gfl_obs::TraceReader::parse(torn);
        // A cut on a record boundary (either side of its newline) leaves a
        // shorter, well-formed trace; anywhere else the last record is torn.
        let whole_records = cut > 0 && (torn.ends_with('\n') || text[cut..].starts_with('\n'));
        assert_eq!(loaded.is_ok(), whole_records, "prefix of {cut} bytes");
        regress_rejects(torn.as_bytes(), &format!("a prefix of {cut} bytes"));
    }

    let mut bytes = text.clone().into_bytes();
    for at in 0..bytes.len() {
        let intact = bytes[at];
        // A raw control byte is legal nowhere in a JSON line; the rest may
        // or may not leave a loadable trace, and must not panic either way.
        for hostile in [0x00, b'"', b'\\', b'}', b',', b'e'] {
            bytes[at] = hostile;
            if let Ok(text) = std::str::from_utf8(&bytes) {
                let loaded = gfl_obs::TraceReader::parse(text);
                assert!(
                    hostile != 0x00 || loaded.is_err(),
                    "NUL at byte {at} loaded"
                );
            }
        }
        // Invalid UTF-8 can only arrive through the file, and the file is
        // also what `regress` reads.
        bytes[at] = 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(
            gfl_obs::TraceReader::read(&path).is_err(),
            "0xFF at byte {at} loaded"
        );
        bytes[at] = b'9';
        regress_rejects(&bytes, &format!("a '9' at byte {at}"));
        bytes[at] = intact;
    }
    std::fs::remove_file(&path).ok();
}
