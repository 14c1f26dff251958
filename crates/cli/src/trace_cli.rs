//! The `gfl-trace` analyzer: offline tooling over JSONL run traces and
//! benchmark snapshots.
//!
//! Four subcommands, all pure readers (nothing here mutates a trace):
//!
//! * `summarize <trace>` — per-phase time table, byte totals, and round
//!   coverage for one trace file.
//! * `diff <a> <b>` — field-by-field first divergence between two traces.
//!   By default only the *deterministic projection* is compared (span
//!   identities, round tallies, byte counts, counters — everything that
//!   must be identical between two same-seed runs); `--exact` compares
//!   every field including timings.
//! * `flame <trace>` — collapsed-stack output for flamegraph tooling,
//!   `--clock wall` (default) or `--clock emulated` (per-round Eq. 5 cost
//!   deltas, for semi-async runs where wall time is meaningless).
//! * `regress <baseline> <current>` — compare two `BENCH_ROUND.json`
//!   snapshots against regression thresholds; exit 2 on regression (the
//!   CI perf gate).
//!
//! Exit codes: 0 ok / no divergence, 1 divergence found (`diff`), 2 usage
//! error or regression found (`regress`).

use std::io::Write;

use gfl_obs::{RoundMetrics, SpanKind, SpanRecord, Trace, TraceReader};
use serde::Value;

use crate::args::Fallback::{Absent, Lit};
use crate::args::Kind::{Choice, Float, Switch};
use crate::args::{flag, names, Args, Command, Range::Any};

/// What a subcommand runs: its file arguments, its options, where to print.
type Run = fn(&[String], &Args, &mut dyn Write) -> Result<i32, String>;

/// `flame`'s two clocks: emulated is per-round Eq. 5 cost deltas, for
/// semi-async runs where wall time is meaningless.
type Flame = fn(&Trace, &mut dyn Write) -> std::io::Result<()>;
const CLOCKS: [(&str, Flame); 2] = [
    ("wall", write_wall_flame),
    ("emulated", write_emulated_flame),
];

/// The four subcommands: the word that selects each, its table, its code.
#[rustfmt::skip]
const COMMANDS: [(&str, Command, Run); 4] = [
    ("summarize", Command {
        name: "summarize <trace>",
        about: "per-phase time/byte table for one trace",
        sections: &[],
    }, summarize),
    ("diff", Command {
        name: "diff <a> <b>",
        about: "first divergence between two traces",
        sections: &[("", &[
            flag("exact", Switch, Absent, "compare every field, timings too (default: deterministic fields only)"),
        ])],
    }, diff),
    ("flame", Command {
        name: "flame <trace>",
        about: "collapsed stacks for flamegraph tooling",
        sections: &[("", &[
            flag("clock", Choice(&names(&CLOCKS)), Lit("wall"), "which clock weighs the stacks"),
        ])],
    }, flame),
    ("regress", Command {
        name: "regress <baseline> <current>",
        about: "perf-regression gate over BENCH_ROUND.json",
        sections: &[("", &[
            flag("min-rps-ratio",         Float(Any), Lit("0.5"), "throughput floor, as a ratio of the baseline's"),
            flag("max-alloc-delta",       Float(Any), Lit("32"),  "allocations per round allowed above the baseline's"),
            flag("min-gflops-ratio",      Float(Any), Lit("0.5"), "GEMM GFLOP/s floor per SIMD tier, as a ratio"),
            flag("max-formation-seconds", Float(Any), Lit("1.0"), "cap (s) on the 10^6-client formation and regroup times"),
        ])],
    }, regress),
];

/// Top-level usage text for the `gfl-trace` binary; each subcommand's
/// options are rendered from its table.
pub fn usage() -> String {
    let mut text = String::from(
        "gfl-trace — analyze Group-FEL JSONL run traces and benchmark snapshots\n\n\
         USAGE:\n  gfl-trace <COMMAND> <FILES...> [--key value]...\n\nCOMMANDS:\n",
    );
    for (_, command, _) in &COMMANDS {
        text += &format!("  {}\n", command.help().replace('\n', "\n  "));
    }
    text + "\nEXIT CODES:\n  0  success (diff: traces agree)\n  1  diff found a divergence\n  \
            2  usage error, unreadable input, or regress found a regression"
}

/// Entry point shared by the `gfl-trace` binary and tests. Returns the
/// process exit code and prints to `out`.
pub fn run(argv: &[String], out: &mut dyn Write) -> i32 {
    let Some(word) = argv.first() else {
        let _ = writeln!(out, "{}", usage());
        return 2;
    };
    let Some((_, command, run)) = COMMANDS.iter().find(|(name, ..)| name == word) else {
        if matches!(word.as_str(), "help" | "--help" | "-h") {
            let _ = writeln!(out, "{}", usage());
            return 0;
        }
        let _ = writeln!(out, "unknown command '{word}'\n\n{}", usage());
        return 2;
    };
    // Leading bare tokens after the subcommand — and after any switches
    // that precede them (`diff --exact a b`) — are positional file paths;
    // the remainder is `--key value` options.
    let is_switch = |a: &String| {
        let key = a.strip_prefix("--");
        command
            .flags()
            .any(|f| Some(f.name) == key && f.kind == Switch)
    };
    let lead = argv[1..].iter().take_while(|a| is_switch(a)).count();
    let (switches, rest) = argv[1..].split_at(lead);
    let split = rest
        .iter()
        .position(|a| a.starts_with("--"))
        .unwrap_or(rest.len());
    let (paths, opts) = rest.split_at(split);
    let opts: Vec<String> = switches.iter().chain(opts).cloned().collect();
    let result = match Args::parse(command, &opts) {
        Ok(args) if args.wants_help().is_some() => {
            let _ = writeln!(out, "{}", usage());
            return 0;
        }
        Ok(args) => run(paths, &args, out),
        Err(e) => Err(e.to_string()),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            let _ = writeln!(out, "error: {e}");
            2
        }
    }
}

fn expect_paths<'a>(paths: &'a [String], n: usize, what: &str) -> Result<&'a [String], String> {
    if paths.len() != n {
        return Err(format!(
            "expected {n} file argument(s) ({what}), got {}",
            paths.len()
        ));
    }
    Ok(paths)
}

fn load_trace(path: &str) -> Result<Trace, String> {
    TraceReader::read(std::path::Path::new(path)).map_err(|e| format!("{path}: {e}"))
}

// ---------------------------------------------------------------- summarize

fn summarize(paths: &[String], _: &Args, out: &mut dyn Write) -> Result<i32, String> {
    let paths = expect_paths(paths, 1, "a trace file")?;
    let trace = load_trace(&paths[0])?;
    write_summary(&trace, out).map_err(|e| e.to_string())?;
    Ok(0)
}

fn write_summary(trace: &Trace, out: &mut dyn Write) -> std::io::Result<()> {
    let meta = &trace.meta;
    writeln!(
        out,
        "trace: schema v{} by {} ({} threads)",
        meta.schema_version, meta.producer, meta.threads
    )?;
    // A complete trace ends with a summary line; a truncated (crashed /
    // in-flight) one does not, so fall back to re-deriving totals from
    // whatever spans and rounds survived — by the summary's own folds.
    let (wall_ns, totals, coverage) = match &trace.summary {
        Some(s) => (s.wall_ns, s.span_totals.clone(), s.coverage),
        None => (
            trace
                .rounds
                .iter()
                .map(|r| r.wall_ns)
                .fold(0, u64::saturating_add),
            trace.span_totals(),
            trace.round_coverage(),
        ),
    };
    let secs = |ns: u64| ns as f64 / 1e9;
    writeln!(
        out,
        "rounds: {}   wall: {:.3} s   phase coverage: {:.1}%",
        trace.rounds.len(),
        secs(wall_ns),
        coverage * 100.0
    )?;
    writeln!(out, "\nphase            count     total     % wall")?;
    for t in &totals {
        let pct = if wall_ns > 0 {
            100.0 * t.total_ns as f64 / wall_ns as f64
        } else {
            0.0
        };
        writeln!(
            out,
            "{:<14} {:>7} {:>8.3} s {:>8.1}%",
            t.kind.label(),
            t.count,
            secs(t.total_ns),
            pct
        )?;
    }
    // Saturating, like every fold over a parsed (possibly hostile) trace.
    let link = |bytes: fn(&RoundMetrics) -> Option<u64>| {
        let counts = trace.rounds.iter().filter_map(bytes);
        counts.fold(0, u64::saturating_add)
    };
    let ce = link(|r| r.client_edge_bytes);
    let ec = link(|r| r.edge_cloud_bytes);
    writeln!(out, "\nlink              bytes")?;
    writeln!(out, "client<->edge  {ce:>10}")?;
    writeln!(out, "edge<->cloud   {ec:>10}")?;
    if let Some(s) = &trace.summary {
        let interesting = ["rounds.total", "clients.trained", "events.faults"];
        for name in interesting {
            if let Some(v) = s.metrics.counter(name) {
                writeln!(out, "{name:<24} {v:>9}")?;
            }
        }
    }
    Ok(())
}

// --------------------------------------------------------------------- diff

/// The deterministic identity of one span: everything except its timings.
type SpanIdentity = (
    u8,
    Option<u64>,
    Option<u64>,
    Option<u64>,
    Option<u64>,
    Option<u64>,
);

fn span_identity(s: &SpanRecord) -> SpanIdentity {
    (
        s.kind as u8,
        s.round,
        s.group_round,
        s.group,
        s.client,
        s.bytes,
    )
}

fn fmt_identity(id: &SpanIdentity) -> String {
    let kind = SpanKind::ALL[id.0 as usize].label();
    let opt = |v: Option<u64>| v.map_or("-".to_string(), |v| v.to_string());
    format!(
        "{kind}(round={}, group_round={}, group={}, client={}, bytes={})",
        opt(id.1),
        opt(id.2),
        opt(id.3),
        opt(id.4),
        opt(id.5)
    )
}

/// The deterministic projection of one round record (timings and pool
/// statistics dropped).
fn round_projection(r: &RoundMetrics) -> Value {
    let fields = vec![
        ("round".to_string(), Value::U64(r.round)),
        ("groups_trained".to_string(), Value::U64(r.groups_trained)),
        ("clients_trained".to_string(), Value::U64(r.clients_trained)),
        ("fault_events".to_string(), Value::U64(r.fault_events)),
        ("cost_total".to_string(), Value::F64(r.cost_total)),
        (
            "client_edge_bytes".to_string(),
            r.client_edge_bytes.map_or(Value::Null, Value::U64),
        ),
        (
            "edge_cloud_bytes".to_string(),
            r.edge_cloud_bytes.map_or(Value::Null, Value::U64),
        ),
    ];
    Value::Object(fields)
}

/// Parses every line of a trace file, as it is on disk, into a JSON array
/// value, for `--exact` structural comparison.
fn lines_as_value(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let lines: Result<Vec<Value>, _> = text.lines().map(serde_json::from_str::<Value>).collect();
    lines.map(Value::Array).map_err(|e| format!("{path}: {e}"))
}

fn diff(paths: &[String], args: &Args, out: &mut dyn Write) -> Result<i32, String> {
    let paths = expect_paths(paths, 2, "two trace files")?;
    let exact = args.get("exact").map_err(|e| e.to_string())?;
    let a = load_trace(&paths[0])?;
    let b = load_trace(&paths[1])?;

    if exact {
        let (va, vb) = (lines_as_value(&paths[0])?, lines_as_value(&paths[1])?);
        return Ok(match gfl_obs::diff::first_divergence("trace", &va, &vb) {
            Some(d) => {
                writeln!(out, "diverged: {d}").map_err(|e| e.to_string())?;
                1
            }
            None => {
                writeln!(out, "identical: every field matches").map_err(|e| e.to_string())?;
                0
            }
        });
    }

    if let Some(d) = deterministic_divergence(&a, &b) {
        writeln!(out, "diverged: {d}").map_err(|e| e.to_string())?;
        return Ok(1);
    }
    writeln!(
        out,
        "no divergence: deterministic fields of {} spans / {} rounds match",
        a.spans.len(),
        a.rounds.len()
    )
    .map_err(|e| e.to_string())?;
    Ok(0)
}

/// First divergence in the deterministic projection of two traces, or
/// `None` when two same-seed runs would be considered identical.
fn deterministic_divergence(a: &Trace, b: &Trace) -> Option<String> {
    if a.meta.schema_version != b.meta.schema_version {
        return Some(format!(
            "meta.schema_version: {} vs {}",
            a.meta.schema_version, b.meta.schema_version
        ));
    }
    // Spans as a sorted multiset of identities: worker interleaving (and
    // therefore on-disk order within a barrier) is timing-dependent, but
    // the *set* of recorded spans is not.
    let mut ia: Vec<_> = a.spans.iter().map(span_identity).collect();
    let mut ib: Vec<_> = b.spans.iter().map(span_identity).collect();
    ia.sort_unstable();
    ib.sort_unstable();
    if ia.len() != ib.len() {
        return Some(format!("span count: {} vs {}", ia.len(), ib.len()));
    }
    for (i, (sa, sb)) in ia.iter().zip(ib.iter()).enumerate() {
        if sa != sb {
            return Some(format!(
                "span multiset[{i}]: {} vs {}",
                fmt_identity(sa),
                fmt_identity(sb)
            ));
        }
    }
    if a.rounds.len() != b.rounds.len() {
        return Some(format!(
            "round count: {} vs {}",
            a.rounds.len(),
            b.rounds.len()
        ));
    }
    for (ra, rb) in a.rounds.iter().zip(b.rounds.iter()) {
        let (pa, pb) = (round_projection(ra), round_projection(rb));
        if let Some(d) = gfl_obs::diff::first_divergence(&format!("round[{}]", ra.round), &pa, &pb)
        {
            return Some(d);
        }
    }
    // Counters are pure event tallies — deterministic. Gauges other than
    // the pool's are too (cost, ASR, emulated clock). Histograms hold
    // wall-time observations and are excluded entirely.
    let (sa, sb) = match (&a.summary, &b.summary) {
        (Some(sa), Some(sb)) => (sa, sb),
        (None, None) => return None,
        _ => return Some("summary: present in one trace, missing in the other".into()),
    };
    let counters = |s: &gfl_obs::RunSummary| -> Vec<(String, u64)> {
        s.metrics
            .counters
            .iter()
            .map(|c| (c.name.clone(), c.value))
            .collect()
    };
    let (ca, cb) = (counters(sa), counters(sb));
    if ca != cb {
        for (pa, pb) in ca.iter().zip(cb.iter()) {
            if pa != pb {
                return Some(format!("counter {}: {} vs {} ({})", pa.0, pa.1, pb.1, pb.0));
            }
        }
        return Some(format!(
            "counter sets differ: {} vs {} entries",
            ca.len(),
            cb.len()
        ));
    }
    let gauges = |s: &gfl_obs::RunSummary| -> Vec<(String, f64)> {
        s.metrics
            .gauges
            .iter()
            .filter(|g| !g.name.starts_with("pool."))
            .map(|g| (g.name.clone(), g.value))
            .collect()
    };
    let (ga, gb) = (gauges(sa), gauges(sb));
    if ga != gb {
        for (pa, pb) in ga.iter().zip(gb.iter()) {
            if pa != pb {
                return Some(format!("gauge {}: {} vs {} ({})", pa.0, pa.1, pb.1, pb.0));
            }
        }
        return Some(format!(
            "gauge sets differ: {} vs {} entries",
            ga.len(),
            gb.len()
        ));
    }
    None
}

// -------------------------------------------------------------------- flame

fn flame(paths: &[String], args: &Args, out: &mut dyn Write) -> Result<i32, String> {
    let paths = expect_paths(paths, 1, "a trace file")?;
    let write = args.choice("clock", &CLOCKS).map_err(|e| e.to_string())?.1;
    let trace = load_trace(&paths[0])?;
    write(&trace, out).map_err(|e| e.to_string())?;
    Ok(0)
}

/// Collapsed stacks over wall time: each line is `stack;path weight_us`,
/// with parent self-time = parent total − children totals, so the weights
/// sum to total traced round time and feed straight into flamegraph
/// tooling.
fn write_wall_flame(trace: &Trace, out: &mut dyn Write) -> std::io::Result<()> {
    let total = |kind| trace.span_total_ns(kind);
    let round = total(SpanKind::Round);
    let train = total(SpanKind::Train);
    let group_round = total(SpanKind::GroupRound);
    let client_step = total(SpanKind::ClientStep);
    let aggregate = total(SpanKind::Aggregate);
    let comm = total(SpanKind::Comm);
    let upload_retry = total(SpanKind::UploadRetry);
    let eval = total(SpanKind::Eval);
    let regroup = total(SpanKind::Regroup);

    let us = |ns: u64| ns / 1_000;
    let phases = [train, aggregate, comm, eval].into_iter();
    let round_self = round.saturating_sub(phases.fold(0, u64::saturating_add));
    let stacks = [
        ("round", round_self),
        ("round;train", train.saturating_sub(group_round)),
        (
            "round;train;group_round",
            group_round.saturating_sub(client_step),
        ),
        ("round;train;group_round;client_step", client_step),
        ("round;aggregate", aggregate),
        ("round;comm", comm.saturating_sub(upload_retry)),
        ("round;comm;upload_retry", upload_retry),
        ("round;eval", eval),
        // Regroup passes run between rounds in the self-healing loop, not
        // inside any round span.
        ("regroup", regroup),
    ];
    for (stack, ns) in stacks {
        if ns > 0 {
            writeln!(out, "{stack} {}", us(ns).max(1))?;
        }
    }
    Ok(())
}

/// Collapsed stacks over the *emulated* clock: one frame per round,
/// weighted by that round's Eq. 5 cost delta in emulated microseconds.
/// Wall time is meaningless for semi-async runs (the scheduler skips
/// idle time); this view shows where simulated cost accrued instead.
fn write_emulated_flame(trace: &Trace, out: &mut dyn Write) -> std::io::Result<()> {
    let mut prev = 0.0f64;
    for r in &trace.rounds {
        let delta = (r.cost_total - prev).max(0.0);
        prev = r.cost_total;
        let us = (delta * 1e6) as u64;
        if us > 0 {
            writeln!(out, "emulated;round_{} {us}", r.round)?;
        }
    }
    Ok(())
}

// ------------------------------------------------------------------ regress

fn num(v: &Value, key: &str) -> Option<f64> {
    // `as_f64` coerces integer values, so u64 counters compare fine.
    v.get(key).and_then(Value::as_f64)
}

fn str_field<'a>(v: &'a Value, key: &str) -> Option<&'a str> {
    v.get(key).and_then(Value::as_str)
}

fn array<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    v.get(key)
        .and_then(Value::as_array)
        .map(Vec::as_slice)
        .unwrap_or(&[])
}

/// Each `results` row of `current` that has a `threads` count, with the
/// `baseline` row of the same count.
fn rows_by_threads<'a>(
    baseline: &'a Value,
    current: &'a Value,
) -> impl Iterator<Item = (f64, &'a Value, &'a Value)> {
    array(current, "results").iter().filter_map(move |cur_row| {
        let threads = num(cur_row, "threads")?;
        let base_row = array(baseline, "results")
            .iter()
            .find(|r| num(r, "threads") == Some(threads))?;
        Some((threads, base_row, cur_row))
    })
}

/// The keys that say which run a `BENCH_ROUND.json` snapshot measured.
const SNAPSHOT_IDENTITY: [&str; 3] = ["workload", "rounds_measured", "param_count"];

/// Compares two `BENCH_ROUND.json` snapshots of the same run: a snapshot
/// pair whose [`SNAPSHOT_IDENTITY`] keys differ is an error (exit 2), not a
/// comparison. Thresholds:
///
/// * `rounds_per_sec` (per thread row): FAIL below `--min-rps-ratio`
///   (default 0.5) of baseline — generous, because CI hardware varies.
/// * `formation.results[].clients_per_sec` (per thread row, when both
///   snapshots carry `bench_scale`'s `formation` section): the same floor.
/// * `scale.clients / scale.population_build_seconds_1m` (when both
///   snapshots carry the key): the same floor.
/// * `allocs_per_round` (per thread row): FAIL above baseline +
///   `--max-alloc-delta` (default 32) — tight, because allocation counts
///   are machine-independent.
/// * `gemm_gflops` (per SIMD tier): FAIL below `--min-gflops-ratio`
///   (default 0.5) of baseline.
/// * `softmax_xent_rows_per_s` and `xent_argmax_rows_per_s` (the current
///   snapshot's active tier, when both snapshots carry the keys): the
///   `--min-rps-ratio` floor.
///
/// Rows are matched by `threads`, tiers by `tier`; entries present only on
/// one side are skipped (a new tier or thread count is not a regression),
/// and throughput is only compared on rows both sides flag `reliable`
/// (threads ≤ physical cores).
///
/// Additionally, when the current snapshot carries a `scale` section
/// (from `bench_scale`), its `formation_seconds_1m` and
/// `regroup_seconds_1m` are gated *absolutely* against
/// `--max-formation-seconds` (default 1.0) — the paper-scale sub-second
/// formation claim, checked rather than asserted.
fn regress(paths: &[String], args: &Args, out: &mut dyn Write) -> Result<i32, String> {
    let paths = expect_paths(paths, 2, "baseline and current BENCH_ROUND.json")?;
    let knob = |key: &str| -> Result<f64, String> { args.get(key).map_err(|e| e.to_string()) };
    let (min_rps, max_alloc_delta) = (knob("min-rps-ratio")?, knob("max-alloc-delta")?);
    let (min_gflops, max_formation) = (knob("min-gflops-ratio")?, knob("max-formation-seconds")?);

    let read = |p: &str| -> Result<Value, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        serde_json::from_str(&text).map_err(|e| format!("{p}: {e}"))
    };
    let baseline = read(&paths[0])?;
    let current = read(&paths[1])?;
    // Snapshots of different runs do not compare: their per-round figures
    // differ for reasons no code change made.
    for key in SNAPSHOT_IDENTITY {
        if let (Some(base), Some(cur)) = (baseline.get(key), current.get(key)) {
            if base != cur {
                let [base, cur] = [base, cur].map(|v| serde_json::to_string(v).unwrap_or_default());
                return Err(format!(
                    "the snapshots measure different runs: `{key}` is {base} in the \
                     baseline and {cur} in the current one"
                ));
            }
        }
    }

    let mut failures = 0usize;
    let mut checks = 0usize;
    let mut check = |out: &mut dyn Write, label: String, ok: bool, detail: String| {
        checks += 1;
        if !ok {
            failures += 1;
        }
        let _ = writeln!(
            out,
            "{} {label}: {detail}",
            if ok { "PASS" } else { "FAIL" }
        );
    };

    // Throughput of a row pair against `--min-rps-ratio`: `(ok, detail)`,
    // or nothing where either side lacks the key or flags the row unreliable.
    let reliable = |row: &Value| row.get("reliable").and_then(Value::as_bool) != Some(false);
    let against_floor = |base: f64, cur: f64| {
        let ratio = cur / base;
        (
            ratio >= min_rps,
            format!("{cur:.2} vs baseline {base:.2} (ratio {ratio:.2}, floor {min_rps:.2})"),
        )
    };
    let throughput = |key: &str, base_row: &Value, cur_row: &Value| {
        let (base, cur) = (num(base_row, key)?, num(cur_row, key)?);
        (base > 0.0 && reliable(base_row) && reliable(cur_row)).then(|| against_floor(base, cur))
    };

    for (threads, base_row, cur_row) in rows_by_threads(&baseline, &current) {
        if let Some((ok, detail)) = throughput("rounds_per_sec", base_row, cur_row) {
            check(
                out,
                format!("rounds_per_sec[threads={threads}]"),
                ok,
                detail,
            );
        }
        if let (Some(base), Some(cur)) = (
            num(base_row, "allocs_per_round"),
            num(cur_row, "allocs_per_round"),
        ) {
            let delta = cur - base;
            check(
                out,
                format!("allocs_per_round[threads={threads}]"),
                delta <= max_alloc_delta,
                format!(
                    "{cur:.0} vs baseline {base:.0} (delta {delta:+.0}, cap +{max_alloc_delta:.0})"
                ),
            );
        }
    }

    // CoVG formation at the `secure-covg` shape (bench_scale's `formation`
    // section): set-up is most of that run, so its clients/s is held to the
    // same floor.
    if let (Some(base), Some(cur)) = (baseline.get("formation"), current.get("formation")) {
        for (threads, base_row, cur_row) in rows_by_threads(base, cur) {
            if let Some((ok, detail)) = throughput("clients_per_sec", base_row, cur_row) {
                let label = format!("formation.covg_clients_per_sec[threads={threads}]");
                check(out, label, ok, detail);
            }
        }
    }

    // The population build (bench_scale's `scale` section) is what is left
    // of a virtual run's set-up; as clients/s it compares across population
    // sizes, and is held to the same floor.
    if let (Some(base), Some(cur)) = (baseline.get("scale"), current.get("scale")) {
        let rate = |scale: &Value| {
            let seconds = num(scale, "population_build_seconds_1m")?;
            (seconds > 0.0).then_some(num(scale, "clients")? / seconds)
        };
        if let (Some(base), Some(cur)) = (rate(base), rate(cur)) {
            let (ok, detail) = against_floor(base, cur);
            check(
                out,
                "scale.population_build_clients_per_sec".into(),
                ok,
                detail,
            );
        }
    }

    if let (Some(base_simd), Some(cur_simd)) = (baseline.get("simd"), current.get("simd")) {
        for cur_tier in array(cur_simd, "tiers") {
            let Some(name) = str_field(cur_tier, "tier") else {
                continue;
            };
            let Some(base_tier) = array(base_simd, "tiers")
                .iter()
                .find(|t| str_field(t, "tier") == Some(name))
            else {
                continue;
            };
            if let (Some(base), Some(cur)) =
                (num(base_tier, "gemm_gflops"), num(cur_tier, "gemm_gflops"))
            {
                if base > 0.0 {
                    let ratio = cur / base;
                    check(
                        out,
                        format!("gemm_gflops[{name}]"),
                        ratio >= min_gflops,
                        format!(
                            "{cur:.2} vs baseline {base:.2} (ratio {ratio:.2}, floor {min_gflops:.2})"
                        ),
                    );
                }
            }
            // The lane-per-row softmax kernels set the light task's pace;
            // only the tier the runs dispatch to is held.
            if str_field(cur_simd, "active_tier") == Some(name) {
                for key in ["softmax_xent_rows_per_s", "xent_argmax_rows_per_s"] {
                    if let Some((ok, detail)) = throughput(key, base_tier, cur_tier) {
                        check(out, format!("{key}[{name}]"), ok, detail);
                    }
                }
            }
        }
    }

    // Absolute gate on the 10⁶-client `scale` section (bench_scale /
    // docs/SCALE.md): group formation and one regroup tick must stay
    // under `--max-formation-seconds` (default 1 s). The claim is
    // absolute, so only the *current* snapshot is consulted; snapshots
    // predating the section are skipped.
    if let Some(scale) = current.get("scale") {
        for key in ["formation_seconds_1m", "regroup_seconds_1m"] {
            if let Some(cur) = num(scale, key) {
                check(
                    out,
                    format!("scale.{key}"),
                    cur <= max_formation,
                    format!("{cur:.3}s (cap {max_formation:.3}s)"),
                );
            }
        }
    }

    if checks == 0 {
        return Err("no comparable entries between baseline and current".into());
    }
    writeln!(
        out,
        "{}: {checks} checks, {failures} regression(s)",
        if failures == 0 { "ok" } else { "REGRESSION" }
    )
    .map_err(|e| e.to_string())?;
    Ok(if failures == 0 { 0 } else { 2 })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_str(cmd: &str) -> (i32, String) {
        let argv: Vec<String> = cmd.split_whitespace().map(str::to_string).collect();
        let mut out = Vec::new();
        let code = run(&argv, &mut out);
        (code, String::from_utf8(out).unwrap())
    }

    #[test]
    fn no_command_prints_usage() {
        let (code, out) = run_str("");
        assert_eq!(code, 2);
        assert!(out.contains("USAGE"));
    }

    #[test]
    fn unknown_command_is_a_usage_error() {
        let (code, out) = run_str("explode trace.jsonl");
        assert_eq!(code, 2);
        assert!(out.contains("unknown command"));
    }

    #[test]
    fn missing_files_are_reported_not_panicked() {
        let (code, out) = run_str("summarize /nonexistent/trace.jsonl");
        assert_eq!(code, 2);
        assert!(out.contains("error:"), "{out}");
        let (code, _) = run_str("diff /nonexistent/a.jsonl /nonexistent/b.jsonl");
        assert_eq!(code, 2);
    }

    #[test]
    fn help_lists_every_option_of_every_subcommand() {
        for cmd in ["--help", "help", "diff --help", "regress a b --help"] {
            let (code, out) = run_str(cmd);
            assert_eq!(code, 0, "{cmd}");
            for f in COMMANDS.iter().flat_map(|(_, command, _)| command.flags()) {
                assert!(out.contains(&format!("--{}", f.name)), "{cmd}: {out}");
            }
        }
    }

    #[test]
    fn options_are_checked_against_the_table_before_any_file_is_read() {
        for (word, command, _) in &COMMANDS {
            let files = if matches!(*word, "diff" | "regress") {
                "/nonexistent/a /nonexistent/b"
            } else {
                "/nonexistent/a"
            };
            let (code, out) = run_str(&format!("{word} {files} --typo 1"));
            assert_eq!((code, out.trim()), (2, "error: unknown option --typo"));
            for f in command.flags() {
                // Every row is read: a value no kind admits is refused by
                // name (an unread row would swallow it)…
                let (code, out) = run_str(&format!("{word} {files} --{} @", f.name));
                assert_eq!(code, 2);
                assert!(out.contains(&format!("--{}", f.name)), "{out}");
                // … and hostile numbers are usage errors at worst.
                for value in ["0", "-1", "nan", "inf", "1e308", "18446744073709551616"] {
                    let (code, out) = run_str(&format!("{word} {files} --{} {value}", f.name));
                    assert_eq!(code, 2, "{out}");
                }
            }
        }
    }

    #[test]
    fn wrong_arity_is_a_usage_error() {
        let (code, out) = run_str("diff only_one.jsonl");
        assert_eq!(code, 2);
        assert!(out.contains("expected 2"), "{out}");
    }
}
