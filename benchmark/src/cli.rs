//! Command line of `gfl-benchmark`.

use std::io::Write;
use std::path::{Path, PathBuf};

use serde_json::{json, Value};

use crate::env::Environment;
use crate::measure::{measure, Budget, Harness, Session};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::report::{totals, write_results, WorkloadResult};
use crate::spans::Recorder;
use crate::traced::{per_layer_values, trace_workloads};
use crate::workloads::{by_name, Size, Workload, WORKLOADS};

pub const USAGE: &str = "\
gfl-benchmark — the Group-FEL repository benchmark

USAGE:
  gfl-benchmark run [--seed N] [--reps N] [--only WORKLOAD] [--gfl PATH] [--smoke]
      every workload: measured pass (end-to-end metrics, --reps invocations
      each, interleaved), then traced pass (per-layer metrics and ledgers);
      prints every metric with its unit and writes
      <target>/benchmark/<run-id>/{results.json,trace.jsonl,logs/}
  gfl-benchmark compare <a/results.json> <b/results.json>
      per workload and end-to-end metric: both medians, B/A, the bound and a
      verdict better|same|worse|unresolved; exit 1 on any worse
  gfl-benchmark manifest
      prints BENCHMARK.json as the workload and metric catalogues define it
  gfl-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--gfl PATH]
      one run of one workload for a driver: measures for S seconds (--trace 0,
      end-to-end metrics) or takes the traced pass (--trace 1, per-layer
      metrics); the last line printed is one JSON object

  --reps N     invocations per workload in `run`                      [5]
  --gfl PATH   the gfl binary (gfl-trace beside it)   [beside this binary]
  --smoke      every workload at about a fifth of its size, for tests

Exit code 0 only when every operation succeeded.";

struct Options {
    seed: u64,
    reps: usize,
    only: Option<&'static Workload>,
    gfl: Option<PathBuf>,
    smoke: bool,
    workload: Option<&'static Workload>,
    seconds: f64,
    trace: bool,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        seed: 1,
        reps: 5,
        only: None,
        gfl: None,
        smoke: false,
        workload: None,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            o.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value '{value}' for {flag}");
        let workload = || {
            by_name(value).ok_or_else(|| {
                let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                format!("unknown workload '{value}' ({})", names.join("|"))
            })
        };
        match flag.as_str() {
            "--seed" => o.seed = value.parse().map_err(|_| bad())?,
            "--reps" => {
                o.reps = value.parse().map_err(|_| bad())?;
                if o.reps == 0 {
                    return Err("--reps must be at least 1".into());
                }
            }
            "--only" => o.only = Some(workload()?),
            "--workload" => o.workload = Some(workload()?),
            "--gfl" => o.gfl = Some(PathBuf::from(value)),
            "--seconds" => {
                o.seconds = value.parse().map_err(|_| bad())?;
                if !(o.seconds > 0.0 && o.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                o.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    Ok(o)
}

/// The binaries beside this one, and the target directory above them.
fn locate(gfl: Option<PathBuf>) -> Result<(PathBuf, PathBuf, PathBuf), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this binary: {e}"))?;
    let bin_dir = exe.parent().ok_or("this binary has no parent directory")?;
    let gfl = gfl.unwrap_or_else(|| bin_dir.join("gfl"));
    if !gfl.is_file() {
        return Err(format!(
            "{} not found: build it first (cargo build --release -p gfl-cli) or pass --gfl",
            gfl.display()
        ));
    }
    let gfl_trace = gfl.with_file_name("gfl-trace");
    if !gfl_trace.is_file() {
        return Err(format!("{} not found beside gfl", gfl_trace.display()));
    }
    let target = bin_dir.parent().unwrap_or(bin_dir).to_path_buf();
    Ok((gfl, gfl_trace, target))
}

fn harness(o: &Options, run_id: &str) -> Result<Harness, String> {
    let (gfl, gfl_trace, target) = locate(o.gfl.clone())?;
    let run_dir = target.join("benchmark").join(run_id);
    // A run directory is this benchmark's own: stale artifacts of an earlier
    // run under the same id would be mistaken for this run's.
    if run_dir.exists() {
        std::fs::remove_dir_all(&run_dir).map_err(|e| format!("{}: {e}", run_dir.display()))?;
    }
    std::fs::create_dir_all(&run_dir).map_err(|e| format!("{}: {e}", run_dir.display()))?;
    Ok(Harness {
        gfl,
        gfl_trace,
        run_dir,
        env: Environment::capture(),
        seed: o.seed,
        size: if o.smoke { Size::Smoke } else { Size::Full },
    })
}

fn write_trace(rec: &Recorder, path: &Path) -> std::io::Result<()> {
    rec.write_jsonl(std::io::BufWriter::new(std::fs::File::create(path)?))
}

/// `run`: every workload, both passes.
fn run(o: &Options) -> Result<i32, String> {
    let epoch = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let h = harness(o, &format!("seed{}-{epoch}", o.seed))?;
    let io = |e: std::io::Error| e.to_string();
    let selected: Vec<&'static Workload> = WORKLOADS
        .iter()
        .filter(|w| o.only.is_none_or(|only| only.name == w.name))
        .collect();
    println!(
        "gfl-benchmark run: seed {}, {} reps, {} threads per child on {} processors{} ({}, {}, simd {})",
        h.seed,
        o.reps,
        h.env.child_threads,
        h.env.nproc,
        if h.env.undersized { " — UNDERSIZED" } else { "" },
        h.env.cpu_model,
        h.env.rustc,
        h.env.simd_tier,
    );
    let mut sessions: Vec<Session> = selected.iter().map(|w| Session::new(w)).collect();
    let refs = measure(&h, &mut sessions, Budget::Reps(o.reps)).map_err(io)?;
    let mut results: Vec<WorkloadResult> = sessions
        .iter()
        .map(|s| WorkloadResult::from_session(s, &h))
        .collect();
    let mut rec = Recorder::new();
    let traced = trace_workloads(&h, &selected, &mut rec).map_err(io)?;
    for (traced, result) in traced.into_iter().zip(results.iter_mut()) {
        result.ops.absorb(traced.ops.clone());
        result.traced = Some(traced);
    }
    let mut out = std::io::stdout().lock();
    for r in &results {
        r.print(&mut out).map_err(io)?;
    }
    let results_path = h.run_dir.join("results.json");
    write_results(&h, "run", Some(o.reps), &refs, &results, &results_path).map_err(io)?;
    write_trace(&rec, &h.run_dir.join("trace.jsonl")).map_err(io)?;
    let (attempted, failed) = totals(&results);
    writeln!(
        out,
        "\nfailure_share {} ({failed} of {attempted} operations)\nwrote {}",
        failed as f64 / attempted.max(1) as f64,
        results_path.display()
    )
    .map_err(io)?;
    Ok(i32::from(failed > 0))
}

/// One driver run: a single workload, one pass, one JSON object as the last
/// line of standard output.
fn contract(o: &Options, w: &'static Workload) -> Result<i32, String> {
    let h = harness(o, &format!("contract-{}-t{}", w.name, u8::from(o.trace)))?;
    let io = |e: std::io::Error| e.to_string();
    let (metrics, mut result): (Vec<(String, Value)>, WorkloadResult);
    let mut refs = Vec::new();
    if o.trace {
        let mut rec = Recorder::new();
        let traced = trace_workloads(&h, &[w], &mut rec)
            .map_err(io)?
            .pop()
            .expect("one workload in, one result out");
        write_trace(&rec, &h.run_dir.join("trace.jsonl")).map_err(io)?;
        let (present, missing) = per_layer_values(&traced.values);
        let mut ops = traced.ops.clone();
        ops.check(missing.is_empty(), || {
            format!("per-layer metrics not measured: {missing:?}")
        });
        metrics = present
            .iter()
            .map(|&(p, value)| (p.name.to_string(), json!({"value": value, "unit": p.unit})))
            .collect();
        result = WorkloadResult {
            name: w.name,
            why: w.why,
            args: w.plain_args(h.seed, h.env.child_threads, h.size),
            end_to_end: None,
            raw: Vec::new(),
            traced: Some(traced),
            ops,
        };
    } else {
        let mut sessions = [Session::new(w)];
        refs = measure(&h, &mut sessions, Budget::Seconds(o.seconds)).map_err(io)?;
        result = WorkloadResult::from_session(&sessions[0], &h);
        let complete = result
            .end_to_end
            .as_ref()
            .is_some_and(|e| e.len() == END_TO_END.len());
        result.ops.check(complete, || {
            "no invocation succeeded: no end-to-end metrics".to_string()
        });
        metrics = result
            .end_to_end
            .iter()
            .flatten()
            .map(|(e, s, _)| {
                (
                    e.name.to_string(),
                    json!({"value": e.reported(s), "unit": e.unit}),
                )
            })
            .collect();
    }
    let mut out = std::io::stdout().lock();
    result.print(&mut out).map_err(io)?;
    let results = [result];
    write_results(
        &h,
        "contract",
        None,
        &refs,
        &results,
        &h.run_dir.join("results.json"),
    )
    .map_err(io)?;
    let ops = &results[0].ops;
    let line = json!({
        "correct": ops.failed == 0,
        "attempted": ops.attempted.max(1),
        "failed": ops.failed,
        "metrics": Value::Object(metrics),
    });
    let line = serde_json::to_string(&line).map_err(|e| e.to_string())?;
    writeln!(out, "{line}").map_err(io)?;
    Ok(0)
}

/// `BENCHMARK.json`, from the catalogues: regenerate the file with this after
/// changing a workload or a metric (a test compares the two).
fn manifest() -> Result<i32, String> {
    let workloads: Vec<Value> = WORKLOADS
        .iter()
        .map(|w| json!({"name": w.name, "why": w.why}))
        .collect();
    let end_to_end: Vec<Value> = END_TO_END
        .iter()
        .map(|e| json!({"name": e.name, "unit": e.unit, "better": e.better.as_str(), "bound": e.bound}))
        .collect();
    let per_layer: Vec<Value> = PER_LAYER
        .iter()
        .map(|p| json!({"name": p.name, "unit": p.unit, "better": p.better.as_str()}))
        .collect();
    let doc = json!({
        "command": ["bash", "benchmark/run.sh"],
        "paths": ["benchmark"],
        "run_seconds": crate::metrics::RUN_SECONDS,
        "workloads": workloads,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
    });
    println!(
        "{}",
        serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?
    );
    Ok(0)
}

/// Entry point; returns the process exit code.
pub fn main(argv: &[String]) -> i32 {
    let outcome = match argv.first().map(String::as_str) {
        None | Some("help" | "--help" | "-h") => {
            println!("{USAGE}");
            return if argv.is_empty() { 2 } else { 0 };
        }
        Some("compare") => match &argv[1..] {
            [a, b] => crate::compare::run(Path::new(a), Path::new(b), std::io::stdout().lock())
                .map_err(|e| e.to_string()),
            _ => Err("compare takes two result files".to_string()),
        },
        Some("manifest") => manifest(),
        Some("run") => parse_options(&argv[1..]).and_then(|o| match o.workload {
            Some(_) => Err("--workload belongs to the driver form; `run` takes --only".to_string()),
            None => run(&o),
        }),
        Some(_) => parse_options(argv).and_then(|o| match o.workload {
            Some(w) => contract(&o, w),
            None => Err("expected `run`, `compare` or --workload NAME".to_string()),
        }),
    };
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            2
        }
    }
}
