//! The measured pass: end-to-end metrics of whole `gfl simulate` invocations,
//! taken with the harness's tracing off.
//!
//! Closed loop, one child at a time. Each invocation is preceded and followed
//! by the reference work ([`crate::refload`]); with several workloads the
//! invocations interleave round-robin so a slow minute hits all of them.

use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::child::{run_gfl, ChildRun};
use crate::env::Environment;
use crate::metrics::{EndToEnd, END_TO_END};
use crate::parse::{masked_stdout, parse_stdout, SimOutput};
use crate::stats::Summary;
use crate::workloads::{Size, Workload};

/// Operations attempted and failed. An operation is one child invocation or
/// one correctness check.
#[derive(Debug, Default, Clone)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Ops {
    /// Counts one operation; records `what` when it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            let what = what();
            eprintln!("FAILED: {what}");
            self.failures.push(what);
        }
        ok
    }

    pub fn absorb(&mut self, other: Ops) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
    }
}

/// Where the binaries are and where this run may write.
pub struct Harness {
    pub gfl: PathBuf,
    pub gfl_trace: PathBuf,
    /// `<target>/benchmark/<run-id>/`.
    pub run_dir: PathBuf,
    pub env: Environment,
    pub seed: u64,
    pub size: Size,
}

impl Harness {
    /// Directory a workload's children write their artifacts to.
    pub fn out_dir(&self, workload: &Workload) -> std::io::Result<PathBuf> {
        let dir = self.run_dir.join("out").join(workload.name);
        std::fs::create_dir_all(&dir)?;
        Ok(dir)
    }

    pub fn logs_dir(&self) -> std::io::Result<PathBuf> {
        let dir = self.run_dir.join("logs");
        std::fs::create_dir_all(&dir)?;
        Ok(dir)
    }

    /// Runs one child of `workload` and keeps its output under `logs/<tag>.*`
    /// when it failed.
    pub fn run_child(
        &self,
        workload: &Workload,
        args: &[String],
        tag: &str,
    ) -> std::io::Result<(ChildRun, SimOutput)> {
        let out_dir = self.out_dir(workload)?;
        let run = run_gfl(&self.gfl, args, &out_dir)?;
        let parsed = parse_stdout(&run.stdout);
        if !(run.phases_complete() && parsed.complete()) {
            let logs = self.logs_dir()?;
            std::fs::write(logs.join(format!("{tag}.stdout")), &run.stdout)?;
            std::fs::write(logs.join(format!("{tag}.stderr")), &run.stderr)?;
        }
        Ok((run, parsed))
    }
}

/// Raw values of one measured invocation.
#[derive(Debug, Clone, Copy)]
pub struct Rep {
    pub setup_s: f64,
    pub rounds_s: f64,
    pub report_s: f64,
    pub wall_s: f64,
    pub cpu_s: f64,
    pub peak_rss_mib: f64,
    pub artifact_bytes: f64,
}

/// All measured invocations of one workload.
pub struct Session {
    pub workload: &'static Workload,
    pub reps: Vec<Rep>,
    pub ops: Ops,
    /// Masked standard output of the first good invocation, and its parse.
    first: Option<(Vec<u8>, SimOutput)>,
    identical: bool,
    artifacts: Vec<PathBuf>,
    /// Fastest reference reading of the measured pass this session ran in.
    pub ref_s: f64,
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

impl Session {
    pub fn new(workload: &'static Workload) -> Self {
        Self {
            workload,
            reps: Vec::new(),
            ops: Ops::default(),
            first: None,
            identical: true,
            artifacts: Vec::new(),
            ref_s: f64::NAN,
        }
    }

    fn args(&mut self, h: &Harness, size: Size) -> std::io::Result<Vec<String>> {
        let mut args = self.workload.plain_args(h.seed, h.env.child_threads, size);
        if self.workload.observed {
            let (flags, paths) = self.workload.output_args(&h.out_dir(self.workload)?);
            args.extend(flags);
            self.artifacts = paths;
        }
        Ok(args)
    }

    /// One discarded invocation at the measured size. After the box has been
    /// idle for a few seconds the first second of work runs up to half as
    /// fast again; the warm-up absorbs that, loads the binary and touches
    /// the output directory before anything is timed.
    pub fn warm_up(&mut self, h: &Harness) -> std::io::Result<()> {
        let args = self.args(h, h.size)?;
        let tag = format!("{}-warmup", self.workload.name);
        let (run, parsed) = h.run_child(self.workload, &args, &tag)?;
        self.ops
            .check(run.phases_complete() && parsed.complete(), || {
                format!("{tag}: exit {:?}, incomplete output", run.exit_code)
            });
        Ok(())
    }

    /// One measured invocation.
    pub fn rep(&mut self, h: &Harness) -> std::io::Result<()> {
        let args = self.args(h, h.size)?;
        let tag = format!("{}-rep{}", self.workload.name, self.reps.len());
        let (run, parsed) = h.run_child(self.workload, &args, &tag)?;
        let ok = self
            .ops
            .check(run.phases_complete() && parsed.complete(), || {
                format!(
                    "{tag}: exit {:?}, trajectory rows {}, see logs/{tag}.stdout",
                    run.exit_code,
                    parsed.trajectory.len()
                )
            });
        if !ok {
            return Ok(());
        }
        let files: u64 = self.artifacts.iter().map(|p| file_len(p)).sum();
        self.reps.push(Rep {
            setup_s: run.setup_s.unwrap_or(f64::NAN),
            rounds_s: run.rounds_s.unwrap_or(f64::NAN),
            report_s: run.report_s.unwrap_or(f64::NAN),
            wall_s: run.wall_s,
            cpu_s: run.cpu_s,
            peak_rss_mib: run.peak_rss_mib,
            artifact_bytes: (run.stdout.len() as u64 + files) as f64,
        });
        let masked = masked_stdout(&run.stdout);
        match &self.first {
            None => {
                std::fs::write(
                    h.logs_dir()?.join(format!("{}.stdout", self.workload.name)),
                    &run.stdout,
                )?;
                self.first = Some((masked, parsed));
            }
            Some((first, _)) => self.identical &= *first == masked,
        }
        Ok(())
    }

    /// Runs the checks that look at the whole set of invocations.
    pub fn finish(&mut self, h: &Harness) {
        let w = self.workload;
        let (identical, n) = (self.identical, self.reps.len());
        self.ops.check(identical && n > 0, || {
            format!(
                "{}: standard output differs between {n} repeats of one seed",
                w.name
            )
        });
        let Some((_, first)) = &self.first else {
            return;
        };
        if let Some(target) = w.acc_target(h.size) {
            let reached = first.round_reaching(target);
            self.ops.check(reached.is_some(), || {
                format!(
                    "{}: accuracy {target} never reached (best {:?})",
                    w.name, first.best_accuracy
                )
            });
        }
        if w.has_flag("--churn") {
            let groups = first.final_partition.map_or(0, |(g, _)| g);
            self.ops.check(groups > 0, || {
                format!("{}: no `final partition:` line with groups", w.name)
            });
        }
        if w.observed {
            let mut ops = std::mem::take(&mut self.ops);
            check_artifacts(h, w, &self.artifacts, false, &mut ops);
            self.ops = ops;
        }
    }

    /// One end-to-end metric, invocation by invocation.
    pub fn runs_of(&self, metric: &str) -> Vec<f64> {
        let ref_s = self.ref_s;
        let f: Box<dyn Fn(&Rep) -> f64> = match metric {
            "setup_s" => Box::new(|r| r.setup_s),
            "rounds_vs_ref" => Box::new(move |r| r.rounds_s / ref_s),
            "run_vs_ref" => Box::new(move |r| r.wall_s / ref_s),
            "cpu_vs_ref" => Box::new(move |r| r.cpu_s / ref_s),
            "peak_rss_mib" => Box::new(|r| r.peak_rss_mib),
            "artifact_bytes" => Box::new(|r| r.artifact_bytes),
            other => unreachable!("end-to-end metric {other} has no definition"),
        };
        self.reps.iter().map(f).collect()
    }

    /// The end-to-end metrics in catalogue order, each with its runs;
    /// `None` without one good invocation.
    pub fn end_to_end(&self) -> Option<Vec<(&'static EndToEnd, Summary, Vec<f64>)>> {
        END_TO_END
            .iter()
            .map(|e| {
                let runs = self.runs_of(e.name);
                Some((e, Summary::of(&runs)?, runs))
            })
            .collect()
    }

    /// Per-invocation raw values of one column, for the result file.
    pub fn raw(&self, f: fn(&Rep) -> f64) -> Vec<f64> {
        self.reps.iter().map(f).collect()
    }
}

/// Every artifact exists, `gfl-trace summarize` accepts the trace with phase
/// coverage ≥ 95%, and — with `load_checkpoint` — `Checkpoint::load` accepts
/// the checkpoint.
///
/// The checkpoint is loaded only where that is known to work, which today is
/// `dense-train`'s (0.4 MB, static membership, milliseconds). The vendored
/// JSON parser re-validates the rest of the document for every character of
/// every string it reads, so `hostile-observed`'s 3 MB checkpoint takes it
/// most of a minute and `scale-churn`'s 7 MB several; and a self-healing
/// run's checkpoint is then rejected, because a group's infinite
/// `baseline_cov` was written as `null`. Both are the program's to fix.
pub fn check_artifacts(
    h: &Harness,
    w: &Workload,
    artifacts: &[PathBuf],
    load_checkpoint: bool,
    ops: &mut Ops,
) {
    let find = |suffix: &str| {
        artifacts
            .iter()
            .find(|p| p.to_string_lossy().ends_with(suffix))
    };
    for path in artifacts {
        ops.check(file_len(path) > 0, || {
            format!("{}: artifact {} missing or empty", w.name, path.display())
        });
    }
    if let Some(trace) = find(".jsonl") {
        let summary = std::process::Command::new(&h.gfl_trace)
            .arg("summarize")
            .arg(trace)
            .output();
        let coverage = summary
            .as_ref()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| {
                let text = String::from_utf8_lossy(&o.stdout);
                let (_, rest) = text.split_once("phase coverage:")?;
                rest.split('%').next()?.trim().parse::<f64>().ok()
            });
        ops.check(coverage.is_some_and(|c| c >= 95.0), || {
            format!(
                "{}: gfl-trace summarize: phase coverage {coverage:?} (need >= 95%)",
                w.name
            )
        });
    }
    if let Some(checkpoint) = find("c.json").filter(|_| load_checkpoint) {
        let loaded = gfl_core::checkpoint::Checkpoint::load(checkpoint);
        ops.check(loaded.is_ok(), || {
            format!("{}: Checkpoint::load: {:?}", w.name, loaded.as_ref().err())
        });
    }
}

/// How long the measured pass goes on.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// This many invocations per workload.
    Reps(usize),
    /// Until about this many seconds have passed, but at least
    /// [`MIN_REPS`] invocations per workload.
    Seconds(f64),
}

pub const MIN_REPS: usize = 3;
const MAX_REPS: usize = 64;

/// Runs the measured pass over `sessions` and returns every reference
/// reading taken.
pub fn measure(h: &Harness, sessions: &mut [Session], budget: Budget) -> std::io::Result<Vec<f64>> {
    for s in sessions.iter_mut() {
        s.warm_up(h)?;
    }
    let threads = h.env.child_threads;
    let mut refs = vec![crate::refload::run(threads)];
    let start = Instant::now();
    for lap in 1..=MAX_REPS {
        let lap_start = Instant::now();
        for s in sessions.iter_mut() {
            s.rep(h)?;
            refs.push(crate::refload::run(threads));
        }
        let done = match budget {
            Budget::Reps(n) => lap >= n,
            Budget::Seconds(limit) => {
                let next_ends = start.elapsed() + lap_start.elapsed();
                lap >= MIN_REPS && next_ends.as_secs_f64() > limit
            }
        };
        if done {
            break;
        }
    }
    // Like the invocations beside them, the readings are only ever lengthened
    // by interference: the fastest one is the box's speed during this pass.
    let ref_s = refs.iter().copied().fold(f64::INFINITY, f64::min);
    for s in sessions.iter_mut() {
        s.ref_s = ref_s;
        s.finish(h);
    }
    Ok(refs)
}
