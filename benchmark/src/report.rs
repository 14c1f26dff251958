//! The result file (`results.json`) and what is printed beside it.

use std::io::Write;
use std::path::Path;

use serde_json::{json, Value};

use crate::measure::{Harness, Ops, Session};
use crate::metrics::{EndToEnd, PER_LAYER};
use crate::stats::Summary;
use crate::traced::Traced;
use crate::workloads::Size;

/// Results of one workload: its measured pass, its traced pass, or both.
pub struct WorkloadResult {
    pub name: &'static str,
    pub why: &'static str,
    pub args: Vec<String>,
    pub end_to_end: Option<Vec<(&'static EndToEnd, Summary, Vec<f64>)>>,
    /// Raw phase columns of the measured pass, for whoever re-analyses.
    pub raw: Vec<(&'static str, Vec<f64>)>,
    pub traced: Option<Traced>,
    pub ops: Ops,
}

impl WorkloadResult {
    pub fn from_session(session: &Session, h: &Harness) -> Self {
        let w = session.workload;
        Self {
            name: w.name,
            why: w.why,
            args: w.plain_args(h.seed, h.env.child_threads, h.size),
            end_to_end: session.end_to_end(),
            raw: vec![
                ("setup_s", session.raw(|r| r.setup_s)),
                ("rounds_s", session.raw(|r| r.rounds_s)),
                ("report_s", session.raw(|r| r.report_s)),
                ("wall_s", session.raw(|r| r.wall_s)),
                ("cpu_s", session.raw(|r| r.cpu_s)),
            ],
            traced: None,
            ops: session.ops.clone(),
        }
    }

    fn to_json(&self) -> Value {
        let end_to_end: Vec<(String, Value)> = self
            .end_to_end
            .iter()
            .flatten()
            .map(|(e, s, runs)| {
                (
                    e.name.to_string(),
                    json!({
                        "unit": e.unit, "better": e.better.as_str(), "bound": e.bound,
                        "value": e.reported(s), "best_of_run": e.best_of_run,
                        "median": s.median, "q1": s.q1, "q3": s.q3, "min": s.min, "max": s.max,
                        "n": s.n, "runs": runs,
                    }),
                )
            })
            .collect();
        let raw: Vec<(String, Value)> = self
            .raw
            .iter()
            .map(|(name, v)| (name.to_string(), json!(v)))
            .collect();
        let per_layer: Vec<(String, Value)> = self
            .traced
            .iter()
            .flat_map(|t| {
                PER_LAYER.iter().filter_map(|p| {
                    let value = t.values.get(p.name)?;
                    Some((
                        p.name.to_string(),
                        json!({"value": value, "unit": p.unit, "layer": p.layer}),
                    ))
                })
            })
            .collect();
        let ledgers: Vec<Value> = self
            .traced
            .iter()
            .flat_map(|t| t.ledgers.iter().map(|l| l.to_json()))
            .collect();
        json!({
            "why": self.why,
            "args": self.args,
            "end_to_end": Value::Object(end_to_end),
            "raw": Value::Object(raw),
            "per_layer": Value::Object(per_layer),
            "ledgers": ledgers,
            "attempted": self.ops.attempted,
            "failed": self.ops.failed,
            "failures": self.ops.failures,
        })
    }

    /// Prints every metric by name with its unit, then the ledgers.
    pub fn print(&self, mut w: impl Write) -> std::io::Result<()> {
        writeln!(w, "\n== {} ==", self.name)?;
        for (e, s, _) in self.end_to_end.iter().flatten() {
            writeln!(
                w,
                "  {:<16} {:>14.4} {:<6} [median {:.4}, q1 {:.4}, q3 {:.4}, min {:.4}, max {:.4}, n {}] ({} is better, bound {:.0}%)",
                e.name, e.reported(s), e.unit, s.median, s.q1, s.q3, s.min, s.max, s.n, e.better.as_str(), e.bound * 100.0
            )?;
        }
        // Plain seconds of the measured pass: what a user sees, too noisy on a
        // shared box to carry a bound.
        for (name, values) in &self.raw {
            if !["rounds_s", "wall_s", "cpu_s"].contains(name) {
                continue;
            }
            if let Some(s) = Summary::of(values) {
                writeln!(
                    w,
                    "  {:<16} {:>14.4} s      [median {:.4}, q1 {:.4}, q3 {:.4}, max {:.4}, n {}] (fastest; not bounded)",
                    name, s.min, s.median, s.q1, s.q3, s.max, s.n
                )?;
            }
        }
        if let Some(t) = &self.traced {
            for p in &PER_LAYER {
                if let Some(v) = t.values.get(p.name) {
                    writeln!(w, "  {:<40} {:>16.4} {}", p.name, v, p.unit)?;
                }
            }
            for ledger in &t.ledgers {
                ledger.print(&mut w)?;
            }
        }
        writeln!(
            w,
            "  operations: {} attempted, {} failed",
            self.ops.attempted, self.ops.failed
        )?;
        for f in &self.ops.failures {
            writeln!(w, "  FAILED: {f}")?;
        }
        Ok(())
    }
}

/// Totals over all workloads.
pub fn totals(results: &[WorkloadResult]) -> (u64, u64) {
    results
        .iter()
        .fold((0, 0), |(a, f), r| (a + r.ops.attempted, f + r.ops.failed))
}

/// Writes `results.json` into the run directory.
pub fn write_results(
    h: &Harness,
    command: &str,
    reps: Option<usize>,
    reference_s: &[f64],
    results: &[WorkloadResult],
    path: &Path,
) -> std::io::Result<()> {
    let (attempted, failed) = totals(results);
    let workloads: Vec<(String, Value)> = results
        .iter()
        .map(|r| (r.name.to_string(), r.to_json()))
        .collect();
    let doc = json!({
        "schema": 1,
        "command": command,
        "seed": h.seed,
        "reps": reps,
        "size": if h.size == Size::Smoke { "smoke" } else { "full" },
        "undersized": h.env.undersized,
        "environment": h.env.to_json(),
        "reference_s": reference_s,
        "workloads": Value::Object(workloads),
        "attempted": attempted,
        "failed": failed,
        "failure_share": failed as f64 / attempted.max(1) as f64,
    });
    let text =
        serde_json::to_string_pretty(&doc).map_err(|e| std::io::Error::other(e.to_string()))?;
    std::fs::write(path, format!("{text}\n"))
}
