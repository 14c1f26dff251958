//! `gfl-benchmark compare <a/results.json> <b/results.json>`: do two sets of
//! runs agree within the benchmark's own bounds?

use std::io::Write;
use std::path::Path;

use serde_json::Value;

use crate::metrics::EXACT;
use crate::stats::{compare, Better, Verdict};

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn runs_of(metric: &Value) -> Option<Vec<f64>> {
    metric
        .get("runs")?
        .as_array()?
        .iter()
        .map(Value::as_f64)
        .collect()
}

/// Compares B against A and prints one row per workload × end-to-end metric.
/// Returns the process exit code: 1 on any `worse`, on a higher
/// `failure_share`, or when an exact metric differs; 2 when a file does not
/// read as a result file.
pub fn run(a_path: &Path, b_path: &Path, mut out: impl Write) -> std::io::Result<i32> {
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (a, b) => {
            for e in [a.err(), b.err()].into_iter().flatten() {
                writeln!(out, "error: {e}")?;
            }
            return Ok(2);
        }
    };
    let (Some(a_workloads), Some(b_workloads)) = (
        a.get("workloads").and_then(Value::as_object),
        b.get("workloads").and_then(Value::as_object),
    ) else {
        writeln!(out, "error: a result file has no `workloads` object")?;
        return Ok(2);
    };
    writeln!(out, "A = {}\nB = {}", a_path.display(), b_path.display())?;
    writeln!(
        out,
        "{:<18} {:<16} {:>14} {:>14} {:>9} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "B/A", "bound"
    )?;
    let same_seed = a.get("seed").and_then(Value::as_u64) == b.get("seed").and_then(Value::as_u64);
    let mut bad = false;
    for (name, a_w) in a_workloads {
        let Some(b_w) = b_workloads.iter().find(|(n, _)| n == name).map(|(_, w)| w) else {
            writeln!(out, "{name:<18} missing from B")?;
            bad = true;
            continue;
        };
        let metrics = a_w.get("end_to_end").and_then(Value::as_object);
        for (metric, a_m) in metrics.into_iter().flatten() {
            let row = (|| {
                let b_m = b_w.get("end_to_end")?.get(metric)?;
                let better = Better::parse(a_m.get("better")?.as_str()?)?;
                let bound = a_m.get("bound")?.as_f64()?;
                let c = compare(&runs_of(a_m)?, &runs_of(b_m)?, better, bound)?;
                Some((c, bound))
            })();
            match row {
                Some((c, bound)) => {
                    bad |= c.verdict == Verdict::Worse;
                    writeln!(
                        out,
                        "{name:<18} {metric:<16} {:>14.4} {:>14.4} {:>8.3}x {:>5.0}%  {}",
                        c.a.median,
                        c.b.median,
                        c.ratio,
                        bound * 100.0,
                        c.verdict.as_str()
                    )?;
                }
                None => {
                    bad = true;
                    writeln!(out, "{name:<18} {metric:<16} unreadable in A or B")?;
                }
            }
        }
        // Counts and accuracies that must repeat exactly for one seed.
        for exact in EXACT {
            let value = |w: &Value| w.get("per_layer")?.get(exact)?.get("value")?.as_f64();
            if let (Some(x), Some(y), true) = (value(a_w), value(b_w), same_seed) {
                let same = x == y;
                bad |= !same;
                writeln!(
                    out,
                    "{name:<18} {exact:<24} {x:>14.6} {y:>14.6}  {}",
                    if same { "identical" } else { "DIFFERS" }
                )?;
            }
        }
    }
    let share = |doc: &Value| {
        doc.get("failure_share")
            .and_then(Value::as_f64)
            .unwrap_or(1.0)
    };
    let (fa, fb) = (share(&a), share(&b));
    writeln!(out, "failure_share: A {fa} B {fb}")?;
    bad |= fb > fa;
    if !same_seed {
        writeln!(
            out,
            "note: A and B ran different seeds; exact metrics were not compared"
        )?;
    }
    Ok(i32::from(bad))
}
