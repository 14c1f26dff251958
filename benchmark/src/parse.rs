//! Parses what `gfl simulate` prints. Bytes from a child are outside input:
//! nothing here panics on a truncated or garbled log, it returns what it
//! found and [`SimOutput::complete`] says whether that is a whole run.

use std::collections::BTreeMap;

/// One row of the trajectory table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrajectoryRow {
    pub round: usize,
    pub cost: f64,
    pub accuracy: f64,
    pub loss: f64,
}

/// One row of the `--metrics` span table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanTotal {
    pub count: u64,
    pub total_s: f64,
}

/// Everything the harness reads from one run's standard output.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimOutput {
    pub groups_formed: Option<usize>,
    /// `mean CoV` of the founding partition (`inf` parses as infinity).
    pub mean_cov: Option<f64>,
    pub threads: Option<usize>,
    pub trajectory: Vec<TrajectoryRow>,
    pub best_accuracy: Option<f64>,
    /// `N <what>` pairs of the `faults:` line, keyed by `<what>`.
    pub faults: BTreeMap<String, u64>,
    /// `N <what>` pairs of the `regroups:` line.
    pub regroups: BTreeMap<String, u64>,
    /// `final partition: G groups over A active clients`.
    pub final_partition: Option<(usize, usize)>,
    /// Paths of the `wrote …` lines, in order.
    pub wrote: Vec<String>,
    /// `--metrics`: span kind → count and total.
    pub spans: BTreeMap<String, SpanTotal>,
    /// `--metrics`: counter name → value.
    pub counters: BTreeMap<String, u64>,
    /// `--metrics`: `phase coverage` as a fraction.
    pub phase_coverage: Option<f64>,
}

impl SimOutput {
    /// A whole run: header, a non-empty trajectory and the closing
    /// `best accuracy:` line.
    pub fn complete(&self) -> bool {
        self.groups_formed.is_some() && !self.trajectory.is_empty() && self.best_accuracy.is_some()
    }

    /// First trajectory round whose accuracy reaches `target`.
    pub fn round_reaching(&self, target: f64) -> Option<usize> {
        self.trajectory
            .iter()
            .find(|r| r.accuracy >= target)
            .map(|r| r.round)
    }
}

/// `"434 crashes, 723 stragglers cut"` → `{crashes: 434, "stragglers cut": 723}`.
fn counted_phrases(text: &str) -> BTreeMap<String, u64> {
    text.split(',')
        .filter_map(|part| {
            let part = part.trim();
            let (n, what) = part.split_once(' ')?;
            Some((what.trim().to_string(), n.parse().ok()?))
        })
        .collect()
}

#[derive(PartialEq)]
enum Section {
    Body,
    Trajectory,
    MetricSpans,
    MetricCounters,
    MetricOther,
}

/// Parses a run's standard output (lossily decoded: a log cut inside a
/// multi-byte character is still a log).
pub fn parse_stdout(bytes: &[u8]) -> SimOutput {
    let text = String::from_utf8_lossy(bytes);
    let mut out = SimOutput::default();
    let mut section = Section::Body;
    for line in text.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        match section {
            Section::Trajectory => {
                if let [round, cost, accuracy, loss] = fields[..] {
                    if let (Ok(round), Ok(cost), Ok(accuracy), Ok(loss)) =
                        (round.parse(), cost.parse(), accuracy.parse(), loss.parse())
                    {
                        out.trajectory.push(TrajectoryRow {
                            round,
                            cost,
                            accuracy,
                            loss,
                        });
                        continue;
                    }
                }
                section = Section::Body;
            }
            Section::MetricSpans => {
                if let [kind, count, total, "s"] = fields[..] {
                    if let (Ok(count), Ok(total_s)) = (count.parse(), total.parse()) {
                        out.spans
                            .insert(kind.to_string(), SpanTotal { count, total_s });
                        continue;
                    }
                }
            }
            Section::MetricCounters => {
                if let [name, value] = fields[..] {
                    if let Ok(value) = value.parse() {
                        out.counters.insert(name.to_string(), value);
                        continue;
                    }
                }
            }
            Section::Body | Section::MetricOther => {}
        }
        if let Some(rest) = line.strip_prefix("formed ") {
            // formed 12 groups (mean CoV 0.137)
            out.groups_formed = rest.split(' ').next().and_then(|n| n.parse().ok());
            out.mean_cov = rest
                .split_once("mean CoV ")
                .and_then(|(_, v)| v.trim_end_matches(')').parse().ok());
        } else if line.starts_with("training ") {
            // training fedavg on 60 clients / 3 edges (17226 params, 2 threads)
            out.threads = fields
                .iter()
                .position(|f| f.starts_with("threads"))
                .and_then(|i| fields.get(i.checked_sub(1)?))
                .and_then(|n| n.parse().ok());
        } else if fields == ["round", "cost", "accuracy", "loss"] {
            section = Section::Trajectory;
        } else if let Some(rest) = line.strip_prefix("best accuracy: ") {
            out.best_accuracy = rest.trim().parse().ok();
        } else if let Some(rest) = line.strip_prefix("faults: ") {
            out.faults = counted_phrases(rest);
        } else if let Some(rest) = line.strip_prefix("regroups: ") {
            out.regroups = counted_phrases(rest);
        } else if let Some(rest) = line.strip_prefix("final partition: ") {
            // 62 groups over 487 active clients
            let nums: Vec<usize> = rest
                .split_whitespace()
                .filter_map(|f| f.parse().ok())
                .collect();
            if let [groups, active] = nums[..] {
                out.final_partition = Some((groups, active));
            }
        } else if let Some(path) = line.strip_prefix("wrote ") {
            out.wrote.push(path.to_string());
        } else if let Some(rest) = line.strip_prefix("phase coverage:") {
            out.phase_coverage = rest
                .trim()
                .trim_end_matches('%')
                .parse::<f64>()
                .ok()
                .map(|pct| pct / 100.0);
        } else if fields == ["span", "kind", "count", "total"] {
            section = Section::MetricSpans;
        } else if fields == ["counter", "value"] {
            section = Section::MetricCounters;
        } else if fields
            .first()
            .is_some_and(|f| *f == "gauge" || *f == "histogram")
        {
            section = Section::MetricOther;
        }
    }
    out
}

/// The part of a run's output that must be byte-identical for one seed
/// whatever the thread count, output flags or tracing: everything up to the
/// `--metrics` block, without `wrote …` lines, and with the `N threads`
/// token of the `training` line blanked.
pub fn masked_stdout(bytes: &[u8]) -> Vec<u8> {
    let text = String::from_utf8_lossy(bytes);
    let mut out = String::with_capacity(text.len());
    for line in text.lines() {
        if line == "=== run metrics ===" {
            break;
        }
        if line.starts_with("wrote ") {
            continue;
        }
        if line.starts_with("training ") {
            if let Some((head, tail)) = line.rsplit_once(", ") {
                if tail.ends_with(" threads)") {
                    out.push_str(head);
                    out.push_str(", N threads)\n");
                    continue;
                }
            }
        }
        out.push_str(line);
        out.push('\n');
    }
    // The metrics block is preceded by one blank separator line.
    while out.ends_with("\n\n") {
        out.pop();
    }
    out.into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOG: &str = "formed 3988 groups (mean CoV 0.137)\n\
training fedavg on 40000 clients / 4 edges (17226 params, 2 threads)\n\
\n round       cost  accuracy    loss\n     0      11872    0.1355  2.6091\n     5      72914    0.1240  3.2200\n\
\nbest accuracy: 0.1355\nfaults: 434 crashes, 723 stragglers cut, 2 edge outages\nwrote /tmp/x.csv\n";

    #[test]
    fn parses_a_whole_log() {
        let o = parse_stdout(LOG.as_bytes());
        assert!(o.complete());
        assert_eq!(o.groups_formed, Some(3988));
        assert_eq!(o.mean_cov, Some(0.137));
        assert_eq!(o.threads, Some(2));
        assert_eq!(o.trajectory.len(), 2);
        assert_eq!(o.trajectory[1].round, 5);
        assert_eq!(o.best_accuracy, Some(0.1355));
        assert_eq!(o.faults["stragglers cut"], 723);
        assert_eq!(o.faults["edge outages"], 2);
        assert_eq!(o.wrote, ["/tmp/x.csv"]);
        assert_eq!(o.round_reaching(0.13), Some(0));
        assert_eq!(o.round_reaching(0.5), None);
    }

    #[test]
    fn masking_hides_threads_wrote_and_metrics_only() {
        let with_metrics = format!("{LOG}\n=== run metrics ===\nrounds traced:   6\n");
        let other_threads = LOG.replace("2 threads", "1 threads");
        let plain = LOG.replace("wrote /tmp/x.csv\n", "");
        let masked = masked_stdout(plain.as_bytes());
        assert_eq!(masked_stdout(with_metrics.as_bytes()), masked);
        assert_eq!(masked_stdout(other_threads.as_bytes()), masked);
        let other_result = LOG.replace("0.1240", "0.1241");
        assert_ne!(masked_stdout(other_result.as_bytes()), masked);
    }
}
