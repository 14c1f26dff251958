//! The stdout readers against recorded logs of all five workloads (smoke
//! size, seed 1, `--threads 2`; `scale-churn.log` keeps only the first lines
//! of its transition table). A cut-off log must read as an incomplete run —
//! a failed operation — never as a panic.

use gfl_benchmark::child::{Mark, PhaseScanner};
use gfl_benchmark::parse::{masked_stdout, parse_stdout};
use gfl_benchmark::workloads::{Size, WORKLOADS};

fn fixture(name: &str) -> Vec<u8> {
    let path = format!("{}/tests/fixtures/{name}.log", env!("CARGO_MANIFEST_DIR"));
    std::fs::read(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

fn marks(log: &[u8]) -> Vec<Mark> {
    let mut scanner = PhaseScanner::default();
    log.split_inclusive(|&b| b == b'\n')
        .filter_map(|line| scanner.line(line))
        .collect()
}

#[test]
fn every_workload_log_is_a_complete_run() {
    for w in &WORKLOADS {
        let log = fixture(w.name);
        assert_eq!(marks(&log), [Mark::Training, Mark::Table], "{}", w.name);
        let out = parse_stdout(&log);
        assert!(out.complete(), "{}", w.name);
        assert!(out.groups_formed.unwrap() > 0, "{}", w.name);
        assert_eq!(out.threads, Some(2), "{}", w.name);
        let rounds = w.rounds(Size::Smoke);
        assert_eq!(
            out.trajectory.last().unwrap().round,
            rounds - 1,
            "{}",
            w.name
        );
        assert!(out.trajectory.windows(2).all(|p| p[0].round < p[1].round));
        let best = out.best_accuracy.unwrap();
        assert!(
            best > 0.0 && best <= 1.0,
            "{}: best accuracy {best}",
            w.name
        );
        let top = out
            .trajectory
            .iter()
            .map(|r| r.accuracy)
            .fold(0.0, f64::max);
        assert_eq!(
            best, top,
            "{}: best accuracy is the table's maximum",
            w.name
        );
        assert_eq!(out.faults.is_empty(), !w.has_flag("--faults"), "{}", w.name);
        assert_eq!(
            out.regroups.is_empty(),
            !w.has_flag("--churn"),
            "{}",
            w.name
        );
        assert_eq!(
            out.final_partition.is_some(),
            w.has_flag("--churn"),
            "{}",
            w.name
        );
    }
}

#[test]
fn workload_specific_lines_are_read() {
    let secure = parse_stdout(&fixture("secure-covg"));
    assert!(secure.mean_cov.unwrap().is_finite());
    for key in [
        "crashes",
        "stragglers cut",
        "corrupt updates rejected",
        "edge outages",
    ] {
        assert!(secure.faults.contains_key(key), "faults line lacks '{key}'");
    }
    let scale = parse_stdout(&fixture("scale-churn"));
    let (groups, active) = scale.final_partition.unwrap();
    assert!(groups > 0 && active > groups);
    assert!(scale.regroups["departures"] > 0);
    // A materialized partition can hold a single-label group: `mean CoV inf`.
    let dense = parse_stdout(&fixture("dense-train"));
    assert!(dense.mean_cov.is_some());
    assert!(dense.round_reaching(0.3).is_some());
    assert_eq!(dense.round_reaching(2.0), None);
}

#[test]
fn observed_log_carries_artifacts_and_the_metrics_table() {
    let out = parse_stdout(&fixture("hostile-observed"));
    assert_eq!(
        out.wrote.len(),
        4,
        "csv, async csv, checkpoint, trace: {:?}",
        out.wrote
    );
    assert!(out.spans["client_step"].count > 0);
    assert!(out.spans["round"].total_s > 0.0);
    assert_eq!(out.counters["rounds.total"], 10);
    assert!(out.counters["clients.trained"] >= out.spans["client_step"].count);
    assert!(out.phase_coverage.unwrap() > 0.9);
    // Tracing is one-way: apart from what masking removes, the observed run
    // prints what the plain run of the same seed prints.
    assert_eq!(
        masked_stdout(&fixture("hostile-observed")),
        masked_stdout(&fixture("hostile-async"))
    );
    let plain = parse_stdout(&fixture("hostile-async"));
    assert!(plain.spans.is_empty() && plain.wrote.is_empty());
    assert_eq!(plain.trajectory, out.trajectory);
}

#[test]
fn a_truncated_log_is_an_incomplete_run_not_a_panic() {
    for w in &WORKLOADS {
        let log = fixture(w.name);
        let full = parse_stdout(&log);
        let closing = b"best accuracy:";
        let closing_at = log
            .windows(closing.len())
            .position(|window| window == closing)
            .unwrap();
        for cut in (0..log.len()).step_by(log.len() / 97 + 1) {
            let prefix = &log[..cut];
            let out = parse_stdout(prefix);
            masked_stdout(prefix);
            let seen = marks(prefix);
            if cut <= closing_at {
                assert!(!out.complete(), "{} cut at {cut} reads as complete", w.name);
            }
            assert!(out.trajectory.len() <= full.trajectory.len());
            assert!(seen.len() <= 2 && seen.first().is_none_or(|m| *m == Mark::Training));
        }
        // Cut inside the trajectory: the table boundary was seen, the closing
        // line was not, so the run does not count.
        let inside = parse_stdout(&log[..closing_at - 1]);
        assert!(!inside.complete() && inside.best_accuracy.is_none());
    }
    assert!(!parse_stdout(b"").complete());
    assert!(!parse_stdout(&[0xff, 0xfe, b'\n', 0x80]).complete());
    assert!(!parse_stdout(b"error: unknown --grouping 'x'\n").complete());
}
