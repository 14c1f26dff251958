//! The metric catalogue: every name this benchmark reports, with its unit,
//! the direction in which it improves, and — for end-to-end metrics — the
//! bound by which it may worsen before a change counts as a regression.
//! `BENCHMARK.json` lists the same names; a test keeps the two in step.

use crate::stats::Better;
use Better::{Higher, Lower};

/// Seconds one driver run measures for (`run_seconds` of `BENCHMARK.json`):
/// about ten one-second invocations and the reference readings between them.
pub const RUN_SECONDS: u64 = 18;

/// One end-to-end metric, reported by every workload.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen.
    pub bound: f64,
    /// Report the best invocation of the run rather than the median one.
    /// Every timing is: on a shared box interference only ever adds time, in
    /// bursts that last longer than one invocation, so the fastest of a
    /// dozen repeats two or three times better than their median does.
    pub best_of_run: bool,
    pub what: &'static str,
}

impl EndToEnd {
    /// The value a run reports, from the summary of its invocations.
    pub fn reported(&self, s: &crate::stats::Summary) -> f64 {
        match (self.best_of_run, self.better) {
            (false, _) => s.median,
            (true, Lower) => s.min,
            (true, Higher) => s.max,
        }
    }
}

/// The end-to-end metrics, measured with the harness's tracing off.
///
/// Apart from `setup_s`, which the driver contract names, the timings are
/// ratios to the reference work run beside the program. The boxes this runs
/// on are shared: identical runs differ by 10-20% in plain seconds between
/// one quarter of a minute and the next, about half that as ratios. Plain
/// seconds (`engine.rounds_per_s`, `cli.run_wall_s`, `cli.cpu_s`) are
/// reported without a bound, per invocation in the result file.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        best_of_run: true,
        what: "spawn -> `training ` line: process start, data or population build, partition, formation",
    },
    EndToEnd {
        name: "rounds_vs_ref",
        unit: "ratio",
        better: Lower,
        bound: 0.25,
        best_of_run: true,
        what: "rounds time / time of the harness's fixed reference work run beside it",
    },
    EndToEnd {
        name: "run_vs_ref",
        unit: "ratio",
        better: Lower,
        bound: 0.25,
        best_of_run: true,
        what: "spawn -> exit (report printing and artifact flush included) / reference time",
    },
    EndToEnd {
        name: "cpu_vs_ref",
        unit: "ratio",
        better: Lower,
        bound: 0.25,
        best_of_run: true,
        what: "child user + system time (rusage) / reference time",
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Lower,
        bound: 0.25,
        best_of_run: false,
        what: "child ru_maxrss",
    },
    EndToEnd {
        name: "artifact_bytes",
        unit: "B",
        better: Lower,
        bound: 0.25,
        best_of_run: false,
        what: "bytes the invocation wrote: standard output plus trace, checkpoint and CSV files",
    },
];

/// One per-layer metric. No bound: it explains, it does not gate.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The crate (layer) the metric belongs to.
    pub layer: &'static str,
    /// The end-to-end metric and workload it should move.
    pub moves: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: Better,
    layer: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        layer,
        moves,
    }
}

const DENSE_ROUNDS: &str = "rounds_vs_ref on dense-train";
const HOSTILE_ROUNDS: &str = "rounds_vs_ref on hostile-async";
const SECURE_ROUNDS: &str = "rounds_vs_ref, cpu_vs_ref on secure-covg";
const SCALE_ROUNDS: &str = "rounds_vs_ref, run_vs_ref on scale-churn";
const OBSERVED: &str = "run_vs_ref, artifact_bytes on hostile-observed";
const OF_WORKLOAD: &str = "describes the workload being traced";

/// The per-layer metrics, measured in the traced pass.
#[rustfmt::skip] // one metric per line reads as the table it is
pub const PER_LAYER: [PerLayer; 77] = [
    // tensor: kernels on the active SIMD tier, against ceilings measured in the same run.
    m("tensor.gemm_nt_gflops", "GFLOP/s", Higher, "tensor", DENSE_ROUNDS),
    m("tensor.gemm_tn_gflops", "GFLOP/s", Higher, "tensor", DENSE_ROUNDS),
    m("tensor.gemm_nt_256_gflops", "GFLOP/s", Higher, "tensor", DENSE_ROUNDS),
    m("tensor.axpy_gbs", "GB/s", Higher, "tensor", DENSE_ROUNDS),
    m("tensor.dot_gbs", "GB/s", Higher, "tensor", DENSE_ROUNDS),
    m("tensor.peak_mul_add_gflops", "GFLOP/s", Higher, "tensor", "ceiling, not a target"),
    m("tensor.stream_copy_gbs", "GB/s", Higher, "tensor", "ceiling, not a target"),
    m("tensor.stream_array_mib", "MiB", Lower, "tensor", "size of each stream-copy array"),
    m("tensor.llc_mib", "MiB", Lower, "tensor", "last-level cache the array is sized against"),
    m("tensor.gemm_nt_peak_ratio", "ratio", Higher, "tensor", DENSE_ROUNDS),
    // nn
    m("nn.loss_and_grad_us.vision_b32", "us", Lower, "nn", DENSE_ROUNDS),
    m("nn.loss_and_grad_us.speech_b32", "us", Lower, "nn", HOSTILE_ROUNDS),
    m("nn.evaluate_samples_per_s.vision", "1/s", Higher, "nn", DENSE_ROUNDS),
    m("nn.evaluate_samples_per_s.speech", "1/s", Higher, "nn", HOSTILE_ROUNDS),
    m("nn.kernel_share", "ratio", Higher, "nn", "share of loss_and_grad that is GEMM"),
    // core.local
    m("local.client_step_us.dense", "us", Lower, "core.local", DENSE_ROUNDS),
    m("local.client_step_us.light", "us", Lower, "core.local", HOSTILE_ROUNDS),
    m("local.client_step_us.virtual", "us", Lower, "core.local", SECURE_ROUNDS),
    m("local.samples_per_s", "1/s", Higher, "core.local", DENSE_ROUNDS),
    m("local.step_overhead_share", "ratio", Lower, "core.local", HOSTILE_ROUNDS),
    // parallel
    m("parallel.region_dispatch_us", "us", Lower, "parallel", HOSTILE_ROUNDS),
    m("parallel.speedup_2t", "ratio", Higher, "parallel", OF_WORKLOAD),
    m("parallel.cpu_efficiency", "ratio", Higher, "parallel", OF_WORKLOAD),
    // data
    m("data.population_build_s", "s", Lower, "data", "setup_s on scale-churn"),
    m("data.population_build_ns_per_client", "ns", Lower, "data", "setup_s on scale-churn"),
    m("data.shard_us", "us", Lower, "data", SECURE_ROUNDS),
    m("data.generate_s.vision", "s", Lower, "data", "setup_s on dense-train"),
    m("data.generate_s.speech", "s", Lower, "data", "setup_s on hostile-async"),
    m("data.dirichlet_partition_s", "s", Lower, "data", "setup_s on hostile-async"),
    // core.grouping
    m("grouping.covg_clients_per_s", "1/s", Higher, "core.grouping", "setup_s on secure-covg"),
    m("grouping.stream_clients_per_s", "1/s", Higher, "core.grouping", "setup_s on scale-churn"),
    m("grouping.kldg_clients_per_s", "1/s", Higher, "core.grouping", "no workload: continuity with Fig. 5"),
    m("grouping.mean_cov", "ratio", Lower, "core.grouping", "exact: quality guard for covg"),
    // core.membership
    m("membership.apply_churn_ms_p50", "ms", Lower, "core.membership", SCALE_ROUNDS),
    m("membership.heal_ms_p50", "ms", Lower, "core.membership", SCALE_ROUNDS),
    m("membership.heal_ms_max", "ms", Lower, "core.membership", SCALE_ROUNDS),
    m("membership.tick_ms_total", "ms", Lower, "core.membership", SCALE_ROUNDS),
    m("membership.events_per_s", "1/s", Higher, "core.membership", SCALE_ROUNDS),
    m("membership.events", "count", Lower, "core.membership", "exact"),
    // core.sampling
    m("sampling.draw_us", "us", Lower, "core.sampling", SCALE_ROUNDS),
    m("sampling.weights_us", "us", Lower, "core.sampling", SCALE_ROUNDS),
    // secagg
    m("secagg.mask_us", "us", Lower, "secagg", SECURE_ROUNDS),
    m("secagg.unmask_us", "us", Lower, "secagg", SECURE_ROUNDS),
    m("secagg.aggregate_ms", "ms", Lower, "secagg", SECURE_ROUNDS),
    m("secagg.scalar_ops", "count", Lower, "secagg", "exact"),
    m("secagg.share_of_rounds", "ratio", Lower, "secagg", OF_WORKLOAD),
    // defense
    m("defense.filter_us", "us", Lower, "defense", HOSTILE_ROUNDS),
    m("defense.median_us", "us", Lower, "defense", "no workload: the other robust rule"),
    // faults
    m("faults.decisions_per_s", "1/s", Higher, "faults", HOSTILE_ROUNDS),
    m("faults.poison_rows_per_s", "1/s", Higher, "faults", HOSTILE_ROUNDS),
    // sim
    m("sim.event_queue_mops", "Mop/s", Higher, "sim", HOSTILE_ROUNDS),
    m("sim.upload_retry_us", "us", Lower, "sim", HOSTILE_ROUNDS),
    m("sim.ledger_charge_ns", "ns", Lower, "sim", HOSTILE_ROUNDS),
    // core.engine: derived from the phase stamps and the ledger.
    m("engine.round_ms", "ms", Lower, "core.engine", OF_WORKLOAD),
    m("engine.rounds_per_s", "1/s", Higher, "core.engine", OF_WORKLOAD),
    m("engine.unaccounted_share", "ratio", Lower, "core.engine", OF_WORKLOAD),
    m("engine.setup_unaccounted_share", "ratio", Lower, "core.engine", OF_WORKLOAD),
    m("engine.rounds_to_acc", "count", Lower, "core.engine", "exact; time_to_acc_s"),
    m("engine.time_to_acc_s", "s", Lower, "core.engine", OF_WORKLOAD),
    m("engine.best_accuracy", "ratio", Higher, "core.engine", "exact"),
    // core.checkpoint
    m("checkpoint.to_json_ms", "ms", Lower, "core.checkpoint", OBSERVED),
    m("checkpoint.from_json_ms", "ms", Lower, "core.checkpoint", "resume, no workload yet"),
    m("checkpoint.bytes", "B", Lower, "core.checkpoint", OBSERVED),
    // obs
    m("obs.span_record_ns", "ns", Lower, "obs", OBSERVED),
    m("obs.flush_us_per_round", "us", Lower, "obs", OBSERVED),
    m("obs.trace_bytes_per_round", "B", Lower, "obs", OBSERVED),
    m("obs.parse_mb_per_s", "MB/s", Higher, "obs", "gfl-trace, no workload"),
    m("obs.observed_overhead_ratio", "ratio", Lower, "obs", OF_WORKLOAD),
    m("obs.metrics_overhead_ratio", "ratio", Lower, "obs", OF_WORKLOAD),
    // cli
    m("cli.startup_ms", "ms", Lower, "cli", "setup_s everywhere"),
    m("cli.report_s", "s", Lower, "cli", OF_WORKLOAD),
    m("cli.run_wall_s", "s", Lower, "cli", OF_WORKLOAD),
    m("cli.cpu_s", "s", Lower, "cli", OF_WORKLOAD),
    m("cli.stdout_bytes", "B", Lower, "cli", OF_WORKLOAD),
    // harness
    m("harness.reference_s", "s", Lower, "harness", "the *_vs_ref denominators"),
    m("harness.traced_children", "count", Lower, "harness", "children the traced pass ran"),
    m("harness.probe_s", "s", Lower, "harness", "time spent in the in-process probes"),
];

/// Per-layer metrics that are counts or accuracies of a deterministic
/// program: two runs of one seed must report them identically.
pub const EXACT: [&str; 5] = [
    "engine.best_accuracy",
    "engine.rounds_to_acc",
    "secagg.scalar_ops",
    "membership.events",
    "grouping.mean_cov",
];

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str, unit: &str) {
        assert!(!name.is_empty() && name.len() <= 64, "{name}");
        assert!(
            name.chars().next().unwrap().is_ascii_alphanumeric(),
            "{name}"
        );
        assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "{name}"
        );
        assert!(!unit.is_empty() && unit.len() <= 16, "{name}: {unit}");
        assert!(
            unit.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "{name}: {unit}"
        );
    }

    #[test]
    fn names_are_unique_and_units_well_formed() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|e| e.name).collect();
        names.extend(PER_LAYER.iter().map(|p| p.name));
        for e in &END_TO_END {
            well_formed(e.name, e.unit);
            assert!(e.bound > 0.0 && e.bound <= 0.25, "{}", e.name);
        }
        for p in &PER_LAYER {
            well_formed(p.name, p.unit);
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a metric name is used twice");
        assert!(PER_LAYER.len() <= 128);
        assert!(EXACT.iter().all(|x| PER_LAYER.iter().any(|p| p.name == *x)));
        let setup = END_TO_END.iter().find(|e| e.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        let widest = END_TO_END.iter().map(|e| e.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, widest, "set-up carries the largest bound");
    }
}
