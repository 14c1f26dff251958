//! In-process probes: each rebuilds a workload's inputs with the public
//! constructors the CLI uses and calls one layer's public functions at that
//! workload's shapes, every call wrapped in a harness span.
//!
//! Probes stay away from the `Trainer::run_*` family: the engine's own cost
//! is what is left when the layers below it are subtracted.

mod kernels;
mod population;
mod services;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::env::Environment;
use crate::spans::Recorder;
use crate::workloads::{by_name, Size, Workload};

/// Span ids of one traced workload's phases, the parents of probe spans.
#[derive(Debug, Clone, Copy)]
pub struct PhaseIds {
    pub setup: u64,
    pub rounds: u64,
}

/// Which phase of a workload a probe's work belongs to.
#[derive(Debug, Clone, Copy)]
pub enum Phase {
    Setup,
    Rounds,
}

/// What the probes are given.
pub struct ProbeInputs<'a> {
    pub env: &'a Environment,
    pub seed: u64,
    pub size: Size,
    /// Phase spans of the workloads traced in this invocation.
    pub phases: BTreeMap<&'static str, PhaseIds>,
    /// The checkpoint a `dense-train` observed child wrote, if it exists.
    pub checkpoint_file: Option<PathBuf>,
    /// The trace each traced workload's observed child wrote.
    pub trace_files: Vec<(&'static str, PathBuf)>,
}

/// What the probes found.
#[derive(Debug, Default)]
pub struct Probed {
    /// Metric name → value, as measured.
    pub values: BTreeMap<&'static str, f64>,
    /// Metrics read off one workload's trace, by workload.
    pub per_trace: BTreeMap<&'static str, Vec<(&'static str, f64)>>,
    /// Modelling inputs for the ledgers, in *reference units*: seconds
    /// divided by the reference reading taken just before the probe (see
    /// [`Ctx::calibrate`]). The probes run tens of seconds after the child
    /// they explain, and the box drifts by more than the ledger's tolerance
    /// in that time; the ledger multiplies back by the reading taken beside
    /// the child.
    pub model: BTreeMap<&'static str, f64>,
    /// Counts the probes established (groups formed, …), for cross-checks
    /// against what the program printed.
    pub facts: BTreeMap<&'static str, f64>,
    /// One-shot set-up work: `(workload, layer, call, reference units)`.
    pub setup_rows: Vec<(String, String, String, f64)>,
}

/// A probe's view: its inputs, the span recorder and the results so far.
pub struct Ctx<'a> {
    pub rec: &'a mut Recorder,
    pub inputs: ProbeInputs<'a>,
    pub out: Probed,
    /// The latest reference reading, seconds.
    speed_ref: f64,
}

/// Length of one timed span of back-to-back calls, and how many are taken.
const SPAN_TARGET: Duration = Duration::from_millis(15);
const SPANS_PER_BENCH: usize = 5;

impl Ctx<'_> {
    pub fn workload(&self, name: &str) -> &'static Workload {
        by_name(name).expect("probes name only catalogue workloads")
    }

    pub fn seed(&self) -> u64 {
        self.inputs.seed
    }

    pub fn size(&self) -> Size {
        self.inputs.size
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.out.values.insert(name, value);
    }

    /// Takes a fresh reference reading for the probes that follow: the
    /// fastest of three, because a burst on the host can only lengthen one.
    pub fn calibrate(&mut self) {
        let threads = self.inputs.env.child_threads;
        self.speed_ref = (0..3)
            .map(|_| crate::refload::run(threads))
            .fold(f64::INFINITY, f64::min);
    }

    /// Files `seconds` per call under `key` for the ledgers.
    pub fn model_s(&mut self, key: &'static str, seconds: f64) {
        self.out.model.insert(key, seconds / self.speed_ref);
    }

    /// A ledger input filed earlier, in reference units.
    pub fn model(&self, key: &str) -> f64 {
        self.out.model[key]
    }

    fn parent(&self, workload: &str, phase: Phase) -> Option<u64> {
        self.inputs.phases.get(workload).map(|p| match phase {
            Phase::Setup => p.setup,
            Phase::Rounds => p.rounds,
        })
    }

    /// Times one call as one span; returns the result and the seconds.
    /// Set-up work is also filed as a row of its workload's set-up ledger.
    pub fn once<R>(
        &mut self,
        workload: &str,
        phase: Phase,
        layer: &str,
        name: &str,
        body: impl FnOnce() -> R,
    ) -> (R, f64) {
        let parent = self.parent(workload, phase);
        let (result, s) = self.rec.time(parent, workload, layer, name, 1, body);
        if matches!(phase, Phase::Setup) {
            self.out.setup_rows.push((
                workload.into(),
                layer.into(),
                name.into(),
                s / self.speed_ref,
            ));
        }
        (result, s)
    }

    /// Times a cheap call: sizes a batch of back-to-back calls to about
    /// [`SPAN_TARGET`], records [`SPANS_PER_BENCH`] such spans and returns the
    /// median seconds per call.
    pub fn bench(
        &mut self,
        workload: &str,
        phase: Phase,
        layer: &str,
        name: &str,
        mut body: impl FnMut(),
    ) -> f64 {
        let start = Instant::now();
        body();
        let first = start.elapsed().max(Duration::from_nanos(20));
        let calls = (SPAN_TARGET.as_secs_f64() / first.as_secs_f64()).clamp(1.0, 1e7) as u64;
        let parent = self.parent(workload, phase);
        let mut per_call = Vec::with_capacity(SPANS_PER_BENCH);
        for _ in 0..SPANS_PER_BENCH {
            let ((), s) = self.rec.time(parent, workload, layer, name, calls, || {
                for _ in 0..calls {
                    body();
                }
            });
            per_call.push(s);
        }
        crate::stats::median(&per_call).expect("five finite timings")
    }
}

/// The data model and network of a workload, as the CLI picks them.
pub fn task_of(w: &Workload) -> (gfl_data::SyntheticSpec, gfl_nn::Network) {
    if w.speech {
        (
            gfl_data::SyntheticSpec::speech_like(),
            gfl_nn::zoo::speech_model(),
        )
    } else {
        (
            gfl_data::SyntheticSpec::vision_like(),
            gfl_nn::zoo::vision_model(),
        )
    }
}

/// The partition the CLI draws for a materialized workload (its defaults:
/// `--alpha 0.1`, shards of 20 to 200 rows).
pub fn partition_spec(w: &Workload, size: Size, seed: u64) -> gfl_data::PartitionSpec {
    gfl_data::PartitionSpec {
        num_clients: w.clients(size),
        alpha: 0.1,
        min_size: 20,
        max_size: 200,
        seed,
    }
}

/// The population the CLI builds for `--virtual --clients <clients>`.
pub fn vision_population(clients: usize, seed: u64) -> gfl_data::VirtualPopulation {
    gfl_data::VirtualPopulation::new(gfl_data::VirtualSpec {
        data: gfl_data::SyntheticSpec::vision_like(),
        num_clients: clients,
        alpha: 0.1,
        min_size: 20,
        max_size: 200,
        seed,
    })
}

/// Deterministic non-zero fill for kernel operands.
pub fn filled(len: usize, seed: u64) -> Vec<f32> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 40) as f32 / (1u64 << 24) as f32) - 0.5
        })
        .collect()
}

/// Runs every probe once. In-process work is single-threaded (the harness is
/// one thread plus a pipe reader); only the dispatch probe widens the pool.
pub fn run_all(rec: &mut Recorder, inputs: ProbeInputs<'_>) -> Probed {
    gfl_parallel::set_default_parallelism(1);
    let start = Instant::now();
    let mut ctx = Ctx {
        rec,
        inputs,
        out: Probed::default(),
        speed_ref: f64::NAN,
    };
    let groups: [fn(&mut Ctx<'_>); 12] = [
        kernels::tensor,
        kernels::nn,
        kernels::local,
        population::data_and_grouping,
        population::membership_and_sampling,
        services::secagg,
        services::defense,
        services::faults,
        services::sim,
        services::checkpoint,
        services::obs,
        services::parallel,
    ];
    for probe in groups {
        ctx.calibrate();
        probe(&mut ctx);
    }
    ctx.set("harness.probe_s", start.elapsed().as_secs_f64());
    ctx.out
}
