//! What the workspace's integration suites share, written once.
//!
//! The invariant suites check one loop — Algorithm 1 — across clock ×
//! membership, thread counts, SIMD tiers, resume and virtual ≡
//! materialized. They all need the same few things to do it: a small
//! federation to run on ([`TinyWorld`], [`Twins`]), a way to run one cell
//! of the driver's table to the end ([`Runs`]), the calling thread's width
//! pin ([`for_each_thread_count`]), CI's seed shift ([`seed_offset`]), a
//! streaming trace collector whose bytes they can read back ([`Streamed`]),
//! a golden-file comparison that can re-record ([`golden::check`]), the
//! history goldens' scenarios ([`golden_scenario`]) and a benchmark-shaped
//! checkpoint ([`hostile_checkpoint`]).
//!
//! A `[dev-dependencies]` entry for integration tests under `tests/` (and
//! a dependency of `gfl-bench`, whose `bench_round` times the writers on
//! [`hostile_checkpoint`]): a `#[cfg(test)]` module inside `gfl-core` is
//! compiled against a different `gfl_core` than the one this crate links,
//! so those keep their own fixtures.

#![forbid(unsafe_code)]

use std::io::Write;
use std::sync::{Arc, Mutex};

use gfl_core::prelude::*;
use gfl_data::{
    ClientPartition, Dataset, FedData, PartitionSpec, SyntheticSpec, VirtualPopulation, VirtualSpec,
};
use gfl_nn::{Network, Params};
use gfl_obs::{StreamConfig, Trace, TraceCollector, TraceReader};
use gfl_sim::Topology;

pub mod golden;
mod hostile;
mod scenarios;

pub use hostile::hostile_checkpoint;
pub use scenarios::{golden_scenario, GOLDEN_SCENARIOS};

/// CI's seed shift: `GFL_SEED=n` offsets every seed the seed-shifted
/// suites use, to shake out seed-sensitive nondeterminism.
pub fn seed_offset() -> u64 {
    std::env::var("GFL_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// Calls `f(threads)` with the calling thread's worker count pinned to
/// each of `counts` in turn, then restores the default. The pin is the
/// thread's own, so tests running beside this one keep theirs.
pub fn for_each_thread_count(counts: &[usize], mut f: impl FnMut(usize)) {
    for &threads in counts {
        gfl_parallel::set_default_parallelism(threads);
        f(threads);
    }
    gfl_parallel::set_default_parallelism(0);
}

/// Runs `f` once per thread count and asserts every result equal — for
/// floats that is bit for bit — to the first count's.
pub fn assert_bit_identical<R: PartialEq + std::fmt::Debug>(counts: &[usize], f: impl Fn() -> R) {
    let mut baseline: Option<R> = None;
    for_each_thread_count(counts, |threads| {
        let result = f();
        match &baseline {
            None => baseline = Some(result),
            Some(b) => assert_eq!(
                *b, result,
                "run diverged at {threads} threads from the {}-thread baseline",
                counts[0]
            ),
        }
    });
}

/// A `Write` target shared between a streaming collector and the test that
/// reads its bytes back.
#[derive(Clone, Default)]
pub struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    /// Everything written so far.
    pub fn text(&self) -> String {
        String::from_utf8(self.0.lock().unwrap().clone()).expect("JSONL is UTF-8")
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// A streaming collector over a [`SharedBuf`]: attach `obs` to a trainer,
/// run, then [`Streamed::finish`] to check the bytes a user would get.
pub struct Streamed {
    pub obs: Arc<TraceCollector>,
    buf: SharedBuf,
}

impl Streamed {
    /// A collector streaming at the default configuration, recording
    /// `threads` in its meta line.
    pub fn new(threads: usize) -> Self {
        let buf = SharedBuf::default();
        let obs =
            TraceCollector::streaming(Box::new(buf.clone()), threads, StreamConfig::default());
        Streamed { obs, buf }
    }

    /// Ends the run (the summary line) and parses everything it streamed.
    pub fn finish(&self) -> Trace {
        self.obs.finish(0);
        TraceReader::parse(&self.buf.text()).expect("the streamed trace parses")
    }
}

/// Whole FedAvg runs from a fresh state, one method per clock × membership
/// cell of [`Trainer::run_plan`], unpacked to what that cell's suites
/// compare. (A cell by its plan is `trainer.run_plan(&FedAvg, &plan)`.)
pub trait Runs {
    /// Lockstep × static: the paper's Algorithm 1.
    fn run_static(&self, groups: &[Group], sampling: SamplingStrategy) -> (RunHistory, Params);
    /// Lockstep × self-healing.
    fn run_healing(
        &self,
        algo: &dyn GroupingAlgorithm,
        topology: &Topology,
        sampling: SamplingStrategy,
    ) -> Result<(RunHistory, Params, MembershipState), PartitionError>;
    /// Event clock × static.
    fn run_event(
        &self,
        groups: &[Group],
        sampling: SamplingStrategy,
        acfg: &AsyncConfig,
    ) -> (RunHistory, Params, SchedulerState);
    /// Event clock × self-healing.
    fn run_event_healing(
        &self,
        algo: &dyn GroupingAlgorithm,
        topology: &Topology,
        sampling: SamplingStrategy,
        acfg: &AsyncConfig,
    ) -> Result<(RunHistory, Params, SchedulerState, MembershipState), PartitionError>;
}

fn static_run(t: &Trainer, clock: Clock, groups: &[Group], sampling: SamplingStrategy) -> RunState {
    let probs = t.sampling_probs(groups, sampling);
    let membership = Membership::Static {
        groups,
        probs: &probs,
    };
    t.run_plan(&FedAvg, &RunPlan { clock, membership })
        .expect("a static partition is never re-formed")
}

fn healing_run(
    t: &Trainer,
    clock: Clock,
    algo: &dyn GroupingAlgorithm,
    topology: &Topology,
    sampling: SamplingStrategy,
) -> Result<RunState, PartitionError> {
    let membership = Membership::SelfHealing {
        algo,
        topology,
        sampling,
    };
    t.run_plan(&FedAvg, &RunPlan { clock, membership })
}

impl Runs for Trainer {
    fn run_static(&self, groups: &[Group], sampling: SamplingStrategy) -> (RunHistory, Params) {
        let s = static_run(self, Clock::Lockstep, groups, sampling);
        (s.history, s.params)
    }

    fn run_healing(
        &self,
        algo: &dyn GroupingAlgorithm,
        topology: &Topology,
        sampling: SamplingStrategy,
    ) -> Result<(RunHistory, Params, MembershipState), PartitionError> {
        let s = healing_run(self, Clock::Lockstep, algo, topology, sampling)?;
        Ok((s.history, s.params, s.membership.unwrap()))
    }

    fn run_event(
        &self,
        groups: &[Group],
        sampling: SamplingStrategy,
        acfg: &AsyncConfig,
    ) -> (RunHistory, Params, SchedulerState) {
        let s = static_run(self, Clock::EventDriven(*acfg), groups, sampling);
        (s.history, s.params, s.scheduler.unwrap())
    }

    fn run_event_healing(
        &self,
        algo: &dyn GroupingAlgorithm,
        topology: &Topology,
        sampling: SamplingStrategy,
        acfg: &AsyncConfig,
    ) -> Result<(RunHistory, Params, SchedulerState, MembershipState), PartitionError> {
        let s = healing_run(self, Clock::EventDriven(*acfg), algo, topology, sampling)?;
        let membership = s.membership.unwrap();
        Ok((s.history, s.params, s.scheduler.unwrap(), membership))
    }
}

/// A trainer over clones of a fixture's parts.
fn trainer_over(
    cfg: &GroupFelConfig,
    model: &Network,
    data: impl Into<FedData>,
    test: &Dataset,
) -> Trainer {
    Trainer::try_new(cfg.clone(), model.clone(), data, test.clone())
        .expect("a fixture's configuration is valid")
}

/// CoV grouping (Algorithm 2) at the given knobs.
pub fn covg(min_group_size: usize, max_cov: f32) -> CovGrouping {
    CovGrouping {
        min_group_size,
        max_cov,
    }
}

/// A small two-edge materialized federation and everything a [`Trainer`]
/// over it is built from. The fields are public so a test can change one
/// (`w.cfg.secure_aggregation = true`) before calling [`TinyWorld::trainer`].
pub struct TinyWorld {
    pub cfg: GroupFelConfig,
    pub model: Network,
    pub part: ClientPartition,
    pub topo: Topology,
    pub groups: Vec<Group>,
    pub train: Dataset,
    pub test: Dataset,
}

/// [`TinyWorld::at`] the seed shifted by `GFL_SEED`.
pub fn tiny_world(seed: u64) -> TinyWorld {
    TinyWorld::at(seed + seed_offset())
}

impl TinyWorld {
    /// The federation the invariant suites share, at exactly `seed`: 600
    /// tiny-task samples, Dirichlet(0.5) over the tiny partition, CoV groups
    /// of ≥ 2 members up to CoV 1.0, [`GroupFelConfig::tiny`]. Suites whose
    /// goldens are pinned to fixed seeds call this; the others
    /// [`tiny_world`].
    pub fn at(seed: u64) -> Self {
        let cfg = GroupFelConfig {
            seed,
            ..GroupFelConfig::tiny()
        };
        Self::build(600, &PartitionSpec::tiny(0.5, seed), &covg(2, 1.0), cfg)
    }

    /// The recipe with its values as parameters: `samples` tiny-task samples
    /// generated from `spec.seed`, one in five held out, the rest split by
    /// `spec` over two edges, groups formed by `algo` (seeded by
    /// `spec.seed`), the 4 → 3 tiny model.
    pub fn build(
        samples: usize,
        spec: &PartitionSpec,
        algo: &dyn GroupingAlgorithm,
        cfg: GroupFelConfig,
    ) -> Self {
        let data = SyntheticSpec::tiny().generate(samples, spec.seed);
        let (train, test) = data.split_holdout(5);
        let part = ClientPartition::dirichlet(&train, spec);
        let topo = Topology::even_split(2, part.sizes());
        let groups = form_groups_per_edge(algo, &topo, &part.label_matrix, spec.seed);
        Self {
            cfg,
            model: gfl_nn::zoo::tiny(4, 3),
            part,
            topo,
            groups,
            train,
            test,
        }
    }

    /// The same world run for `rounds` global rounds.
    pub fn rounds(mut self, rounds: usize) -> Self {
        self.cfg.global_rounds = rounds;
        self
    }

    /// A fresh trainer over clones of this world's data.
    pub fn trainer(&self) -> Trainer {
        let data = (self.train.clone(), self.part.clone());
        trainer_over(&self.cfg, &self.model, data, &self.test)
    }

    /// The partition re-formed at other CoV-grouping knobs (seeded by
    /// `cfg.seed`, which is the data seed in an [`at`](Self::at) world) —
    /// e.g. groups of ≥ 4 so the FLAME filter, which needs three live
    /// updates to cluster, engages.
    pub fn groups_with(&self, min_group_size: usize, max_cov: f32) -> Vec<Group> {
        let algo = covg(min_group_size, max_cov);
        form_groups_per_edge(&algo, &self.topo, &self.part.label_matrix, self.cfg.seed)
    }
}

/// A virtual population and its eagerly materialized twin, sharing one
/// test set, topology and formed partition.
pub struct Twins {
    pub cfg: GroupFelConfig,
    pub model: Network,
    pub pop: VirtualPopulation,
    pub train: Dataset,
    pub part: ClientPartition,
    pub test: Dataset,
    pub topo: Topology,
    pub groups: Vec<Group>,
}

/// 24 tiny-task virtual clients at `seed` shifted by `GFL_SEED`, lowered
/// to their `(Dataset, ClientPartition)` twin, in CoV groups of ≥ 2 over
/// two edges.
pub fn twins(seed: u64) -> Twins {
    let seed = seed + seed_offset();
    let pop = VirtualPopulation::new(VirtualSpec::tiny(24, 0.5, seed));
    let (train, part) = pop.materialize();
    assert_eq!(&part.label_matrix, pop.label_matrix());
    let test = pop.test_set(120);
    let topo = Topology::even_split(2, part.sizes());
    let groups = form_groups_per_edge(&covg(2, 1.0), &topo, &part.label_matrix, seed);
    let cfg = GroupFelConfig {
        seed,
        ..GroupFelConfig::tiny()
    };
    Twins {
        cfg,
        model: gfl_nn::zoo::tiny(4, 3),
        pop,
        train,
        part,
        test,
        topo,
        groups,
    }
}

impl Twins {
    /// A trainer over the materialized twin.
    pub fn eager(&self) -> Trainer {
        let data = (self.train.clone(), self.part.clone());
        trainer_over(&self.cfg, &self.model, data, &self.test)
    }

    /// A trainer over the virtual population.
    pub fn virt(&self) -> Trainer {
        trainer_over(&self.cfg, &self.model, self.pop.clone(), &self.test)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_builds_the_same_world_twice() {
        let render = |w: &TinyWorld| {
            format!(
                "{:?}",
                (&w.cfg, &w.part, &w.topo, &w.groups, &w.train, &w.test)
            )
        };
        assert_eq!(render(&tiny_world(3)), render(&tiny_world(3)));
        assert_ne!(render(&tiny_world(3)), render(&tiny_world(4)));
        assert_eq!(tiny_world(3).cfg.seed, 3 + seed_offset());
    }

    #[test]
    fn run_static_is_trainer_run_plus_the_final_model() {
        let w = tiny_world(5);
        let (history, params) = w.trainer().run_static(&w.groups, SamplingStrategy::ESRCov);
        let run = w
            .trainer()
            .run(&w.groups, &FedAvg, SamplingStrategy::ESRCov);
        assert_eq!(history, run);
        assert_eq!(params.len(), w.model.param_len());
        assert_eq!(w.trainer().evaluate(&params).accuracy, run.final_accuracy());
    }
}
