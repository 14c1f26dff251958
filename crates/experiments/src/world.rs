//! Federation worlds mirroring the paper's experimental setups (§7.1–§7.2),
//! and the two scales every experiment runs at.

use std::ops::Range;

use gfl_core::engine::{form_groups_per_edge, GroupFelConfig, Trainer};
use gfl_core::grouping::GroupingAlgorithm;
use gfl_core::history::RunHistory;
use gfl_core::local::FedAvg;
use gfl_core::sampling::{AggregationWeighting, SamplingStrategy};
use gfl_core::Group;
use gfl_data::{ClientPartition, Dataset, LabelMatrix, PartitionSpec, SyntheticSpec};
use gfl_nn::sgd::LrSchedule;
use gfl_nn::Network;
use gfl_sim::{Task, Topology};
use gfl_tensor::init;
use rand::Rng;

/// Experiment scale knobs.
#[derive(Debug, Clone, Copy)]
pub struct ExpScale {
    /// Total clients across all edge servers (paper: 300).
    pub clients: usize,
    /// Edge servers (paper: 3).
    pub edges: usize,
    /// Generated dataset size before the train/test split.
    pub dataset: usize,
    /// Global rounds `T`.
    pub global_rounds: usize,
    /// Groups sampled per round `S` (paper: 12 of ~60).
    pub sampled_groups: usize,
    /// Evaluation cadence.
    pub eval_every: usize,
    /// Cost budget (paper: 10⁶ emulated seconds for Table 1).
    pub budget: f64,
}

impl ExpScale {
    /// Reduced scale: every qualitative shape in minutes.
    pub const fn small() -> Self {
        Self {
            clients: 120,
            edges: 3,
            dataset: 22_000,
            global_rounds: 60,
            sampled_groups: 4,
            eval_every: 2,
            budget: 1.2e5,
        }
    }

    /// The paper's full §7.2 scale. The budget is scaled so that, like the
    /// paper's plots, it ends in the pre-saturation regime of our (easier)
    /// synthetic task — at 10⁶ every method saturates and the efficiency
    /// comparison degenerates.
    pub const fn paper() -> Self {
        Self {
            clients: 300,
            edges: 3,
            dataset: 48_000,
            global_rounds: 200,
            sampled_groups: 12,
            eval_every: 2,
            budget: 4.0e5,
        }
    }
}

/// The value of `GFL_SCALE`: which federation size a run uses and which
/// directory holds its committed tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleName {
    /// `small` (default): `results/`.
    Small,
    /// `paper`: `results/paper/`.
    Paper,
}

impl ScaleName {
    /// Reads `GFL_SCALE`; unset means small, anything but `small` or
    /// `paper` is an error.
    pub fn from_env() -> Result<Self, String> {
        match std::env::var("GFL_SCALE").as_deref() {
            Err(_) | Ok("small") => Ok(Self::Small),
            Ok("paper") => Ok(Self::Paper),
            Ok(other) => Err(format!("GFL_SCALE={other}: expected `small` or `paper`")),
        }
    }
}

/// How a registry row sizes its federation at each [`ScaleName`].
#[derive(Debug, Clone, Copy)]
pub enum ScaleRule {
    /// [`ExpScale::small`] / [`ExpScale::paper`] with the horizon adjusted:
    /// rounds multiplied then capped, budget multiplied.
    Shared {
        rounds_times: usize,
        rounds_cap: usize,
        budget_times: f64,
    },
    /// A federation of the row's own.
    Own { small: ExpScale, paper: ExpScale },
}

impl ScaleRule {
    /// The shared federation, unadjusted.
    pub const SHARED: Self = Self::Shared {
        rounds_times: 1,
        rounds_cap: usize::MAX,
        budget_times: 1.0,
    };

    /// The shared federation over at most `cap` rounds.
    pub const fn capped(cap: usize) -> Self {
        Self::Shared {
            rounds_times: 1,
            rounds_cap: cap,
            budget_times: 1.0,
        }
    }

    pub fn at(&self, name: ScaleName) -> ExpScale {
        let pick = |small, paper| match name {
            ScaleName::Small => small,
            ScaleName::Paper => paper,
        };
        match *self {
            Self::Own { small, paper } => pick(small, paper),
            Self::Shared {
                rounds_times,
                rounds_cap,
                budget_times,
            } => {
                let base = pick(ExpScale::small(), ExpScale::paper());
                ExpScale {
                    global_rounds: (base.global_rounds * rounds_times).min(rounds_cap),
                    budget: base.budget * budget_times,
                    ..base
                }
            }
        }
    }
}

/// A synthetic skewed label matrix: each client gets one hot label with a
/// count drawn from `hot`; every other label draws from `minor` — always
/// when `minor_prob` is `None` (no coin is drawn), else with that
/// probability and 0 otherwise.
pub fn skewed_labels(
    (clients, labels): (usize, usize),
    seed: u64,
    hot: Range<u32>,
    minor_prob: Option<f64>,
    minor: Range<u32>,
) -> LabelMatrix {
    let mut rng = init::rng(seed);
    let counts = (0..clients)
        .map(|_| {
            let hot_label = rng.gen_range(0..labels);
            (0..labels)
                .map(|l| {
                    if l == hot_label {
                        rng.gen_range(hot.clone())
                    } else if minor_prob.is_some_and(|p| !rng.gen_bool(p)) {
                        0
                    } else {
                        rng.gen_range(minor.clone())
                    }
                })
                .collect()
        })
        .collect();
    LabelMatrix::new(counts, labels)
}

/// A fully materialized federation: data, partition, topology, model.
pub struct World {
    pub train: Dataset,
    pub test: Dataset,
    pub partition: ClientPartition,
    pub topology: Topology,
    pub model: Network,
    pub task: Task,
    pub scale: ExpScale,
    pub seed: u64,
}

impl World {
    /// `task`'s synthetic dataset under Dirichlet(α) skew, `min_size` to
    /// `max_size` samples per client, clients split evenly over the edges.
    pub fn build(
        task: Task,
        alpha: f64,
        seed: u64,
        scale: ExpScale,
        (min_size, max_size): (usize, usize),
    ) -> Self {
        let (spec, model) = match task {
            Task::Vision => (SyntheticSpec::vision_like(), gfl_nn::zoo::vision_model()),
            Task::Speech => (SyntheticSpec::speech_like(), gfl_nn::zoo::speech_model()),
        };
        let (train, test) = spec.generate_holdout(scale.dataset, 6, seed);
        let pspec = PartitionSpec {
            num_clients: scale.clients,
            alpha,
            min_size,
            max_size,
            seed,
        };
        let partition = ClientPartition::dirichlet(&train, &pspec);
        let topology = Topology::even_split(scale.edges, partition.sizes());
        Self {
            train,
            test,
            partition,
            topology,
            model,
            task,
            scale,
            seed,
        }
    }

    /// The CIFAR-10-like world of §7.2: Dirichlet(α) skew, 20–200 samples
    /// per client, vision model.
    pub fn vision(alpha: f64, seed: u64, scale: ExpScale) -> Self {
        Self::build(Task::Vision, alpha, seed, scale, (20, 200))
    }

    /// The Speech-Commands-like world of §7.3.2: 35 classes, extreme skew
    /// (α=0.01 means each client holds ≤5 label types).
    pub fn speech(alpha: f64, seed: u64, scale: ExpScale) -> Self {
        Self::build(Task::Speech, alpha, seed, scale, (20, 200))
    }

    /// The paper's training hyperparameters (K=5, E=2) at this world's
    /// scale, with a weighting override per method.
    pub fn config(&self, weighting: AggregationWeighting) -> GroupFelConfig {
        GroupFelConfig {
            global_rounds: self.scale.global_rounds,
            group_rounds: 5,
            local_rounds: 2,
            sampled_groups: self.scale.sampled_groups,
            batch_size: 32,
            lr: LrSchedule::Constant(0.025),
            weighting,
            eval_every: self.scale.eval_every,
            seed: self.seed,
            task: self.task,
            cost_budget: Some(self.scale.budget),
            secure_aggregation: false,
            dropout_prob: 0.0,
        }
    }

    /// Builds a trainer over clones of this world's data.
    pub fn trainer(&self, config: GroupFelConfig) -> Trainer {
        let data = (self.train.clone(), self.partition.clone());
        Trainer::try_new(config, self.model.clone(), data, self.test.clone())
            .expect("every scale's configuration is valid")
    }

    /// Forms `algo`'s groups on every edge server, seeded by the world.
    pub fn form(&self, algo: &dyn GroupingAlgorithm) -> Vec<Group> {
        let labels = &self.partition.label_matrix;
        form_groups_per_edge(algo, &self.topology, labels, self.seed)
    }

    /// One plain-FedAvg run over `groups` at the world's configuration.
    pub fn fedavg(
        &self,
        groups: &[Group],
        weighting: AggregationWeighting,
        sampling: SamplingStrategy,
    ) -> RunHistory {
        self.trainer(self.config(weighting))
            .run(groups, &FedAvg, sampling)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_scale() -> ExpScale {
        ExpScale {
            clients: 12,
            edges: 2,
            dataset: 1200,
            global_rounds: 2,
            sampled_groups: 2,
            eval_every: 1,
            budget: 1e9,
        }
    }

    #[test]
    fn vision_world_matches_paper_shape() {
        let w = World::vision(0.1, 1, tiny_scale());
        assert_eq!(w.train.num_classes(), 10);
        assert_eq!(w.model.input_dim(), w.train.feature_dim());
        assert_eq!(w.partition.num_clients(), 12);
        assert_eq!(w.topology.num_edges(), 2);
        assert!(matches!(w.task, Task::Vision));
    }

    #[test]
    fn speech_world_has_35_classes() {
        let w = World::speech(0.05, 2, tiny_scale());
        assert_eq!(w.train.num_classes(), 35);
        assert_eq!(w.model.num_classes(), 35);
        assert!(matches!(w.task, Task::Speech));
    }

    #[test]
    fn config_carries_paper_hyperparameters() {
        let w = World::vision(0.1, 3, tiny_scale());
        let cfg = w.config(gfl_core::sampling::AggregationWeighting::Standard);
        assert_eq!(cfg.group_rounds, 5, "K=5 per §7.2");
        assert_eq!(cfg.local_rounds, 2, "E=2 per §7.2");
        assert_eq!(cfg.sampled_groups, 2);
        assert_eq!(cfg.cost_budget, Some(1e9));
    }

    #[test]
    fn scale_from_env_defaults_small() {
        // (Does not set the env var to avoid cross-test interference.)
        let s = ExpScale::small();
        assert!(s.clients < ExpScale::paper().clients);
        assert!(s.budget < ExpScale::paper().budget + 1.0);
    }

    #[test]
    fn scale_rules_adjust_the_shared_horizon() {
        let stretched = ScaleRule::Shared {
            rounds_times: 2,
            rounds_cap: 100,
            budget_times: 4.0,
        };
        let small = stretched.at(ScaleName::Small);
        assert_eq!((small.global_rounds, small.budget), (100, 4.8e5));
        assert_eq!(ScaleRule::capped(40).at(ScaleName::Paper).global_rounds, 40);
        assert_eq!(ScaleRule::SHARED.at(ScaleName::Paper).clients, 300);
        let own = ScaleRule::Own {
            small: tiny_scale(),
            paper: ExpScale::small(),
        };
        assert_eq!(own.at(ScaleName::Small).clients, 12);
        assert_eq!(own.at(ScaleName::Paper).clients, 120);
    }

    #[test]
    fn worlds_are_deterministic_in_seed() {
        let a = World::vision(0.1, 9, tiny_scale());
        let b = World::vision(0.1, 9, tiny_scale());
        assert_eq!(a.partition.indices, b.partition.indices);
        assert_eq!(a.train.features().as_slice(), b.train.features().as_slice());
    }
}
