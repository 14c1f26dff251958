//! The seven methods of Fig. 9–11, expressed as (grouping, sampling,
//! local-update) combinations over the shared engine.

use gfl_baselines::{FedClarConfig, FedClarRunner, FedProx, Scaffold};
use gfl_core::grouping::{
    CdgGrouping, CovGrouping, GroupingAlgorithm, KldGrouping, RandomGrouping,
};
use gfl_core::history::RunHistory;
use gfl_core::local::FedAvg;
use gfl_core::sampling::{AggregationWeighting, SamplingStrategy};
use gfl_core::Group;

use crate::emit::{Cell, Table};
use crate::world::World;

/// A method from the paper's comparison (§7.1 "Baselines").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Classical FedAvg: random grouping, uniform sampling.
    FedAvg,
    /// FedProx (μ=0.1): random grouping, uniform sampling.
    FedProx,
    /// SCAFFOLD: random grouping, uniform sampling, costlier SecAgg.
    Scaffold,
    /// The paper's method: CoV grouping + ESRCoV sampling + stabilized
    /// aggregation.
    GroupFel,
    /// OUEA port: CDG grouping + uniform sampling + FedAvg.
    Ouea,
    /// SHARE port: KLD grouping + uniform sampling + FedAvg.
    Share,
    /// FedCLAR: random grouping, clusters at one third of the horizon.
    FedClar,
}

impl Method {
    pub const ALL: [Method; 7] = [
        Method::FedAvg,
        Method::FedProx,
        Method::Scaffold,
        Method::GroupFel,
        Method::Ouea,
        Method::Share,
        Method::FedClar,
    ];

    pub fn name(&self) -> &'static str {
        match self {
            Method::FedAvg => "FedAvg",
            Method::FedProx => "FedProx",
            Method::Scaffold => "SCAFFOLD",
            Method::GroupFel => "Group-FEL",
            Method::Ouea => "OUEA",
            Method::Share => "SHARE",
            Method::FedClar => "FedCLAR",
        }
    }
}

/// Group-size / CoV knobs shared across methods so that "all grouping
/// algorithms ... tend to generate similar group sizes" (§7.1).
#[derive(Debug, Clone, Copy)]
pub struct GroupingKnobs {
    pub target_size: usize,
    pub min_group_size: usize,
    pub max_cov: f32,
}

impl Default for GroupingKnobs {
    fn default() -> Self {
        Self {
            target_size: 6,
            min_group_size: 5,
            max_cov: 0.5,
        }
    }
}

/// Forms this method's groups on every edge server.
pub fn groups_for(method: Method, world: &World, knobs: GroupingKnobs) -> Vec<Group> {
    let algo: Box<dyn GroupingAlgorithm> = match method {
        Method::FedAvg | Method::FedProx | Method::Scaffold | Method::FedClar => {
            Box::new(RandomGrouping {
                group_size: knobs.target_size,
            })
        }
        Method::GroupFel => Box::new(CovGrouping {
            min_group_size: knobs.min_group_size,
            max_cov: knobs.max_cov,
        }),
        Method::Ouea => Box::new(CdgGrouping {
            group_size: knobs.target_size,
            kmeans_iters: 10,
        }),
        Method::Share => Box::new(KldGrouping {
            group_size: knobs.target_size,
        }),
    };
    world.form(algo.as_ref())
}

/// The paper's default formation: CoV grouping at the default knobs.
pub fn default_covg(world: &World) -> Vec<Group> {
    groups_for(Method::GroupFel, world, GroupingKnobs::default())
}

/// Runs one method end to end and returns its trajectory.
pub fn run_method(method: Method, world: &World, knobs: GroupingKnobs) -> RunHistory {
    let groups = groups_for(method, world, knobs);
    let trainer = world.trainer(world.config(AggregationWeighting::Standard));
    match method {
        // The paper's default is *biased* prioritized sampling (Line 15
        // weighting); Eq. 4/35 corrections are studied separately in the
        // `ablation_weighting` experiment.
        Method::GroupFel => trainer.run(&groups, &FedAvg, SamplingStrategy::ESRCov),
        Method::FedAvg | Method::Ouea | Method::Share => {
            trainer.run(&groups, &FedAvg, SamplingStrategy::Random)
        }
        Method::FedProx => trainer.run(&groups, &FedProx { mu: 0.1 }, SamplingStrategy::Random),
        Method::Scaffold => {
            let strategy = Scaffold::new(world.model.param_len(), world.partition.num_clients());
            trainer.run(&groups, &strategy, SamplingStrategy::Random)
        }
        Method::FedClar => {
            let fc = FedClarConfig {
                cluster_at_round: world.scale.global_rounds / 3,
                num_clusters: 4,
                kmeans_iters: 10,
            };
            FedClarRunner::run(&trainer, &groups, &fc)
        }
    }
}

/// Appends one row per evaluated round: `lead`, then the record's field
/// for each remaining column of the table's header (`round`, `cost`,
/// `accuracy`, `loss`).
pub fn trajectory_rows(table: &mut Table, lead: &[Cell], history: &RunHistory) {
    for r in history.records() {
        let mut row = lead.to_vec();
        for column in table.spec.columns().skip(lead.len()) {
            row.push(match column {
                "round" => Cell::of(r.round),
                "cost" => Cell::num(r.cost, 1),
                "accuracy" => Cell::num(r.accuracy, 4),
                "loss" => Cell::num(r.loss, 4),
                other => panic!("no trajectory column `{other}`"),
            });
        }
        table.push(row);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::{ExpScale, World};

    fn tiny_world() -> World {
        World::vision(
            0.3,
            5,
            ExpScale {
                clients: 12,
                edges: 2,
                dataset: 1500,
                global_rounds: 2,
                sampled_groups: 2,
                eval_every: 1,
                budget: 1e9,
            },
        )
    }

    #[test]
    fn every_method_has_a_distinct_name() {
        let mut names: Vec<&str> = Method::ALL.iter().map(Method::name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Method::ALL.len());
    }

    #[test]
    fn groups_for_every_method_partition_the_world() {
        let world = tiny_world();
        let knobs = GroupingKnobs {
            target_size: 3,
            min_group_size: 2,
            max_cov: 0.8,
        };
        for method in Method::ALL {
            let groups = groups_for(method, &world, knobs);
            let total: usize = groups.iter().map(Vec::len).sum();
            assert_eq!(total, 12, "{} lost clients", method.name());
        }
    }

    #[test]
    fn run_method_completes_for_all_methods() {
        let world = tiny_world();
        let knobs = GroupingKnobs {
            target_size: 3,
            min_group_size: 2,
            max_cov: 0.8,
        };
        for method in Method::ALL {
            let h = run_method(method, &world, knobs);
            assert!(
                !h.records().is_empty(),
                "{} produced no history",
                method.name()
            );
            assert!(h.records().last().unwrap().accuracy.is_finite());
        }
    }
}
