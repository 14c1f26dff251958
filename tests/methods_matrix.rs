//! Every local-update strategy × grouping algorithm completes and learns on
//! a common tiny federation — the compatibility matrix backing Fig. 9–12.

use gfl_baselines::{FedClarConfig, FedClarRunner, FedProx, Scaffold};
use gfl_core::engine::{form_groups_per_edge, GroupFelConfig};
use gfl_core::grouping::{
    CdgGrouping, CovGrouping, GroupingAlgorithm, KldGrouping, RandomGrouping,
};
use gfl_core::local::{FedAvg, LocalUpdate};
use gfl_core::sampling::{AggregationWeighting, SamplingStrategy};
use gfl_data::PartitionSpec;
use gfl_nn::sgd::LrSchedule;
use gfl_sim::Task;
use gfl_test_support::{covg, TinyWorld};

fn world(seed: u64) -> TinyWorld {
    let spec = PartitionSpec {
        num_clients: 14,
        alpha: 0.4,
        min_size: 10,
        max_size: 60,
        seed,
    };
    let config = GroupFelConfig {
        global_rounds: 6,
        group_rounds: 2,
        local_rounds: 1,
        sampled_groups: 3,
        batch_size: 16,
        lr: LrSchedule::Constant(0.15),
        weighting: AggregationWeighting::Standard,
        eval_every: 1,
        seed,
        task: Task::Vision,
        cost_budget: None,
        secure_aggregation: false,
        dropout_prob: 0.0,
    };
    // Every test forms its own groups; the world's are unused.
    TinyWorld::build(700, &spec, &RandomGrouping { group_size: 4 }, config)
}

fn groupings() -> Vec<Box<dyn GroupingAlgorithm>> {
    vec![
        Box::new(RandomGrouping { group_size: 4 }),
        Box::new(CovGrouping {
            min_group_size: 3,
            max_cov: 0.6,
        }),
        Box::new(CdgGrouping {
            group_size: 4,
            kmeans_iters: 5,
        }),
        Box::new(KldGrouping { group_size: 4 }),
    ]
}

#[test]
fn fedavg_and_fedprox_complete_on_all_groupings() {
    let w = world(1);
    for grouping in groupings() {
        let groups = form_groups_per_edge(grouping.as_ref(), &w.topo, &w.part.label_matrix, 1);
        for (name, strategy) in [
            ("FedAvg", &FedAvg as &dyn LocalUpdate),
            ("FedProx", &FedProx { mu: 0.1 } as &dyn LocalUpdate),
        ] {
            let h = w.trainer().run(&groups, strategy, SamplingStrategy::Random);
            assert!(
                h.records().last().unwrap().accuracy.is_finite(),
                "{name} on {} diverged",
                grouping.name()
            );
            assert!(h.records().len() >= 6);
        }
    }
}

#[test]
fn scaffold_completes_and_uses_costlier_ops() {
    let w = world(2);
    let groups = form_groups_per_edge(
        &RandomGrouping { group_size: 4 },
        &w.topo,
        &w.part.label_matrix,
        2,
    );
    let strategy = Scaffold::new(w.model.param_len(), w.part.num_clients());
    let h_scaffold = w
        .trainer()
        .run(&groups, &strategy, SamplingStrategy::Random);
    let h_fedavg = w.trainer().run(&groups, &FedAvg, SamplingStrategy::Random);
    assert!(h_scaffold.records().last().unwrap().accuracy.is_finite());
    // SCAFFOLD must be charged more per round (scaffold secagg + factor).
    let c_scaffold = h_scaffold.records().last().unwrap().cost;
    let c_fedavg = h_fedavg.records().last().unwrap().cost;
    assert!(
        c_scaffold > c_fedavg,
        "SCAFFOLD cost {c_scaffold} must exceed FedAvg cost {c_fedavg}"
    );
}

#[test]
fn fedclar_runs_both_phases_and_stays_finite() {
    let w = world(3);
    let groups = form_groups_per_edge(
        &RandomGrouping { group_size: 4 },
        &w.topo,
        &w.part.label_matrix,
        3,
    );
    let h = FedClarRunner::run(
        &w.trainer(),
        &groups,
        &FedClarConfig {
            cluster_at_round: 2,
            num_clusters: 3,
            kmeans_iters: 5,
        },
    );
    assert_eq!(h.records().len(), 6);
    assert!(h.records().iter().all(|r| r.accuracy.is_finite()));
}

#[test]
fn group_fel_configuration_beats_plain_fedavg_on_skewed_data() {
    // The paper's headline, at integration-test scale: CoVG+ESRCoV versus
    // RG+uniform on strongly non-IID data, same budget.
    let spec = PartitionSpec {
        num_clients: 20,
        alpha: 0.15,
        min_size: 15,
        max_size: 60,
        seed: 9,
    };
    let config = GroupFelConfig {
        global_rounds: 15,
        group_rounds: 3,
        local_rounds: 2,
        sampled_groups: 3,
        batch_size: 16,
        lr: LrSchedule::Constant(0.1),
        weighting: AggregationWeighting::Stabilized,
        eval_every: 3,
        seed: 9,
        task: Task::Vision,
        cost_budget: None,
        secure_aggregation: false,
        dropout_prob: 0.0,
    };
    let mut w = TinyWorld::build(1000, &spec, &covg(4, 0.4), config);
    let h_fel = w
        .trainer()
        .run(&w.groups, &FedAvg, SamplingStrategy::ESRCov);

    w.cfg.weighting = AggregationWeighting::Standard;
    let rand_groups = form_groups_per_edge(
        &RandomGrouping { group_size: 5 },
        &w.topo,
        &w.part.label_matrix,
        9,
    );
    let h_avg = w
        .trainer()
        .run(&rand_groups, &FedAvg, SamplingStrategy::Random);

    assert!(
        h_fel.best_accuracy() >= h_avg.best_accuracy() - 0.05,
        "Group-FEL {:.4} should be at least competitive with FedAvg {:.4}",
        h_fel.best_accuracy(),
        h_avg.best_accuracy()
    );
}
