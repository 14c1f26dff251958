//! Eq. 5 cost accounting across the trainer/ledger/cost-model boundary:
//! what the engine charges must equal a hand computation from the paper's
//! formula, for every strategy's op mix.

use gfl_baselines::{FedProx, Scaffold};
use gfl_core::engine::{GroupFelConfig, Trainer};
use gfl_core::grouping::RandomGrouping;
use gfl_core::local::{FedAvg, LocalUpdate};
use gfl_core::sampling::{AggregationWeighting, SamplingStrategy};
use gfl_data::PartitionSpec;
use gfl_nn::sgd::LrSchedule;
use gfl_sim::{CostModel, Task};
use gfl_test_support::TinyWorld;

fn world(seed: u64) -> TinyWorld {
    let spec = PartitionSpec {
        num_clients: 12,
        alpha: 0.5,
        min_size: 10,
        max_size: 40,
        seed,
    };
    let config = GroupFelConfig {
        global_rounds: 4,
        group_rounds: 3,
        local_rounds: 2,
        sampled_groups: 2,
        batch_size: 16,
        lr: LrSchedule::Constant(0.1),
        weighting: AggregationWeighting::Standard,
        eval_every: 1,
        seed,
        task: Task::Vision,
        cost_budget: None,
        secure_aggregation: false,
        dropout_prob: 0.0,
    };
    TinyWorld::build(500, &spec, &RandomGrouping { group_size: 4 }, config)
}

/// Recomputes Eq. 5 by hand for a single group's participation in one
/// global round, using a strategy's op mix and training factor.
fn eq5_for_group(trainer: &Trainer, group: &[usize], strategy: &dyn LocalUpdate) -> f64 {
    let cfg = trainer.config();
    let mut model = CostModel::for_task(cfg.task);
    model.training.a *= strategy.training_cost_factor();
    model.training.b *= strategy.training_cost_factor();
    let g = group.len();
    let per_client_ops: f64 = strategy
        .group_ops()
        .iter()
        .map(|&k| model.group_op(k, g))
        .sum();
    let inner: f64 = group
        .iter()
        .map(|&c| {
            let n_i = trainer.partition().indices[c].len();
            per_client_ops + cfg.local_rounds as f64 * model.training(n_i)
        })
        .sum();
    cfg.group_rounds as f64 * inner
}

#[test]
fn ledger_matches_hand_computed_eq5_for_fedavg() {
    let w = world(1);
    let (trainer, groups) = (w.trainer(), &w.groups);
    let mut ledger = trainer.ledger_for(&FedAvg);
    let group = &groups[0];
    let sizes: Vec<usize> = group
        .iter()
        .map(|&c| trainer.partition().indices[c].len())
        .collect();
    ledger.charge_group(
        &sizes,
        trainer.config().group_rounds,
        trainer.config().local_rounds,
    );
    let want = eq5_for_group(&trainer, group, &FedAvg);
    assert!(
        (ledger.total() - want).abs() < 1e-9,
        "{} vs {want}",
        ledger.total()
    );
}

#[test]
fn strategy_cost_ordering_fedavg_fedprox_scaffold() {
    let w = world(2);
    let (trainer, groups) = (w.trainer(), &w.groups);
    let group = &groups[0];
    let avg = eq5_for_group(&trainer, group, &FedAvg);
    let prox = eq5_for_group(&trainer, group, &FedProx { mu: 0.1 });
    let scaffold_strategy = Scaffold::new(trainer.model().param_len(), 12);
    let scaffold = eq5_for_group(&trainer, group, &scaffold_strategy);
    assert!(
        avg < prox && prox < scaffold,
        "per-round cost must order FedAvg {avg} < FedProx {prox} < SCAFFOLD {scaffold}"
    );
}

#[test]
fn run_total_cost_equals_sum_of_round_increments() {
    let w = world(3);
    let (trainer, groups) = (w.trainer(), &w.groups);
    let h = trainer.run(groups, &FedAvg, SamplingStrategy::Random);
    // eval_every=1 so every round is recorded; increments must all be
    // positive and the final total equals the last record.
    let records = h.records();
    assert_eq!(records.len(), trainer.config().global_rounds);
    let mut prev = 0.0;
    for r in records {
        assert!(r.cost > prev);
        prev = r.cost;
    }
}

#[test]
fn speech_task_is_cheaper_per_round_than_vision() {
    let mut w = world(4);
    let mut run_cost = |task: Task| {
        w.cfg.task = task;
        let h = w
            .trainer()
            .run(&w.groups, &FedAvg, SamplingStrategy::Random);
        h.records().last().unwrap().cost
    };
    assert!(run_cost(Task::Speech) < run_cost(Task::Vision));
}
