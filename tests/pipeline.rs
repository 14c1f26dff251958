//! End-to-end pipeline integration: data → partition → topology → grouping
//! → sampling → hierarchical training → history, across crate boundaries.

use gfl_core::cov::group_cov;
use gfl_core::driver::{Clock, Membership, RunPlan};
use gfl_core::engine::GroupFelConfig;
use gfl_core::grouping::{GroupingAlgorithm, RandomGrouping};
use gfl_core::local::FedAvg;
use gfl_core::sampling::{AggregationWeighting, SamplingStrategy};
use gfl_data::{ClientPartition, PartitionSpec, SyntheticSpec};
use gfl_nn::sgd::LrSchedule;
use gfl_sim::Task;
use gfl_test_support::{covg, TinyWorld};

fn build_world(seed: u64, alpha: f64) -> TinyWorld {
    let spec = PartitionSpec {
        num_clients: 16,
        alpha,
        min_size: 10,
        max_size: 60,
        seed,
    };
    let config = GroupFelConfig {
        global_rounds: 10,
        group_rounds: 3,
        local_rounds: 1,
        sampled_groups: 3,
        batch_size: 16,
        lr: LrSchedule::Constant(0.2),
        weighting: AggregationWeighting::Stabilized,
        eval_every: 2,
        seed,
        task: Task::Vision,
        cost_budget: None,
        secure_aggregation: false,
        dropout_prob: 0.0,
    };
    TinyWorld::build(800, &spec, &covg(3, 0.8), config)
}

#[test]
fn full_pipeline_learns_and_accounts_costs() {
    // Seed chosen so the first evaluation is below ceiling — several seeds
    // solve the tiny task at round 0, leaving no headroom to demonstrate
    // improvement.
    let w = build_world(3, 0.5);
    let history = w
        .trainer()
        .run(&w.groups, &FedAvg, SamplingStrategy::ESRCov);
    assert!(history.records().len() >= 5);
    // Learning happened.
    let first = history.records().first().unwrap();
    assert!(history.best_accuracy() > first.accuracy);
    // Cost is strictly increasing across evaluated rounds.
    for w in history.records().windows(2) {
        assert!(w[1].cost > w[0].cost);
    }
    // Loss ends finite and positive.
    let last = history.records().last().unwrap();
    assert!(last.loss.is_finite() && last.loss > 0.0);
}

#[test]
fn every_sampling_strategy_completes_on_every_weighting() {
    let mut w = build_world(2, 0.3).rounds(3);
    for sampling in [
        SamplingStrategy::Random,
        SamplingStrategy::RCov,
        SamplingStrategy::SRCov,
        SamplingStrategy::ESRCov,
    ] {
        for weighting in [
            AggregationWeighting::Standard,
            AggregationWeighting::Unbiased,
            AggregationWeighting::Stabilized,
        ] {
            w.cfg.weighting = weighting;
            let h = w.trainer().run(&w.groups, &FedAvg, sampling);
            assert!(
                !h.is_empty(),
                "{sampling:?}/{weighting:?} produced no history"
            );
            let last = h.records().last().unwrap();
            assert!(
                last.accuracy.is_finite(),
                "{sampling:?}/{weighting:?} diverged to NaN"
            );
        }
    }
}

#[test]
fn grouping_quality_orders_cov_before_random() {
    // §5.1 assumes the *global* data distribution is roughly balanced; a
    // population large enough for the Dirichlet draws to average out is
    // needed for CoV-vs-uniform to be the right target.
    let data = SyntheticSpec::tiny().generate(4_000, 3);
    let partition = ClientPartition::dirichlet(
        &data,
        &PartitionSpec {
            num_clients: 48,
            alpha: 0.2,
            min_size: 20,
            max_size: 80,
            seed: 3,
        },
    );
    let labels = partition.label_matrix.clone();
    let covg = covg(4, 0.2);
    let rg = RandomGrouping { group_size: 5 };
    let avg =
        |gs: &[Vec<usize>]| gs.iter().map(|g| group_cov(&labels, g)).sum::<f32>() / gs.len() as f32;
    let mean_over_seeds = |algo: &dyn GroupingAlgorithm| {
        (0..6)
            .map(|s| {
                let mut rng = gfl_tensor::init::rng(s);
                avg(&algo.form_groups(&labels, &mut rng))
            })
            .sum::<f32>()
            / 6.0
    };
    let cov_quality = mean_over_seeds(&covg);
    let rand_quality = mean_over_seeds(&rg);
    assert!(
        cov_quality < rand_quality,
        "CoVG {cov_quality} must beat RG {rand_quality} on average"
    );
}

#[test]
fn histories_are_reproducible_across_trainer_instances() {
    let (w1, w2) = (build_world(4, 0.5), build_world(4, 0.5));
    assert_eq!(w1.groups, w2.groups, "grouping must be deterministic");
    let h1 = w1
        .trainer()
        .run(&w1.groups, &FedAvg, SamplingStrategy::SRCov);
    let h2 = w2
        .trainer()
        .run(&w2.groups, &FedAvg, SamplingStrategy::SRCov);
    for (a, b) in h1.records().iter().zip(h2.records()) {
        assert_eq!(a.accuracy, b.accuracy);
        assert_eq!(a.cost, b.cost);
        assert_eq!(a.train_loss, b.train_loss);
    }
}

#[test]
fn resumable_sessions_match_single_run() {
    let w = build_world(5, 0.5);
    let (trainer, groups) = (w.trainer(), &w.groups);
    let probs = trainer.sampling_probs(groups, SamplingStrategy::Random);
    let plan = RunPlan {
        clock: Clock::Lockstep,
        membership: Membership::Static {
            groups,
            probs: &probs,
        },
    };

    // Two chunks of 5 rounds with the same groups, vs internals reused.
    let mut state = trainer.start(&FedAvg);
    trainer.drive(&FedAvg, &plan, &mut state, 5).unwrap();
    let mid_cost = state.ledger.total();
    trainer.drive(&FedAvg, &plan, &mut state, 5).unwrap();
    assert!(state.ledger.total() > mid_cost);
    assert_eq!(
        state.history.records().last().unwrap().round,
        9,
        "resumed session must reach round 9"
    );
    let eval = trainer.evaluate(&state.params);
    assert!(eval.accuracy > 0.3, "resumed model should have learned");
}
