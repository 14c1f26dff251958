//! Edge-deployment scenario: a mobile-AI operator with three
//! heterogeneous edge sites compares the cost of running FedAvg naively
//! versus deploying Group-FEL, under the paper's RPi cost model.
//!
//! This mirrors the paper's motivating story (§1): group operations
//! (secure aggregation, backdoor detection) dominate on IoT-class devices,
//! so group formation — not just group size — decides the bill.
//!
//! ```text
//! cargo run --release --example edge_deployment
//! ```

use gfl_core::prelude::*;
use gfl_core::sampling::AggregationWeighting;
use gfl_data::{ClientPartition, PartitionSpec, SyntheticSpec};
use gfl_nn::sgd::LrSchedule;
use gfl_sim::{Task, Topology};

fn main() {
    gfl_tensor::check_env_or_exit();
    // A speech-command fleet: 35 intents, 90 devices, extreme label skew
    // (every household uses a handful of commands).
    let data = SyntheticSpec::speech_like().generate(9_000, 5);
    let (train, test) = data.split_holdout(6);
    let partition = ClientPartition::dirichlet(
        &train,
        &PartitionSpec {
            num_clients: 90,
            alpha: 0.05,
            min_size: 20,
            max_size: 150,
            seed: 5,
        },
    );
    let topology = Topology::even_split(3, partition.sizes());

    let config = GroupFelConfig {
        global_rounds: 20,
        group_rounds: 5,
        local_rounds: 2,
        sampled_groups: 4,
        batch_size: 32,
        lr: LrSchedule::Constant(0.1),
        weighting: AggregationWeighting::Standard,
        eval_every: 4,
        seed: 5,
        task: Task::Speech,
        cost_budget: None,
        secure_aggregation: false,
        dropout_prob: 0.0,
    };

    let mut report = Vec::new();
    // Deployment A: naive random groups of 15 (one "aggregation pod" per
    // cell tower), uniform sampling.
    // Deployment B: Group-FEL — CoV groups with MinGS 8, ESRCoV sampling.
    let scenarios: Vec<(&str, Vec<Group>, SamplingStrategy, AggregationWeighting)> = vec![
        (
            "naive (RG15 + uniform)",
            form_groups_per_edge(
                &RandomGrouping { group_size: 15 },
                &topology,
                &partition.label_matrix,
                5,
            ),
            SamplingStrategy::Random,
            AggregationWeighting::Standard,
        ),
        (
            "Group-FEL (CoVG + ESRCoV)",
            form_groups_per_edge(
                &CovGrouping {
                    min_group_size: 8,
                    max_cov: 0.8,
                },
                &topology,
                &partition.label_matrix,
                5,
            ),
            SamplingStrategy::ESRCov,
            AggregationWeighting::Stabilized,
        ),
    ];

    for (name, groups, sampling, weighting) in scenarios {
        let mut cfg = config.clone();
        cfg.weighting = weighting;
        let data = (train.clone(), partition.clone());
        let trainer = Trainer::try_new(cfg, gfl_nn::zoo::speech_model(), data, test.clone())
            .expect("valid configuration");
        let history = trainer.run(&groups, &FedAvg, sampling);
        let final_cost = history.records().last().unwrap().cost;
        let best = history.best_accuracy();
        println!(
            "{name:28} groups={:3}  total cost {final_cost:9.0}s  best accuracy {best:.4}",
            groups.len()
        );
        report.push((name, final_cost, best));
    }

    // The operator's decision metric: accuracy per emulated compute-second.
    println!("\naccuracy per 10k cost units:");
    for (name, cost, best) in &report {
        println!("  {name:28} {:.4}", f64::from(*best) / (cost / 1e4));
    }
}
