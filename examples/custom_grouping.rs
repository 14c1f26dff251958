//! Extending the library: plugging a custom grouping algorithm into the
//! Group-FEL pipeline.
//!
//! Implements a "label-coverage" grouping policy (greedy set-cover on label
//! presence) by writing one `GroupingAlgorithm` impl, then races it against
//! the paper's CoV-Grouping on grouping quality and end-task accuracy.
//!
//! ```text
//! cargo run --release --example custom_grouping
//! ```

use gfl_core::cov::mean_group_cov;
use gfl_core::grouping::GroupingAlgorithm;
use gfl_core::prelude::*;
use gfl_core::sampling::AggregationWeighting;
use gfl_data::{ClientPartition, LabelMatrix, PartitionSpec, SyntheticSpec};
use gfl_nn::sgd::LrSchedule;
use gfl_sim::{Task, Topology};
use gfl_tensor::init::GflRng;
use rand::Rng;

/// Greedy label-coverage grouping: each group absorbs the client adding
/// the most labels not yet present, until all labels are covered or the
/// target size is reached. A reasonable heuristic — but it ignores *how
/// much* of each label a client holds, which is exactly the information
/// CoV exploits.
struct CoverageGrouping {
    target_size: usize,
}

impl GroupingAlgorithm for CoverageGrouping {
    fn name(&self) -> &'static str {
        "Coverage"
    }

    fn form_groups(&self, labels: &LabelMatrix, rng: &mut GflRng) -> Vec<Vec<usize>> {
        let n = labels.num_clients();
        let m = labels.num_labels();
        let mut remaining: Vec<usize> = (0..n).collect();
        let mut groups = Vec::new();
        while !remaining.is_empty() {
            let seed = remaining.swap_remove(rng.gen_range(0..remaining.len()));
            let mut group = vec![seed];
            let mut covered: Vec<bool> = labels.client(seed).iter().map(|&c| c > 0).collect();
            while group.len() < self.target_size && !remaining.is_empty() {
                let (pos, gain) = remaining
                    .iter()
                    .enumerate()
                    .map(|(pos, &c)| {
                        let gain = labels
                            .client(c)
                            .iter()
                            .zip(covered.iter())
                            .filter(|(&cnt, &cov)| cnt > 0 && !cov)
                            .count();
                        (pos, gain)
                    })
                    .max_by_key(|&(_, gain)| gain)
                    .unwrap();
                if gain == 0 && covered.iter().filter(|&&c| c).count() == m {
                    break;
                }
                let c = remaining.swap_remove(pos);
                for (cov, &cnt) in covered.iter_mut().zip(labels.client(c).iter()) {
                    *cov |= cnt > 0;
                }
                group.push(c);
            }
            groups.push(group);
        }
        groups
    }
}

fn main() {
    let data = SyntheticSpec::vision_like().generate(6_000, 3);
    let (train, test) = data.split_holdout(6);
    let partition = ClientPartition::dirichlet(
        &train,
        &PartitionSpec {
            num_clients: 60,
            alpha: 0.1,
            min_size: 20,
            max_size: 120,
            seed: 3,
        },
    );
    let topology = Topology::even_split(2, partition.sizes());

    let config = GroupFelConfig {
        global_rounds: 20,
        group_rounds: 5,
        local_rounds: 2,
        sampled_groups: 4,
        batch_size: 32,
        lr: LrSchedule::Constant(0.08),
        weighting: AggregationWeighting::Stabilized,
        eval_every: 4,
        seed: 3,
        task: Task::Vision,
        cost_budget: None,
        secure_aggregation: false,
        dropout_prob: 0.0,
    };

    let algos: Vec<Box<dyn GroupingAlgorithm>> = vec![
        Box::new(CoverageGrouping { target_size: 6 }),
        Box::new(CovGrouping {
            min_group_size: 5,
            max_cov: 0.5,
        }),
    ];
    for algo in algos {
        let groups = form_groups_per_edge(algo.as_ref(), &topology, &partition.label_matrix, 3);
        let quality = mean_group_cov(&partition.label_matrix, &groups);
        let data = (train.clone(), partition.clone());
        let trainer = Trainer::try_new(
            config.clone(),
            gfl_nn::zoo::vision_model(),
            data,
            test.clone(),
        )
        .expect("valid configuration");
        let history = trainer.run(&groups, &FedAvg, SamplingStrategy::ESRCov);
        println!(
            "{:10} groups={:3}  mean CoV {quality:.3}  best accuracy {:.4}",
            algo.name(),
            groups.len(),
            history.best_accuracy()
        );
    }
    println!("\nany struct implementing GroupingAlgorithm drops into the same pipeline");
}
