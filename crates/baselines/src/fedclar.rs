//! FedCLAR [Presotto et al., PerCom'22] — clustering-based *personalized*
//! FL, included in the paper's evaluation "to show that personalized FL is
//! not suitable for training a good global model" (§2.1, Fig. 9: "the
//! accuracy of FedCLAR drops after clustering").
//!
//! Behaviour reproduced here:
//!
//! 1. Until `cluster_at_round`, train exactly like hierarchical FedAvg with
//!    uniform group sampling.
//! 2. At the trigger round, every client computes a probe update from the
//!    current global model; clients are k-means-clustered on those update
//!    directions (model-similarity clustering).
//! 3. Afterwards each cluster maintains its own model: sampled clients
//!    train from *their cluster's* model and aggregate back into it.
//! 4. The reported "global" accuracy is the data-weighted average of the
//!    cluster models' test accuracies — which degrades on the global task
//!    as each cluster specializes.

use gfl_core::engine::Trainer;
use gfl_core::history::{RoundRecord, RunHistory};
use gfl_core::local::{FedAvg, LocalScratch, LocalTask, LocalUpdate};
use gfl_core::sampling::{sample_without_replacement, SamplingStrategy};
use gfl_core::Group;
use gfl_nn::Params;
use gfl_tensor::init;
use gfl_tensor::{ops, Scalar};

/// FedCLAR hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct FedClarConfig {
    /// Global round at which clustering happens.
    pub cluster_at_round: usize,
    /// Number of personalization clusters.
    pub num_clusters: usize,
    /// Lloyd iterations for update-space k-means.
    pub kmeans_iters: usize,
}

impl Default for FedClarConfig {
    fn default() -> Self {
        Self {
            cluster_at_round: 10,
            num_clusters: 4,
            kmeans_iters: 10,
        }
    }
}

/// Runs FedCLAR over the same hierarchy/cost machinery as Algorithm 1.
pub struct FedClarRunner;

impl FedClarRunner {
    /// Executes the full FedCLAR schedule and returns the trajectory of the
    /// *global-task* metric (weighted cluster accuracy after clustering).
    pub fn run(trainer: &Trainer, groups: &[Group], fc: &FedClarConfig) -> RunHistory {
        let cfg = trainer.config().clone();
        let num_clients = trainer.partition().num_clients();
        let mut rng = init::rng(cfg.seed ^ 0x0FED_C1A5);
        let probs = SamplingStrategy::Random.probabilities(&vec![1.0 as Scalar; groups.len()]);
        let s = cfg.sampled_groups.clamp(1, groups.len());
        let mut ledger = trainer.ledger_for(&FedAvg);
        let mut history = RunHistory::default();

        let model = trainer.model();
        let mut global: Params = model.init_params(&mut init::rng(cfg.seed));
        // After clustering: one model per cluster + client→cluster map.
        let mut cluster_models: Vec<Params> = Vec::new();
        let mut cluster_of: Vec<usize> = vec![0; num_clients];
        let mut clustered = false;

        for t in 0..cfg.global_rounds {
            let lr = cfg.lr.at(t);

            if !clustered && t == fc.cluster_at_round {
                cluster_of = Self::cluster_clients(trainer, &global, fc, lr);
                cluster_models = vec![global.clone(); fc.num_clusters];
                clustered = true;
            }

            let sampled = sample_without_replacement(&mut rng, &probs, s);

            if !clustered {
                // Plain hierarchical FedAvg phase, reusing the engine's
                // group mechanics.
                let batch: Vec<(usize, &[usize])> =
                    sampled.iter().map(|&gi| (gi, &groups[gi][..])).collect();
                let outcomes = trainer.train_groups(&global, &batch, &FedAvg, t, lr, None);
                for (&gi, _) in sampled.iter().zip(outcomes.iter()) {
                    let sizes: Vec<usize> = groups[gi]
                        .iter()
                        .map(|&c| trainer.partition().indices[c].len())
                        .collect();
                    ledger.charge_group(&sizes, cfg.group_rounds, cfg.local_rounds);
                }
                let total: usize = outcomes.iter().map(|o| o.samples).sum();
                let weights: Vec<Scalar> = outcomes
                    .iter()
                    .map(|o| o.samples as Scalar / total.max(1) as Scalar)
                    .collect();
                let views: Vec<&[Scalar]> = outcomes.iter().map(|o| o.params.as_slice()).collect();
                ops::weighted_sum_into(&views, &weights, &mut global);
            } else {
                // Personalized phase: per-cluster training and aggregation.
                Self::personalized_round(
                    trainer,
                    groups,
                    &sampled,
                    &cluster_of,
                    &mut cluster_models,
                    t,
                    lr,
                );
                for &gi in &sampled {
                    let sizes: Vec<usize> = groups[gi]
                        .iter()
                        .map(|&c| trainer.partition().indices[c].len())
                        .collect();
                    ledger.charge_group(&sizes, cfg.group_rounds, cfg.local_rounds);
                }
            }
            ledger.end_round();

            let over_budget = cfg.cost_budget.is_some_and(|b| ledger.total() >= b);
            if t % cfg.eval_every == 0 || t + 1 == cfg.global_rounds || over_budget {
                let (accuracy, loss) = if clustered {
                    Self::weighted_cluster_eval(trainer, &cluster_models, &cluster_of)
                } else {
                    let e = trainer.evaluate(&global);
                    (e.accuracy, e.loss)
                };
                history.push(RoundRecord {
                    round: t,
                    cost: ledger.total(),
                    accuracy,
                    loss,
                    train_loss: 0.0,
                    trigger_asr: None,
                    flip_asr: None,
                });
            }
            if over_budget {
                break;
            }
        }
        history
    }

    /// Probe every client's update direction from `global` and k-means them.
    fn cluster_clients(
        trainer: &Trainer,
        global: &[Scalar],
        fc: &FedClarConfig,
        lr: Scalar,
    ) -> Vec<usize> {
        let cfg = trainer.config();
        let num_clients = trainer.partition().num_clients();
        let clients: Vec<usize> = (0..num_clients).collect();
        let deltas: Vec<Vec<Scalar>> = gfl_parallel::par_map(&clients, |&c| {
            let indices = &trainer.partition().indices[c];
            let mut p = global.to_vec();
            let mut scratch = LocalScratch::new(trainer.model());
            let mut rng = init::rng(cfg.seed ^ (c as u64).wrapping_mul(0xC1AB));
            let task = LocalTask {
                client: c,
                model: trainer.model(),
                group_start: global,
                global_start: global,
                data: trainer.train_data(),
                indices,
                epochs: cfg.local_rounds.max(1),
                batch_size: cfg.batch_size,
                lr,
                round: fc.cluster_at_round,
            };
            FedAvg.train(&task, &mut p, &mut scratch, &mut rng);
            ops::sub_assign(global, &mut p);
            p
        });
        kmeans_assign(&deltas, fc.num_clusters, fc.kmeans_iters, cfg.seed)
    }

    fn personalized_round(
        trainer: &Trainer,
        groups: &[Group],
        sampled: &[usize],
        cluster_of: &[usize],
        cluster_models: &mut [Params],
        t: usize,
        lr: Scalar,
    ) {
        let cfg = trainer.config();
        // Collect participating clients per cluster.
        let k = cluster_models.len();
        let mut per_cluster: Vec<Vec<usize>> = vec![Vec::new(); k];
        for &gi in sampled {
            for &c in &groups[gi] {
                per_cluster[cluster_of[c]].push(c);
            }
        }
        for (ci, members) in per_cluster.iter().enumerate() {
            if members.is_empty() {
                continue;
            }
            let base = cluster_models[ci].clone();
            let trained: Vec<(Params, usize)> = gfl_parallel::par_map(members, |&c| {
                let indices = &trainer.partition().indices[c];
                let mut p = base.clone();
                let mut scratch = LocalScratch::new(trainer.model());
                let mut rng =
                    init::rng(cfg.seed ^ (t as u64) << 17 ^ (c as u64).wrapping_mul(0x9E37));
                let task = LocalTask {
                    client: c,
                    model: trainer.model(),
                    group_start: &base,
                    global_start: &base,
                    data: trainer.train_data(),
                    indices,
                    epochs: cfg.local_rounds * cfg.group_rounds,
                    batch_size: cfg.batch_size,
                    lr,
                    round: t,
                };
                FedAvg.train(&task, &mut p, &mut scratch, &mut rng);
                (p, indices.len())
            });
            let total: usize = trained.iter().map(|(_, n)| n).sum();
            if total == 0 {
                continue;
            }
            let weights: Vec<Scalar> = trained
                .iter()
                .map(|(_, n)| *n as Scalar / total as Scalar)
                .collect();
            let views: Vec<&[Scalar]> = trained.iter().map(|(p, _)| p.as_slice()).collect();
            ops::weighted_sum_into(&views, &weights, &mut cluster_models[ci]);
        }
    }

    /// Global-task metric after personalization: accuracy of each cluster's
    /// model on the *global* test set, weighted by cluster data volume.
    fn weighted_cluster_eval(
        trainer: &Trainer,
        cluster_models: &[Params],
        cluster_of: &[usize],
    ) -> (Scalar, Scalar) {
        let mut volumes = vec![0usize; cluster_models.len()];
        for (c, &ci) in cluster_of.iter().enumerate() {
            volumes[ci] += trainer.partition().indices[c].len();
        }
        let total: usize = volumes.iter().sum();
        let mut acc = 0.0;
        let mut loss = 0.0;
        for (m, &v) in cluster_models.iter().zip(volumes.iter()) {
            if v == 0 {
                continue;
            }
            let e = trainer.evaluate(m);
            let w = v as Scalar / total.max(1) as Scalar;
            acc += w * e.accuracy;
            loss += w * e.loss;
        }
        (acc, loss)
    }
}

/// k-means over dense vectors, returning assignments.
fn kmeans_assign(points: &[Vec<Scalar>], k: usize, iters: usize, seed: u64) -> Vec<usize> {
    use rand::Rng;
    let n = points.len();
    if n == 0 {
        return Vec::new();
    }
    let k = k.clamp(1, n);
    let mut rng = init::rng(seed ^ 0x5EED);
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        order.swap(i, j);
    }
    let mut centroids: Vec<Vec<Scalar>> = order[..k].iter().map(|&i| points[i].clone()).collect();
    let mut assignment = vec![0usize; n];
    for _ in 0..iters.max(1) {
        let mut changed = false;
        for (i, p) in points.iter().enumerate() {
            let mut best = 0;
            let mut best_d = Scalar::INFINITY;
            for (c, centroid) in centroids.iter().enumerate() {
                let d: Scalar = p
                    .iter()
                    .zip(centroid.iter())
                    .map(|(&a, &b)| (a - b) * (a - b))
                    .sum();
                if d < best_d {
                    best_d = d;
                    best = c;
                }
            }
            if assignment[i] != best {
                assignment[i] = best;
                changed = true;
            }
        }
        if !changed {
            break;
        }
        let dim = points[0].len();
        let mut sums = vec![vec![0.0; dim]; k];
        let mut counts = vec![0usize; k];
        for (i, p) in points.iter().enumerate() {
            ops::add_assign(p, &mut sums[assignment[i]]);
            counts[assignment[i]] += 1;
        }
        for (c, sum) in sums.into_iter().enumerate() {
            if counts[c] > 0 {
                centroids[c] = sum;
                ops::scale(1.0 / counts[c] as Scalar, &mut centroids[c]);
            }
        }
    }
    assignment
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfl_core::engine::GroupFelConfig;
    use gfl_core::grouping::RandomGrouping;
    use gfl_data::PartitionSpec;
    use gfl_test_support::TinyWorld;

    fn world() -> (Trainer, Vec<Group>) {
        let cfg = GroupFelConfig {
            global_rounds: 8,
            ..GroupFelConfig::tiny()
        };
        let spec = PartitionSpec::tiny(0.3, 21);
        let w = TinyWorld::build(600, &spec, &RandomGrouping { group_size: 3 }, cfg);
        (w.trainer(), w.groups)
    }

    #[test]
    fn produces_history_spanning_both_phases() {
        let (trainer, groups) = world();
        let fc = FedClarConfig {
            cluster_at_round: 3,
            num_clusters: 3,
            kmeans_iters: 5,
        };
        let h = FedClarRunner::run(&trainer, &groups, &fc);
        assert_eq!(h.records().len(), 8);
        // Cost keeps accruing through both phases.
        let costs: Vec<f64> = h.records().iter().map(|r| r.cost).collect();
        for w in costs.windows(2) {
            assert!(w[1] > w[0]);
        }
    }

    #[test]
    fn clustering_never_improves_global_metric_dramatically() {
        // The defining behaviour: post-clustering global accuracy should
        // not exceed what the pre-clustering trajectory was reaching —
        // personalization fragments the model.
        let (trainer, groups) = world();
        let fc = FedClarConfig {
            cluster_at_round: 5,
            num_clusters: 4,
            kmeans_iters: 5,
        };
        let h = FedClarRunner::run(&trainer, &groups, &fc);
        let pre_best = h
            .records()
            .iter()
            .filter(|r| r.round < 5)
            .map(|r| r.accuracy)
            .fold(0.0f32, f32::max);
        let post_final = h.final_accuracy();
        assert!(
            post_final <= pre_best + 0.25,
            "personalized global accuracy {post_final} should not dominate {pre_best}"
        );
    }

    #[test]
    fn kmeans_assign_basic_separation() {
        let mut points = Vec::new();
        for i in 0..10 {
            let v = if i < 5 { 0.0 } else { 10.0 };
            points.push(vec![v + i as f32 * 0.01, v]);
        }
        let assign = kmeans_assign(&points, 2, 20, 1);
        let first = assign[0];
        assert!(assign[..5].iter().all(|&a| a == first));
        assert!(assign[5..].iter().all(|&a| a != first));
    }

    #[test]
    fn kmeans_handles_k_larger_than_n() {
        let points = vec![vec![0.0], vec![1.0]];
        let assign = kmeans_assign(&points, 10, 5, 2);
        assert_eq!(assign.len(), 2);
    }
}
