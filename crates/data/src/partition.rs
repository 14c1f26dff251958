//! Dirichlet label-skew partitioning of a dataset across clients.
//!
//! Reproduces the paper's §7.2 setup: "We split CIFAR-10 data to 300 clients
//! with 20 to 200 (normal distribution ...) data entries each. On each
//! client, the labels follow the Dirichlet distribution with parameter α."
//!
//! The partitioner works in two stages:
//! 1. draw each client's size from a clipped normal,
//! 2. draw each client's label mix from Dirichlet(α) and fill the quota by
//!    sampling (without replacement) from the per-label index pools,
//!    falling back to the closest available label when a pool runs dry
//!    (CIFAR-10's finite per-class supply forces the same compromise the
//!    paper alludes to with "restricted by the available data").

use gfl_tensor::init;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::{Dataset, LabelMatrix};

/// Partitioning parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PartitionSpec {
    /// Number of clients (paper: 300).
    pub num_clients: usize,
    /// Dirichlet concentration α (paper sweeps 0.01–1.0).
    pub alpha: f64,
    /// Minimum client dataset size (paper: 20).
    pub min_size: usize,
    /// Maximum client dataset size (paper: 200).
    pub max_size: usize,
    /// RNG seed.
    pub seed: u64,
}

impl PartitionSpec {
    /// The paper's CIFAR-10 experiment shape with a chosen α.
    pub fn paper_vision(alpha: f64, seed: u64) -> Self {
        Self {
            num_clients: 300,
            alpha,
            min_size: 20,
            max_size: 200,
            seed,
        }
    }

    /// Small partition for tests.
    pub fn tiny(alpha: f64, seed: u64) -> Self {
        Self {
            num_clients: 12,
            alpha,
            min_size: 5,
            max_size: 20,
            seed,
        }
    }
}

/// The result of partitioning: per-client sample indices plus label stats.
#[derive(Debug, Clone)]
pub struct ClientPartition {
    /// `indices[i]` = dataset rows owned by client `i`.
    pub indices: Vec<Vec<usize>>,
    /// Per-client label histograms (the grouping algorithms' only input).
    pub label_matrix: LabelMatrix,
}

impl ClientPartition {
    /// Partitions `dataset` according to `spec`.
    pub fn dirichlet(dataset: &Dataset, spec: &PartitionSpec) -> Self {
        assert!(spec.num_clients > 0, "need at least one client");
        assert!(spec.min_size <= spec.max_size, "size bounds inverted");
        assert!(spec.alpha > 0.0, "alpha must be positive");
        let m = dataset.num_classes();
        // About a shuffle draw and a label draw per sample: a long stream.
        let mut rng = init::wide_rng(spec.seed);

        // Per-label pools of sample indices, shuffled for unbiased draws.
        let mut pools: Vec<Vec<usize>> = vec![Vec::new(); m];
        for (i, &l) in dataset.labels().iter().enumerate() {
            pools[l].push(i);
        }
        for pool in pools.iter_mut() {
            shuffle(&mut rng, pool);
        }

        let sizes = client_sizes(&mut rng, spec, dataset.len());

        let mut indices: Vec<Vec<usize>> = Vec::with_capacity(spec.num_clients);
        let mut counts: Vec<Vec<u32>> = Vec::with_capacity(spec.num_clients);
        for &size in &sizes {
            let mix = init::dirichlet_symmetric(&mut rng, spec.alpha, m);
            let mut mine = Vec::with_capacity(size);
            let mut hist = vec![0u32; m];
            for _ in 0..size {
                let want = sample_available(&mut rng, &mix, &pools);
                let Some(label) = want else { break };
                let idx = pools[label].pop().expect("pool checked non-empty");
                hist[label] += 1;
                mine.push(idx);
            }
            indices.push(mine);
            counts.push(hist);
        }

        Self {
            indices,
            label_matrix: LabelMatrix::new(counts, m),
        }
    }

    pub fn num_clients(&self) -> usize {
        self.indices.len()
    }

    /// Sizes of every client dataset.
    pub fn sizes(&self) -> Vec<usize> {
        self.indices.iter().map(Vec::len).collect()
    }
}

/// Draws client sizes from a clipped normal centered between the bounds,
/// additionally capped so the sum does not exceed the available data.
fn client_sizes(rng: &mut impl Rng, spec: &PartitionSpec, available: usize) -> Vec<usize> {
    let mean = (spec.min_size + spec.max_size) as f32 / 2.0;
    let std = (spec.max_size - spec.min_size).max(1) as f32 / 4.0;
    let mut sizes = Vec::with_capacity(spec.num_clients);
    let mut remaining = available;
    for _ in 0..spec.num_clients {
        let draw = init::normal(rng, mean, std).round();
        let clipped = (draw as i64).clamp(spec.min_size as i64, spec.max_size as i64) as usize;
        let take = clipped.min(remaining);
        sizes.push(take);
        remaining -= take;
    }
    sizes
}

/// Samples a label from `mix`, restricted to labels whose pools are
/// non-empty. Returns `None` when every pool is exhausted.
fn sample_available(rng: &mut impl Rng, mix: &[f64], pools: &[Vec<usize>]) -> Option<usize> {
    let total: f64 = mix
        .iter()
        .zip(pools.iter())
        .filter(|(_, p)| !p.is_empty())
        .map(|(&w, _)| w)
        .sum();
    if total > 0.0 {
        let mut t = rng.gen::<f64>() * total;
        for (label, (&w, pool)) in mix.iter().zip(pools.iter()).enumerate() {
            if pool.is_empty() {
                continue;
            }
            t -= w;
            if t <= 0.0 {
                return Some(label);
            }
        }
    }
    // Preferred labels all dry: fall back to any non-empty pool.
    let alive: Vec<usize> = pools
        .iter()
        .enumerate()
        .filter(|(_, p)| !p.is_empty())
        .map(|(l, _)| l)
        .collect();
    if alive.is_empty() {
        None
    } else {
        Some(alive[rng.gen_range(0..alive.len())])
    }
}

/// Fisher–Yates shuffle.
fn shuffle<T>(rng: &mut impl Rng, xs: &mut [T]) {
    for i in (1..xs.len()).rev() {
        let j = rng.gen_range(0..=i);
        xs.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SyntheticSpec;

    fn toy_dataset(n: usize) -> Dataset {
        SyntheticSpec::tiny().generate(n, 11)
    }

    #[test]
    fn partition_is_disjoint_and_within_bounds() {
        let d = toy_dataset(600);
        let spec = PartitionSpec::tiny(0.5, 1);
        let p = ClientPartition::dirichlet(&d, &spec);
        assert_eq!(p.num_clients(), spec.num_clients);
        let mut seen = std::collections::HashSet::new();
        for client in &p.indices {
            assert!(client.len() <= spec.max_size);
            for &i in client {
                assert!(i < d.len());
                assert!(seen.insert(i), "sample {i} assigned twice");
            }
        }
    }

    #[test]
    fn label_matrix_matches_indices() {
        let d = toy_dataset(600);
        let p = ClientPartition::dirichlet(&d, &PartitionSpec::tiny(0.3, 2));
        for (i, client) in p.indices.iter().enumerate() {
            let mut hist = vec![0u32; d.num_classes()];
            for &idx in client {
                hist[d.labels()[idx]] += 1;
            }
            assert_eq!(p.label_matrix.client(i), hist.as_slice());
        }
    }

    #[test]
    fn partition_is_deterministic() {
        let d = toy_dataset(400);
        let a = ClientPartition::dirichlet(&d, &PartitionSpec::tiny(0.2, 7));
        let b = ClientPartition::dirichlet(&d, &PartitionSpec::tiny(0.2, 7));
        assert_eq!(a.indices, b.indices);
    }

    #[test]
    fn smaller_alpha_is_more_skewed() {
        // Measure average per-client CoV of label histograms; Dirichlet with
        // smaller alpha must produce more skewed clients.
        let spec_vision = SyntheticSpec {
            num_classes: 10,
            feature_dim: 8,
            separation: 1.0,
            noise: 1.0,
        };
        let d = spec_vision.generate(4000, 21);
        let avg_cov = |alpha: f64| {
            let p = ClientPartition::dirichlet(
                &d,
                &PartitionSpec {
                    num_clients: 30,
                    alpha,
                    min_size: 20,
                    max_size: 60,
                    seed: 5,
                },
            );
            let lm = &p.label_matrix;
            (0..lm.num_clients())
                .map(|i| {
                    let h: Vec<f32> = lm.client(i).iter().map(|&c| c as f32).collect();
                    gfl_tensor::stats::coefficient_of_variation(&h)
                })
                .sum::<f32>()
                / lm.num_clients() as f32
        };
        let skewed = avg_cov(0.05);
        let balanced = avg_cov(5.0);
        assert!(
            skewed > balanced * 1.5,
            "alpha=0.05 CoV {skewed} should exceed alpha=5 CoV {balanced}"
        );
    }

    #[test]
    fn sizes_respect_min_when_data_ample() {
        let d = toy_dataset(1000);
        let spec = PartitionSpec::tiny(1.0, 3);
        let p = ClientPartition::dirichlet(&d, &spec);
        for s in p.sizes() {
            assert!(s >= spec.min_size, "size {s} below min");
        }
    }

    #[test]
    fn exhausted_data_yields_truncated_clients() {
        let d = toy_dataset(30); // far less than 12 clients × 5 min
        let p = ClientPartition::dirichlet(&d, &PartitionSpec::tiny(1.0, 4));
        let total: usize = p.sizes().iter().sum();
        assert_eq!(total, 30, "every sample must be assigned at most once");
    }
}
