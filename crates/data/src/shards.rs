//! Shard-based pathological partitioning — the McMahan et al. (FedAvg)
//! non-IID construction, provided alongside the paper's Dirichlet scheme.
//!
//! Samples are sorted by label, cut into `shards_per_client × num_clients`
//! contiguous shards, and each client receives `shards_per_client` shards
//! uniformly at random. With 2 shards per client every client sees at most
//! 2 labels — the most extreme classic skew. Useful for stress-testing the
//! grouping algorithms beyond the Dirichlet regime the paper sweeps.

use gfl_tensor::init::GflRng;
use rand::Rng;

use crate::{ClientPartition, Dataset, LabelMatrix};

/// Partitions `dataset` into shards and deals them to clients.
///
/// # Panics
/// Panics if there are fewer samples than shards.
pub fn shard_partition(
    dataset: &Dataset,
    num_clients: usize,
    shards_per_client: usize,
    rng: &mut GflRng,
) -> ClientPartition {
    assert!(num_clients > 0 && shards_per_client > 0);
    let total_shards = num_clients * shards_per_client;
    assert!(
        dataset.len() >= total_shards,
        "need at least one sample per shard"
    );

    // Sort sample indices by label (stable → deterministic).
    let mut order: Vec<usize> = (0..dataset.len()).collect();
    order.sort_by_key(|&i| (dataset.labels()[i], i));

    // Cut into near-equal contiguous shards.
    let ranges = gfl_parallel::chunk_ranges(order.len(), total_shards);

    // Deal shards to clients in random order.
    let mut shard_ids: Vec<usize> = (0..total_shards).collect();
    for i in (1..total_shards).rev() {
        let j = rng.gen_range(0..=i);
        shard_ids.swap(i, j);
    }

    let m = dataset.num_classes();
    let mut indices: Vec<Vec<usize>> = vec![Vec::new(); num_clients];
    let mut counts = vec![0u32; num_clients * m];
    for (k, &shard) in shard_ids.iter().enumerate() {
        let client = k / shards_per_client;
        let (s, e) = ranges[shard];
        for &sample in &order[s..e] {
            indices[client].push(sample);
            counts[client * m + dataset.labels()[sample]] += 1;
        }
    }

    ClientPartition {
        indices,
        label_matrix: LabelMatrix::from_flat(counts, num_clients, m),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SyntheticSpec;
    use gfl_tensor::init;

    #[test]
    fn partition_is_disjoint_and_complete() {
        let d = SyntheticSpec::tiny().generate(300, 1);
        let p = shard_partition(&d, 10, 3, &mut init::rng(2));
        assert_eq!(p.num_clients(), 10);
        let mut seen = vec![false; d.len()];
        for client in &p.indices {
            for &i in client {
                assert!(!seen[i], "sample {i} dealt twice");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "every sample must be dealt");
    }

    #[test]
    fn two_shards_bound_labels_per_client() {
        // 3 labels, many samples: each shard is within one or two labels,
        // so 2 shards/client ⇒ at most 4 distinct labels, typically ≤ 2.
        let d = SyntheticSpec::tiny().generate(600, 3);
        let p = shard_partition(&d, 20, 2, &mut init::rng(4));
        let lm = &p.label_matrix;
        let mut label_counts: Vec<usize> = (0..lm.num_clients())
            .map(|c| lm.client(c).iter().filter(|&&x| x > 0).count())
            .collect();
        label_counts.sort_unstable();
        // Median client sees at most 2 labels — the classic construction.
        assert!(
            label_counts[label_counts.len() / 2] <= 2,
            "{label_counts:?}"
        );
    }

    #[test]
    fn shard_skew_exceeds_mild_dirichlet() {
        let d = SyntheticSpec::tiny().generate(600, 5);
        let shards = shard_partition(&d, 12, 2, &mut init::rng(6));
        let dirichlet = ClientPartition::dirichlet(
            &d,
            &crate::PartitionSpec {
                num_clients: 12,
                alpha: 10.0,
                min_size: 10,
                max_size: 60,
                seed: 6,
            },
        );
        let avg_cov = |p: &ClientPartition| {
            let lm = &p.label_matrix;
            (0..lm.num_clients())
                .map(|c| {
                    let h: Vec<f32> = lm.client(c).iter().map(|&x| x as f32).collect();
                    gfl_tensor::stats::coefficient_of_variation(&h)
                })
                .sum::<f32>()
                / lm.num_clients() as f32
        };
        assert!(avg_cov(&shards) > avg_cov(&dirichlet) * 1.3);
    }

    #[test]
    fn deterministic_in_seed() {
        let d = SyntheticSpec::tiny().generate(200, 7);
        let a = shard_partition(&d, 8, 2, &mut init::rng(1));
        let b = shard_partition(&d, 8, 2, &mut init::rng(1));
        assert_eq!(a.indices, b.indices);
    }

    #[test]
    #[should_panic(expected = "one sample per shard")]
    fn too_few_samples_panics() {
        let d = SyntheticSpec::tiny().generate(5, 8);
        shard_partition(&d, 10, 2, &mut init::rng(9));
    }
}
