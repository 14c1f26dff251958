//! CoV-Grouping — Algorithm 2 of the paper.
//!
//! Greedy construction ([`super::greedy`]): seed a group with a random
//! remaining client, then repeatedly add the client that minimizes the
//! group's CoV, until the CoV target `MaxCoV` is met with at least `MinGS`
//! members (or no candidate improves the CoV anymore). `MaxCoV` is soft:
//! when no candidate can reach it, the group is finalized anyway
//! (footnote 4). `MinGS` is hard during growth; the last group may fall
//! below it only when the client pool runs dry (the paper's groups always
//! absorb every client, Constraint 32).
//!
//! The random seed client is deliberate (§6.1): re-running the grouping
//! after some rounds explores different partitions, enabling the paper's
//! regrouping extension.
//!
//! Complexity: O(|K|²·|Y|) per edge — every client is added once, and each
//! addition looks at every remaining client (Line 5): Fig. 5's quantity.
//! The |Y| factor is now paid by the clients that join, not by every
//! candidate: a candidate is keyed in O(1) from two sums the pool keeps
//! (the join updates one of them over the joining client's nonzero labels),
//! and only the few whose key is within a proven margin of the smallest get
//! the O(|Y|) CoV evaluation (`cov::cov_lanes`; `greedy.rs`).

use gfl_data::LabelMatrix;
use gfl_tensor::init::GflRng;
use gfl_tensor::Scalar;

use crate::cov::Cov;
use crate::Group;

use super::{greedy, GroupingAlgorithm};

/// Configuration of Algorithm 2.
#[derive(Debug, Clone, Copy)]
pub struct CovGrouping {
    /// Minimum group size `MinGS` (anonymity constraint 31; paper uses 5
    /// for CIFAR-10 and 15 for Speech Commands).
    pub min_group_size: usize,
    /// Target maximum CoV (paper sweeps {0.1, 0.5, 1.0}; use
    /// `Scalar::INFINITY` for "no MaxCoV constraint" as in §7.3.2).
    pub max_cov: Scalar,
}

impl GroupingAlgorithm for CovGrouping {
    fn name(&self) -> &'static str {
        "CoVG"
    }

    fn form_groups(&self, labels: &LabelMatrix, rng: &mut GflRng) -> Vec<Group> {
        greedy::form_groups::<Cov>(labels, rng, self.min_group_size, self.max_cov, |_| {})
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cov::{group_cov, mean_group_cov};
    use crate::grouping::{test_support::skewed_matrix, validate_partition, RandomGrouping};
    use gfl_tensor::init;

    #[test]
    fn produces_a_partition() {
        let labels = skewed_matrix(40, 5, 1);
        let algo = CovGrouping {
            min_group_size: 4,
            max_cov: 0.5,
        };
        let groups = algo.form_groups(&labels, &mut init::rng(2));
        validate_partition(&groups, 40).unwrap();
    }

    #[test]
    fn respects_min_group_size_except_last() {
        let labels = skewed_matrix(43, 5, 3);
        let algo = CovGrouping {
            min_group_size: 5,
            max_cov: 0.2,
        };
        let groups = algo.form_groups(&labels, &mut init::rng(4));
        let undersized: Vec<&Group> = groups
            .iter()
            .filter(|g| g.len() < algo.min_group_size)
            .collect();
        assert!(
            undersized.len() <= 1,
            "at most the final leftover group may be undersized"
        );
    }

    #[test]
    fn beats_random_grouping_on_mean_cov() {
        let labels = skewed_matrix(60, 10, 5);
        let covg = CovGrouping {
            min_group_size: 5,
            max_cov: 0.3,
        };
        let rg = RandomGrouping { group_size: 6 };
        let cov_groups = covg.form_groups(&labels, &mut init::rng(6));
        let rand_groups =
            crate::grouping::GroupingAlgorithm::form_groups(&rg, &labels, &mut init::rng(6));
        let cov_mean = mean_group_cov(&labels, &cov_groups);
        let rand_mean = mean_group_cov(&labels, &rand_groups);
        assert!(
            cov_mean < rand_mean * 0.8,
            "CoVG {cov_mean} should clearly beat RG {rand_mean}"
        );
    }

    #[test]
    fn larger_max_cov_gives_smaller_groups() {
        // Table 1's structural finding: relaxing MaxCoV lets groups finalize
        // earlier, so they are smaller and more skewed.
        let labels = skewed_matrix(100, 10, 7);
        let avg_size = |max_cov: f32| {
            let algo = CovGrouping {
                min_group_size: 5,
                max_cov,
            };
            let groups = algo.form_groups(&labels, &mut init::rng(8));
            groups.iter().map(Group::len).sum::<usize>() as f32 / groups.len() as f32
        };
        let tight = avg_size(0.1);
        let loose = avg_size(1.0);
        assert!(
            tight >= loose,
            "MaxCoV=0.1 avg size {tight} should be ≥ MaxCoV=1.0 avg size {loose}"
        );
    }

    #[test]
    fn infinite_max_cov_yields_min_sized_groups() {
        let labels = skewed_matrix(40, 5, 9);
        let algo = CovGrouping {
            min_group_size: 4,
            max_cov: f32::INFINITY,
        };
        let groups = algo.form_groups(&labels, &mut init::rng(10));
        validate_partition(&groups, 40).unwrap();
        // With no CoV pressure, growth stops the moment MinGS is reached
        // unless a candidate still strictly improves CoV.
        for g in &groups {
            assert!(g.len() <= 40);
        }
        let avg = groups.iter().map(Group::len).sum::<usize>() as f32 / groups.len() as f32;
        assert!(avg < 10.0, "avg size {avg} should stay near MinGS");
    }

    #[test]
    fn single_client_population() {
        let labels = skewed_matrix(1, 3, 11);
        let algo = CovGrouping {
            min_group_size: 5,
            max_cov: 0.1,
        };
        let groups = algo.form_groups(&labels, &mut init::rng(12));
        assert_eq!(groups, vec![vec![0]]);
    }

    #[test]
    fn deterministic_given_rng_seed() {
        let labels = skewed_matrix(30, 5, 13);
        let algo = CovGrouping {
            min_group_size: 3,
            max_cov: 0.4,
        };
        let a = algo.form_groups(&labels, &mut init::rng(14));
        let b = algo.form_groups(&labels, &mut init::rng(14));
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_explore_different_partitions() {
        let labels = skewed_matrix(30, 5, 15);
        let algo = CovGrouping {
            min_group_size: 3,
            max_cov: 0.4,
        };
        let a = algo.form_groups(&labels, &mut init::rng(1));
        let b = algo.form_groups(&labels, &mut init::rng(2));
        assert_ne!(a, b, "random seed client should vary the partition");
    }

    #[test]
    fn groups_meet_max_cov_when_feasible() {
        // Complementary pure-label clients: each group of 5 (one per label)
        // can reach CoV 0.
        let counts: Vec<Vec<u32>> = (0..25)
            .map(|i| (0..5).map(|l| if l == i % 5 { 10 } else { 0 }).collect())
            .collect();
        let labels = gfl_data::LabelMatrix::new(counts, 5);
        let algo = CovGrouping {
            min_group_size: 5,
            max_cov: 0.05,
        };
        let groups = algo.form_groups(&labels, &mut init::rng(16));
        validate_partition(&groups, 25).unwrap();
        for g in &groups {
            assert!(
                group_cov(&labels, g) <= 0.05 + 1e-6,
                "group {:?} cov {}",
                g,
                group_cov(&labels, g)
            );
        }
    }
}
