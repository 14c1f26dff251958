//! Group-formation algorithms (§5 and the baselines it compares against).
//!
//! All algorithms consume only a [`LabelMatrix`] — per-client label
//! histograms — never raw data, models, or gradients (§5.1's privacy
//! boundary). Each returns a partition of `0..labels.num_clients()` into
//! mutually exclusive groups (Constraint 32).
//!
//! | Algorithm | Paper | Criterion |
//! |---|---|---|
//! | [`CovGrouping`] | §5.3, Alg. 2 | greedy CoV minimization |
//! | [`RandomGrouping`] | RG baseline | none |
//! | [`CdgGrouping`] | OUEA [13] | cluster similar clients, then distribute |
//! | [`KldGrouping`] | SHARE [14] | greedy KL(group ‖ global) minimization |

mod cdg;
mod cov_grouping;
mod greedy;
mod kldg;
#[cfg(test)]
mod optimal;
mod random;
mod stream;
mod variance;

pub use cdg::CdgGrouping;
pub use cov_grouping::CovGrouping;
pub use kldg::KldGrouping;
pub use random::RandomGrouping;
pub use stream::StreamGrouping;
pub use variance::{histogram_variance, VarianceGrouping};

use gfl_data::LabelMatrix;
use gfl_tensor::init::GflRng;

use crate::Group;

/// A client-grouping policy run by each edge server.
pub trait GroupingAlgorithm: Send + Sync {
    /// Human-readable name for experiment reports.
    fn name(&self) -> &'static str;

    /// Partitions clients `0..labels.num_clients()` into groups.
    ///
    /// Implementations must return a true partition: every client in
    /// exactly one group, no empty groups (unless there are no clients).
    fn form_groups(&self, labels: &LabelMatrix, rng: &mut GflRng) -> Vec<Group>;
}

/// Why a candidate partition is not a true partition of the client set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionError {
    /// A group has no members.
    EmptyGroup { group: usize },
    /// A member id is `>= n`.
    OutOfRange { client: usize },
    /// A client appears in two groups.
    Duplicate { client: usize },
    /// A client appears in no group.
    Missing { client: usize },
}

impl std::fmt::Display for PartitionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PartitionError::EmptyGroup { group } => write!(f, "group {group} is empty"),
            PartitionError::OutOfRange { client } => write!(f, "client {client} out of range"),
            PartitionError::Duplicate { client } => write!(f, "client {client} in two groups"),
            PartitionError::Missing { client } => {
                write!(f, "client {client} missing from the partition")
            }
        }
    }
}

impl std::error::Error for PartitionError {}

/// Checks that `groups` is a partition of `0..n`: every client in exactly
/// one group, no empty groups — [`validate_partition_of`] with everyone a
/// member.
pub fn validate_partition(groups: &[Group], n: usize) -> Result<(), PartitionError> {
    validate_partition_of(groups, &(0..n).collect::<Vec<_>>(), n)
}

/// Checks that `groups` cover exactly `members` (ids below `n`), each once,
/// with no empty group. The self-healing membership layer validates every
/// repair of the active clients' partition with it, surfacing a structured
/// error instead of crashing a long-running session.
pub fn validate_partition_of<'a>(
    groups: impl IntoIterator<Item = &'a Group>,
    members: &[usize],
    n: usize,
) -> Result<(), PartitionError> {
    let mut expected = vec![false; n];
    for &c in members {
        if c >= n {
            return Err(PartitionError::OutOfRange { client: c });
        }
        expected[c] = true;
    }
    let mut seen = vec![false; n];
    for (gi, g) in groups.into_iter().enumerate() {
        if g.is_empty() {
            return Err(PartitionError::EmptyGroup { group: gi });
        }
        for &c in g {
            if c >= n || !expected[c] {
                return Err(PartitionError::OutOfRange { client: c });
            }
            if seen[c] {
                return Err(PartitionError::Duplicate { client: c });
            }
            seen[c] = true;
        }
    }
    for &c in members {
        if !seen[c] {
            return Err(PartitionError::Missing { client: c });
        }
    }
    Ok(())
}

#[cfg(test)]
mod partition_tests {
    use super::*;

    #[test]
    fn valid_partition_passes() {
        assert_eq!(validate_partition(&[vec![0, 2], vec![1]], 3), Ok(()));
        assert_eq!(validate_partition_of(&[vec![0, 2]], &[0, 2], 3), Ok(()));
    }

    #[test]
    fn each_defect_is_reported() {
        assert_eq!(
            validate_partition(&[vec![0], vec![]], 1),
            Err(PartitionError::EmptyGroup { group: 1 })
        );
        assert_eq!(
            validate_partition(&[vec![0, 5]], 2),
            Err(PartitionError::OutOfRange { client: 5 })
        );
        assert_eq!(
            validate_partition(&[vec![0, 1], vec![1]], 2),
            Err(PartitionError::Duplicate { client: 1 })
        );
        assert_eq!(
            validate_partition(&[vec![0]], 2),
            Err(PartitionError::Missing { client: 1 })
        );
        assert!(validate_partition(&[vec![0]], 2)
            .unwrap_err()
            .to_string()
            .contains("missing"));
    }

    #[test]
    fn subset_validation_tracks_membership() {
        // Client 1 is not a member: covering it is an error, as is
        // skipping member 2.
        assert_eq!(
            validate_partition_of(&[vec![0, 1]], &[0, 2], 3),
            Err(PartitionError::OutOfRange { client: 1 })
        );
        assert_eq!(
            validate_partition_of(&[vec![0]], &[0, 2], 3),
            Err(PartitionError::Missing { client: 2 })
        );
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    use gfl_data::LabelMatrix;
    use gfl_tensor::init::{self, GflRng};
    use rand::Rng;

    /// A skewed label matrix: each client holds mostly one label.
    pub fn skewed_matrix(clients: usize, labels: usize, seed: u64) -> LabelMatrix {
        let mut rng: GflRng = init::rng(seed);
        let counts = (0..clients)
            .map(|_| {
                let hot = rng.gen_range(0..labels);
                (0..labels)
                    .map(|l| {
                        if l == hot {
                            rng.gen_range(20..60)
                        } else if rng.gen_bool(0.3) {
                            rng.gen_range(0..5)
                        } else {
                            0
                        }
                    })
                    .collect()
            })
            .collect();
        LabelMatrix::new(counts, labels)
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use gfl_tensor::init;
    use proptest::prelude::*;

    /// Arbitrary small label matrix: 1–24 clients × 2–8 labels, counts
    /// 0–40, with every client guaranteed at least one sample.
    fn arb_label_matrix() -> impl Strategy<Value = LabelMatrix> {
        (1usize..24, 2usize..8).prop_flat_map(|(clients, labels)| {
            proptest::collection::vec(proptest::collection::vec(0u32..40, labels), clients)
                .prop_map(move |mut counts| {
                    for (i, row) in counts.iter_mut().enumerate() {
                        if row.iter().all(|&c| c == 0) {
                            row[i % labels] = 1;
                        }
                    }
                    LabelMatrix::new(counts, labels)
                })
        })
    }

    fn all_algorithms() -> Vec<Box<dyn GroupingAlgorithm>> {
        vec![
            Box::new(RandomGrouping { group_size: 4 }),
            Box::new(CovGrouping {
                min_group_size: 3,
                max_cov: 0.5,
            }),
            Box::new(CovGrouping {
                min_group_size: 1,
                max_cov: f32::INFINITY,
            }),
            Box::new(CdgGrouping {
                group_size: 4,
                kmeans_iters: 4,
            }),
            Box::new(KldGrouping { group_size: 4 }),
            Box::new(VarianceGrouping {
                min_group_size: 3,
                max_variance: 20.0,
            }),
            Box::new(StreamGrouping { group_size: 4 }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Constraint 32: every algorithm returns a true partition of the
        /// client set, for arbitrary label matrices and seeds.
        #[test]
        fn prop_every_algorithm_partitions(
            labels in arb_label_matrix(),
            seed in 0u64..64,
        ) {
            for algo in all_algorithms() {
                let groups = algo.form_groups(&labels, &mut init::rng(seed));
                prop_assert!(validate_partition(&groups, labels.num_clients()).is_ok());
            }
        }

        /// The greedy CoV grouping never produces more than one group
        /// below MinGS (only the final leftover may be undersized).
        #[test]
        fn prop_cov_grouping_min_size(
            labels in arb_label_matrix(),
            seed in 0u64..64,
        ) {
            let algo = CovGrouping { min_group_size: 3, max_cov: 0.4 };
            let groups = algo.form_groups(&labels, &mut init::rng(seed));
            let undersized = groups.iter().filter(|g| g.len() < 3).count();
            prop_assert!(undersized <= 1, "{groups:?}");
        }

        /// Grouping output is a pure function of (matrix, seed).
        #[test]
        fn prop_grouping_is_deterministic(
            labels in arb_label_matrix(),
            seed in 0u64..64,
        ) {
            for algo in all_algorithms() {
                let a = algo.form_groups(&labels, &mut init::rng(seed));
                let b = algo.form_groups(&labels, &mut init::rng(seed));
                prop_assert_eq!(a, b, "{} not deterministic", algo.name());
            }
        }

        /// The partition conserves total sample mass: the union of group
        /// histograms equals the population histogram.
        #[test]
        fn prop_partition_conserves_mass(
            labels in arb_label_matrix(),
            seed in 0u64..32,
        ) {
            let all: Vec<usize> = (0..labels.num_clients()).collect();
            let population = labels.group_histogram(&all);
            for algo in all_algorithms() {
                let groups = algo.form_groups(&labels, &mut init::rng(seed));
                let mut merged = vec![0u64; labels.num_labels()];
                for g in &groups {
                    for (m, h) in merged.iter_mut().zip(labels.group_histogram(g)) {
                        *m += h;
                    }
                }
                prop_assert_eq!(&merged, &population);
            }
        }
    }
}
