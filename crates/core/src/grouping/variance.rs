//! Variance-criterion grouping — the alternative §5.1 argues *against*.
//!
//! The greedy skeleton of CoV-Grouping ([`super::greedy`]), but minimizing
//! the label histogram's raw variance σ²(g) instead of its CoV. §5.1:
//! "the variance is not suitable as the criterion [because] it is
//! susceptible to the scale of data number ... a group with a smaller
//! total data number but larger data distribution skew may have a smaller
//! variance than a group with more data but smaller distribution skew."
//!
//! This implementation exists to make that argument measurable (see the
//! `ablation_criterion` experiment binary and the unit tests here, which
//! exhibit the exact pathology the paper describes).

use gfl_data::LabelMatrix;
use gfl_tensor::init::GflRng;
use gfl_tensor::Scalar;

use crate::cov::Criterion;
use crate::Group;

use super::{greedy, GroupingAlgorithm};

/// Population variance of a label histogram.
pub fn histogram_variance(hist: &[u64]) -> Scalar {
    let m = hist.len();
    if m == 0 {
        return Scalar::INFINITY;
    }
    let mean = hist.iter().sum::<u64>() as f64 / m as f64;
    let ss: f64 = hist
        .iter()
        .map(|&h| {
            let d = h as f64 - mean;
            d * d
        })
        .sum();
    (ss / m as f64) as Scalar
}

/// Greedy grouping minimizing raw label variance (Algorithm 2 with the
/// criterion swapped).
#[derive(Debug, Clone, Copy)]
pub struct VarianceGrouping {
    /// Minimum group size.
    pub min_group_size: usize,
    /// Target maximum variance (soft, like `MaxCoV`).
    pub max_variance: Scalar,
}

/// [`histogram_variance`] as a lane criterion: `cov::cov_lanes`' moments,
/// finished `(ss / m) as f32`.
pub(super) struct Variance;

impl Criterion for Variance {
    #[inline(always)]
    fn finish(_total: f64, _mu: f64, ss: f64, m: f64) -> Scalar {
        if m == 0.0 {
            Scalar::INFINITY
        } else {
            (ss / m) as Scalar
        }
    }

    /// σ² = n / m², and `m` is the same for every candidate.
    #[inline(always)]
    fn key(n: f64, _total: f64) -> f64 {
        n
    }
}

impl GroupingAlgorithm for VarianceGrouping {
    fn name(&self) -> &'static str {
        "VarG"
    }

    fn form_groups(&self, labels: &LabelMatrix, rng: &mut GflRng) -> Vec<Group> {
        let (min, max) = (self.min_group_size, self.max_variance);
        greedy::form_groups::<Variance>(labels, rng, min, max, |_| {})
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cov::histogram_cov;
    use crate::grouping::validate_partition;
    use gfl_tensor::init;

    #[test]
    fn produces_a_partition() {
        let labels = crate::grouping::test_support::skewed_matrix(30, 5, 1);
        let algo = VarianceGrouping {
            min_group_size: 3,
            max_variance: 10.0,
        };
        let groups = algo.form_groups(&labels, &mut init::rng(2));
        validate_partition(&groups, 30).unwrap();
    }

    #[test]
    fn paper_pathology_variance_prefers_small_skewed_group() {
        // §5.1's exact argument: a small fully-skewed histogram has LOWER
        // variance than a large balanced-ish one, while CoV correctly
        // ranks them the other way.
        let small_skewed = [4u64, 0, 0]; // 4 samples, one label only
        let large_mild = [40u64, 36, 44]; // 120 samples, mild imbalance
        assert!(
            histogram_variance(&small_skewed) < histogram_variance(&large_mild),
            "variance must exhibit the scale pathology"
        );
        assert!(
            histogram_cov(&small_skewed) > histogram_cov(&large_mild),
            "CoV must rank by skew, not scale"
        );
    }

    #[test]
    fn variance_grouping_is_biased_toward_small_data_groups() {
        // Clients with tiny skewed datasets vs large mildly-imbalanced
        // ones: the variance greedy finalizes tiny-data groups early even
        // though their label mix is terrible.
        let mut counts: Vec<Vec<u32>> = Vec::new();
        for i in 0..10 {
            counts.push(vec![
                if i % 2 == 0 { 3 } else { 0 },
                if i % 2 == 1 { 3 } else { 0 },
                0,
            ]); // tiny, skewed
        }
        for i in 0..10 {
            counts.push(vec![
                30 + (i % 3) as u32,
                30 + ((i + 1) % 3) as u32,
                30 + ((i + 2) % 3) as u32,
            ]); // large, near balanced
        }
        let labels = gfl_data::LabelMatrix::new(counts, 3);
        let varg = VarianceGrouping {
            min_group_size: 2,
            max_variance: 5.0,
        };
        let groups = varg.form_groups(&labels, &mut init::rng(3));
        validate_partition(&groups, 20).unwrap();
        // Some finalized group must consist purely of tiny-data clients
        // with high CoV — the pathology in action.
        let pathological = groups
            .iter()
            .any(|g| g.iter().all(|&c| c < 10) && histogram_cov(&labels.group_histogram(g)) > 0.5);
        assert!(
            pathological,
            "expected a small-data high-skew group to slip through: {groups:?}"
        );
    }
}
