//! Exact optimal grouping by exhaustive set-partition search.
//!
//! §5.2 formulates group formation as an NP-hard integer program
//! (Eq. 29–33); CoV-Grouping is a greedy approximation. For *tiny*
//! instances the optimum is computable by enumerating all partitions of
//! the client set (Bell-number growth — practical to ~10 clients), which
//! gives the tests below a ground truth to measure `CovGrouping`'s
//! approximation quality against. No experiment calls it.

use gfl_data::LabelMatrix;
use gfl_tensor::Scalar;

use crate::cov::group_cov;
use crate::Group;

/// Hard cap on clients (12 ⇒ ≤ 4.2M partitions before pruning).
pub const MAX_EXHAUSTIVE_CLIENTS: usize = 12;

/// Finds the partition minimizing `Σ_g CoV(g)` subject to every group
/// having at least `min_group_size` members (Constraint 31; allowing one
/// undersized group only when `n < min_group_size` makes anything else
/// infeasible). Note that without an upper size bound the Σ-CoV objective
/// favors merging groups — use [`optimal_grouping_bounded`] to compare
/// against size-limited heuristics on equal footing.
///
/// Returns `(best_partition, best_objective)`.
///
/// # Panics
/// Panics if there are more than [`MAX_EXHAUSTIVE_CLIENTS`] clients.
pub fn optimal_grouping(labels: &LabelMatrix, min_group_size: usize) -> (Vec<Group>, Scalar) {
    optimal_grouping_bounded(labels, min_group_size, usize::MAX)
}

/// [`optimal_grouping`] with an additional maximum group size — the exact
/// solution of the paper's formulation when the cost trade-off caps group
/// size (the whole point of §3.2: big groups pay quadratic overheads).
pub fn optimal_grouping_bounded(
    labels: &LabelMatrix,
    min_group_size: usize,
    max_group_size: usize,
) -> (Vec<Group>, Scalar) {
    let n = labels.num_clients();
    assert!(
        n <= MAX_EXHAUSTIVE_CLIENTS,
        "exhaustive search limited to {MAX_EXHAUSTIVE_CLIENTS} clients, got {n}"
    );
    assert!(n > 0, "no clients");
    assert!(min_group_size <= max_group_size, "size bounds inverted");
    let mut best: Option<(Vec<Group>, Scalar)> = None;
    let mut current: Vec<Group> = Vec::new();
    search(
        labels,
        min_group_size,
        max_group_size,
        0,
        n,
        &mut current,
        &mut best,
    );
    best.expect("at least one partition is feasible")
}

/// Recursive partition enumeration in restricted-growth form: client `i`
/// joins an existing group or opens a new one. (No cost pruning: adding a
/// client can *lower* a group's CoV, so no admissible partial bound exists
/// without per-group relaxations; the client cap keeps enumeration cheap.)
fn search(
    labels: &LabelMatrix,
    min_gs: usize,
    max_gs: usize,
    i: usize,
    n: usize,
    current: &mut Vec<Group>,
    best: &mut Option<(Vec<Group>, Scalar)>,
) {
    if i == n {
        // Feasibility: all groups meet MinGS, or the whole population is
        // one undersized group (unavoidable when n < min_gs).
        let feasible =
            current.iter().all(|g| g.len() >= min_gs) || (current.len() == 1 && n < min_gs);
        if !feasible {
            return;
        }
        let cost: Scalar = current.iter().map(|g| group_cov(labels, g)).sum();
        if best.as_ref().is_none_or(|(_, b)| cost < *b) {
            *best = Some((current.clone(), cost));
        }
        return;
    }
    // Join each existing group (respecting the size cap).
    for gi in 0..current.len() {
        if current[gi].len() >= max_gs {
            continue;
        }
        current[gi].push(i);
        search(labels, min_gs, max_gs, i + 1, n, current, best);
        current[gi].pop();
    }
    // Open a new group.
    current.push(vec![i]);
    search(labels, min_gs, max_gs, i + 1, n, current, best);
    current.pop();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cov::mean_group_cov;
    use crate::grouping::{CovGrouping, GroupingAlgorithm};
    use gfl_tensor::init;

    /// Four pure-label clients over two labels: the optimum is the two
    /// complementary pairs (Fig. 4's toy example), total CoV 0.
    #[test]
    fn finds_fig4_optimum() {
        let labels =
            gfl_data::LabelMatrix::new(vec![vec![10, 0], vec![0, 10], vec![10, 0], vec![0, 10]], 2);
        let (partition, cost) = optimal_grouping(&labels, 2);
        assert_eq!(cost, 0.0, "complementary pairing reaches CoV 0");
        for g in &partition {
            let hist = labels.group_histogram(g);
            assert_eq!(hist[0], hist[1], "each group must be balanced: {g:?}");
        }
    }

    #[test]
    fn single_client_population() {
        let labels = gfl_data::LabelMatrix::new(vec![vec![5, 0]], 2);
        let (partition, _) = optimal_grouping(&labels, 3);
        assert_eq!(partition, vec![vec![0]]);
    }

    #[test]
    fn respects_min_group_size() {
        let labels = crate::grouping::test_support::skewed_matrix(6, 3, 1);
        let (partition, _) = optimal_grouping(&labels, 3);
        assert!(partition.iter().all(|g| g.len() >= 3), "{partition:?}");
    }

    #[test]
    fn greedy_is_near_optimal_on_small_instances() {
        // The quantitative backing for using the greedy: compare each
        // greedy partition against the exhaustive optimum *under the same
        // size envelope* (without a cap the Sigma-CoV objective trivially
        // merges everything into one group).
        let mut total_ratio = 0.0;
        let mut cases = 0;
        for seed in 0..6u64 {
            let labels = crate::grouping::test_support::skewed_matrix(8, 4, seed);
            let greedy = CovGrouping {
                min_group_size: 2,
                max_cov: 0.0, // force best-effort minimization
            };
            // Best of a few greedy restarts (the §6.1 regrouping argument:
            // random seed clients explore the space).
            let (greedy_cost, max_size) = (0..5)
                .map(|s| {
                    let groups = greedy.form_groups(&labels, &mut init::rng(s));
                    let cost: f32 = groups.iter().map(|g| group_cov(&labels, g)).sum();
                    let max_size = groups.iter().map(Vec::len).max().unwrap();
                    (cost, max_size)
                })
                .min_by(|a, b| a.0.partial_cmp(&b.0).unwrap())
                .unwrap();
            let (_, opt_cost) = optimal_grouping_bounded(&labels, 2, max_size);
            assert!(
                greedy_cost + 1e-5 >= opt_cost,
                "greedy {greedy_cost} cannot beat the optimum {opt_cost}"
            );
            if opt_cost > 1e-6 {
                total_ratio += f64::from(greedy_cost / opt_cost);
                cases += 1;
            } else {
                assert!(greedy_cost < 0.35, "optimum ~0 but greedy {greedy_cost}");
            }
        }
        if cases > 0 {
            let avg_ratio = total_ratio / f64::from(cases);
            assert!(
                avg_ratio < 2.5,
                "greedy/optimal average ratio {avg_ratio} too large"
            );
        }
    }

    #[test]
    fn mean_cov_of_optimum_bounds_everything() {
        let labels = crate::grouping::test_support::skewed_matrix(7, 3, 9);
        let (opt, opt_cost) = optimal_grouping(&labels, 2);
        // Any other feasible partition (e.g. one big group) costs at least
        // as much in total CoV.
        let whole: Vec<Group> = vec![(0..7).collect()];
        let whole_cost: f32 = whole.iter().map(|g| group_cov(&labels, g)).sum();
        assert!(opt_cost <= whole_cost + 1e-6);
        let _ = mean_group_cov(&labels, &opt);
    }

    #[test]
    #[should_panic(expected = "exhaustive search limited")]
    fn too_many_clients_panics() {
        let labels = crate::grouping::test_support::skewed_matrix(13, 3, 1);
        optimal_grouping(&labels, 2);
    }
}
