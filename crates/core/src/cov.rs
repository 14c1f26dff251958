//! The grouping criterion of §5.1: the coefficient of variation (CoV) of a
//! group's label histogram.
//!
//! For a group `g` with combined label counts `h_j` over `m` labels and
//! total `n_g = Σ h_j`:
//!
//! * mean label mass `μ(g) = n_g / m`
//! * deviation `σ(g) = sqrt( Σ_j (μ − h_j)² / m )`   (Eq. 28)
//! * `CoV(g) = σ(g) / μ(g)`                          (Eq. 27)
//!
//! (The paper's displayed Eq. 27 and Eq. 28 disagree on the normalizer —
//! Eq. 27 divides the sum by `n_g` while Eq. 28 divides by `m`. We follow
//! the standard definition CoV = σ/μ with the population σ of Eq. 28; this
//! matches the paper's stated intent "coefficient of variation", its §4.3
//! identity γ − 1 = CoV², and its scale-invariance argument against plain
//! variance.)
//!
//! CoV = 0 ⟺ the group's labels are perfectly balanced; larger CoV means
//! more skew. Crucially it is *scale-invariant*: doubling every count
//! leaves it unchanged, which is exactly why §5.1 prefers it to variance.

use gfl_data::LabelMatrix;
use gfl_tensor::Scalar;

/// CoV of an explicit label histogram.
///
/// Returns `Scalar::INFINITY` for an empty histogram or one with zero total
/// mass — an empty "group" is maximally useless to sample, and the greedy
/// grouping loop relies on `CoV(∅ ∪ {c}) < CoV(∅)` always holding.
pub fn histogram_cov(hist: &[u64]) -> Scalar {
    let m = hist.len();
    if m == 0 {
        return Scalar::INFINITY;
    }
    let total: u64 = hist.iter().sum();
    if total == 0 {
        return Scalar::INFINITY;
    }
    let mu = total as f64 / m as f64;
    let ss: f64 = hist
        .iter()
        .map(|&h| {
            let d = h as f64 - mu;
            d * d
        })
        .sum();
    let sigma = (ss / m as f64).sqrt();
    (sigma / mu) as Scalar
}

/// CoV of the combined histogram of `members` under `labels`.
pub fn group_cov(labels: &LabelMatrix, members: &[usize]) -> Scalar {
    histogram_cov(&labels.group_histogram(members))
}

/// CoV the histogram would have after adding `count` per-label counts of
/// client `candidate` — evaluated without mutating `hist`. This is the
/// inner-loop primitive of CoV-Grouping (Algorithm 2, Line 5): trying every
/// remaining client per step must not clone histograms.
pub fn cov_with_candidate(labels: &LabelMatrix, hist: &[u64], candidate: usize) -> Scalar {
    let cand = labels.client(candidate);
    debug_assert_eq!(hist.len(), cand.len());
    let m = hist.len();
    if m == 0 {
        return Scalar::INFINITY;
    }
    let mut total = 0u64;
    for (&h, &c) in hist.iter().zip(cand.iter()) {
        total += h + c as u64;
    }
    if total == 0 {
        return Scalar::INFINITY;
    }
    let mu = total as f64 / m as f64;
    let mut ss = 0.0f64;
    for (&h, &c) in hist.iter().zip(cand.iter()) {
        let d = (h + c as u64) as f64 - mu;
        ss += d * d;
    }
    let sigma = (ss / m as f64).sqrt();
    (sigma / mu) as Scalar
}

/// A grouping criterion — a function of a label histogram that a greedy
/// formation minimizes — as the last step of [`cov_lanes`]. Named by type,
/// not passed as a function value, so that the kernel inlines at both call
/// sites of [`scan_lanes`] and the full-block one keeps a constant lane
/// count (as an `impl Fn` argument it was left out of line and ran 1.5×
/// slower).
pub(crate) trait Criterion {
    /// The criterion of a histogram over `m` labels, from its exact `total`,
    /// its mean label mass `mu = total / m` and its sum `ss` of squared
    /// deviations from `mu`.
    fn finish(total: f64, mu: f64, ss: f64, m: f64) -> Scalar;

    /// A key that orders histograms as the criterion does, from the exact
    /// integer `n = m·Σ h_j² − total²` (= m²·σ²) and `total`: one division
    /// at most, no square root. Formation screens candidates by it and
    /// scores only those near the smallest key (`grouping/greedy.rs`).
    fn key(n: f64, total: f64) -> f64;
}

/// The criterion of §5.1: [`histogram_cov`].
pub(crate) struct Cov;

impl Criterion for Cov {
    #[inline(always)]
    fn finish(total: f64, mu: f64, ss: f64, m: f64) -> Scalar {
        // A zero total is `inf`, as in `histogram_cov` (the lane itself
        // computes 0/0).
        if total == 0.0 {
            Scalar::INFINITY
        } else {
            ((ss / m).sqrt() / mu) as Scalar
        }
    }

    /// CoV² = n / total², `inf` for a zero total as in `finish`.
    #[inline(always)]
    fn key(n: f64, total: f64) -> f64 {
        if total == 0.0 {
            f64::INFINITY
        } else {
            n / (total * total)
        }
    }
}

/// Lanes scored per block of [`cov_lanes`]: wide enough that a block's
/// divisions and square roots pipeline, small enough to stay in registers.
/// Chosen by measurement on the healer's placement scan, which scores every
/// group; formation at the `secure-covg` shape read within 5 % at 4, 8 and
/// 16 when it still scored every candidate. Formation now scores exactly
/// only the few candidates its integer key leaves in contention, one lane
/// a call, and uses the width as the block of its key passes (docs/PERF.md
/// "Formation").
pub(crate) const LANES: usize = 8;

/// One lane per column entry: `out[k]` is criterion `C` of the histogram
/// `cols[j][lo + k] + hist[j]` over labels `j`, whose total is
/// `totals[lo + k] + hist_total`. With `C` = [`Cov`] that is
/// [`cov_with_candidate`]'s operations in its order — exact total →
/// `mu = total / m` → `ss += d·d` for ascending label from `0.0` →
/// `(sqrt(ss / m) / mu) as f32` — with no value ever combined across lanes,
/// so running lanes side by side changes no rounding. The healer's
/// placement scan runs it with groups in the lanes and the arriving client
/// as `hist`; Algorithm 2's Line 5 with each candidate its key leaves in
/// contention in a lane and the growing group as `hist`.
///
/// Counts are held as `f64`. A count is exact as an `f64` below 2⁵³ and so
/// is every sum of two that stays below it, so as long as the caller keeps
/// `totals[i] + hist_total` there (both callers assert it), `h + c` and
/// `total` are the exact integers the scalar function forms in `u64` and
/// converts with `as f64`.
#[inline(always)]
pub(crate) fn cov_lanes<C: Criterion>(
    cols: &[Vec<f64>],
    totals: &[f64],
    lo: usize,
    hist: &[f64],
    hist_total: f64,
    out: &mut [Scalar],
) {
    let w = out.len();
    debug_assert!(w <= LANES && cols.len() == hist.len());
    let m = cols.len() as f64;
    let mut total = [0.0f64; LANES];
    let mut mu = [0.0f64; LANES];
    let mut ss = [0.0f64; LANES];
    for (k, &t) in totals[lo..lo + w].iter().enumerate() {
        total[k] = t + hist_total;
        mu[k] = total[k] / m;
    }
    for (col, &h) in cols.iter().zip(hist) {
        for (k, &c) in col[lo..lo + w].iter().enumerate() {
            let d = (c + h) - mu[k];
            ss[k] += d * d;
        }
    }
    for (k, o) in out.iter_mut().enumerate() {
        *o = C::finish(total[k], mu[k], ss[k], m);
    }
}

/// Calls `visit(i, cov_lanes' value for lane i)` for every `i` in `range`,
/// ascending, a block of [`LANES`] at a time.
pub(crate) fn scan_lanes<C: Criterion>(
    cols: &[Vec<f64>],
    totals: &[f64],
    range: std::ops::Range<usize>,
    hist: &[f64],
    hist_total: f64,
    mut visit: impl FnMut(usize, Scalar),
) {
    let mut out = [0.0; LANES];
    let mut lo = range.start;
    while lo + LANES <= range.end {
        cov_lanes::<C>(cols, totals, lo, hist, hist_total, &mut out);
        for (k, &v) in out.iter().enumerate() {
            visit(lo + k, v);
        }
        lo += LANES;
    }
    if lo < range.end {
        let tail = &mut out[..range.end - lo];
        cov_lanes::<C>(cols, totals, lo, hist, hist_total, tail);
        for (k, &v) in tail.iter().enumerate() {
            visit(lo + k, v);
        }
    }
}

/// Mean CoV across a set of groups (reported in Table 1).
pub fn mean_group_cov(labels: &LabelMatrix, groups: &[Vec<usize>]) -> Scalar {
    if groups.is_empty() {
        return 0.0;
    }
    groups.iter().map(|g| group_cov(labels, g)).sum::<Scalar>() / groups.len() as Scalar
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matrix() -> LabelMatrix {
        LabelMatrix::new(
            vec![
                vec![10, 0, 0], // pure label 0
                vec![0, 10, 0], // pure label 1
                vec![0, 0, 10], // pure label 2
                vec![4, 3, 3],  // nearly balanced
                vec![20, 0, 0], // pure label 0, more data
            ],
            3,
        )
    }

    #[test]
    fn balanced_group_has_zero_cov() {
        let m = matrix();
        assert_eq!(group_cov(&m, &[0, 1, 2]), 0.0);
    }

    #[test]
    fn single_label_group_has_high_cov() {
        let m = matrix();
        let pure = group_cov(&m, &[0]);
        let mixed = group_cov(&m, &[3]);
        assert!(pure > 1.0, "pure {pure}");
        assert!(mixed < 0.2, "mixed {mixed}");
        assert!(pure > mixed);
    }

    #[test]
    fn cov_is_scale_invariant_unlike_variance() {
        let m = matrix();
        // Clients 0 and 4 are both pure label-0 but different sizes:
        // identical CoV.
        let small = group_cov(&m, &[0]);
        let large = group_cov(&m, &[4]);
        assert!((small - large).abs() < 1e-6);
    }

    #[test]
    fn paper_toy_example_fig4_preference() {
        // Fig. 4: pairing complementary clients beats pairing similar ones.
        let m = LabelMatrix::new(vec![vec![10, 0], vec![0, 10], vec![10, 0], vec![0, 10]], 2);
        let bad = group_cov(&m, &[0, 2]) + group_cov(&m, &[1, 3]);
        let good = group_cov(&m, &[0, 1]) + group_cov(&m, &[2, 3]);
        assert!(good < bad, "complementary grouping {good} vs similar {bad}");
        assert_eq!(good, 0.0);
    }

    #[test]
    fn empty_group_is_infinite() {
        let m = matrix();
        assert!(group_cov(&m, &[]).is_infinite());
        assert!(histogram_cov(&[]).is_infinite());
        assert!(histogram_cov(&[0, 0]).is_infinite());
    }

    #[test]
    fn candidate_evaluation_matches_materialized() {
        let m = matrix();
        let members = vec![0usize, 3];
        let hist = m.group_histogram(&members);
        for cand in [1usize, 2, 4] {
            let fast = cov_with_candidate(&m, &hist, cand);
            let mut with = members.clone();
            with.push(cand);
            let slow = group_cov(&m, &with);
            assert!((fast - slow).abs() < 1e-6, "candidate {cand}");
        }
    }

    #[test]
    fn adding_complementary_client_reduces_cov() {
        let m = matrix();
        let hist = m.group_histogram(&[0]); // all label 0
        let before = histogram_cov(&hist);
        let after = cov_with_candidate(&m, &hist, 1); // add pure label 1
        assert!(after < before);
    }

    #[test]
    fn mean_group_cov_averages() {
        let m = matrix();
        let groups = vec![vec![0, 1, 2], vec![3]];
        let avg = mean_group_cov(&m, &groups);
        let want = (group_cov(&m, &[0, 1, 2]) + group_cov(&m, &[3])) / 2.0;
        assert!((avg - want).abs() < 1e-6);
        assert_eq!(mean_group_cov(&m, &[]), 0.0);
    }
}
