//! Scalar statistics shared by grouping, sampling, and the theory module.
//!
//! The paper's grouping criterion is the coefficient of variation of label
//! counts (Eq. 27), and its convergence constants γ and Γ (Eq. 11–12) are
//! squared CoVs of data-volume distributions (§4.3: γ − 1 = CoV²). The
//! canonical population-statistic helpers live here so every crate computes
//! them identically.

use crate::Scalar;

/// Arithmetic mean; 0.0 for empty input.
pub fn mean(xs: &[Scalar]) -> Scalar {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<Scalar>() / xs.len() as Scalar
}

/// Population variance (divides by N); 0.0 for empty input.
pub fn variance(xs: &[Scalar]) -> Scalar {
    if xs.is_empty() {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|&x| (x - m) * (x - m)).sum::<Scalar>() / xs.len() as Scalar
}

/// Population standard deviation.
pub fn std_dev(xs: &[Scalar]) -> Scalar {
    variance(xs).sqrt()
}

/// Coefficient of variation σ/μ.
///
/// Returns 0.0 when the mean is zero (the all-zero histogram is treated as
/// perfectly balanced rather than undefined; the grouping code never feeds a
/// zero-mean histogram for non-empty groups).
pub fn coefficient_of_variation(xs: &[Scalar]) -> Scalar {
    let m = mean(xs);
    if m == 0.0 {
        return 0.0;
    }
    std_dev(xs) / m
}

/// Kullback–Leibler divergence `KL(p ‖ q)` over probability vectors, with
/// the usual conventions: terms with `p_i = 0` contribute 0; terms with
/// `p_i > 0, q_i = 0` are smoothed by `eps` rather than returning ∞ (SHARE's
/// grouping objective needs finite values for greedy comparison).
pub fn kl_divergence(p: &[Scalar], q: &[Scalar], eps: Scalar) -> Scalar {
    assert_eq!(p.len(), q.len(), "kl_divergence: dim mismatch");
    let mut acc = 0.0;
    for (&pi, &qi) in p.iter().zip(q.iter()) {
        if pi > 0.0 {
            acc += pi * (pi / qi.max(eps)).ln();
        }
    }
    acc
}

/// Normalizes a non-negative histogram into a probability vector.
/// Returns a uniform vector when the total mass is zero.
pub fn normalize(xs: &[Scalar]) -> Vec<Scalar> {
    let total: Scalar = xs.iter().sum();
    if total <= 0.0 {
        return vec![1.0 / xs.len().max(1) as Scalar; xs.len()];
    }
    xs.iter().map(|&x| x / total).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn mean_variance_basics() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(mean(&xs), 5.0);
        assert_eq!(variance(&xs), 4.0);
        assert_eq!(std_dev(&xs), 2.0);
        assert!((coefficient_of_variation(&xs) - 0.4).abs() < 1e-6);
    }

    #[test]
    fn empty_inputs_are_safe() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[]), 0.0);
        assert_eq!(coefficient_of_variation(&[]), 0.0);
    }

    #[test]
    fn cov_is_zero_for_balanced_histogram() {
        assert_eq!(coefficient_of_variation(&[5.0, 5.0, 5.0]), 0.0);
    }

    #[test]
    fn cov_is_scale_invariant() {
        let a = [1.0, 2.0, 3.0];
        let b = [10.0, 20.0, 30.0];
        let ca = coefficient_of_variation(&a);
        let cb = coefficient_of_variation(&b);
        assert!((ca - cb).abs() < 1e-6);
    }

    #[test]
    fn kl_zero_for_identical_distributions() {
        let p = [0.2, 0.3, 0.5];
        assert!(kl_divergence(&p, &p, 1e-9).abs() < 1e-7);
    }

    #[test]
    fn kl_positive_for_different_distributions() {
        let p = [0.9, 0.1];
        let q = [0.1, 0.9];
        assert!(kl_divergence(&p, &q, 1e-9) > 1.0);
    }

    #[test]
    fn kl_handles_zero_q_via_smoothing() {
        let p = [0.5, 0.5];
        let q = [1.0, 0.0];
        let kl = kl_divergence(&p, &q, 1e-9);
        assert!(kl.is_finite() && kl > 0.0);
    }

    #[test]
    fn normalize_uniform_on_zero_mass() {
        assert_eq!(normalize(&[0.0, 0.0]), vec![0.5, 0.5]);
        let n = normalize(&[1.0, 3.0]);
        assert!((n[0] - 0.25).abs() < 1e-6 && (n[1] - 0.75).abs() < 1e-6);
    }

    proptest! {
        #[test]
        fn prop_variance_nonnegative(xs in proptest::collection::vec(-1e3f32..1e3, 0..64)) {
            prop_assert!(variance(&xs) >= 0.0);
        }

        #[test]
        fn prop_kl_nonnegative(
            raw_p in proptest::collection::vec(0.01f32..1.0, 2..10),
        ) {
            let p = normalize(&raw_p);
            let q_raw: Vec<f32> = raw_p.iter().rev().cloned().collect();
            let q = normalize(&q_raw);
            // Gibbs' inequality (up to float error)
            prop_assert!(kl_divergence(&p, &q, 1e-9) >= -1e-5);
        }

        #[test]
        fn prop_normalize_sums_to_one(xs in proptest::collection::vec(0.0f32..100.0, 1..32)) {
            let n = normalize(&xs);
            let sum: f32 = n.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
        }
    }
}
