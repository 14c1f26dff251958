//! Probabilistic group sampling at the cloud (§6).
//!
//! Each group `g` gets probability `p_g = w(1/CoV(g)) / Σ w(1/CoV)`
//! (Eq. 34) with a non-decreasing emphasis function `w`:
//!
//! * `RCoV`:   `w(x) = x`      — mild preference for balanced groups
//! * `SRCoV`:  `w(x) = x²`     — stronger
//! * `ESRCoV`: `w(x) = e^{x²}` — near-top-k selection (the paper's default)
//! * `Random`: uniform probabilities (the baseline)
//!
//! Each round, `S = |S_t|` distinct groups are drawn *without replacement*
//! proportionally to `p` (successive draws renormalize over the remainder).
//!
//! Aggregation weighting (§3.1, §6.2):
//! * [`AggregationWeighting::Standard`] — Line 15 of Algorithm 1,
//!   `w_g = n_g / n_t` (biased toward frequently-sampled groups).
//! * [`AggregationWeighting::Unbiased`] — Eq. 4, multiplies by `1/(p_g·S)`;
//!   unbiased but numerically fragile when some `p_g` is tiny.
//! * [`AggregationWeighting::Stabilized`] — Eq. 35, the unbiased weights
//!   re-normalized to sum to one; trades strict unbiasedness for stability.

use gfl_tensor::Scalar;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// The emphasis function `w` of Eq. 34 (or uniform sampling).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SamplingStrategy {
    /// Uniform sampling — every group equally likely.
    Random,
    /// `w(x) = x` (reciprocal CoV).
    RCov,
    /// `w(x) = x²` (squared reciprocal CoV).
    SRCov,
    /// `w(x) = e^{x²}` (exponential squared reciprocal CoV) — the paper's
    /// best performer and default.
    ESRCov,
}

impl SamplingStrategy {
    /// Short name used in figures.
    pub fn name(&self) -> &'static str {
        match self {
            SamplingStrategy::Random => "Random",
            SamplingStrategy::RCov => "RCoV",
            SamplingStrategy::SRCov => "SRCoV",
            SamplingStrategy::ESRCov => "ESRCoV",
        }
    }

    /// Computes the probability vector `p` from group CoVs (Eq. 34).
    ///
    /// CoVs are floored at a small ε so perfectly balanced groups (CoV = 0)
    /// get large-but-finite weight; infinite CoVs (degenerate groups) get
    /// zero weight. The exponent of `ESRCoV` is clamped to avoid overflow —
    /// the ordering of weights is preserved.
    pub fn probabilities(&self, covs: &[Scalar]) -> Vec<Scalar> {
        let n = covs.len();
        if n == 0 {
            return Vec::new();
        }
        if matches!(self, SamplingStrategy::Random) {
            return vec![1.0 / n as Scalar; n];
        }
        const EPS: Scalar = 0.05;
        let weights: Vec<f64> = covs
            .iter()
            .map(|&cov| {
                if !cov.is_finite() {
                    return 0.0;
                }
                let x = 1.0 / f64::from(cov.max(EPS));
                match self {
                    SamplingStrategy::RCov => x,
                    SamplingStrategy::SRCov => x * x,
                    // e^{x²} overflows past x ≈ 26.6; cap the exponent far
                    // above any realistic 1/CoV while staying finite.
                    SamplingStrategy::ESRCov => (x * x).min(500.0).exp(),
                    SamplingStrategy::Random => unreachable!(),
                }
            })
            .collect();
        let total: f64 = weights.iter().sum();
        if total <= 0.0 {
            return vec![1.0 / n as Scalar; n];
        }
        weights.iter().map(|&w| (w / total) as Scalar).collect()
    }
}

/// Draws `s` distinct indices without replacement, proportional to `p`.
///
/// # Panics
/// Panics if `s` exceeds the number of groups with positive probability
/// plus the number needed (it falls back to uniform over leftovers so any
/// `s ≤ p.len()` succeeds).
pub fn sample_without_replacement(rng: &mut impl Rng, p: &[Scalar], s: usize) -> Vec<usize> {
    assert!(s <= p.len(), "cannot sample {s} of {} groups", p.len());
    let mut weights: Vec<f64> = p.iter().map(|&x| f64::from(x.max(0.0))).collect();
    let mut chosen = Vec::with_capacity(s);
    for _ in 0..s {
        let total: f64 = weights.iter().sum();
        let idx = if total <= 0.0 {
            // All remaining weights zero: fall back to uniform over unchosen.
            let remaining: Vec<usize> =
                (0..weights.len()).filter(|i| !chosen.contains(i)).collect();
            remaining[rng.gen_range(0..remaining.len())]
        } else {
            let mut t = rng.gen::<f64>() * total;
            let mut pick = weights.len() - 1;
            for (i, &w) in weights.iter().enumerate() {
                t -= w;
                if t <= 0.0 && w > 0.0 {
                    pick = i;
                    break;
                }
            }
            pick
        };
        chosen.push(idx);
        weights[idx] = 0.0;
    }
    chosen
}

/// How group models are combined at the cloud (Line 15 / Eq. 4 / Eq. 35).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AggregationWeighting {
    /// `w_g = n_g / n_t` — normalize by the data volume of this round's
    /// participants (Line 15).
    Standard,
    /// `w_g = n_g / (n · p_g · S)` — the unbiasedness correction (Eq. 4).
    Unbiased,
    /// Eq. 4 weights re-normalized to sum to 1 (Eq. 35).
    Stabilized,
}

/// Computes the global-aggregation weight of every *sampled* group into
/// `out`, which is cleared first. The trainer reuses one pooled `Vec`
/// across rounds.
///
/// * `group_sizes[k]` — `n_g` of sampled group `k`.
/// * `probs[k]` — sampling probability `p_g` of sampled group `k`.
/// * `total_samples` — `n`, the population data volume.
pub fn aggregation_weights_into(
    weighting: AggregationWeighting,
    group_sizes: &[usize],
    probs: &[Scalar],
    total_samples: usize,
    out: &mut Vec<Scalar>,
) {
    assert_eq!(group_sizes.len(), probs.len());
    out.clear();
    let s = group_sizes.len();
    if s == 0 {
        return;
    }
    match weighting {
        AggregationWeighting::Standard => {
            let n_t: usize = group_sizes.iter().sum();
            out.extend(
                group_sizes
                    .iter()
                    .map(|&n_g| n_g as Scalar / n_t.max(1) as Scalar),
            );
        }
        AggregationWeighting::Unbiased => {
            out.extend(group_sizes.iter().zip(probs.iter()).map(|(&n_g, &p_g)| {
                let denom = (p_g as f64) * s as f64 * total_samples.max(1) as f64;
                (n_g as f64 / denom.max(f64::MIN_POSITIVE)) as Scalar
            }));
        }
        AggregationWeighting::Stabilized => {
            aggregation_weights_into(
                AggregationWeighting::Unbiased,
                group_sizes,
                probs,
                total_samples,
                out,
            );
            let total: f64 = out.iter().map(|&w| f64::from(w)).sum();
            if total <= 0.0 || !total.is_finite() {
                out.clear();
                out.resize(s, 1.0 / s as Scalar);
                return;
            }
            for w in out.iter_mut() {
                *w = (f64::from(*w) / total) as Scalar;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfl_tensor::init;

    fn weights(
        w: AggregationWeighting,
        sizes: &[usize],
        probs: &[Scalar],
        n: usize,
    ) -> Vec<Scalar> {
        let mut out = Vec::new();
        aggregation_weights_into(w, sizes, probs, n, &mut out);
        out
    }

    #[test]
    fn probabilities_sum_to_one() {
        let covs = vec![0.1, 0.5, 1.0, 2.0];
        for strat in [
            SamplingStrategy::Random,
            SamplingStrategy::RCov,
            SamplingStrategy::SRCov,
            SamplingStrategy::ESRCov,
        ] {
            let p = strat.probabilities(&covs);
            let sum: f32 = p.iter().sum();
            assert!((sum - 1.0).abs() < 1e-5, "{strat:?}: {sum}");
            assert!(p.iter().all(|&x| x >= 0.0));
        }
    }

    #[test]
    fn lower_cov_gets_higher_probability() {
        let covs = vec![0.2, 0.4, 0.8];
        for strat in [
            SamplingStrategy::RCov,
            SamplingStrategy::SRCov,
            SamplingStrategy::ESRCov,
        ] {
            let p = strat.probabilities(&covs);
            assert!(p[0] > p[1] && p[1] > p[2], "{strat:?}: {p:?}");
        }
    }

    #[test]
    fn emphasis_ordering_rcov_to_esrcov() {
        // The stronger the emphasis function, the more mass on the best
        // group (§6.1's escalation argument).
        let covs = vec![0.2, 0.4, 0.8, 1.6];
        let r = SamplingStrategy::RCov.probabilities(&covs)[0];
        let sr = SamplingStrategy::SRCov.probabilities(&covs)[0];
        let esr = SamplingStrategy::ESRCov.probabilities(&covs)[0];
        assert!(r < sr && sr < esr, "r={r} sr={sr} esr={esr}");
    }

    #[test]
    fn esrcov_does_not_overflow_on_tiny_cov() {
        let p = SamplingStrategy::ESRCov.probabilities(&[1e-9, 0.5]);
        assert!(p.iter().all(|x| x.is_finite()));
        assert!(p[0] > p[1]);
    }

    #[test]
    fn infinite_cov_gets_zero_probability() {
        let p = SamplingStrategy::RCov.probabilities(&[0.5, f32::INFINITY]);
        assert_eq!(p[1], 0.0);
        assert!((p[0] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn random_is_uniform() {
        let p = SamplingStrategy::Random.probabilities(&[0.1, 99.0, 3.0]);
        assert_eq!(p, vec![1.0 / 3.0; 3]);
    }

    #[test]
    fn sampling_without_replacement_is_distinct_and_sized() {
        let mut rng = init::rng(1);
        let p = vec![0.7, 0.1, 0.1, 0.05, 0.05];
        for s in 1..=5 {
            let picks = sample_without_replacement(&mut rng, &p, s);
            assert_eq!(picks.len(), s);
            let mut sorted = picks.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), s, "duplicates in {picks:?}");
        }
    }

    #[test]
    fn sampling_respects_probabilities_statistically() {
        let mut rng = init::rng(2);
        let p = vec![0.8, 0.1, 0.1];
        let mut first_counts = [0usize; 3];
        for _ in 0..2000 {
            let picks = sample_without_replacement(&mut rng, &p, 1);
            first_counts[picks[0]] += 1;
        }
        let frac = first_counts[0] as f64 / 2000.0;
        assert!((frac - 0.8).abs() < 0.05, "frac {frac}");
    }

    #[test]
    fn zero_probability_groups_only_picked_as_fallback() {
        let mut rng = init::rng(3);
        let p = vec![0.0, 1.0, 0.0];
        // s=1 must always pick index 1.
        for _ in 0..50 {
            assert_eq!(sample_without_replacement(&mut rng, &p, 1), vec![1]);
        }
        // s=3 must include everything exactly once.
        let mut picks = sample_without_replacement(&mut rng, &p, 3);
        picks.sort_unstable();
        assert_eq!(picks, vec![0, 1, 2]);
    }

    #[test]
    fn standard_weights_sum_to_one() {
        let w = weights(
            AggregationWeighting::Standard,
            &[100, 300],
            &[0.5, 0.5],
            1000,
        );
        assert!((w.iter().sum::<f32>() - 1.0).abs() < 1e-6);
        assert!((w[0] - 0.25).abs() < 1e-6);
    }

    #[test]
    fn unbiased_weights_correct_for_sampling_probability() {
        // A group sampled twice as often gets half the weight per Eq. 4.
        let w = weights(
            AggregationWeighting::Unbiased,
            &[100, 100],
            &[0.6, 0.3],
            200,
        );
        assert!((w[0] / w[1] - 0.5).abs() < 1e-5, "{w:?}");
    }

    #[test]
    fn unbiased_is_unbiased_in_expectation() {
        // E[Σ_{g∈S_t} n_g/(n·p_g·S) · x_g] = Σ_g n_g/n · x_g for single-draw
        // sampling (S=1): verify by enumeration.
        let probs = [0.5f32, 0.3, 0.2];
        let sizes = [10usize, 20, 30];
        let values = [1.0f64, 2.0, 3.0]; // scalar stand-ins for models
        let n: usize = 60;
        let mut expectation = 0.0f64;
        for g in 0..3 {
            let w = weights(AggregationWeighting::Unbiased, &[sizes[g]], &[probs[g]], n)[0];
            expectation += f64::from(probs[g]) * f64::from(w) * values[g];
        }
        let want: f64 = sizes
            .iter()
            .zip(values.iter())
            .map(|(&s, &v)| s as f64 / n as f64 * v)
            .sum();
        assert!((expectation - want).abs() < 1e-6, "{expectation} vs {want}");
    }

    #[test]
    fn stabilized_weights_sum_to_one_even_with_tiny_probs() {
        let w = weights(
            AggregationWeighting::Stabilized,
            &[50, 50, 50],
            &[1e-6, 0.5, 0.5],
            150,
        );
        let sum: f32 = w.iter().sum();
        assert!((sum - 1.0).abs() < 1e-4);
        // The tiny-probability group dominates after unbiasing — Eq. 35
        // keeps it finite but it still carries the most weight (§6.2's
        // caution about picking |S_t| well).
        assert!(w[0] > w[1]);
    }

    #[test]
    fn empty_inputs_are_safe() {
        assert!(SamplingStrategy::ESRCov.probabilities(&[]).is_empty());
        assert!(weights(AggregationWeighting::Standard, &[], &[], 0).is_empty());
    }
}
