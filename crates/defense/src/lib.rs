//! Backdoor detection over client updates — the second group operation whose
//! quadratic cost Fig. 2(a)/Fig. 8 measure.
//!
//! The paper's testbed runs a FLAME-style defense [Nguyen et al. 2021]
//! during group aggregation. We implement the same pipeline in its
//! honest-but-curious essence:
//!
//! 1. **Pairwise cosine similarity** between all |g| client updates —
//!    the O(|g|²·d) step that dominates and gives the quadratic shape.
//! 2. **Clustering**: single-linkage agglomerative clustering on cosine
//!    distance until two clusters remain; the minority cluster is flagged
//!    as suspicious (backdoored updates point in a coherent, atypical
//!    direction).
//! 3. **Norm clipping**: every accepted update is clipped to the median
//!    norm, bounding what any single client can inject.
//!
//! The module also ships the attacker side ([`scale_attack`],
//! [`sign_flip_attack`]) so the defense can be exercised end to end in the
//! simulator's extension experiments.

pub mod robust;

use gfl_tensor::{ops, Scalar};
use serde::{Deserialize, Serialize};

/// Work counters to validate the quadratic cost shape empirically.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DefenseCost {
    /// Pairwise similarity evaluations (each O(d)).
    pub similarity_evals: u64,
    /// Norm computations / clip passes (each O(d)).
    pub norm_passes: u64,
}

/// Outcome of running the defense over one group's updates.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DefenseReport {
    /// Indices of updates admitted to aggregation.
    pub accepted: Vec<usize>,
    /// Indices flagged as suspicious and excluded.
    pub rejected: Vec<usize>,
    /// The clip threshold applied (median accepted norm).
    pub clip_norm: Scalar,
    /// Work performed.
    pub cost: DefenseCost,
}

/// Configuration for [`filter_updates`].
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct DefenseConfig {
    /// Reject the minority cluster only if its relative size is below this
    /// fraction (a 50/50 split is ambiguous, not an attack signature).
    pub max_reject_fraction: f64,
    /// Minimum cosine *distance* between the two final clusters for the
    /// split to be considered meaningful.
    pub min_separation: Scalar,
}

impl Default for DefenseConfig {
    fn default() -> Self {
        Self {
            max_reject_fraction: 0.45,
            min_separation: 0.25,
        }
    }
}

/// Runs detection + clipping over a group's updates (in place for clipping).
///
/// Groups of fewer than 3 updates are passed through (no statistical basis
/// for an outlier call), but still pay the norm-clipping passes.
pub fn filter_updates(updates: &mut [Vec<Scalar>], config: &DefenseConfig) -> DefenseReport {
    let n = updates.len();
    let mut cost = DefenseCost::default();
    if n == 0 {
        return DefenseReport {
            accepted: Vec::new(),
            rejected: Vec::new(),
            clip_norm: 0.0,
            cost,
        };
    }

    let mut accepted: Vec<usize> = (0..n).collect();
    let mut rejected: Vec<usize> = Vec::new();
    // Each update's norm, taken once: the cosine of every pair and the
    // clip threshold below both read it.
    let norms: Vec<Scalar> = updates.iter().map(|u| ops::norm(u)).collect();

    if n >= 3 {
        // 1. Pairwise cosine distance matrix (condensed storage).
        let mut dist = vec![0.0f32; n * n];
        for i in 0..n {
            for j in (i + 1)..n {
                // `ops::cosine_similarity` over the norms above.
                let sim = if norms[i] == 0.0 || norms[j] == 0.0 {
                    0.0
                } else {
                    (ops::dot(&updates[i], &updates[j]) / (norms[i] * norms[j])).clamp(-1.0, 1.0)
                };
                cost.similarity_evals += 1;
                let d = 1.0 - sim;
                dist[i * n + j] = d;
                dist[j * n + i] = d;
            }
        }

        // 2. Single-linkage agglomerative clustering down to 2 clusters.
        let clusters = single_linkage_two_clusters(n, &dist);
        let (a, b) = clusters;
        let (minority, majority) = if a.len() <= b.len() { (a, b) } else { (b, a) };
        let frac = minority.len() as f64 / n as f64;
        let sep = cluster_separation(&minority, &majority, &dist, n);
        if !minority.is_empty()
            && frac <= config.max_reject_fraction
            && sep >= config.min_separation
        {
            rejected = minority;
            rejected.sort_unstable();
            accepted = majority;
            accepted.sort_unstable();
        }
    }

    // 3. Norm clipping to the median accepted norm.
    let mut kept: Vec<Scalar> = accepted
        .iter()
        .map(|&i| {
            cost.norm_passes += 1;
            norms[i]
        })
        .collect();
    let clip = median(&mut kept);
    if clip > 0.0 {
        for &i in &accepted {
            ops::clip_norm(&mut updates[i], clip);
            cost.norm_passes += 1;
        }
    }

    DefenseReport {
        accepted,
        rejected,
        clip_norm: clip,
        cost,
    }
}

/// Minimum pairwise distance between two clusters (single-linkage gap).
fn cluster_separation(a: &[usize], b: &[usize], dist: &[Scalar], n: usize) -> Scalar {
    let mut min = Scalar::INFINITY;
    for &i in a {
        for &j in b {
            min = min.min(dist[i * n + j]);
        }
    }
    if min.is_finite() {
        min
    } else {
        0.0
    }
}

/// Single-linkage agglomerative clustering stopping at two clusters.
/// O(n³) worst case, fine for group sizes ≤ a few dozen.
fn single_linkage_two_clusters(n: usize, dist: &[Scalar]) -> (Vec<usize>, Vec<usize>) {
    let mut cluster_of: Vec<usize> = (0..n).collect();
    let mut num_clusters = n;
    while num_clusters > 2 {
        // Find the closest pair of distinct clusters.
        let mut best = (0usize, 0usize, Scalar::INFINITY);
        for i in 0..n {
            for j in (i + 1)..n {
                if cluster_of[i] != cluster_of[j] && dist[i * n + j] < best.2 {
                    best = (cluster_of[i], cluster_of[j], dist[i * n + j]);
                }
            }
        }
        let (keep, merge, _) = best;
        for c in cluster_of.iter_mut() {
            if *c == merge {
                *c = keep;
            }
        }
        num_clusters -= 1;
    }
    let first = cluster_of[0];
    let mut a = Vec::new();
    let mut b = Vec::new();
    for (i, &c) in cluster_of.iter().enumerate() {
        if c == first {
            a.push(i);
        } else {
            b.push(i);
        }
    }
    (a, b)
}

/// Median of a mutable slice (averages the middle pair for even lengths).
fn median(xs: &mut [Scalar]) -> Scalar {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let mid = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[mid]
    } else {
        0.5 * (xs[mid - 1] + xs[mid])
    }
}

/// Whether every parameter of an update is finite — the NaN/±Inf gate the
/// training engine applies before both aggregation levels. A single
/// non-finite weight poisons any weighted sum it enters, so corrupt
/// updates must be rejected wholesale, not clipped.
pub fn is_update_finite(update: &[Scalar]) -> bool {
    update.iter().all(|w| w.is_finite())
}

/// Attacker: scales an update by `factor` (model-replacement style boost).
pub fn scale_attack(update: &mut [Scalar], factor: Scalar) {
    ops::scale(factor, update);
}

/// Attacker: flips the sign of an update (directed poisoning).
pub fn sign_flip_attack(update: &mut [Scalar]) {
    ops::scale(-1.0, update);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// [`filter_updates`] as it read before it took each norm once: every
    /// pair through `ops::cosine_similarity`, which recomputes both norms,
    /// and the clip threshold from fresh norms of the accepted updates.
    fn filter_updates_pairwise(
        updates: &mut [Vec<Scalar>],
        config: &DefenseConfig,
    ) -> DefenseReport {
        let n = updates.len();
        let mut cost = DefenseCost::default();
        let mut accepted: Vec<usize> = (0..n).collect();
        let mut rejected: Vec<usize> = Vec::new();
        if n >= 3 {
            let mut dist = vec![0.0f32; n * n];
            for i in 0..n {
                for j in (i + 1)..n {
                    let d = 1.0 - ops::cosine_similarity(&updates[i], &updates[j]);
                    cost.similarity_evals += 1;
                    dist[i * n + j] = d;
                    dist[j * n + i] = d;
                }
            }
            let (a, b) = single_linkage_two_clusters(n, &dist);
            let (minority, majority) = if a.len() <= b.len() { (a, b) } else { (b, a) };
            let frac = minority.len() as f64 / n as f64;
            let sep = cluster_separation(&minority, &majority, &dist, n);
            if !minority.is_empty()
                && frac <= config.max_reject_fraction
                && sep >= config.min_separation
            {
                rejected = minority;
                rejected.sort_unstable();
                accepted = majority;
                accepted.sort_unstable();
            }
        }
        let mut norms: Vec<Scalar> = accepted
            .iter()
            .map(|&i| {
                cost.norm_passes += 1;
                ops::norm(&updates[i])
            })
            .collect();
        let clip = if n == 0 { 0.0 } else { median(&mut norms) };
        if clip > 0.0 {
            for &i in &accepted {
                ops::clip_norm(&mut updates[i], clip);
                cost.norm_passes += 1;
            }
        }
        DefenseReport {
            accepted,
            rejected,
            clip_norm: clip,
            cost,
        }
    }

    proptest! {
        /// The filter against the pairwise reference, bit for bit: the
        /// report (clip threshold by its bits) and every clipped row, over
        /// groups of 0 to 9 updates where some are zero and some repeat an
        /// earlier one.
        #[test]
        fn filter_equals_the_pairwise_cosine_reference(
            d in 1usize..48,
            rows in proptest::collection::vec(
                (0u8..4, proptest::collection::vec(-4.0f32..4.0, 48), 0usize..9),
                0..10,
            ),
        ) {
            let mut updates: Vec<Vec<Scalar>> = Vec::new();
            for (kind, values, source) in rows {
                let row = match kind {
                    0 => vec![0.0; d],
                    1 if !updates.is_empty() => updates[source % updates.len()].clone(),
                    _ => values[..d].to_vec(),
                };
                updates.push(row);
            }
            let config = DefenseConfig::default();
            let mut reference = updates.clone();
            let want = filter_updates_pairwise(&mut reference, &config);
            let got = filter_updates(&mut updates, &config);
            prop_assert_eq!(&got.accepted, &want.accepted);
            prop_assert_eq!(&got.rejected, &want.rejected);
            prop_assert_eq!(got.cost, want.cost);
            prop_assert_eq!(got.clip_norm.to_bits(), want.clip_norm.to_bits());
            let bits = |rows: &[Vec<Scalar>]| -> Vec<Vec<u32>> {
                rows.iter().map(|r| r.iter().map(|w| w.to_bits()).collect()).collect()
            };
            prop_assert_eq!(bits(&updates), bits(&reference));
        }
    }

    /// Benign updates share a direction plus noise; attackers point elsewhere.
    fn benign_and_attacked(benign: usize, attackers: usize, d: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let base: Vec<f32> = (0..d).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut updates = Vec::new();
        for _ in 0..benign {
            let u: Vec<f32> = base
                .iter()
                .map(|&b| b + rng.gen_range(-0.1f32..0.1))
                .collect();
            updates.push(u);
        }
        for _ in 0..attackers {
            let mut u: Vec<f32> = base
                .iter()
                .map(|&b| -b + rng.gen_range(-0.1f32..0.1))
                .collect();
            scale_attack(&mut u, 10.0);
            updates.push(u);
        }
        updates
    }

    #[test]
    fn detects_coherent_attackers() {
        let mut updates = benign_and_attacked(8, 2, 32, 1);
        let report = filter_updates(&mut updates, &DefenseConfig::default());
        assert_eq!(report.rejected, vec![8, 9], "attackers sit at the tail");
        assert_eq!(report.accepted.len(), 8);
    }

    #[test]
    fn all_benign_accepts_everyone() {
        let mut updates = benign_and_attacked(10, 0, 16, 2);
        let report = filter_updates(&mut updates, &DefenseConfig::default());
        assert!(report.rejected.is_empty(), "rejected {:?}", report.rejected);
        assert_eq!(report.accepted.len(), 10);
    }

    #[test]
    fn clipping_bounds_all_accepted_norms() {
        let mut updates = benign_and_attacked(6, 0, 8, 3);
        // Inflate one benign update's magnitude (not direction).
        scale_attack(&mut updates[0], 50.0);
        let report = filter_updates(&mut updates, &DefenseConfig::default());
        for &i in &report.accepted {
            let n = ops::norm(&updates[i]);
            assert!(
                n <= report.clip_norm * 1.0001,
                "update {i} norm {n} exceeds clip {}",
                report.clip_norm
            );
        }
    }

    #[test]
    fn tiny_groups_pass_through() {
        let mut updates = vec![vec![1.0, 0.0], vec![-1.0, 0.0]];
        let report = filter_updates(&mut updates, &DefenseConfig::default());
        assert_eq!(report.accepted, vec![0, 1]);
        assert!(report.rejected.is_empty());
        assert_eq!(report.cost.similarity_evals, 0);
    }

    #[test]
    fn empty_input_is_safe() {
        let mut updates: Vec<Vec<f32>> = Vec::new();
        let report = filter_updates(&mut updates, &DefenseConfig::default());
        assert!(report.accepted.is_empty() && report.rejected.is_empty());
    }

    #[test]
    fn cost_is_quadratic_in_group_size() {
        for &n in &[4usize, 8, 16] {
            let mut updates = benign_and_attacked(n, 0, 8, 4);
            let report = filter_updates(&mut updates, &DefenseConfig::default());
            assert_eq!(
                report.cost.similarity_evals,
                (n * (n - 1) / 2) as u64,
                "n={n}"
            );
        }
    }

    #[test]
    fn never_rejects_majority() {
        // Even with an adversarial 50/50 split, the defense must not reject
        // half the group (max_reject_fraction gate).
        let mut updates = benign_and_attacked(5, 5, 16, 5);
        let report = filter_updates(&mut updates, &DefenseConfig::default());
        assert!(report.rejected.len() < updates.len() / 2 + 1);
        assert!(report.rejected.is_empty(), "50/50 split must be ambiguous");
    }

    #[test]
    fn sign_flip_is_involution() {
        let mut u = vec![1.0, -2.0, 3.0];
        sign_flip_attack(&mut u);
        assert_eq!(u, vec![-1.0, 2.0, -3.0]);
        sign_flip_attack(&mut u);
        assert_eq!(u, vec![1.0, -2.0, 3.0]);
    }

    #[test]
    fn finite_gate_accepts_normal_updates() {
        assert!(is_update_finite(&[1.0, -2.5, 0.0, f32::MIN, f32::MAX]));
        assert!(is_update_finite(&[]));
    }

    #[test]
    fn finite_gate_rejects_nan_and_infinities() {
        assert!(!is_update_finite(&[1.0, f32::NAN, 2.0]));
        assert!(!is_update_finite(&[f32::INFINITY]));
        assert!(!is_update_finite(&[0.0, f32::NEG_INFINITY]));
    }

    #[test]
    fn median_even_odd() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
    }
}
