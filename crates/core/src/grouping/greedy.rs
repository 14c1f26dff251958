//! The greedy skeleton of Algorithm 2 (described in `cov_grouping.rs`),
//! shared by every criterion that grows a group one best candidate at a
//! time: CoV, and the raw variance §5.1 argues against.
//!
//! Line 5 is the whole cost, so the remaining clients live in a [`Pool`] of
//! label-major `f64` columns that mirror `remaining` position for position,
//! scored a block of candidates at a time by `cov::cov_lanes` — the scalar
//! `*_with_candidate` arithmetic, one candidate per lane. The winner is the
//! first strict minimum in position order, which is what `Iterator::min_by`
//! returned when the scan was scalar.

use gfl_data::LabelMatrix;
use gfl_tensor::init::GflRng;
use gfl_tensor::Scalar;
use rand::Rng;

use crate::cov::{scan_lanes, Criterion};
use crate::Group;

/// The clients not yet grouped, and the histogram of the group being grown.
struct Pool {
    /// Position → client id, in `Vec::swap_remove` order.
    ids: Vec<usize>,
    /// `cols[j][pos]`: samples of label `j` held by the client at `pos`.
    cols: Vec<Vec<f64>>,
    /// Position → that client's total sample count.
    totals: Vec<f64>,
    /// The growing group's label counts.
    hist: Vec<f64>,
}

impl Pool {
    fn new(labels: &LabelMatrix) -> Self {
        let n = labels.num_clients();
        let totals: Vec<f64> = (0..n).map(|c| labels.client_total(c) as f64).collect();
        // Any group plus any candidate is at most everyone: exact in `f64`.
        assert!(
            totals.iter().sum::<f64>() <= (1u64 << 52) as f64,
            "more than 2^52 samples: counts are not exact as f64"
        );
        Self {
            ids: (0..n).collect(),
            cols: (0..labels.num_labels())
                .map(|j| (0..n).map(|c| f64::from(labels.client(c)[j])).collect())
                .collect(),
            totals,
            hist: vec![0.0; labels.num_labels()],
        }
    }

    /// Moves the client at `pos` into the group (the last client takes its
    /// place) and returns its id.
    fn take(&mut self, pos: usize) -> usize {
        for (h, col) in self.hist.iter_mut().zip(&mut self.cols) {
            *h += col.swap_remove(pos);
        }
        self.totals.swap_remove(pos);
        self.ids.swap_remove(pos)
    }

    /// Line 5 over the positions in `range`: the one whose client minimizes
    /// the criterion of `group ∪ {client}`, and that minimum.
    fn best<C: Criterion>(&self, range: std::ops::Range<usize>) -> (usize, Scalar) {
        let mut best = (range.start, Scalar::INFINITY);
        // Whole counts below 2^52: the sum is exact in any order.
        let total = self.hist.iter().sum();
        scan_lanes::<C>(
            &self.cols,
            &self.totals,
            range,
            &self.hist,
            total,
            |pos, v| {
                if v < best.1 {
                    best = (pos, v);
                }
            },
        );
        best
    }
}

/// Groups of at least `min_group_size` (the last may fall short when the
/// pool runs dry), each grown until criterion `C` is at most `target` or
/// stops improving. `accepted` sees every Line-6 value, for the tests.
pub(super) fn form_groups<C: Criterion>(
    labels: &LabelMatrix,
    rng: &mut GflRng,
    min_group_size: usize,
    target: Scalar,
    mut accepted: impl FnMut(Scalar),
) -> Vec<Group> {
    assert!(min_group_size >= 1, "MinGS must be at least 1");
    let mut pool = Pool::new(labels);
    let mut groups: Vec<Group> = Vec::new();

    while !pool.ids.is_empty() {
        // Line 3: a random seed, scored as its lane against the empty group.
        pool.hist.fill(0.0);
        let seed_pos = rng.gen_range(0..pool.ids.len());
        let mut value = pool.best::<C>(seed_pos..seed_pos + 1).1;
        let mut group = vec![pool.take(seed_pos)];

        // Line 4: grow while the group misses either requirement.
        while (value > target || group.len() < min_group_size) && !pool.ids.is_empty() {
            let (best_pos, best) = pool.best::<C>(0..pool.ids.len());
            // Line 6: accept if it improves the criterion or the group is
            // still too small to finalize.
            if best < value || group.len() < min_group_size {
                group.push(pool.take(best_pos));
                value = best;
                accepted(best);
            } else {
                // Line 9: no improving candidate and size satisfied.
                break;
            }
        }
        groups.push(group);
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cov::{cov_with_candidate, histogram_cov, Cov};
    use crate::grouping::variance::{histogram_variance, Variance};
    use gfl_tensor::init;
    use proptest::prelude::*;

    type WithCandidate = fn(&LabelMatrix, &[u64], usize) -> Scalar;

    /// The scalar Line-5 evaluation under the variance criterion, as
    /// `variance.rs` had it (`cov_with_candidate` with the finish swapped).
    fn variance_with_candidate(labels: &LabelMatrix, hist: &[u64], candidate: usize) -> Scalar {
        let cand = labels.client(candidate);
        let m = hist.len();
        if m == 0 {
            return Scalar::INFINITY;
        }
        let mut total = 0u64;
        for (&h, &c) in hist.iter().zip(cand.iter()) {
            total += h + c as u64;
        }
        let mean = total as f64 / m as f64;
        let mut ss = 0.0f64;
        for (&h, &c) in hist.iter().zip(cand.iter()) {
            let d = (h + c as u64) as f64 - mean;
            ss += d * d;
        }
        (ss / m as f64) as Scalar
    }

    /// Algorithm 2 as it was written before the candidate pool — every
    /// remaining client scored by a scalar `*_with_candidate` through the
    /// `LabelMatrix`, `min_by` picking the winner. The reference the lane
    /// scan must equal: the partition, and every accepted Line-6 value.
    fn oracle(
        labels: &LabelMatrix,
        rng: &mut GflRng,
        min_group_size: usize,
        target: Scalar,
        of: fn(&[u64]) -> Scalar,
        with_candidate: WithCandidate,
    ) -> (Vec<Group>, Vec<Scalar>) {
        let mut remaining: Vec<usize> = (0..labels.num_clients()).collect();
        let mut groups: Vec<Group> = Vec::new();
        let mut accepted = Vec::new();
        while !remaining.is_empty() {
            let seed_pos = rng.gen_range(0..remaining.len());
            let seed = remaining.swap_remove(seed_pos);
            let mut group = vec![seed];
            let mut hist = vec![0u64; labels.num_labels()];
            labels.add_client_into(seed, &mut hist);
            let mut value = of(&hist);
            while (value > target || group.len() < min_group_size) && !remaining.is_empty() {
                let (best_pos, best) = remaining
                    .iter()
                    .enumerate()
                    .map(|(pos, &c)| (pos, with_candidate(labels, &hist, c)))
                    .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
                    .expect("remaining is non-empty");
                if best < value || group.len() < min_group_size {
                    let c = remaining.swap_remove(best_pos);
                    labels.add_client_into(c, &mut hist);
                    group.push(c);
                    value = best;
                    accepted.push(best);
                } else {
                    break;
                }
            }
            groups.push(group);
        }
        (groups, accepted)
    }

    /// Lane formation under `C` ≡ the oracle under `C`'s scalar functions,
    /// over every MinGS in {1, 3, n + 1} and every target.
    fn assert_criterion_matches<C: Criterion>(
        labels: &LabelMatrix,
        seed: u64,
        targets: [Scalar; 3],
        of: fn(&[u64]) -> Scalar,
        with_candidate: WithCandidate,
    ) {
        // A seed's own value is its lane against the empty group.
        let pool = Pool::new(labels);
        for pos in 0..labels.num_clients() {
            let alone = of(&labels.group_histogram(&[pos]));
            assert_eq!(pool.best::<C>(pos..pos + 1).1.to_bits(), alone.to_bits());
        }
        for min in [1, 3, labels.num_clients() + 1] {
            for target in targets {
                let mut got = Vec::new();
                let groups = form_groups::<C>(labels, &mut init::rng(seed), min, target, |v| {
                    got.push(v.to_bits())
                });
                let rng = &mut init::rng(seed);
                let (want_groups, want) = oracle(labels, rng, min, target, of, with_candidate);
                assert_eq!(groups, want_groups, "MinGS {min} target {target}");
                assert_eq!(got, want.iter().map(|v| v.to_bits()).collect::<Vec<_>>());
            }
        }
    }

    /// Both criteria: MaxCoV ∈ {0, 0.5, ∞}, max variance ∈ {0, 40, ∞}.
    fn assert_matches_oracle(labels: &LabelMatrix, seed: u64) {
        let inf = Scalar::INFINITY;
        assert_criterion_matches::<Cov>(
            labels,
            seed,
            [0.0, 0.5, inf],
            histogram_cov,
            cov_with_candidate,
        );
        assert_criterion_matches::<Variance>(
            labels,
            seed,
            [0.0, 40.0, inf],
            histogram_variance,
            variance_with_candidate,
        );
    }

    /// 1–49 clients (mostly not a multiple of the lane width) over `m` ∈
    /// 1..=12 or 35 labels; about a third are copies of a few palette rows
    /// (ties, which must go to the first position) and an eighth hold
    /// nothing (a zero total is `inf` under CoV, 0 under variance).
    fn arb_matrix() -> impl Strategy<Value = LabelMatrix> {
        (0usize..13, 1usize..50).prop_flat_map(|(mi, n)| {
            let m = if mi == 12 { 35 } else { mi + 1 };
            let row = || proptest::collection::vec(0u32..400, m);
            (
                proptest::collection::vec(row(), 1..5),
                proptest::collection::vec((0usize..8, row()), n),
            )
                .prop_map(move |(palette, picks)| {
                    let counts = picks
                        .into_iter()
                        .map(|(kind, own)| match kind {
                            0..=2 => palette[kind % palette.len()].clone(),
                            3 => vec![0; m],
                            _ => own,
                        })
                        .collect();
                    LabelMatrix::new(counts, m)
                })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn prop_lane_formation_is_the_scalar_formation(
            labels in arb_matrix(),
            seed in 0u64..1 << 20,
        ) {
            assert_matches_oracle(&labels, seed);
        }
    }

    #[test]
    fn identical_clients_tie_to_the_first_position() {
        // Every candidate scores the same at every step, so each pick is
        // position 0 of the pool as `swap_remove` has left it.
        for n in [7, 8, 9, 17] {
            let labels = LabelMatrix::new(vec![vec![3, 0, 5]; n], 3);
            assert_matches_oracle(&labels, n as u64);
        }
    }

    #[test]
    fn empty_and_label_free_populations_match_too() {
        assert_matches_oracle(&LabelMatrix::new(Vec::new(), 4), 1);
        assert_matches_oracle(&LabelMatrix::new(vec![Vec::new(); 11], 0), 2);
        assert_matches_oracle(&LabelMatrix::new(vec![vec![0, 0]; 10], 2), 3);
    }
}
