//! The greedy skeleton of Algorithm 2 (described in `cov_grouping.rs`),
//! shared by every criterion that grows a group one best candidate at a
//! time: CoV, and the raw variance §5.1 argues against.
//!
//! Line 5 is the whole cost, so the remaining clients live in a [`Pool`] of
//! label-major `f64` columns that mirror `remaining` position for position.
//! Each candidate first gets a key built from exact integers: with the
//! group's counts `h`, the candidate's `c` and `x = h + c` over `m` labels,
//! `n = m·Σ x_j² − T²` is m²·σ² of `x`. Its `Σ x_j²` is `Σ h_j²` plus
//! `2·Σ h_j·c_j` plus `Σ c_j²`, and the pool keeps the last two sums per
//! candidate (the cross term is updated as clients join the group).
//! `Criterion::key` turns `n` into CoV² or a multiple of σ² with one
//! division at most. Only the candidates whose key lies within a proven
//! margin of the smallest are scored with `cov::cov_lanes` — the scalar
//! `*_with_candidate` arithmetic — and the winner is the first strict
//! minimum of those scores in position order, which is what
//! `Iterator::min_by` returned when every candidate was scored. The margin
//! exceeds every rounding between the key and the score (docs/PERF.md
//! "Formation"), so a candidate it drops scores more than the best; where
//! the sums could stop being exact integers the margin is infinite and
//! every candidate is scored.

use gfl_data::LabelMatrix;
use gfl_tensor::init::GflRng;
use gfl_tensor::Scalar;
use rand::Rng;

use crate::cov::{scan_lanes, Criterion, LANES};
use crate::Group;

/// Relative margin of the key screen, 2⁻¹⁶: the exact score of a candidate
/// whose key exceeds the smallest by more than this (plus [`KEY_DELTA`]) is
/// larger than the score of the candidate with the smallest key. The
/// rounding it must cover is below 2⁻²¹ (docs/PERF.md "Formation").
const KEY_EPSILON: f64 = 1.0 / (1u64 << 16) as f64;

/// Absolute margin of the key screen, 2⁻⁴⁰: covers the shift of a score
/// near 0, where `x − mu` loses relative accuracy (below 2⁻⁵³ in key units).
const KEY_DELTA: f64 = 1.0 / (1u64 << 40) as f64;

/// The clients not yet grouped, and the histogram of the group being grown.
struct Pool {
    /// Position → client id, in `Vec::swap_remove` order.
    ids: Vec<usize>,
    /// `cols[j][pos]`: samples of label `j` held by the client at `pos`.
    cols: Vec<Vec<f64>>,
    /// Position → that client's total sample count.
    totals: Vec<f64>,
    /// Position → `Σ_j cols[j][pos]²`.
    squares: Vec<f64>,
    /// Position → `Σ_j hist[j]·cols[j][pos]`, kept as the group grows.
    cross: Vec<f64>,
    /// Position → the key of the last [`Pool::best`] (scratch).
    keys: Vec<f64>,
    /// The labels and counts of the client last taken (scratch).
    joined: Vec<(usize, f64)>,
    /// The growing group's label counts.
    hist: Vec<f64>,
    /// `Σ_j hist[j]²`.
    hist_squares: f64,
    /// [`KEY_DELTA`] while every key is an exact integer, `inf` otherwise.
    key_delta: f64,
    /// Candidates keyed and candidates scored exactly.
    #[cfg(test)]
    tally: (usize, usize),
}

impl Pool {
    fn new(labels: &LabelMatrix) -> Self {
        let n = labels.num_clients();
        let m = labels.num_labels();
        let totals: Vec<f64> = (0..n).map(|c| labels.client_total(c) as f64).collect();
        // Any group plus any candidate is at most everyone: exact in `f64`.
        assert!(
            totals.iter().sum::<f64>() <= (1u64 << 52) as f64,
            "more than 2^52 samples: counts are not exact as f64"
        );
        // `m·Σ x_j² ≤ m·T²` and `T²` are exact below 2⁵³, and the margin's
        // error bound holds up to 2²⁰ labels; past either, score everyone.
        let total = u128::from(labels.total());
        let exact = m <= 1 << 20 && (m as u128 + 1).saturating_mul(total * total) < 1 << 53;
        let squares = (0..n)
            .map(|c| {
                labels
                    .client(c)
                    .iter()
                    .map(|&x| f64::from(x) * f64::from(x))
                    .sum()
            })
            .collect();
        Self {
            ids: (0..n).collect(),
            cols: (0..m)
                .map(|j| (0..n).map(|c| f64::from(labels.client(c)[j])).collect())
                .collect(),
            totals,
            squares,
            cross: vec![0.0; n],
            keys: vec![0.0; n],
            joined: Vec::with_capacity(m),
            hist: vec![0.0; m],
            hist_squares: 0.0,
            key_delta: if exact { KEY_DELTA } else { f64::INFINITY },
            #[cfg(test)]
            tally: (0, 0),
        }
    }

    /// Empties the group being grown.
    fn clear_group(&mut self) {
        self.hist.fill(0.0);
        self.cross.fill(0.0);
        self.hist_squares = 0.0;
    }

    /// Moves the client at `pos` into the group (the last client takes its
    /// place) and returns its id.
    fn take(&mut self, pos: usize) -> usize {
        self.totals.swap_remove(pos);
        self.squares.swap_remove(pos);
        self.cross.swap_remove(pos);
        self.joined.clear();
        for (j, (h, col)) in self.hist.iter_mut().zip(&mut self.cols).enumerate() {
            let w = col.swap_remove(pos);
            *h += w;
            if w != 0.0 {
                self.joined.push((j, w));
            }
        }
        // Two labels a pass over the column. Every sum is an exact integer,
        // so how the additions are grouped changes no bit.
        for pair in self.joined.chunks(2) {
            if let [(i, v), (j, w)] = *pair {
                let cols = self.cols[i].iter().zip(&self.cols[j]);
                for (g, (&a, &b)) in self.cross.iter_mut().zip(cols) {
                    *g += v * a + w * b;
                }
            } else {
                let (j, w) = pair[0];
                for (g, &c) in self.cross.iter_mut().zip(&self.cols[j]) {
                    *g += w * c;
                }
            }
        }
        self.hist_squares = self.hist.iter().map(|&h| h * h).sum();
        self.ids.swap_remove(pos)
    }

    /// Line 5 over the positions in `range`: the one whose client minimizes
    /// the criterion of `group ∪ {client}`, and that minimum.
    fn best<C: Criterion>(&mut self, range: std::ops::Range<usize>) -> (usize, Scalar) {
        // Whole counts below 2^52: the sum is exact in any order.
        let total = self.hist.iter().sum();
        let m = self.cols.len() as f64;
        let keys = &mut self.keys[range.clone()];
        let candidates = self.totals[range.clone()]
            .iter()
            .zip(&self.squares[range.clone()])
            .zip(&self.cross[range.clone()]);
        for (key, ((&t, &cc), &g)) in keys.iter_mut().zip(candidates) {
            let t = t + total;
            *key = C::key(m * (self.hist_squares + 2.0 * g + cc) - t * t, t);
        }
        let bound = smallest(keys) * (1.0 + KEY_EPSILON) + self.key_delta;
        #[cfg(test)]
        {
            self.tally.0 += range.len();
        }

        let mut best = (range.start, Scalar::INFINITY);
        for (b, block) in keys.chunks(LANES).enumerate() {
            if !block.iter().fold(false, |any, &key| any | (key <= bound)) {
                continue;
            }
            for (i, &key) in block.iter().enumerate() {
                if key <= bound {
                    #[cfg(test)]
                    {
                        self.tally.1 += 1;
                    }
                    let pos = range.start + b * LANES + i;
                    scan_lanes::<C>(
                        &self.cols,
                        &self.totals,
                        pos..pos + 1,
                        &self.hist,
                        total,
                        |pos, v| {
                            if v < best.1 {
                                best = (pos, v);
                            }
                        },
                    );
                }
            }
        }
        best
    }
}

/// The smallest of `keys`, a block of [`LANES`] at a time so that the
/// comparisons run side by side.
fn smallest(keys: &[f64]) -> f64 {
    let min = |a: f64, b: f64| if b < a { b } else { a };
    let mut lanes = [f64::INFINITY; LANES];
    let mut blocks = keys.chunks_exact(LANES);
    for block in &mut blocks {
        for (lane, &key) in lanes.iter_mut().zip(block) {
            *lane = min(*lane, key);
        }
    }
    blocks
        .remainder()
        .iter()
        .chain(&lanes)
        .fold(f64::INFINITY, |a, &b| min(a, b))
}

/// Groups of at least `min_group_size` (the last may fall short when the
/// pool runs dry), each grown until criterion `C` is at most `target` or
/// stops improving. `accepted` sees every Line-6 value, for the tests.
pub(super) fn form_groups<C: Criterion>(
    labels: &LabelMatrix,
    rng: &mut GflRng,
    min_group_size: usize,
    target: Scalar,
    accepted: impl FnMut(Scalar),
) -> Vec<Group> {
    grow_groups::<C>(
        &mut Pool::new(labels),
        rng,
        min_group_size,
        target,
        accepted,
    )
}

/// [`form_groups`] over the clients in `pool`.
fn grow_groups<C: Criterion>(
    pool: &mut Pool,
    rng: &mut GflRng,
    min_group_size: usize,
    target: Scalar,
    mut accepted: impl FnMut(Scalar),
) -> Vec<Group> {
    assert!(min_group_size >= 1, "MinGS must be at least 1");
    let mut groups: Vec<Group> = Vec::new();

    while !pool.ids.is_empty() {
        // Line 3: a random seed, scored as its lane against the empty group.
        pool.clear_group();
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
        let mut pool = Pool::new(labels);
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

    /// 64–300 clients over `m` ∈ {1, 2, 10, 35} labels, rows about half
    /// zeros (as under α = 0.1), with near-ties planted around a small
    /// palette: label-rotated copies (the same key, a different `ss`
    /// order), multiples `k·r`, complements `400 − r` (a pair whose group
    /// has CoV 0), balanced rows (CoV 0 alone) and all-zero rows.
    fn wide_matrix(m: usize, n: usize, seed: u64) -> LabelMatrix {
        let rng = &mut init::rng(seed);
        let sparse = |rng: &mut GflRng| -> Vec<u32> {
            (0..m)
                .map(|_| {
                    if rng.gen_bool(0.5) {
                        rng.gen_range(0..400)
                    } else {
                        0
                    }
                })
                .collect()
        };
        let palette: Vec<Vec<u32>> = (0..4).map(|_| sparse(rng)).collect();
        let counts = (0..n)
            .map(|_| {
                let row = &palette[rng.gen_range(0..palette.len())];
                match rng.gen_range(0..8) {
                    0 => {
                        let mut rotated = row.clone();
                        rotated.rotate_left(rng.gen_range(0..m));
                        rotated
                    }
                    1 => {
                        let k: u32 = rng.gen_range(1..4);
                        row.iter().map(|&x| k * x).collect()
                    }
                    2 => row.iter().map(|&x| 400 - x).collect(),
                    3 => vec![rng.gen_range(1..50); m],
                    4 => vec![0; m],
                    _ => sparse(rng),
                }
            })
            .collect();
        LabelMatrix::new(counts, m)
    }

    /// The key screen against the oracle on populations large enough that
    /// most candidates are screened out.
    fn assert_wide_matches_oracle(mi: usize, n: usize, seed: u64) {
        let m = [1, 2, 10, 35][mi];
        assert_matches_oracle(&wide_matrix(m, n, seed), seed);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn prop_screened_formation_is_the_scalar_formation(
            mi in 0usize..4,
            n in 64usize..301,
            seed in 0u64..1 << 20,
        ) {
            assert_wide_matches_oracle(mi, n, seed);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        /// The property above at depth, for CI's release run:
        /// `cargo test --release -p gfl-core -- --ignored
        /// prop_screened_formation_is_the_scalar_formation_deep`.
        #[test]
        #[ignore]
        fn prop_screened_formation_is_the_scalar_formation_deep(
            mi in 0usize..4,
            n in 64usize..301,
            seed in 0u64..1 << 20,
        ) {
            assert_wide_matches_oracle(mi, n, seed);
        }
    }

    #[test]
    fn scores_that_tie_in_f32_go_to_the_first_position_whatever_their_keys() {
        // Position 1 is position 0 with one sample moved between two labels
        // of equal count: its key is smaller by 2m (in units of T² under
        // CoV), far below one f32 step of either score, so both scores
        // narrow to the same f32 and the first position must win — the
        // margin keeps position 0 in contention.
        let mut tied: Vec<u32> = vec![1 << 20, 1 << 20, 300_000, 300_007, 250_000];
        tied.extend([200_003, 150_000, 100_001, 60_000, 9]);
        let mut moved = tied.clone();
        moved[0] += 1;
        moved[1] -= 1;
        let mut filler = vec![0; 10];
        filler[3] = 3_000_000;
        let labels = LabelMatrix::new(vec![moved, tied, filler.clone(), filler], 10);
        assert_first_of_tied::<Cov>(&labels, cov_with_candidate);
        assert_first_of_tied::<Variance>(&labels, variance_with_candidate);
    }

    /// Positions 0 and 1 of `labels` score the same under `C` with different
    /// keys, and position 0 wins against the empty group.
    fn assert_first_of_tied<C: Criterion>(labels: &LabelMatrix, with_candidate: WithCandidate) {
        let score = |c| with_candidate(labels, &vec![0; labels.num_labels()], c).to_bits();
        assert_eq!(score(0), score(1), "the premise: an f32 tie");
        let mut pool = Pool::new(labels);
        let n = labels.num_clients();
        assert_eq!(pool.best::<C>(0..n), (0, Scalar::from_bits(score(0))));
        assert!(pool.keys[0] > pool.keys[1], "the premise: keys differ");
    }

    #[test]
    fn counts_too_large_for_exact_keys_score_every_candidate() {
        // Per-label counts of 2^27 and more: T² passes 2^53, the screen's
        // margin is infinite, and the result is still the oracle's.
        let small = wide_matrix(10, 64, 9);
        let counts = (0..small.num_clients())
            .map(|c| {
                small
                    .client(c)
                    .iter()
                    .map(|&x| (1 << 27) + 4096 * x)
                    .collect()
            })
            .collect();
        let labels = LabelMatrix::new(counts, 10);
        let mut pool = Pool::new(&labels);
        assert_eq!(pool.key_delta, f64::INFINITY);
        grow_groups::<Cov>(&mut pool, &mut init::rng(9), 3, 0.0, |_| {});
        assert_eq!(pool.tally.0, pool.tally.1, "every candidate scored");
        assert_matches_oracle(&labels, 9);
    }

    #[test]
    fn the_key_screen_leaves_under_one_percent_at_the_secure_covg_shape() {
        // `secure-covg`'s smoke shape: 2 400 virtual clients, 4 edges,
        // MinGS 10, MaxCoV 0.5.
        let pop = gfl_data::VirtualPopulation::new(gfl_data::VirtualSpec {
            data: gfl_data::SyntheticSpec::vision_like(),
            ..gfl_data::VirtualSpec::paper_vision(2400, 0.1, 1)
        });
        let sizes = (0..2400).map(|c| pop.client_size(c)).collect();
        let topology = gfl_sim::Topology::even_split(4, sizes);
        let (mut keyed, mut scored) = (0, 0);
        for edge in 0..4 {
            let local = pop.label_matrix().restrict(topology.clients_of(edge));
            let mut pool = Pool::new(&local);
            assert_eq!(pool.key_delta, KEY_DELTA);
            grow_groups::<Cov>(&mut pool, &mut init::rng(edge as u64), 10, 0.5, |_| {});
            keyed += pool.tally.0;
            scored += pool.tally.1;
        }
        assert!(keyed > 100_000, "{keyed} candidates keyed");
        assert!(scored * 100 < keyed, "{scored} of {keyed} scored exactly");
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
