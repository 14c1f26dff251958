//! Categorical draws as whole-column passes.
//!
//! One draw of a categorical distribution over `weights` (summing to
//! `total > 0`) is a scalar chain: `t = u·total` for one 53-bit uniform
//! `u`, then `t -= w[i]` for `i = 0, 1, …` until the first `t <= 0`, whose
//! `i` is the label; a draw that never gets there (rounding, NaN) takes the
//! last label. [`draw`] runs `n` such chains as columns:
//!
//! - one `fill_bytes` of `8n` bytes reads the `n` words that `n` calls of
//!   `gen::<f64>()` read, in the same order, and `t = uniform(word)·total`
//!   is that call's uniform times `total`, one rounding;
//! - then one pass per weight `i` but the last over all `n` draws:
//!   `t -= w`; a draw is *alive* after it if it was alive before it
//!   (`outlived == i`) and `!(t <= 0)`, and then `outlived += 1`; the
//!   pass's integer sum of those alive is `A(i)`.
//!
//! Every draw performs the scalar chain's subtractions in the scalar
//! order, so its `t` is the scalar `t` after every weight, and it dies at
//! its *first* `t <= 0` and never comes back. A draw's label is therefore
//! the number of weights it outlived (`outlived`), and the last weight
//! needs no pass: a draw alive after all the others takes the last label
//! whatever its `t`. Nor does any weight after a pass that leaves no draw
//! alive (at α = 0.1 the trailing weights are often negligible): the
//! passes stop there, and the weights left get `A(i) = 0`. NaN `t`
//! compares false and stays alive, as in the scalar loop, so zero,
//! negative, NaN, infinite and subnormal weights all give the scalar
//! labels. The column sums give the counts without a per-draw scatter:
//! label `i` is drawn by the `A(i−1) − A(i)` draws that were alive before
//! weight `i` and not after (`A(−1) = n`), and the last label by the
//! `A(last − 1)` that are left. Weights that sum to `<= 0` take the scalar
//! sampler's other branch, one `gen_range` per draw on the same words.
//!
//! The passes are plain code over `f64` and `u64` columns of one width, so
//! each tier compiles them for its own vectors (as it does the normals
//! kernel); integer sums reassociate, so the `A(i)` sum vectorises where a
//! float sum would stay a chain, and no draw writes to a slot chosen by
//! its label. `categorical_columns_equal_the_scalar_chain` holds every tier
//! to the scalar oracle on any weights, `a_t_of_exactly_zero_takes_that_label`
//! pins the `<=`, and `counts_are_the_histogram_of_the_labels` ties the two
//! outputs together.

use rand::{Rng, RngCore};

use super::normals::uniform;
use crate::init::WideRng;

/// The columns are padded to a multiple of `LANES` draws (one AVX-512
/// vector of `f64`, two AVX2 ones) that are never alive, so a pass ends on
/// whole vectors, not a scalar tail. At the population's rows (110 draws
/// over 10 classes, keystream included) columns of exactly `n` draws took
/// 4.6–4.8 ns a draw at AVX-512 and 5.5–6.4 at AVX2, against 3.8–4.4 and
/// 4.3–4.4 padded (five alternating runs each, 2-vCPU AVX-512 VM).
const LANES: usize = 8;

/// The columns of [`draw`], one slot per draw, kept by the caller (one set
/// per worker) so that a draw allocates nothing once they have grown.
#[derive(Debug, Clone, Default)]
pub struct CategoricalColumns {
    /// The draws' words, little-endian.
    words: Vec<u8>,
    /// Each draw's running `t`.
    t: Vec<f64>,
    /// The weights each draw outlived: its label. A draw is alive before
    /// weight `i` iff it outlived all `i` before it; padding never is.
    outlived: Vec<u64>,
    /// Per weight but the last, how many draws are alive after it.
    survivors: Vec<u64>,
}

/// Draws `n` labels from `weights` into `columns`: true if the column
/// passes ran, false if `weights` sum to `<= 0`, in which case `sink` got
/// each of the `n` `gen_range` labels in draw order instead.
fn draw(
    rng: &mut WideRng,
    n: usize,
    weights: &[f64],
    columns: &mut CategoricalColumns,
    mut sink: impl FnMut(usize),
) -> bool {
    assert!(!weights.is_empty(), "a categorical draw needs a weight");
    let total: f64 = weights.iter().sum();
    if total <= 0.0 {
        for _ in 0..n {
            sink(rng.gen_range(0..weights.len()));
        }
        return false;
    }
    let CategoricalColumns {
        words,
        t,
        outlived,
        survivors,
    } = columns;
    let padded = n.next_multiple_of(LANES);
    words.resize(8 * padded, 0);
    rng.fill_bytes(&mut words[..8 * n]);
    t.resize(padded, 0.0);
    outlived.resize(padded, 0);
    survivors.resize(weights.len() - 1, 0);
    super::categorical_passes(columns, n, total, weights);
    true
}

/// The passes of [`draw`] over columns already padded for `n` draws and
/// sized to `weights.len() − 1` survivor counts (module docs).
#[inline(always)]
pub(crate) fn passes(columns: &mut CategoricalColumns, n: usize, total: f64, weights: &[f64]) {
    let CategoricalColumns {
        words,
        t,
        outlived,
        survivors,
    } = columns;
    for (t, word) in t.iter_mut().zip(words.chunks_exact(8)) {
        *t = uniform(u64::from_le_bytes(word.try_into().expect("8 bytes"))) * total;
    }
    let (live, padding) = outlived.split_at_mut(n);
    live.fill(0);
    padding.fill(u64::MAX);
    // One flat loop per weight, which the vectoriser lays across whole
    // vectors. (Blocks of `LANES` with an inner lane loop are vectorised
    // across the blocks instead, with a gather and a scatter per column.)
    let mut passes = survivors.iter_mut().zip(weights).enumerate();
    for (i, (after, &w)) in &mut passes {
        let i = i as u64;
        let mut alive = 0u64;
        for (t, outlived) in t.iter_mut().zip(outlived.iter_mut()) {
            *t -= w;
            // `!(t <= 0)`, not `t > 0`: a NaN `t` stays alive.
            #[allow(clippy::neg_cmp_op_on_partial_ord)]
            let lives = u64::from((*outlived == i) & !(*t <= 0.0));
            *outlived += lives;
            alive += lives;
        }
        *after = alive;
        if alive == 0 {
            // Every draw has its label; the passes left would change none.
            break;
        }
    }
    passes.for_each(|(_, (after, _))| *after = 0);
}

/// Appends to `out` the next `n` draws of the categorical distribution
/// proportional to `weights`, in draw order: what `n` calls of the scalar
/// chain `t = gen::<f64>()·Σw`, then `t -= w[i]` until the first `t <= 0`
/// (the last index if none), would draw from `rng`, on the same words —
/// or, if `Σw <= 0`, of `gen_range(0..weights.len())`. Runs as whole-column
/// passes on the active SIMD tier, in `columns`, which the caller keeps
/// across calls.
pub fn categorical_labels(
    rng: &mut WideRng,
    n: usize,
    weights: &[f64],
    columns: &mut CategoricalColumns,
    out: &mut Vec<usize>,
) {
    out.reserve(n);
    if draw(rng, n, weights, columns, |label| out.push(label)) {
        out.extend(columns.outlived[..n].iter().map(|&label| label as usize));
    }
}

/// Adds the histogram of the [`categorical_labels`] draws into `counts`
/// (one slot per weight), without a per-draw scatter.
pub fn categorical_counts(
    rng: &mut WideRng,
    n: usize,
    weights: &[f64],
    columns: &mut CategoricalColumns,
    counts: &mut [u32],
) {
    assert_eq!(counts.len(), weights.len(), "count arity mismatch");
    if !draw(rng, n, weights, columns, |label| counts[label] += 1) {
        return;
    }
    let mut before = n as u64;
    for (count, &after) in counts.iter_mut().zip(&columns.survivors) {
        *count += (before - after) as u32;
        before = after;
    }
    *counts.last_mut().expect("one weight at least") += before as u32;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::{self, WideRng};
    use crate::simd::{set_tier, supported_tiers};
    use proptest::prelude::*;

    /// One step of the 53-bit uniform, 2⁻⁵³.
    const U: f64 = 1.0 / (1u64 << 53) as f64;

    /// One draw of the scalar chain — the statement [`draw`] runs as
    /// columns, kept as its oracle.
    fn sample_categorical(rng: &mut impl Rng, weights: &[f64], total: f64) -> usize {
        if total <= 0.0 {
            return rng.gen_range(0..weights.len());
        }
        let mut t = rng.gen::<f64>() * total;
        for (i, &w) in weights.iter().enumerate() {
            t -= w;
            if t <= 0.0 {
                return i;
            }
        }
        weights.len() - 1
    }

    /// `n` oracle draws from `reader`, and the word it stops at.
    fn oracle(mut reader: WideRng, n: usize, weights: &[f64]) -> (Vec<usize>, u128) {
        let total: f64 = weights.iter().sum();
        let labels = (0..n)
            .map(|_| sample_categorical(&mut reader, weights, total))
            .collect();
        (labels, reader.word_pos())
    }

    fn histogram(labels: &[usize], classes: usize) -> Vec<u32> {
        let mut counts = vec![0u32; classes];
        labels.iter().for_each(|&label| counts[label] += 1);
        counts
    }

    /// The kernel's labels and counts from `make()` at every tier, held to
    /// the oracle's draws and the oracle's stopping word.
    fn assert_oracle(what: &str, n: usize, weights: &[f64], make: impl Fn() -> WideRng) {
        let (want, end) = oracle(make(), n, weights);
        let want_counts = histogram(&want, weights.len());
        let mut columns = CategoricalColumns::default();
        for tier in supported_tiers() {
            let prev = set_tier(tier);
            let mut reader = make();
            let mut got = vec![usize::MAX; 3];
            categorical_labels(&mut reader, n, weights, &mut columns, &mut got);
            let labels_end = reader.word_pos();
            let mut reader = make();
            let mut got_counts = vec![0u32; weights.len()];
            categorical_counts(&mut reader, n, weights, &mut columns, &mut got_counts);
            set_tier(prev);
            let tier = tier.name();
            assert_eq!(&got[3..], &want[..], "{what} tier={tier}: labels");
            assert_eq!(labels_end, end, "{what} tier={tier}: labels' words");
            assert_eq!(got_counts, want_counts, "{what} tier={tier}: counts");
            assert_eq!(reader.word_pos(), end, "{what} tier={tier}: counts' words");
        }
    }

    /// One weight: mostly ordinary, sometimes each thing a weight should
    /// never be.
    fn weight() -> impl Strategy<Value = f64> {
        (0u8..16, 0.0f64..1.0).prop_map(|(kind, x)| match kind {
            0 | 1 => 0.0,
            2 => -x,
            3 => f64::NAN,
            4 => f64::INFINITY,
            5 => f64::NEG_INFINITY,
            6 => f64::MIN_POSITIVE * x,
            7 => -0.0,
            8 => x * 1e300,
            _ => x,
        })
    }

    /// Weight vectors of 1..=40 classes: as drawn, all zero, or zero but
    /// for one class.
    fn weights() -> impl Strategy<Value = Vec<f64>> {
        (
            proptest::collection::vec(weight(), 1..41),
            0u8..6,
            0usize..40,
        )
            .prop_map(|(mut w, shape, hot)| {
                let hot = hot % w.len();
                match shape {
                    0 => w.fill(0.0),
                    1 => {
                        let keep = w[hot];
                        w.fill(0.0);
                        w[hot] = keep;
                    }
                    _ => {}
                }
                w
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The columns are the scalar chain, draw for draw, for any weights
        /// and any `n` (most not a multiple of a vector), from any word of
        /// the stream, window boundaries included — labels, counts and the
        /// word the reader stops at.
        #[test]
        fn categorical_columns_equal_the_scalar_chain(
            w in weights(),
            n in 0usize..301,
            seed in 0u64..u64::MAX,
            skip in 0u64..600,
        ) {
            assert_oracle("stream", n, &w, || WideRng::at_word_pos(seed, skip.into()));
        }
    }

    /// The counts are the histogram of the ordered labels, shape for
    /// shape, at every tier, across a reused set of columns.
    #[test]
    fn counts_are_the_histogram_of_the_labels() {
        let mut columns = CategoricalColumns::default();
        let mut mix = [0.0; 10];
        for tier in supported_tiers() {
            let prev = set_tier(tier);
            for (seed, n) in (0..40u64).zip([0, 1, 7, 8, 9, 16, 17, 110, 200, 300].iter().cycle()) {
                init::dirichlet_symmetric_into(&mut init::rng(seed), 0.1, &mut mix);
                let mut ordered = Vec::new();
                categorical_labels(
                    &mut init::wide_rng(seed),
                    *n,
                    &mix,
                    &mut columns,
                    &mut ordered,
                );
                let mut got = [0u32; 10];
                categorical_counts(&mut init::wide_rng(seed), *n, &mix, &mut columns, &mut got);
                assert_eq!(got.to_vec(), histogram(&ordered, 10), "seed {seed} n {n}");
                assert_eq!(got.iter().sum::<u32>(), *n as u32);
            }
            set_tier(prev);
        }
    }

    /// A hand-built window whose `t` reaches exactly `0.0`: the draw
    /// stops at that weight (`<=`, not `<`), and one uniform step above it
    /// goes on to the next.
    #[test]
    fn a_t_of_exactly_zero_takes_that_label() {
        let word = |u: f64, junk: u64| ((u / U) as u64) << 11 | (junk & 0x7ff);
        let weights = [0.25, 0.25, 0.5];
        // total 1.0: u = 0.25 hits zero at weight 0, u = 0.5 at weight 1,
        // u = 1 − 2⁻⁵³ runs past both.
        let draws = [
            (0.25, 0),
            (0.25 + U, 1),
            (0.5, 1),
            (0.5 + U, 2),
            (U, 0),
            (1.0 - U, 2),
            (0.0, 0),
        ];
        let words: Vec<u64> = draws
            .iter()
            .enumerate()
            .map(|(i, &(u, _))| word(u, i as u64 * 0x2b5))
            .collect();
        let want: Vec<usize> = draws.iter().map(|&(_, label)| label).collect();
        let (oracle_labels, _) = oracle(WideRng::over_words(&words), draws.len(), &weights);
        assert_eq!(oracle_labels, want, "the oracle's own boundary");
        assert_oracle("boundary", draws.len(), &weights, || {
            WideRng::over_words(&words)
        });
    }

    /// 10⁷ draws at every tier: rows of 110 draws from Dirichlet(α) mixes
    /// of 10 and 35 classes at α ∈ {0.01, 0.1, 1.0}, and weight vectors
    /// built to be hostile (signed zeros, negatives, NaN, ±∞, subnormals):
    /// `cargo test --release -p gfl-tensor -- --ignored
    /// categorical_columns_equal_the_scalar_chain_deep`.
    #[test]
    #[ignore = "10⁷ draws; run in release"]
    fn categorical_columns_equal_the_scalar_chain_deep() {
        const ROW: usize = 110;
        let hostile: [&[f64]; 6] = [
            &[0.0, -0.0, 0.3, f64::NAN, 0.7],
            &[f64::INFINITY, 1.0, 2.0],
            &[1.0, f64::NEG_INFINITY, f64::INFINITY, 1.0],
            &[f64::MIN_POSITIVE, 4.9e-324, 1e-310, 0.0],
            &[-1.0, 0.5, 0.75, -0.25, 1.0],
            &[1e300, 1e300, -1e300, 1e-300],
        ];
        let mut columns = CategoricalColumns::default();
        let (mut drawn, mut row) = (0usize, 0u64);
        while drawn < 10_000_000 {
            let weights: Vec<f64> = match row % 7 {
                6 => hostile[(row / 7) as usize % hostile.len()].to_vec(),
                k => {
                    let classes = if k % 2 == 0 { 10 } else { 35 };
                    let alpha = [0.01, 0.1, 1.0][k as usize / 2];
                    init::dirichlet_symmetric(&mut init::rng(row), alpha, classes)
                }
            };
            let (want, end) = oracle(init::wide_rng(row), ROW, &weights);
            let want_counts = histogram(&want, weights.len());
            for tier in supported_tiers() {
                let prev = set_tier(tier);
                let mut reader = init::wide_rng(row);
                let mut got = Vec::new();
                categorical_labels(&mut reader, ROW, &weights, &mut columns, &mut got);
                let mut got_counts = vec![0u32; weights.len()];
                categorical_counts(
                    &mut init::wide_rng(row),
                    ROW,
                    &weights,
                    &mut columns,
                    &mut got_counts,
                );
                set_tier(prev);
                assert!(got == want, "row {row} tier {}: labels", tier.name());
                assert_eq!(got_counts, want_counts, "row {row} tier {}", tier.name());
                assert_eq!(reader.word_pos(), end, "row {row} tier {}", tier.name());
            }
            drawn += ROW;
            row += 1;
        }
    }
}
