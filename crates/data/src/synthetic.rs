//! Seeded synthetic classification datasets.
//!
//! Each class `c` gets a mean vector drawn once from a seeded RNG and scaled
//! to a separation radius; samples are `mean_c + N(0, noise²)`. With
//! `separation / noise` around 1.0–1.5 the task is learnable but not
//! trivial, so federated training exhibits the gradual accuracy curves the
//! paper's figures show rather than saturating in two rounds.

use std::ops::Range;

use gfl_tensor::init::{self, WideRng};
use gfl_tensor::{Matrix, Scalar};
use rand::Rng;

use crate::Dataset;

/// Stream salts for the split-stream weighted generator. Labels and features
/// are drawn from *independent* seeded streams so that a client's label
/// histogram can be recovered in O(n) integer draws without touching the
/// (much wider) feature stream — the property `VirtualPopulation` builds on.
const LABEL_STREAM_SALT: u64 = 0x4C41_4245_4C53_3031; // "LABELS01"
const FEATURE_STREAM_SALT: u64 = 0x4645_4154_5352_3031; // "FEATSR01"

/// Rows one task of the uniform generator draws: 32 tasks for the speech
/// task's 60 000 rows. 1 920 = 2⁷ · 15 is a multiple of the holdout strides
/// 5 and 6, so every chunk but the last gives each half as many rows.
const CHUNK_ROWS: usize = 1_920;

/// Specification of a synthetic class-conditional Gaussian dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticSpec {
    /// Number of label categories (paper: 10 for CIFAR-10, 35 for SC).
    pub num_classes: usize,
    /// Feature dimensionality.
    pub feature_dim: usize,
    /// Radius of the class-mean constellation.
    pub separation: Scalar,
    /// Per-coordinate sample noise.
    pub noise: Scalar,
}

impl SyntheticSpec {
    /// CIFAR-10 stand-in: 10 classes, 64-dim features. The
    /// separation/noise ratio is tuned so a trained model tops out around
    /// 0.7–0.8 accuracy with a gradual approach — matching the dynamic
    /// range of the paper's CIFAR-10 curves (0.25 → 0.65), which is what
    /// lets methods differentiate. Plays the "relatively heavy load task"
    /// role.
    pub fn vision_like() -> Self {
        Self {
            num_classes: 10,
            feature_dim: 64,
            separation: 2.0,
            noise: 0.9,
        }
    }

    /// Speech-Commands stand-in: 35 classes, 40-dim features. Plays the
    /// paper's "lightweight task" role; more classes makes extreme Dirichlet
    /// skew (α=0.01) possible exactly as in §7.3.2.
    pub fn speech_like() -> Self {
        Self {
            num_classes: 35,
            feature_dim: 40,
            separation: 1.2,
            noise: 0.9,
        }
    }

    /// Tiny spec for unit tests.
    pub fn tiny() -> Self {
        Self {
            num_classes: 3,
            feature_dim: 4,
            separation: 2.0,
            noise: 0.3,
        }
    }

    /// Generates `n` samples with labels drawn from `label_weights`
    /// (uniform when `None`). Deterministic in `seed`.
    pub fn generate(&self, n: usize, seed: u64) -> Dataset {
        self.generate_weighted(n, None, seed)
    }

    /// `generate(n, seed).split_holdout(every_k)`, bit for bit, drawn
    /// straight into the two halves: the pooled dataset is never built.
    pub fn generate_holdout(&self, n: usize, every_k: usize, seed: u64) -> (Dataset, Dataset) {
        assert!(every_k >= 2, "every_k must be at least 2");
        self.uniform(n, seed, Some(every_k))
    }

    /// Generates `n` samples whose labels follow `label_weights`.
    ///
    /// The uniform (`None`) path is the historical interleaved-stream
    /// generator and stays byte-stable (golden datasets depend on it); it
    /// runs as chunks on the pool, each seeked to its word offset. The
    /// weighted path is split-stream: means, labels, and features each come
    /// from their own seeded stream, which makes label histograms and shard
    /// contents independently derivable — see [`Self::weighted_labels_into`]
    /// and [`Self::generate_weighted_with_means`].
    pub fn generate_weighted(&self, n: usize, label_weights: Option<&[f64]>, seed: u64) -> Dataset {
        assert!(self.num_classes > 0 && self.feature_dim > 0);
        match label_weights {
            None => self.uniform(n, seed, None).0,
            Some(w) => {
                let means = self.class_means_for(seed);
                self.generate_weighted_with_means(n, w, &means, seed)
            }
        }
    }

    /// The uniform stream's `n` rows as `(train, test)`: row `r` is a test
    /// row when `holdout` is `Some(k)` and `k` divides `r`, so `None` puts
    /// every row in `train`.
    ///
    /// The stream is the class means, then per row one `gen_range` (one
    /// `u64`) and `feature_dim` Box–Muller normals (two `u64` each, unless
    /// a uniform is exactly zero and is drawn again, p = 2⁻⁵³). Row `r`
    /// therefore starts [`Self::row_words`]` · r` words after the means, and
    /// [`CHUNK_ROWS`]-row chunks are drawn as tasks on the pool, each from
    /// that predicted offset; see [`Self::uniform_speculated`].
    fn uniform(&self, n: usize, seed: u64, holdout: Option<usize>) -> (Dataset, Dataset) {
        let row_words = self.row_words();
        self.uniform_speculated(n, seed, holdout, |means_end, row| {
            means_end + row_words * row as u128
        })
    }

    /// 32-bit words a row of the uniform stream draws when no uniform is
    /// drawn again.
    fn row_words(&self) -> u128 {
        2 * (1 + 2 * self.feature_dim as u128)
    }

    /// [`Self::uniform`] with chunk starts from `predict(means_end,
    /// first_row)`. Each chunk records the word where it ended; a serial
    /// stitch then redraws, in row order, every chunk whose start differs
    /// from its predecessor's end. The output is the serial stream's for any
    /// `predict`; a right one leaves the stitch nothing to do.
    fn uniform_speculated(
        &self,
        n: usize,
        seed: u64,
        holdout: Option<usize>,
        predict: impl Fn(u128, usize) -> u128,
    ) -> (Dataset, Dataset) {
        assert!(self.num_classes > 0 && self.feature_dim > 0);
        let dim = self.feature_dim;
        let mut rng = init::wide_rng(seed);
        let means = self.class_means(&mut rng);
        let means_end = rng.word_pos();
        // Rows `0..r` hold this many test rows.
        let held = |r: usize| holdout.map_or(0, |k| r.div_ceil(k));
        let (n_train, n_test) = (n - held(n), held(n));
        let mut train = (vec![0.0; n_train * dim], vec![0; n_train]);
        let mut test = (vec![0.0; n_test * dim], vec![0; n_test]);

        let mut chunks = Vec::with_capacity(n.div_ceil(CHUNK_ROWS));
        let (mut train_rest, mut test_rest) = (
            (&mut train.0[..], &mut train.1[..]),
            (&mut test.0[..], &mut test.1[..]),
        );
        for first in (0..n).step_by(CHUNK_ROWS) {
            let rows = first..(first + CHUNK_ROWS).min(n);
            let tests = held(rows.end) - held(first);
            let trains = rows.len() - tests;
            chunks.push(RowChunk {
                start: predict(means_end, first),
                end: 0,
                train: take_rows(&mut train_rest, trains, dim),
                test: take_rows(&mut test_rest, tests, dim),
                rows,
            });
        }
        let draw = |chunk: &mut RowChunk| self.draw_rows(seed, &means, holdout, chunk);
        gfl_parallel::par_for_each_init(&mut chunks, || (), |_, _, chunk| draw(chunk));
        let mut end = means_end;
        for chunk in &mut chunks {
            if chunk.start != end {
                chunk.start = end;
                draw(chunk);
            }
            end = chunk.end;
        }

        let half = |(features, labels): (Vec<Scalar>, Vec<usize>)| {
            let rows = labels.len();
            Dataset::new(
                Matrix::from_vec(rows, dim, features),
                labels,
                self.num_classes,
            )
        };
        (half(train), half(test))
    }

    /// Draws `chunk`'s rows from word `chunk.start` of `seed`'s stream into
    /// its slices and records the word after its last row.
    fn draw_rows(&self, seed: u64, means: &Matrix, holdout: Option<usize>, chunk: &mut RowChunk) {
        let dim = self.feature_dim;
        let mut rng = WideRng::at_word_pos(seed, chunk.start);
        let (mut train, mut test) = (0, 0);
        for r in chunk.rows.clone() {
            let label = rng.gen_range(0..self.num_classes);
            let (half, slot) = if holdout.is_some_and(|k| r % k == 0) {
                test += 1;
                (&mut chunk.test, test - 1)
            } else {
                train += 1;
                (&mut chunk.train, train - 1)
            };
            half.1[slot] = label;
            let row = &mut half.0[slot * dim..(slot + 1) * dim];
            for (v, &mean) in row.iter_mut().zip(means.row(label)) {
                *v = mean + init::normal(&mut rng, 0.0, self.noise);
            }
        }
        chunk.end = rng.word_pos();
    }

    /// The class-mean constellation for `seed` — identical to the means the
    /// uniform generator draws as its RNG-stream prefix.
    pub fn class_means_for(&self, seed: u64) -> Matrix {
        self.class_means(&mut init::wide_rng(seed))
    }

    /// Appends `n` labels drawn from `weights` into `out` — exactly the
    /// labels [`Self::generate_weighted_with_means`] would assign for the
    /// same `(n, weights, seed)`. O(n) integer/f64 draws; never touches the
    /// feature stream, so per-client label histograms cost no feature work.
    pub fn weighted_labels_into(&self, n: usize, weights: &[f64], seed: u64, out: &mut Vec<usize>) {
        out.reserve(n);
        self.weighted_labels(n, weights, seed, |label| out.push(label));
    }

    /// Adds the histogram of those same `n` labels into `counts` (one slot
    /// per class) without storing them.
    pub(crate) fn weighted_label_counts_into(
        &self,
        n: usize,
        weights: &[f64],
        seed: u64,
        counts: &mut [u32],
    ) {
        assert_eq!(counts.len(), self.num_classes, "count arity mismatch");
        self.weighted_labels(n, weights, seed, |label| counts[label] += 1);
    }

    /// The salted label stream of `seed`: `n` draws from `weights`, handed
    /// to `sink` in draw order.
    fn weighted_labels(&self, n: usize, weights: &[f64], seed: u64, sink: impl FnMut(usize)) {
        assert_eq!(weights.len(), self.num_classes, "weight arity mismatch");
        let mut rng = init::wide_rng(seed ^ LABEL_STREAM_SALT);
        sample_categorical_lanes(&mut rng, n, weights, sink);
    }

    /// Split-stream weighted generation against a caller-supplied mean
    /// constellation. Labels come from the salted label stream, features from
    /// the salted feature stream; `means` is typically shared across a whole
    /// virtual population so every client sees the same learnable task.
    pub fn generate_weighted_with_means(
        &self,
        n: usize,
        weights: &[f64],
        means: &Matrix,
        seed: u64,
    ) -> Dataset {
        assert!(self.num_classes > 0 && self.feature_dim > 0);
        assert_eq!(means.rows(), self.num_classes, "mean arity mismatch");
        assert_eq!(means.cols(), self.feature_dim, "mean width mismatch");
        let mut labels = Vec::new();
        self.weighted_labels_into(n, weights, seed, &mut labels);
        let mut features = Matrix::zeros(n, self.feature_dim);
        self.fill_weighted_features(&labels, means, seed, &mut features);
        Dataset::new(features, labels, self.num_classes)
    }

    /// Fills `features` (already sized `labels.len() × feature_dim`) from the
    /// salted feature stream: row i is `means[label_i] + N(0, noise²)`.
    pub(crate) fn fill_weighted_features(
        &self,
        labels: &[usize],
        means: &Matrix,
        seed: u64,
        features: &mut Matrix,
    ) {
        debug_assert_eq!(features.rows(), labels.len());
        debug_assert_eq!(features.cols(), self.feature_dim);
        let mut rng = init::wide_rng(seed ^ FEATURE_STREAM_SALT);
        for (i, &label) in labels.iter().enumerate() {
            let row = features.row_mut(i);
            for (j, v) in row.iter_mut().enumerate() {
                *v = means.get(label, j) + init::normal(&mut rng, 0.0, self.noise);
            }
        }
    }

    /// The class-mean constellation, deterministic in the RNG state.
    ///
    /// Means are sampled i.i.d. Gaussian then scaled to the separation
    /// radius, which keeps pairwise distances concentrated for moderate
    /// dimensions (Johnson–Lindenstrauss regime).
    fn class_means(&self, rng: &mut init::WideRng) -> Matrix {
        let mut means = Matrix::zeros(self.num_classes, self.feature_dim);
        for c in 0..self.num_classes {
            let row = means.row_mut(c);
            init::fill_normal(rng, 1.0, row);
            let norm = gfl_tensor::ops::norm(row);
            if norm > 0.0 {
                gfl_tensor::ops::scale(self.separation / norm, row);
            }
        }
        means
    }
}

/// Feature rows (row-major, `feature_dim` wide) and their labels.
type Rows<'a> = (&'a mut [Scalar], &'a mut [usize]);

/// One task of the uniform generator: stream rows `rows`, drawn from word
/// `start` into the slices of the two halves they land in.
struct RowChunk<'a> {
    rows: Range<usize>,
    start: u128,
    /// The word after the last row, once drawn.
    end: u128,
    train: Rows<'a>,
    test: Rows<'a>,
}

/// Splits the first `rows` rows off `rest`.
fn take_rows<'a>(rest: &mut Rows<'a>, rows: usize, dim: usize) -> Rows<'a> {
    let (features, more_features) = std::mem::take(&mut rest.0).split_at_mut(rows * dim);
    let (labels, more_labels) = std::mem::take(&mut rest.1).split_at_mut(rows);
    *rest = (more_features, more_labels);
    (features, labels)
}

/// Draws of one categorical distribution taken side by side.
const LANES: usize = 8;

/// `n` draws proportional to `weights`, handed to `sink` in draw order: the
/// scalar chain of [`sample_categorical`] — `t = u · total`, then `t -= w[i]`
/// until `t <= 0` — run on [`LANES`] uniforms at a time.
///
/// Every lane performs the scalar loop's subtractions in the scalar loop's
/// order and takes its *first* `t <= 0`, so the labels equal the scalar
/// loop's for any weights (zero, negative, NaN, infinite), and each draw
/// reads the one `u64` the scalar draw reads. Plain Rust over fixed-width
/// arrays, as `cov_lanes` is; the compiler vectorises the lane loops.
fn sample_categorical_lanes(
    rng: &mut impl Rng,
    n: usize,
    weights: &[f64],
    mut sink: impl FnMut(usize),
) {
    let total: f64 = weights.iter().sum();
    if total <= 0.0 {
        for _ in 0..n {
            sink(rng.gen_range(0..weights.len()));
        }
        return;
    }
    let last = weights.len() - 1;
    for start in (0..n).step_by(LANES) {
        let width = LANES.min(n - start);
        let mut t = [0.0f64; LANES];
        for lane in t.iter_mut().take(width) {
            *lane = rng.gen::<f64>() * total;
        }
        // A lane's label is the number of weights it outlived: 1.0 is added
        // per weight while no `t <= 0` has been seen, nothing after.
        let mut alive = [1.0f64; LANES];
        let mut outlived = [0.0f64; LANES];
        for &w in weights {
            for l in 0..LANES {
                t[l] -= w;
                alive[l] = if t[l] <= 0.0 { 0.0 } else { alive[l] };
                outlived[l] += alive[l];
            }
        }
        for &count in outlived.iter().take(width) {
            // Never hit: the scalar loop falls through to the last index.
            sink((count as usize).min(last));
        }
    }
}

/// Samples an index proportional to non-negative weights, whose sum the
/// caller passes as `total` — the scalar statement of
/// [`sample_categorical_lanes`], kept as its oracle.
#[cfg(test)]
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

/// The uniform generator as one serial stream — the loop the chunked
/// [`SyntheticSpec::uniform`] replaced, kept as its oracle.
#[cfg(test)]
fn generate_serial(spec: &SyntheticSpec, n: usize, seed: u64) -> Dataset {
    let mut rng = init::wide_rng(seed);
    let means = spec.class_means(&mut rng);
    let mut features = Matrix::zeros(n, spec.feature_dim);
    let mut labels = Vec::with_capacity(n);
    for i in 0..n {
        let label = rng.gen_range(0..spec.num_classes);
        labels.push(label);
        let row = features.row_mut(i);
        for (j, v) in row.iter_mut().enumerate() {
            *v = means.get(label, j) + init::normal(&mut rng, 0.0, spec.noise);
        }
    }
    Dataset::new(features, labels, spec.num_classes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::RngCore;

    fn assert_same(got: &Dataset, want: &Dataset, what: &str) {
        assert_eq!(got.labels(), want.labels(), "{what}: labels");
        let bits = |d: &Dataset| {
            d.features()
                .as_slice()
                .iter()
                .map(|x| x.to_bits())
                .collect::<Vec<_>>()
        };
        assert_eq!(bits(got), bits(want), "{what}: features");
        assert_eq!(got.feature_dim(), want.feature_dim(), "{what}: width");
    }

    /// Row counts around the chunk boundaries.
    const EDGE_ROWS: [usize; 7] = [
        0,
        1,
        CHUNK_ROWS - 1,
        CHUNK_ROWS,
        CHUNK_ROWS + 1,
        2 * CHUNK_ROWS + 6,
        3 * CHUNK_ROWS + 7,
    ];

    #[test]
    fn chunked_generation_is_the_serial_stream_at_any_width() {
        // Rows of 18 and 30 words: chunks start at every alignment to the
        // reader's blocks and windows. The speech task's 162-word rows are
        // pinned by the multi-chunk digests in `tests/streams.rs`.
        let odd = SyntheticSpec {
            num_classes: 5,
            feature_dim: 7,
            ..SyntheticSpec::tiny()
        };
        let specs = [SyntheticSpec::tiny(), odd];
        let oracles: Vec<Vec<Dataset>> = specs
            .iter()
            .map(|spec| EDGE_ROWS.map(|n| generate_serial(spec, n, 13)).to_vec())
            .collect();
        for threads in [1, 2, 8] {
            gfl_parallel::set_default_parallelism(threads);
            for (spec, oracles) in specs.iter().zip(&oracles) {
                for (n, want) in EDGE_ROWS.into_iter().zip(oracles) {
                    let what = format!("{threads} threads, {n} rows, dim {}", spec.feature_dim);
                    assert_same(&spec.generate(n, 13), want, &what);
                    for every_k in [2, 5, 6, 7] {
                        let (train, test) = spec.generate_holdout(n, every_k, 13);
                        let (want_train, want_test) = want.split_holdout(every_k);
                        assert_same(&train, &want_train, &format!("{what}, train of {every_k}"));
                        assert_same(&test, &want_test, &format!("{what}, test of {every_k}"));
                    }
                }
            }
        }
    }

    #[test]
    fn the_stitch_redraws_chunks_after_a_wrong_prediction() {
        gfl_parallel::set_default_parallelism(2);
        let spec = SyntheticSpec::tiny();
        let n = 4 * CHUNK_ROWS + 11;
        let want = generate_serial(&spec, n, 29);
        let (want_train, want_test) = want.split_holdout(6);
        let row_words = spec.row_words();
        // What a rejection in chunk 1 does to the prediction of every later
        // chunk (its start is two words late), what a mistake confined to
        // chunk 2 does, and no prediction at all.
        let rejection = |means_end: u128, row: usize| {
            means_end + row_words * row as u128 + 2 * u128::from(row > CHUNK_ROWS)
        };
        let one_off = |means_end: u128, row: usize| {
            means_end + row_words * row as u128 + u128::from(row == 2 * CHUNK_ROWS)
        };
        let none = |_: u128, _: usize| 0;
        for (name, predict) in [
            ("rejection", &rejection as &dyn Fn(u128, usize) -> u128),
            ("one chunk off", &one_off),
            ("no prediction", &none),
        ] {
            let (pooled, empty) = spec.uniform_speculated(n, 29, None, predict);
            assert_same(&pooled, &want, name);
            assert!(empty.is_empty(), "{name}");
            let (train, test) = spec.uniform_speculated(n, 29, Some(6), predict);
            assert_same(&train, &want_train, &format!("{name}, train"));
            assert_same(&test, &want_test, &format!("{name}, test"));
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

        /// The lane kernel is the scalar loop, draw for draw, for any
        /// weights and every tail length, through both sinks — and leaves
        /// the stream where `n` scalar draws leave it.
        #[test]
        fn categorical_lanes_equal_the_scalar_loop(
            w in weights(),
            n in 0usize..301,
            seed in 0u64..u64::MAX,
        ) {
            let mut scalar_rng = init::rng(seed);
            let total: f64 = w.iter().sum();
            let want: Vec<usize> = (0..n)
                .map(|_| sample_categorical(&mut scalar_rng, &w, total))
                .collect();

            let mut lane_rng = init::wide_rng(seed);
            let mut got = Vec::new();
            sample_categorical_lanes(&mut lane_rng, n, &w, |label| got.push(label));
            prop_assert_eq!(&got, &want);
            prop_assert_eq!(lane_rng.next_u64(), scalar_rng.next_u64());

            let mut want_counts = vec![0u32; w.len()];
            want.iter().for_each(|&label| want_counts[label] += 1);
            let mut counts = vec![0u32; w.len()];
            sample_categorical_lanes(&mut init::wide_rng(seed), n, &w, |label| {
                counts[label] += 1
            });
            prop_assert_eq!(counts, want_counts);
        }
    }

    #[test]
    fn label_sinks_agree_through_the_public_entry_points() {
        let spec = SyntheticSpec::vision_like();
        let mut w = [0.0; 10];
        w[3] = 0.25;
        w[7] = 0.75;
        for n in [0, 1, 7, 8, 9, 127, 128, 129, 200] {
            let mut labels = Vec::new();
            spec.weighted_labels_into(n, &w, 41, &mut labels);
            assert_eq!(labels.len(), n);
            let mut counts = [0u32; 10];
            spec.weighted_label_counts_into(n, &w, 41, &mut counts);
            let mut want = [0u32; 10];
            labels.iter().for_each(|&l| want[l] += 1);
            assert_eq!(counts, want, "n = {n}");
            assert_eq!(counts[3] + counts[7], n as u32);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = SyntheticSpec::tiny();
        let a = spec.generate(50, 9);
        let b = spec.generate(50, 9);
        assert_eq!(a.labels(), b.labels());
        assert_eq!(a.features().as_slice(), b.features().as_slice());
    }

    #[test]
    fn different_seeds_differ() {
        let spec = SyntheticSpec::tiny();
        let a = spec.generate(50, 1);
        let b = spec.generate(50, 2);
        assert_ne!(a.features().as_slice(), b.features().as_slice());
    }

    #[test]
    fn uniform_labels_cover_all_classes() {
        let d = SyntheticSpec::tiny().generate(300, 3);
        let hist = d.label_histogram();
        assert!(hist.iter().all(|&c| c > 50), "hist {hist:?}");
    }

    #[test]
    fn weighted_labels_respect_weights() {
        let spec = SyntheticSpec::tiny();
        let d = spec.generate_weighted(500, Some(&[1.0, 0.0, 0.0]), 4);
        assert!(d.labels().iter().all(|&l| l == 0));
    }

    #[test]
    fn classes_are_separable_by_nearest_mean() {
        // A sanity check that the task is learnable: classify each sample by
        // the nearest class centroid estimated from the data itself.
        let spec = SyntheticSpec {
            num_classes: 4,
            feature_dim: 16,
            separation: 2.0,
            noise: 0.5,
        };
        let d = spec.generate(400, 5);
        let mut centroids = vec![vec![0.0f32; 16]; 4];
        let mut counts = vec![0usize; 4];
        for i in 0..d.len() {
            let l = d.labels()[i];
            gfl_tensor::ops::add_assign(d.features().row(i), &mut centroids[l]);
            counts[l] += 1;
        }
        for (c, n) in centroids.iter_mut().zip(&counts) {
            gfl_tensor::ops::scale(1.0 / (*n).max(1) as f32, c);
        }
        let mut correct = 0;
        for i in 0..d.len() {
            let x = d.features().row(i);
            let mut best = 0;
            let mut best_d = f32::INFINITY;
            for (c, centroid) in centroids.iter().enumerate() {
                let dist: f32 = x
                    .iter()
                    .zip(centroid.iter())
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum();
                if dist < best_d {
                    best_d = dist;
                    best = c;
                }
            }
            correct += usize::from(best == d.labels()[i]);
        }
        let acc = correct as f32 / d.len() as f32;
        assert!(acc > 0.8, "nearest-centroid accuracy {acc}");
    }

    #[test]
    fn weighted_label_stream_matches_full_generation() {
        let spec = SyntheticSpec::tiny();
        let w = [0.2, 0.5, 0.3];
        let d = spec.generate_weighted(200, Some(&w), 17);
        let mut labels = Vec::new();
        spec.weighted_labels_into(200, &w, 17, &mut labels);
        assert_eq!(d.labels(), &labels[..]);
    }

    #[test]
    fn weighted_generation_with_means_round_trips() {
        let spec = SyntheticSpec::tiny();
        let w = [0.1, 0.6, 0.3];
        let means = spec.class_means_for(23);
        let a = spec.generate_weighted(150, Some(&w), 23);
        let b = spec.generate_weighted_with_means(150, &w, &means, 23);
        assert_eq!(a.labels(), b.labels());
        assert_eq!(a.features().as_slice(), b.features().as_slice());
    }

    #[test]
    fn weighted_label_prefix_is_stable_in_n() {
        // Shorter draws are a prefix of longer ones — lets summary stats be
        // recovered incrementally without regenerating.
        let spec = SyntheticSpec::tiny();
        let w = [1.0, 2.0, 3.0];
        let mut short = Vec::new();
        let mut long = Vec::new();
        spec.weighted_labels_into(40, &w, 31, &mut short);
        spec.weighted_labels_into(90, &w, 31, &mut long);
        assert_eq!(&long[..40], &short[..]);
    }

    #[test]
    fn presets_have_paper_cardinalities() {
        assert_eq!(SyntheticSpec::vision_like().num_classes, 10);
        assert_eq!(SyntheticSpec::speech_like().num_classes, 35);
    }
}
