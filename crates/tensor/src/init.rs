//! Seeded random initialization and sampling primitives.
//!
//! Everything random in the reproduction flows through ChaCha8 seeded RNGs so
//! experiments are bit-reproducible. Besides weight initializers, this module
//! implements the distribution samplers the data pipeline needs but that the
//! allowed crate set does not provide: standard normal (Box–Muller), Gamma
//! (Marsaglia–Tsang), and Dirichlet (normalized Gammas). Dirichlet(α) label
//! skew is the paper's central non-IID knob (§7.2).

use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::{Matrix, Scalar};

pub use crate::simd::categorical::{categorical_counts, categorical_labels, CategoricalColumns};

/// The crate-standard deterministic RNG.
pub type GflRng = ChaCha8Rng;

/// Creates the standard deterministic RNG from a seed.
pub fn rng(seed: u64) -> GflRng {
    ChaCha8Rng::seed_from_u64(seed)
}

/// Bytes [`WideRng`] fetches at a time: sixteen ChaCha blocks, which is one
/// 16-lane `fill_bytes` call under AVX-512 and four 4-lane calls otherwise.
const WINDOW_BYTES: usize = 1024;

/// The word stream of [`rng`]`(seed)`, fetched a [`WINDOW_BYTES`] window at a
/// time through the generator's lane-wise `fill_bytes` instead of one block
/// per refill.
///
/// It implements [`RngCore`] over the same words in the same order, so
/// whatever consumes it — [`normal`] with its Box–Muller rejection,
/// `gen_range`, [`fill_normal`] — draws what it would draw from [`rng`], bit
/// for bit. Use it where a stream is known to be long (a dataset's features,
/// a client's label draws); a stream that is asked for a handful of words
/// and dropped stays on [`rng`], which computes one block, not sixteen.
#[derive(Debug, Clone)]
pub struct WideRng {
    /// Positioned at the end of `window`.
    inner: GflRng,
    window: [u8; WINDOW_BYTES],
    /// Byte offset of the next unread word; `WINDOW_BYTES` means empty.
    pos: usize,
}

/// Opens the stream of [`rng`]`(seed)` behind the wide reader.
pub fn wide_rng(seed: u64) -> WideRng {
    WideRng {
        inner: rng(seed),
        window: [0; WINDOW_BYTES],
        pos: WINDOW_BYTES,
    }
}

impl WideRng {
    /// The stream of [`rng`]`(seed)` from its `word`-th 32-bit word on:
    /// what [`wide_rng`] yields after `word` words, without drawing them.
    pub fn at_word_pos(seed: u64, word: u128) -> Self {
        let mut reader = wide_rng(seed);
        reader.inner.set_word_pos(word);
        reader
    }

    /// The offset, in 32-bit words from the start of the stream, of the
    /// next word this reader yields — `get_word_pos` of an [`rng`] that has
    /// drawn what this reader has.
    pub fn word_pos(&self) -> u128 {
        self.inner.get_word_pos() - ((WINDOW_BYTES - self.pos) / 4) as u128
    }

    /// A reader whose window ends in the hand-built `words`, followed by
    /// the stream of `rng(0)`.
    #[cfg(test)]
    pub(crate) fn over_words(words: &[u64]) -> Self {
        let mut reader = wide_rng(0);
        reader.pos = WINDOW_BYTES - 8 * words.len();
        for (slot, word) in reader.window[reader.pos..].chunks_exact_mut(8).zip(words) {
            slot.copy_from_slice(&word.to_le_bytes());
        }
        reader
    }

    fn refill(&mut self) {
        self.inner.fill_bytes(&mut self.window);
        self.pos = 0;
    }
}

impl RngCore for WideRng {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        if self.pos >= WINDOW_BYTES {
            self.refill();
        }
        let word = self.window[self.pos..self.pos + 4]
            .try_into()
            .expect("a four-byte slice");
        self.pos += 4;
        u32::from_le_bytes(word)
    }

    /// Two consecutive words, low half first — one little-endian load unless
    /// the pair straddles a window.
    #[inline]
    fn next_u64(&mut self) -> u64 {
        if self.pos + 8 > WINDOW_BYTES {
            let lo = u64::from(self.next_u32());
            let hi = u64::from(self.next_u32());
            return (hi << 32) | lo;
        }
        let pair = self.window[self.pos..self.pos + 8]
            .try_into()
            .expect("an eight-byte slice");
        self.pos += 8;
        u64::from_le_bytes(pair)
    }

    /// The window's bytes, copied; a request that ends inside a word
    /// consumes that word. A request the window holds is one copy, which
    /// inlines to a few vector moves where its length is a constant (the
    /// normals kernel's blocks).
    #[inline]
    fn fill_bytes(&mut self, mut dest: &mut [u8]) {
        if let Some(window) = self.window.get(self.pos..self.pos + dest.len()) {
            dest.copy_from_slice(window);
            self.pos += dest.len().next_multiple_of(4);
            return;
        }
        while !dest.is_empty() {
            if self.pos >= WINDOW_BYTES {
                self.refill();
            }
            let take = dest.len().min(WINDOW_BYTES - self.pos);
            let (head, rest) = std::mem::take(&mut dest).split_at_mut(take);
            head.copy_from_slice(&self.window[self.pos..self.pos + take]);
            self.pos += take.next_multiple_of(4);
            dest = rest;
        }
    }
}

/// Samples a standard normal via Box–Muller.
pub fn standard_normal(rng: &mut impl Rng) -> Scalar {
    loop {
        let u1: f64 = rng.gen::<f64>();
        if u1 <= f64::MIN_POSITIVE {
            continue;
        }
        return box_muller(u1, rng.gen::<f64>());
    }
}

/// Box–Muller's libm expression for the uniforms `u1 > 0` and `u2`: the
/// body of [`standard_normal`], and the fallback of [`standard_normals`].
#[inline]
pub(crate) fn box_muller(u1: f64, u2: f64) -> Scalar {
    let r = (-2.0 * u1.ln()).sqrt();
    let theta = 2.0 * std::f64::consts::PI * u2;
    (r * theta.cos()) as Scalar
}

/// Fills `out` with the next `out.len()` draws of [`standard_normal`]
/// from `rng` — the same words, the same bits — through the active SIMD
/// tier's lane kernel, which computes each normal without libm wherever
/// it can prove that libm would round to the same `f32`. Returns how many
/// normals took libm. `rng`'s `fill_bytes` must yield the bytes of its
/// `next_u64` words in order, as [`GflRng`] and [`WideRng`] do.
pub fn standard_normals(rng: &mut impl RngCore, out: &mut [Scalar]) -> usize {
    crate::simd::standard_normals(rng, out)
}

/// Samples `N(mean, std²)`.
pub fn normal(rng: &mut impl Rng, mean: Scalar, std: Scalar) -> Scalar {
    mean + std * standard_normal(rng)
}

/// Samples Gamma(shape, 1) via Marsaglia–Tsang; handles shape < 1 via the
/// boost `Gamma(a) = Gamma(a+1) · U^{1/a}`.
pub fn gamma(rng: &mut impl Rng, shape: f64) -> f64 {
    assert!(shape > 0.0, "gamma shape must be positive");
    if shape < 1.0 {
        let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
        return gamma(rng, shape + 1.0) * u.powf(1.0 / shape);
    }
    let d = shape - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        let x = standard_normal(rng) as f64;
        let v = (1.0 + c * x).powi(3);
        if v <= 0.0 {
            continue;
        }
        let u: f64 = rng.gen();
        if u < 1.0 - 0.0331 * x.powi(4) {
            return d * v;
        }
        if u.ln() < 0.5 * x * x + d * (1.0 - v + v.ln()) {
            return d * v;
        }
    }
}

/// Samples a Dirichlet(α·1) distribution of dimension `dim`.
///
/// Smaller `alpha` concentrates mass on few coordinates — exactly the
/// label-skew behaviour the paper sweeps (α ∈ {0.01, 0.1, 0.5, 1.0}).
pub fn dirichlet_symmetric(rng: &mut impl Rng, alpha: f64, dim: usize) -> Vec<f64> {
    let mut draws = vec![0.0; dim];
    dirichlet_symmetric_into(rng, alpha, &mut draws);
    draws
}

/// [`dirichlet_symmetric`] of dimension `out.len()` into a caller-owned
/// buffer — the same draws from the same words.
pub fn dirichlet_symmetric_into(rng: &mut impl Rng, alpha: f64, out: &mut [f64]) {
    assert!(!out.is_empty(), "dirichlet dimension must be positive");
    out.iter_mut().for_each(|d| *d = gamma(rng, alpha));
    let sum: f64 = out.iter().sum();
    if sum <= 0.0 || !sum.is_finite() {
        // Degenerate draw (possible for very small alpha in f64): put all
        // mass on a uniformly random coordinate, matching the alpha→0 limit.
        let hot = rng.gen_range(0..out.len());
        out.fill(0.0);
        out[hot] = 1.0;
        return;
    }
    out.iter_mut().for_each(|d| *d /= sum);
}

/// He (Kaiming) initialization for a `fan_out × fan_in` weight matrix:
/// `N(0, 2/fan_in)`. Appropriate for ReLU networks.
pub fn he_matrix(rng: &mut impl Rng, fan_out: usize, fan_in: usize) -> Matrix {
    let std = (2.0 / fan_in.max(1) as Scalar).sqrt();
    let mut m = Matrix::zeros(fan_out, fan_in);
    fill_normal(rng, std, m.as_mut_slice());
    m
}

/// Fills a slice with `N(0, std²)` samples: [`normal`]`(rng, 0.0, std)`
/// each, drawn by [`standard_normals`].
pub fn fill_normal(rng: &mut impl Rng, std: Scalar, out: &mut [Scalar]) {
    standard_normals(rng, out);
    for o in out.iter_mut() {
        *o = 0.0 + std * *o;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn rng_is_deterministic() {
        let mut a = rng(42);
        let mut b = rng(42);
        for _ in 0..16 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    proptest! {
        /// Any interleaving of draws reads the same words from the wide
        /// reader as from `rng`, across window boundaries and with pairs
        /// that straddle one (an odd number of `next_u32` first).
        #[test]
        fn wide_reader_equals_rng(
            seed in 0u64..u64::MAX,
            skip in 0usize..600,
            ops in proptest::collection::vec(0u8..6, 0..700),
        ) {
            let mut narrow = rng(seed);
            let mut wide = wide_rng(seed);
            for _ in 0..skip {
                prop_assert_eq!(wide.next_u32(), narrow.next_u32());
            }
            for op in ops {
                match op {
                    0 => prop_assert_eq!(wide.next_u32(), narrow.next_u32()),
                    1 => prop_assert_eq!(wide.next_u64(), narrow.next_u64()),
                    2 => prop_assert_eq!(
                        wide.gen::<f64>().to_bits(),
                        narrow.gen::<f64>().to_bits()
                    ),
                    3 => prop_assert_eq!(wide.gen_range(0..35usize), narrow.gen_range(0..35usize)),
                    4 => prop_assert_eq!(
                        normal(&mut wide, 0.5, 2.0).to_bits(),
                        normal(&mut narrow, 0.5, 2.0).to_bits()
                    ),
                    _ => {
                        let (mut a, mut b) = ([0u8; 7], [0u8; 7]);
                        wide.fill_bytes(&mut a);
                        narrow.fill_bytes(&mut b);
                        prop_assert_eq!(a, b);
                    }
                }
                prop_assert_eq!(wide.word_pos(), narrow.get_word_pos());
            }
            prop_assert_eq!(wide.next_u64(), narrow.next_u64());
        }
    }

    /// Word offsets a seek must handle: block boundaries, window
    /// boundaries, a window's last word, and anywhere in the first sixteen
    /// windows (mid-block, mid-window, across windows).
    fn word_offsets() -> impl Strategy<Value = u128> {
        let window = (WINDOW_BYTES / 4) as u64;
        (0u8..4, 0u64..40, 0u64..16 * window).prop_map(move |(kind, k, word)| {
            u128::from(match kind {
                0 => 16 * k,
                1 => window * k,
                2 => window * (k + 1) - 1,
                _ => word,
            })
        })
    }

    proptest! {
        /// A reader opened at word `w` yields what `rng` yields after `w`
        /// words, and `word_pos` is `get_word_pos` after any mix of draws.
        #[test]
        fn seeked_reader_equals_rng_after_skipping(
            seed in 0u64..u64::MAX,
            word in word_offsets(),
            ops in proptest::collection::vec(0u8..3, 0..700),
        ) {
            let mut narrow = rng(seed);
            for _ in 0..word {
                narrow.next_u32();
            }
            let mut wide = WideRng::at_word_pos(seed, word);
            prop_assert_eq!(wide.word_pos(), word);
            for op in ops {
                match op {
                    0 => prop_assert_eq!(wide.next_u32(), narrow.next_u32()),
                    1 => prop_assert_eq!(wide.next_u64(), narrow.next_u64()),
                    _ => prop_assert_eq!(
                        normal(&mut wide, 0.5, 2.0).to_bits(),
                        normal(&mut narrow, 0.5, 2.0).to_bits()
                    ),
                }
                prop_assert_eq!(wide.word_pos(), narrow.get_word_pos());
            }
        }
    }

    #[test]
    fn box_muller_rejects_a_zero_uniform_from_the_wide_reader() {
        // 2047 >> 11 == 0, so the first uniform is exactly 0.0 and must be
        // drawn again; the sample comes from the second and third words.
        let half = 1u64 << 63;
        let quarter = 1u64 << 62;
        let mut rejecting = WideRng::over_words(&[2047, half, quarter]);
        let mut plain = WideRng::over_words(&[half, quarter]);
        let got = standard_normal(&mut rejecting);
        assert_eq!(got.to_bits(), standard_normal(&mut plain).to_bits());
        let want = (-2.0 * 0.5f64.ln()).sqrt() * (2.0 * std::f64::consts::PI * 0.25).cos();
        assert_eq!(got.to_bits(), (want as Scalar).to_bits());
        // Both consumed their window and go on with the stream behind it.
        let next = rng(0).next_u64();
        assert_eq!((rejecting.next_u64(), plain.next_u64()), (next, next));
    }

    #[test]
    fn dirichlet_into_draws_what_dirichlet_draws() {
        for alpha in [0.001f64, 0.01, 0.1, 1.0] {
            for seed in 0..50 {
                let mut a = rng(seed);
                let mut b = rng(seed);
                let want = dirichlet_symmetric(&mut a, alpha, 10);
                let mut got = [f64::NAN; 10];
                dirichlet_symmetric_into(&mut b, alpha, &mut got);
                assert_eq!(want, got);
                assert_eq!(a.next_u64(), b.next_u64());
            }
        }
    }

    #[test]
    fn standard_normal_moments() {
        let mut r = rng(1);
        let n = 20_000;
        let samples: Vec<f32> = (0..n).map(|_| standard_normal(&mut r)).collect();
        let mean: f32 = samples.iter().sum::<f32>() / n as f32;
        let var: f32 = samples.iter().map(|x| (x - mean).powi(2)).sum::<f32>() / n as f32;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.08, "var {var}");
    }

    #[test]
    fn gamma_mean_matches_shape() {
        let mut r = rng(2);
        for shape in [0.3f64, 1.0, 2.5, 10.0] {
            let n = 20_000;
            let mean: f64 = (0..n).map(|_| gamma(&mut r, shape)).sum::<f64>() / n as f64;
            assert!(
                (mean - shape).abs() < 0.12 * shape.max(1.0),
                "shape {shape}: mean {mean}"
            );
        }
    }

    #[test]
    fn dirichlet_sums_to_one_and_skews_with_alpha() {
        let mut r = rng(3);
        for alpha in [0.01f64, 0.1, 1.0, 10.0] {
            let p = dirichlet_symmetric(&mut r, alpha, 10);
            let sum: f64 = p.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "alpha {alpha}: sum {sum}");
            assert!(p.iter().all(|&x| x >= 0.0));
        }
        // Average max-coordinate should drop as alpha grows (less skew).
        let avg_max = |alpha: f64, r: &mut GflRng| {
            (0..200)
                .map(|_| {
                    dirichlet_symmetric(r, alpha, 10)
                        .into_iter()
                        .fold(0.0f64, f64::max)
                })
                .sum::<f64>()
                / 200.0
        };
        let skewed = avg_max(0.05, &mut r);
        let flat = avg_max(10.0, &mut r);
        assert!(
            skewed > flat + 0.3,
            "skewed {skewed} should dominate flat {flat}"
        );
    }

    #[test]
    fn he_matrix_variance_scales_with_fan_in() {
        let mut r = rng(4);
        let m = he_matrix(&mut r, 64, 128);
        let var: f32 = m.as_slice().iter().map(|x| x * x).sum::<f32>() / m.len() as f32;
        let expected = 2.0 / 128.0;
        assert!(
            (var - expected).abs() < expected * 0.3,
            "var {var}, expected {expected}"
        );
    }
}
