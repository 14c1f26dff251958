//! Box–Muller normals eight lanes at a time, screened against libm.
//!
//! [`crate::init::standard_normal`] turns two uniforms `u1`, `u2` into
//! `(sqrt(−2·ln u1) · cos(2π·u2)) as f32` with one f64 libm `ln` and one
//! libm `cos`. [`fill`] draws the same uniforms from the same words, eight
//! lanes a block, and evaluates `ln` and `cos` as plain f64 polynomials
//! (no libm call, no FMA: every operation is one IEEE rounding, so every
//! tier computes the same `x`). The result is rounded to **f32**, so `x`
//! need not equal libm's f64 `x_libm`: it is enough that both round to the
//! same f32. A lane keeps `v = x as f32` only if `x − B` and `x + B` both
//! round to `v`, where `B` bounds `|x − x_libm|` with room to spare; f32
//! rounding is monotone, so `x_libm`, which lies between them, rounds to
//! `v` too. Every other lane is recomputed by the libm expression itself
//! ([`crate::init::box_muller`], the one fallback body). The kernel is
//! therefore exact by a screen, not by restating libm.
//!
//! # The bound
//!
//! `u = 2⁻⁵³`; uniforms are `k·2⁻⁵³` with `k < 2⁵³`, so `u1 ∈ [2⁻⁵³, 1)`
//! once a zero is excluded. `L = ln u1` and `C = cos θ`, `θ =
//! fl(TAU·u2)`, are the exact values libm approximates; `R = sqrt(−2L)`.
//!
//! - **`ln`.** `u1 = 2ᵉ·m` with `m ∈ [√½, √2]` (both exact),
//!   `s = (m − 1)/(m + 1)` (`m − 1` exact by Sterbenz; two roundings, so
//!   `s` is off by ≤ 2.01u relative, `|s| ≤ 0.1716`), `t = s²` (≤ 5.1u),
//!   `ln m = 2s·P(t)` with `P` the first ten terms of `atanh(s)/s =
//!   Σ tᵏ/(2k+1)`. Truncation: `t¹⁰/21/(1 − t) ≤ 2⁻⁵⁵·²` ≤ 0.22u. Horner
//!   over ten coefficients: 18 roundings, ≤ γ₁₈·ΣCₖtᵏ ≤ 18.2u; the
//!   coefficients' own rounding ≤ 1.02u; `t`'s error moves `P` by ≤ 0.06u;
//!   the product `2s·P` one more u. So `ln m` is within 22.6u relative.
//!   Then `ℓ = e·LN2_HI + (e·LN2_LO + ln m)`: `e·LN2_HI` is exact (six
//!   bits times 32), `|ln2 − LN2_HI − LN2_LO| < 2⁻⁸⁵`, and for `e ≤ −1`
//!   `|L| ≥ |e|·ln2 − 0.3466 ≥ |ln m|`, so the two sums add ≤ 2u:
//!   **`|ℓ − L| ≤ 25u·|L|`**.
//! - **`cos`.** `4·u2` is exact; `q` = its nearest integer (a magic-number
//!   add), `g = 4·u2 − q ∈ [−½, ½]` exact, and `cos(2π·u2) =
//!   ±cos(πg/2)` or `±sin(πg/2)` by `q mod 4` (a select and a sign flip,
//!   exact). Both are Taylor polynomials in `z = g²` (one rounding) with
//!   nine coefficients: truncation `y¹⁸/18!` and `y¹⁹/19!` at `y = π/4`,
//!   below 0.03u; Horner's 16 roundings ≤ 16.1u·cosh y (resp. sinh y),
//!   coefficients u·cosh y, `z`'s error ≤ 0.35u, and for `sin` the final
//!   product by `g` one u. Relative to `cos y ≥ 0.7071` and to `sin y ≥
//!   sinh y / 1.2285` that is ≤ 33u and ≤ 22.2u: **`c` is within 33u of
//!   `cos(2π·u2)`**, at every `g`, zeros of the cosine included. libm's
//!   `cos` is evaluated at the rounded `θ` instead, and `|θ − 2π·u2| ≤
//!   ½ulp(θ) + |TAU − 2π| ≤ 2⁻⁵¹ + 2⁻⁵¹·⁸⁶`, so **`|cos(2π·u2) − C| ≤
//!   Δ = 2⁻⁵⁰·³⁷`**, an absolute term.
//! - **The product.** Kernel: `ρ = fl(sqrt(−2ℓ)) = R(1 + η)`, `|η| ≤
//!   12.5u + u`; `x = fl(ρ·c)`, so `|x − R·C| ≤ 47.7u·|R·C| + 1.001·R·Δ`.
//!   libm, at its documented ≤ 1 ulp (2u relative) for `log` and `cos`,
//!   with a correctly rounded `sqrt` and product: `|x_libm − R·C| ≤
//!   5.1u·|R·C|`. Putting `|R·C| ≤ |x| + 1.001·R·Δ` and `R ≤ 1.0001·ρ`:
//!   `|x − x_libm| ≤ 53u·|x| + 1.01·Δ·ρ ≤ 2⁻⁴⁷·|x| + 2⁻⁵⁰·ρ`.
//!
//! The screen uses **`B = 2⁻³⁷·|x| + 2⁻⁴⁰·ρ`**, that bound times a safety
//! factor of 2¹⁰, which also covers the two roundings of `x ± B`. The
//! absolute term is what makes small `|cos|` safe: below `|c| ≈ 2⁻¹⁶` it
//! exceeds half an f32 spacing of `x` and the lane goes to libm by the
//! screen itself. `u1 = 0` (p = 2⁻⁵³) is the one case the screen does not
//! decide: Box–Muller draws `u1` again, which shifts every later lane's
//! words, so the block is redone serially from the first such lane. About
//! 0.04 % of lanes take libm (docs/PERF.md, "Normals"); the kernel's own
//! error, measured against libm's values, is held to its bound by
//! `kernel_error_is_within_its_bound`.

use rand::RngCore;

use crate::init::box_muller;
use crate::Scalar;

/// Normals per block: two uniforms each, sixteen `u64` words.
const LANES: usize = 8;

/// `B`'s relative and absolute coefficients (module docs).
const B_REL: f64 = 1.0 / (1u64 << 37) as f64;
const B_ABS: f64 = 1.0 / (1u64 << 40) as f64;

/// `ln 2` split so that `e·LN2_HI` is exact for every `|e| ≤ 2²¹`.
const LN2_HI: f64 = 6.931_471_803_691_238e-1;
const LN2_LO: f64 = 1.908_214_929_270_587_7e-10;

/// `1/(2k + 1)`: `atanh(s)/s` in powers of `s²`.
const ATANH: [f64; 10] = [
    1.0,
    1.0 / 3.0,
    1.0 / 5.0,
    1.0 / 7.0,
    1.0 / 9.0,
    1.0 / 11.0,
    1.0 / 13.0,
    1.0 / 15.0,
    1.0 / 17.0,
    1.0 / 19.0,
];

/// `(−1)ᵏ(π/2)²ᵏ/(2k)!`: `cos(πg/2)` in powers of `g²`.
const COS: [f64; 9] = [
    1.0,
    -1.233_700_550_136_169_7,
    2.536_695_079_010_480_3e-1,
    -2.086_348_076_335_296e-2,
    9.192_602_748_394_266e-4,
    -2.520_204_237_306_060_7e-5,
    4.710_874_778_818_172e-7,
    -6.386_603_083_791_852e-9,
    6.565_963_114_979_473e-11,
];

/// `(−1)ᵏ(π/2)²ᵏ⁺¹/(2k+1)!`: `sin(πg/2)/g` in powers of `g²`.
const SIN: [f64; 9] = [
    std::f64::consts::FRAC_PI_2,
    -6.459_640_975_062_463e-1,
    7.969_262_624_616_705e-2,
    -4.681_754_135_318_688e-3,
    1.604_411_847_873_598_3e-4,
    -3.598_843_235_212_085e-6,
    5.692_172_921_967_927e-8,
    -6.688_035_109_811_468e-10,
    6.066_935_731_106_195_5e-12,
];

/// `1.5·2⁵²`: adding it rounds an `f64` in `[0, 2⁵¹)` to the nearest
/// integer, which lands in the low bits.
const ROUND: f64 = 6_755_399_441_055_744.0;

const TWO_POW_52: f64 = 4_503_599_627_370_496.0;

/// The bits of `2⁻⁵³`.
const TWO_POW_M53: u64 = 0x3ca0_0000_0000_0000;

/// `rand`'s `gen::<f64>()` of one word, `(w >> 11)·2⁻⁵³`, without an
/// integer-to-float conversion: `(w >> 12)·2⁻⁵²` is `[1, 2)` minus one,
/// and the dropped bit adds `2⁻⁵³`. Both terms and their sum are exact.
#[inline(always)]
pub(super) fn uniform(w: u64) -> f64 {
    let high = f64::from_bits((w >> 12) | 1.0f64.to_bits()) - 1.0;
    high + f64::from_bits(((w >> 11) & 1) * TWO_POW_M53)
}

/// `f(l)` for every lane `l`: one stage of the kernel, which LLVM lays
/// across as many vectors as `N` lanes fill.
#[inline(always)]
fn each<T, const N: usize>(f: impl FnMut(usize) -> T) -> [T; N] {
    std::array::from_fn(f)
}

/// `Σ coeffs[k]·zᵏ` on every lane by Horner's rule, one coefficient at a
/// time across all lanes, so that the lanes' chains interleave.
#[inline(always)]
fn horner<const K: usize, const N: usize>(coeffs: &[f64; K], z: &[f64; N]) -> [f64; N] {
    let mut p = [coeffs[K - 1]; N];
    for &c in coeffs[..K - 1].iter().rev() {
        for (p, &z) in p.iter_mut().zip(z) {
            *p = *p * z + c;
        }
    }
    p
}

/// `ln u` for `u ∈ [2⁻⁵³, 1)`, within 25u relative (module docs).
#[inline(always)]
fn ln<const N: usize>(u: &[f64; N]) -> [f64; N] {
    let bits: [u64; N] = each(|l| u[l].to_bits());
    let m: [f64; N] = each(|l| f64::from_bits(bits[l] & ((1u64 << 52) - 1) | 1.0f64.to_bits()));
    // The biased exponent `b` as `2⁵² + b`, less `2⁵² + 1023`: exact.
    let e: [f64; N] =
        each(|l| f64::from_bits((bits[l] >> 52) | TWO_POW_52.to_bits()) - (TWO_POW_52 + 1023.0));
    let big: [bool; N] = each(|l| m[l] > std::f64::consts::SQRT_2);
    let m: [f64; N] = each(|l| if big[l] { 0.5 * m[l] } else { m[l] });
    let e: [f64; N] = each(|l| if big[l] { e[l] + 1.0 } else { e[l] });
    let s: [f64; N] = each(|l| (m[l] - 1.0) / (m[l] + 1.0));
    let t: [f64; N] = each(|l| s[l] * s[l]);
    let p = horner(&ATANH, &t);
    each(|l| e[l] * LN2_HI + (e[l] * LN2_LO + (s[l] + s[l]) * p[l]))
}

/// `cos(2π·u)` for `u ∈ [0, 1)`, within 33u relative (module docs).
#[inline(always)]
fn cos_turns<const N: usize>(u: &[f64; N]) -> [f64; N] {
    let quarters: [f64; N] = each(|l| 4.0 * u[l]);
    let rounded: [f64; N] = each(|l| quarters[l] + ROUND);
    let g: [f64; N] = each(|l| quarters[l] - (rounded[l] - ROUND));
    let z: [f64; N] = each(|l| g[l] * g[l]);
    let cos = horner(&COS, &z);
    let sin = horner(&SIN, &z);
    each(|l| {
        let q = rounded[l].to_bits();
        let c = if q & 1 == 1 { g[l] * sin[l] } else { cos[l] };
        f64::from_bits(c.to_bits() ^ (((q + 1) & 2) << 62))
    })
}

/// `x = sqrt(−2·ln u1)·cos(2π·u2)` and `ρ = sqrt(−2·ln u1)` on every lane.
#[inline(always)]
fn values<const N: usize>(u1: &[f64; N], u2: &[f64; N]) -> ([f64; N], [f64; N]) {
    let ln = ln(u1);
    let cos = cos_turns(u2);
    let radius: [f64; N] = each(|l| (-2.0 * ln[l]).sqrt());
    (each(|l| radius[l] * cos[l]), radius)
}

/// The lane kernel on every lane: `v = x as f32` for
/// `x = sqrt(−2·ln u1)·cos(2π·u2)`, and whether `v` stands: `u1 > 0` and
/// `x` and everything within `B` of it round to `v`.
#[inline(always)]
fn lanes<const N: usize>(u1: &[f64; N], u2: &[f64; N]) -> ([Scalar; N], [bool; N]) {
    let (x, radius) = values(u1, u2);
    let b: [f64; N] = each(|l| B_REL * x[l].abs() + B_ABS * radius[l]);
    let v: [Scalar; N] = each(|l| x[l] as Scalar);
    // `&`, not `&&`: a branch per lane would undo the vectors.
    let ok = each(|l| {
        (u1[l] > f64::MIN_POSITIVE)
            & ((x[l] - b[l]) as Scalar == v[l])
            & ((x[l] + b[l]) as Scalar == v[l])
    });
    (v, ok)
}

/// Fills `out` with what `out.len()` calls of
/// [`crate::init::standard_normal`] would draw from `rng`, and returns how
/// many of them libm computed. `rng` must yield through `fill_bytes` the
/// bytes of its `next_u64` words in order, as every generator in this
/// workspace does.
#[inline(always)]
pub(crate) fn fill<R: RngCore + ?Sized>(rng: &mut R, out: &mut [Scalar]) -> usize {
    let mut blocks = out.chunks_exact_mut(LANES);
    let mut fallbacks = 0;
    for block in &mut blocks {
        // A constant length: the window copy is two vector moves.
        let block: &mut [Scalar; LANES] = block.try_into().expect("a full block");
        fallbacks += fill_block(rng, block);
    }
    let tail = blocks.into_remainder();
    if !tail.is_empty() {
        fallbacks += fill_block(rng, tail);
    }
    fallbacks
}

/// The next `out.len() <= LANES` normals.
#[inline(always)]
fn fill_block<R: RngCore + ?Sized>(rng: &mut R, out: &mut [Scalar]) -> usize {
    let n = out.len();
    let mut bytes = [0u8; 16 * LANES];
    rng.fill_bytes(&mut bytes[..16 * n]);
    let word = |i: usize| u64::from_le_bytes(bytes[8 * i..8 * i + 8].try_into().expect("8 bytes"));
    let u1: [f64; LANES] = each(|l| uniform(word(2 * l)));
    let u2: [f64; LANES] = each(|l| uniform(word(2 * l + 1)));
    let (v, ok) = lanes(&u1, &u2);
    if ok[..n].iter().all(|&ok| ok) {
        out.copy_from_slice(&v[..n]);
        return 0;
    }
    // A zero `u1` is drawn again: from its lane on, the words shift.
    let redo = u1[..n]
        .iter()
        .position(|&u| u <= f64::MIN_POSITIVE)
        .unwrap_or(n);
    let mut fallbacks = 0;
    for l in 0..redo {
        out[l] = if ok[l] {
            v[l]
        } else {
            fallbacks += 1;
            box_muller(u1[l], u2[l])
        };
    }
    if redo < n {
        let mut pending = (2 * redo..2 * n).map(word);
        let mut next = || uniform(pending.next().unwrap_or_else(|| rng.next_u64()));
        for o in &mut out[redo..] {
            *o = loop {
                let u1 = next();
                if u1 > f64::MIN_POSITIVE {
                    break box_muller(u1, next());
                }
            };
        }
        fallbacks += n - redo;
    }
    fallbacks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::{rng, standard_normal, GflRng, WideRng};
    use crate::simd::{set_tier, supported_tiers, SimdTier};
    use proptest::prelude::*;
    use rand::Rng;
    use std::f64::consts::TAU;

    /// `u`.
    const U: f64 = 1.0 / (1u64 << 53) as f64;

    /// A generator over `words`, then the stream of `rng(0)`: any `u64`s,
    /// in the order `standard_normal` reads them.
    struct Words {
        words: Vec<u64>,
        next: usize,
        rest: GflRng,
    }

    impl Words {
        fn new(words: Vec<u64>) -> Self {
            Words {
                words,
                next: 0,
                rest: rng(0),
            }
        }
    }

    impl RngCore for Words {
        fn next_u32(&mut self) -> u32 {
            unreachable!("Box–Muller reads whole words")
        }

        fn next_u64(&mut self) -> u64 {
            self.next += 1;
            match self.words.get(self.next - 1) {
                Some(&w) => w,
                None => self.rest.next_u64(),
            }
        }
    }

    /// A word whose uniform is `u` (a multiple of `2⁻⁵³`), with `junk` in
    /// the eleven bits the uniform drops.
    fn word(u: f64, junk: u64) -> u64 {
        ((u / U) as u64) << 11 | (junk & 0x7ff)
    }

    /// Draws `n` normals from `make()` through the kernel at every tier
    /// and through `standard_normal`, demands the same bits and the same
    /// words consumed, and returns the kernel's fallback count.
    fn assert_serial<R: RngCore>(what: &str, n: usize, make: impl Fn() -> R) -> usize {
        let mut serial = make();
        let want: Vec<Scalar> = (0..n).map(|_| standard_normal(&mut serial)).collect();
        let after = serial.next_u64();
        let mut fallbacks = None;
        for tier in supported_tiers() {
            let prev = set_tier(tier);
            let mut kernel = make();
            let mut got = vec![Scalar::NAN; n];
            let took = crate::simd::standard_normals(&mut kernel, &mut got);
            set_tier(prev);
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(
                    g.to_bits(),
                    w.to_bits(),
                    "{what} tier={} normal {i}: {g:e} vs libm {w:e}",
                    tier.name()
                );
            }
            assert_eq!(
                kernel.next_u64(),
                after,
                "{what} tier={}: words",
                tier.name()
            );
            assert_eq!(*fallbacks.get_or_insert(took), took, "{what}: fallbacks");
        }
        fallbacks.unwrap()
    }

    fn words_of(pairs: &[(f64, f64)]) -> Vec<u64> {
        let junk = |i: usize| (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 53;
        let mut words = Vec::new();
        for (i, &(u1, u2)) in pairs.iter().enumerate() {
            words.extend([word(u1, junk(2 * i)), word(u2, junk(2 * i + 1))]);
        }
        words
    }

    proptest! {
        /// Any stretch of a seed's stream, from any word: random uniform
        /// pairs, blocks straddling windows, a tail shorter than a block.
        #[test]
        fn normals_equal_standard_normal(
            seed in 0u64..u64::MAX,
            skip in 0u64..600,
            n in 0usize..300,
        ) {
            assert_serial("stream", n, || {
                let mut narrow = rng(seed);
                for _ in 0..skip {
                    narrow.next_u32();
                }
                narrow
            });
            assert_serial("wide", n, || WideRng::at_word_pos(seed, skip.into()));
        }

        /// Any words at all, about one in six of them a zero uniform.
        #[test]
        fn normals_equal_standard_normal_on_any_words(
            words in proptest::collection::vec(
                (0u64..u64::MAX, 0u8..6).prop_map(|(w, k)| if k == 0 { w & 2047 } else { w }),
                0..80,
            ),
            n in 0usize..40,
        ) {
            assert_serial("words", n, || Words::new(words.clone()));
        }
    }

    #[test]
    fn extreme_uniforms_equal_libm() {
        let last = 1.0 - U;
        let u2s = [0.0, U, 0.125, 0.25, 0.3, 0.5, 0.75, 0.875, last];
        let pairs: Vec<(f64, f64)> = [U, 2.0 * U, 0.5, last - U, last]
            .into_iter()
            .flat_map(|u1| u2s.map(|u2| (u1, u2)))
            .collect();
        assert_serial("extremes", pairs.len(), || Words::new(words_of(&pairs)));
    }

    /// `4·u2` on and beside every quadrant boundary (the polynomial
    /// switches between `cos` and `sin` there) and at the zeros of
    /// `cos(2π·u2)`, where the screen must hand `x ≈ 0` to libm.
    #[test]
    fn quadrant_boundaries_and_zeros_of_cos_equal_libm() {
        let mut pairs = Vec::new();
        for eighth in 0..8 {
            for step in -3i32..=3 {
                let u2 = eighth as f64 / 8.0 + f64::from(step) * U;
                if (0.0..1.0).contains(&u2) {
                    for u1 in [U, 0.1, 0.5, 0.9, 1.0 - U] {
                        pairs.push((u1, u2));
                    }
                }
            }
        }
        let took = assert_serial("quadrants", pairs.len(), || Words::new(words_of(&pairs)));
        // u2 = 1/4 and 3/4 give cos = 0 to within Δ: the screen refuses.
        assert!(took >= 2 * 5, "{took} fallbacks");
    }

    /// Inputs built so that `x` lies within `B` of the midpoint between
    /// two f32s: the screen must hand every one of them to libm.
    #[test]
    fn inputs_near_f32_midpoints_take_libm() {
        let mut lcg = 0x2545_f491_4f6c_dd1du64;
        let mut next = || {
            lcg = lcg
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            lcg
        };
        let (mut built, tries) = (0, 2000);
        for _ in 0..tries {
            let w2 = next();
            let u2 = (w2 >> 11) as f64 * U;
            let c = (TAU * u2).cos();
            if c.abs() < 0.1 {
                continue;
            }
            let m = 0.05 + 2.95 * ((next() >> 11) as f64 * U);
            let m = m as f32;
            let mid = (f64::from(m) + f64::from(f32::from_bits(m.to_bits() + 1))) / 2.0;
            let mid = mid.copysign(c);
            let s = mid / c;
            let k = ((-0.5 * s * s).exp() / U).round() as u64;
            let w1 = k.clamp(1, (1 << 53) - 1) << 11;
            let u1 = k as f64 * U;
            // Within 2⁻³⁷·|x| ≤ B: a bound the screen must not undercut.
            let ([x], _) = values(&[u1], &[u2]);
            if (x - mid).abs() >= 2f64.powi(-37) * x.abs() {
                continue;
            }
            built += 1;
            let took = assert_serial("midpoint", 1, || Words::new(vec![w1, w2]));
            assert_eq!(took, 1, "u1 = {u1:e}, u2 = {u2:e}: x = {x:e} near {mid:e}");
        }
        assert!(built * 10 > tries * 8, "built {built} of {tries}");
    }

    /// A zero `u1` in lane 3 of a block: lanes 0–2 stand, the rest of the
    /// block comes from the shifted words, and the next block starts where
    /// the serial stream does.
    #[test]
    fn zero_u1_in_lane_3_redoes_the_block_serially() {
        let mut words: Vec<u64> = (1..=40u64)
            .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .collect();
        words[6] = 2047; // (2047 >> 11) == 0: lane 3's u1 is exactly zero
        let took = assert_serial("lane 3", 16, || WideRng::over_words(&words));
        assert!(took >= 5, "lanes 3–7 are drawn serially: {took}");
        let took = assert_serial("words", 16, || Words::new(words.clone()));
        assert!(took >= 5, "lanes 3–7 are drawn serially: {took}");
    }

    /// Blocks whose sixteen words straddle the reader's 1 024-byte window,
    /// at every word offset of the straddle.
    #[test]
    fn blocks_straddling_a_window_equal_libm() {
        for back in 1..=40u64 {
            for n in [1, 7, 8, 9, 24] {
                assert_serial("straddle", n, || {
                    WideRng::at_word_pos(back, (256 - back).into())
                });
                assert_serial("straddle", n, || {
                    WideRng::at_word_pos(back, (512 - back).into())
                });
            }
        }
    }

    /// The kernel's own error, against libm's values, within the bound
    /// the module docs derive (libm's ≤ 1 ulp included): `ln` within
    /// 25u + 2u, `cos` within 33u + 2u relative plus `Δ`, and `x` within
    /// `B / 2¹⁰`.
    #[test]
    fn kernel_error_is_within_its_bound() {
        let delta = 2f64.powf(-50.37);
        let mut r = rng(11);
        let mut grid: Vec<(f64, f64)> = (0..200_000)
            .map(|_| (r.gen::<f64>(), r.gen::<f64>()))
            .collect();
        for k in [1u64, 2, 3, 1 << 20, (1 << 52) - 1, 1 << 52, (1 << 53) - 1] {
            grid.extend([0.0, 0.25, 0.5].map(|u2| (k as f64 * U, u2)));
        }
        let mut worst = [0.0f64; 2];
        for &(u1, u2) in grid.iter().filter(|p| p.0 > 0.0) {
            let [l] = ln(&[u1]);
            let want = u1.ln();
            let e = (l - want).abs() / (U * want.abs());
            assert!(e <= 27.0, "ln({u1:e}): {l:e} vs {want:e}, {e} u");
            let [c] = cos_turns(&[u2]);
            let want = (TAU * u2).cos();
            let e = ((c - want).abs() - delta).max(0.0) / (U * want.abs());
            assert!(e <= 35.0, "cos(2π·{u2:e}): {c:e} vs {want:e}, {e} u");
            let ([x], [radius]) = values(&[u1], &[u2]);
            let libm = (-2.0 * u1.ln()).sqrt() * (TAU * u2).cos();
            let bound = (B_REL * x.abs() + B_ABS * radius) / 1024.0;
            assert!(
                (x - libm).abs() <= bound,
                "x({u1:e}, {u2:e}): {x:e} vs {libm:e}"
            );
            for (w, e) in worst.iter_mut().zip([
                (l - u1.ln()).abs() / (U * u1.ln().abs()),
                (x - libm).abs() / bound,
            ]) {
                *w = w.max(e);
            }
        }
        // Near the zeros of the cosine `x` approaches `Δ·ρ` of libm's: the
        // bound is reached, not loose, before the 2¹⁰ margin.
        eprintln!("worst: ln {:.2} u, x {:.3} of B/2¹⁰", worst[0], worst[1]);
    }

    /// 10⁸ consecutive normals of eight seeds' streams at every tier:
    /// `cargo test --release -p gfl-tensor -- --ignored
    /// normals_equal_standard_normal_deep` (about a minute).
    #[test]
    #[ignore = "10⁸ draws; run in release"]
    fn normals_equal_standard_normal_deep() {
        const CHUNK: usize = 1 << 16;
        let (mut oracle, mut got) = (vec![0.0; CHUNK], vec![0.0; CHUNK]);
        let mut fallbacks = 0;
        for seed in 1..=8u64 {
            let mut serial = crate::init::wide_rng(seed);
            for _ in 0..(100_000_000usize / 8).div_ceil(CHUNK) {
                let start = serial.clone();
                oracle
                    .iter_mut()
                    .for_each(|o| *o = standard_normal(&mut serial));
                for tier in supported_tiers() {
                    let prev = set_tier(tier);
                    let mut kernel = start.clone();
                    let took = crate::simd::standard_normals(&mut kernel, &mut got);
                    set_tier(prev);
                    if tier == SimdTier::Scalar {
                        fallbacks += took;
                    }
                    assert!(
                        got.iter()
                            .zip(&oracle)
                            .all(|(g, w)| g.to_bits() == w.to_bits()),
                        "seed {seed} tier {}",
                        tier.name()
                    );
                    assert_eq!(kernel.word_pos(), serial.word_pos());
                }
            }
        }
        eprintln!("fallbacks: {fallbacks}");
    }
}
