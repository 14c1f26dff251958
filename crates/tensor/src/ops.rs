//! BLAS-1 style kernels over plain `f32` slices.
//!
//! These are the innermost loops of local SGD: parameter updates are axpy,
//! FedProx's proximal term is axpy against the anchor, SCAFFOLD's control
//! variates are two more axpys, and secure-aggregation masking is a slice
//! add. None allocates. The kernels that carry the training FLOPs —
//! [`dot`], [`axpy`], [`gemm_tn`] here and the forward
//! [`crate::simd::gemm_nt`] — dispatch to explicit
//! SIMD implementations in [`crate::simd`] (AVX-512F/AVX2,
//! runtime-detected, [`crate::simd::set_tier`] override); every tier is
//! bit-identical to the scalar reference by construction. [`exp`] is the
//! one f32 exponential: libm-free, FMA-free, and equal to libm's on every
//! input.

use crate::Scalar;

/// `y += alpha * x` (the classic axpy).
///
/// Element-wise (one multiply rounding and one add rounding per element),
/// so the SIMD tiers are trivially bit-identical.
///
/// # Panics
/// Panics if the slices differ in length.
pub fn axpy(alpha: Scalar, x: &[Scalar], y: &mut [Scalar]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    crate::simd::axpy(alpha, x, y);
}

/// Dot product in the canonical 16-chain summation order.
///
/// The order is fixed so every SIMD dispatch tier can reproduce it
/// exactly: 16 independent stride-16 partial accumulators (chain `j` sums
/// `x[16c+j] * y[16c+j]` over ascending `c`), combined left-to-right from
/// `0.0`, then the remainder elements in ascending order. See
/// [`crate::simd`] for the bit-identity argument.
pub fn dot(x: &[Scalar], y: &[Scalar]) -> Scalar {
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
    crate::simd::dot(x, y)
}

/// Scales every element: `x *= alpha`.
pub fn scale(alpha: Scalar, x: &mut [Scalar]) {
    for xi in x.iter_mut() {
        *xi *= alpha;
    }
}

/// Element-wise add: `y += x`.
pub fn add_assign(x: &[Scalar], y: &mut [Scalar]) {
    axpy(1.0, x, y);
}

/// Element-wise subtract: `y -= x`.
pub fn sub_assign(x: &[Scalar], y: &mut [Scalar]) {
    axpy(-1.0, x, y);
}

/// Squared L2 norm.
pub fn norm_sq(x: &[Scalar]) -> Scalar {
    dot(x, x)
}

/// L2 norm.
pub fn norm(x: &[Scalar]) -> Scalar {
    norm_sq(x).sqrt()
}

/// Cosine similarity between two vectors; 0.0 when either has zero norm.
pub fn cosine_similarity(x: &[Scalar], y: &[Scalar]) -> Scalar {
    let nx = norm(x);
    let ny = norm(y);
    if nx == 0.0 || ny == 0.0 {
        return 0.0;
    }
    (dot(x, y) / (nx * ny)).clamp(-1.0, 1.0)
}

/// Table size of [`exp`]: `2^(i/32)` for `i` in `0..32`.
pub(crate) const EXP_N: u64 = 32;

/// `EXP_TABLE[i] = bits(2^(i/32) correctly rounded) − (i << 47)`: adding
/// `k << 47` puts `k / 32` into the exponent field and cancels the rest.
pub(crate) const EXP_TABLE: [u64; EXP_N as usize] = [
    0x3ff0000000000000,
    0x3fefd9b0d3158574,
    0x3fefb5586cf9890f,
    0x3fef9301d0125b51,
    0x3fef72b83c7d517b,
    0x3fef54873168b9aa,
    0x3fef387a6e756238,
    0x3fef1e9df51fdee1,
    0x3fef06fe0a31b715,
    0x3feef1a7373aa9cb,
    0x3feedea64c123422,
    0x3feece086061892d,
    0x3feebfdad5362a27,
    0x3feeb42b569d4f82,
    0x3feeab07dd485429,
    0x3feea47eb03a5585,
    0x3feea09e667f3bcd,
    0x3fee9f75e8ec5f74,
    0x3feea11473eb0187,
    0x3feea589994cce13,
    0x3feeace5422aa0db,
    0x3feeb737b0cdc5e5,
    0x3feec49182a3f090,
    0x3feed503b23e255d,
    0x3feee89f995ad3ad,
    0x3feeff76f2fb5e47,
    0x3fef199bdd85529c,
    0x3fef3720dcef9069,
    0x3fef5818dcfba487,
    0x3fef7c97337b9b5f,
    0x3fefa4afa2a490da,
    0x3fefd0765b6e4540,
];

/// `0x1.8p52`: adding it rounds a double to an integer in its low bits.
pub(crate) const EXP_SHIFT: f64 = f64::from_bits(0x4338_0000_0000_0000);
/// `32 / ln 2`, and its split into a 26-bit head and the rest: `EXP_C_HI·x`
/// and `EXP_C_LO·x` are exact for every `f32` `x` (26 + 24 and 27 + 24
/// significant bits).
pub(crate) const EXP_C: f64 = f64::from_bits(0x4047_1547_652b_82fe);
pub(crate) const EXP_C_HI: f64 = f64::from_bits(0x4047_1547_6000_0000);
pub(crate) const EXP_C_LO: f64 = EXP_C - EXP_C_HI;
/// The cubic for `2^(r/32)` on `|r| <= 1/2`: `0x1.c6af84b912394p-5 / 32³`,
/// `0x1.ebfce50fac4f3p-3 / 32²`, `0x1.62e42ff0c52d6p-1 / 32` (the
/// divisions are exact).
pub(crate) const EXP_POLY: [f64; 3] = [
    f64::from_bits(0x3FAC_6AF8_4B91_2394) / 32768.0,
    f64::from_bits(0x3FCE_BFCE_50FA_C4F3) / 1024.0,
    f64::from_bits(0x3FE6_2E42_FF0C_52D6) / 32.0,
];
/// Above this (`0x1.62e42ep6`) the result overflows to `+∞`.
pub(crate) const EXP_HI: Scalar = Scalar::from_bits(0x42b1_7217);
/// Below this (`−0x1.9fe368p6`) the result underflows to `0`.
pub(crate) const EXP_LO: Scalar = Scalar::from_bits(0xc2cf_f1b4);

/// `e^x`, the one f32 exponential of this workspace.
///
/// A restatement of libm's table-driven `expf` in plain IEEE f64
/// operations — no libm call and no FMA, so the result cannot depend on
/// which libm (or which of its CPU-dispatched variants) the machine has,
/// and the SIMD tiers in [`crate::simd`] run the same operation sequence
/// lane by lane. It equals `f32::exp` on all 2³² bit patterns (NaN payloads
/// included) on the platform the goldens were recorded on;
/// `exp_equals_libm_on_every_f32` enumerates them.
///
/// `x·32/ln 2 = k + r` with `k` an integer and `|r| <= 1/2`; the result is
/// `2^(k/32) · 2^(r/32)` = a table entry with `k / 32` added to its
/// exponent, times a cubic in `r`. libm forms `r` with one fused
/// `fma(C, x, −k)`; here it is `(C_hi·x − k) + C_lo·x`, the same value
/// from two exact products and one rounded sum ([`crate::simd`]'s
/// bit-identity contract says why, and which two inputs need it).
pub fn exp(x: Scalar) -> Scalar {
    if x.is_nan() {
        return x + x;
    }
    if x > EXP_HI {
        return Scalar::INFINITY;
    }
    if x < EXP_LO {
        return 0.0;
    }
    let xd = f64::from(x);
    let kd0 = EXP_C * xd + EXP_SHIFT;
    let ki = kd0.to_bits();
    let kd = kd0 - EXP_SHIFT;
    let r = (EXP_C_HI * xd - kd) + EXP_C_LO * xd;
    let s = f64::from_bits(EXP_TABLE[(ki % EXP_N) as usize].wrapping_add(ki << 47));
    let [c0, c1, c2] = EXP_POLY;
    let y = ((c0 * r + c1) * (r * r) + (c2 * r + 1.0)) * s;
    // Subnormal results come out of this rounding.
    y as Scalar
}

/// Numerically-stable in-place softmax over one logit vector.
pub fn softmax(x: &mut [Scalar]) {
    if x.is_empty() {
        return;
    }
    let max = x.iter().fold(Scalar::NEG_INFINITY, |m, &v| m.max(v));
    let mut sum = 0.0;
    for xi in x.iter_mut() {
        *xi = exp(*xi - max);
        sum += *xi;
    }
    let inv = 1.0 / sum;
    for xi in x.iter_mut() {
        *xi *= inv;
    }
}

/// Index of the maximum element (first one on ties). Panics on empty input.
pub fn argmax(x: &[Scalar]) -> usize {
    assert!(!x.is_empty(), "argmax of empty slice");
    let mut best = 0;
    let mut best_v = x[0];
    for (i, &v) in x.iter().enumerate().skip(1) {
        if v > best_v {
            best = i;
            best_v = v;
        }
    }
    best
}

/// Cross-entropy `-ln(p[target])` from a probability vector, clamped away
/// from zero for stability.
pub fn cross_entropy(probs: &[Scalar], target: usize) -> Scalar {
    assert!(target < probs.len(), "target out of range");
    xent(probs[target])
}

/// `-ln(p)` of the target's probability, clamped away from zero (a NaN
/// probability takes the clamp).
pub fn xent(p: Scalar) -> Scalar {
    -(p.max(1e-12)).ln()
}

/// Clips the vector to `max_norm` in place; returns the scaling applied
/// (1.0 when no clipping occurred).
pub fn clip_norm(x: &mut [Scalar], max_norm: Scalar) -> Scalar {
    let n = norm(x);
    if n <= max_norm || n == 0.0 {
        return 1.0;
    }
    let s = max_norm / n;
    scale(s, x);
    s
}

/// Weighted accumulate of many slices into `out`: `out = Σ w_i * xs_i`.
///
/// This is the aggregation kernel used at the group and global levels
/// (Lines 14–15 of Algorithm 1). `out` is fully overwritten.
pub fn weighted_sum_into(xs: &[&[Scalar]], weights: &[Scalar], out: &mut [Scalar]) {
    assert_eq!(xs.len(), weights.len(), "weighted_sum: arity mismatch");
    out.fill(0.0);
    for (&x, &w) in xs.iter().zip(weights.iter()) {
        axpy(w, x, out);
    }
}

/// Cache-block edge of the scalar `gemm_tn` reference, in matrix rows per
/// tile: 32 rows × 256 cols × 4 B sits inside a 32 KiB L1 while keeping
/// loop overhead low.
pub const GEMM_TILE: usize = 32;

/// Blocked `out = Aᵀ · B` over row-major slices: `a` is `r×m`, `b` is `r×n`,
/// `out` is `m×n`, and `out[i][j] = Σ_t a[t][i] * b[t][j]`.
///
/// This is the `∇W = ∇Yᵀ · X` backward kernel. Each output element
/// accumulates `a[t][i] * b[t][j]` over strictly ascending `t`, skipping
/// terms where `a[t][i] == 0.0` (the ReLU zero-skip — an exact no-op to
/// skip in f32). The accumulation order per element is fixed, so results
/// are bit-identical across blockings and SIMD dispatch tiers.
pub fn gemm_tn(a: &[Scalar], b: &[Scalar], out: &mut [Scalar], r: usize, m: usize, n: usize) {
    crate::simd::gemm_tn(a, b, out, r, m, n);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::assert_close;
    use proptest::prelude::*;

    #[test]
    fn axpy_basic() {
        let x = [1.0, 2.0, 3.0];
        let mut y = [10.0, 20.0, 30.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, [12.0, 24.0, 36.0]);
    }

    #[test]
    #[should_panic(expected = "axpy: length mismatch")]
    fn axpy_length_mismatch_panics() {
        let mut y = [0.0];
        axpy(1.0, &[1.0, 2.0], &mut y);
    }

    #[test]
    fn dot_handles_non_multiple_of_four() {
        let x: Vec<f32> = (1..=7).map(|i| i as f32).collect();
        let y = vec![1.0; 7];
        assert_eq!(dot(&x, &y), 28.0);
    }

    #[test]
    fn softmax_sums_to_one_and_orders() {
        let mut x = vec![1.0, 3.0, 2.0];
        softmax(&mut x);
        let sum: f32 = x.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
        assert!(x[1] > x[2] && x[2] > x[0]);
    }

    #[test]
    fn softmax_is_stable_for_large_logits() {
        let mut x = vec![1000.0, 1001.0];
        softmax(&mut x);
        assert!(x.iter().all(|v| v.is_finite()));
        assert!((x.iter().sum::<f32>() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn argmax_first_on_ties() {
        assert_eq!(argmax(&[1.0, 5.0, 5.0, 2.0]), 1);
    }

    #[test]
    fn clip_norm_only_when_needed() {
        let mut x = vec![3.0, 4.0];
        assert_eq!(clip_norm(&mut x, 10.0), 1.0);
        assert_eq!(x, vec![3.0, 4.0]);
        let s = clip_norm(&mut x, 1.0);
        assert!((s - 0.2).abs() < 1e-6);
        assert!((norm(&x) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn cosine_similarity_bounds_and_zero() {
        assert_eq!(cosine_similarity(&[0.0, 0.0], &[1.0, 0.0]), 0.0);
        let s = cosine_similarity(&[1.0, 0.0], &[1.0, 0.0]);
        assert!((s - 1.0).abs() < 1e-6);
        let o = cosine_similarity(&[1.0, 0.0], &[-1.0, 0.0]);
        assert!((o + 1.0).abs() < 1e-6);
    }

    #[test]
    fn weighted_sum_matches_manual() {
        let a = [1.0, 0.0];
        let b = [0.0, 1.0];
        let mut out = [9.0, 9.0];
        weighted_sum_into(&[&a, &b], &[0.25, 0.75], &mut out);
        assert_close(&out, &[0.25, 0.75], 1e-6);
    }

    #[test]
    fn gemm_nt_matches_per_element_dot_exactly() {
        // Shapes straddling several tile boundaries, including ragged edges.
        for (m, n, k) in [(1, 1, 1), (3, 5, 7), (33, 31, 40), (64, 65, 129)] {
            let a: Vec<f32> = (0..m * k)
                .map(|i| ((i * 7 + 3) % 11) as f32 - 5.0)
                .collect();
            let b: Vec<f32> = (0..n * k)
                .map(|i| ((i * 5 + 1) % 13) as f32 * 0.25)
                .collect();
            let mut out = vec![0.0f32; m * n];
            crate::simd::gemm_nt(&a, &b, &mut out, m, n, k);
            for i in 0..m {
                for j in 0..n {
                    let want = dot(&a[i * k..(i + 1) * k], &b[j * k..(j + 1) * k]);
                    assert_eq!(out[i * n + j], want, "({i},{j}) m={m} n={n} k={k}");
                }
            }
        }
    }

    #[test]
    fn gemm_tn_matches_naive_transpose_product() {
        for (r, m, n) in [(1, 1, 1), (7, 5, 3), (40, 33, 31), (129, 64, 65)] {
            let a: Vec<f32> = (0..r * m).map(|i| ((i * 3 + 2) % 9) as f32 - 4.0).collect();
            let b: Vec<f32> = (0..r * n)
                .map(|i| ((i * 11 + 5) % 7) as f32 * 0.5)
                .collect();
            let mut out = vec![0.0f32; m * n];
            gemm_tn(&a, &b, &mut out, r, m, n);
            // Naive accumulation in the same (ascending t) order.
            let mut want = vec![0.0f32; m * n];
            for t in 0..r {
                for i in 0..m {
                    let av = a[t * m + i];
                    if av != 0.0 {
                        for j in 0..n {
                            want[i * n + j] += av * b[t * n + j];
                        }
                    }
                }
            }
            assert_eq!(out, want, "r={r} m={m} n={n}");
        }
    }

    #[test]
    fn cross_entropy_is_zero_for_confident_correct() {
        assert!(cross_entropy(&[0.0, 1.0], 1) < 1e-6);
        assert!(cross_entropy(&[1.0, 0.0], 1) > 10.0);
    }

    proptest! {
        #[test]
        fn prop_dot_commutative(v in proptest::collection::vec(-100.0f32..100.0, 0..64)) {
            let w: Vec<f32> = v.iter().rev().cloned().collect();
            let d1 = dot(&v, &w);
            let d2 = dot(&w, &v);
            prop_assert!((d1 - d2).abs() <= 1e-3 * (1.0 + d1.abs()));
        }

        #[test]
        fn prop_axpy_zero_alpha_is_identity(v in proptest::collection::vec(-1e3f32..1e3, 1..32)) {
            let mut y = v.clone();
            let x = vec![1.0f32; v.len()];
            axpy(0.0, &x, &mut y);
            prop_assert_eq!(y, v);
        }

        #[test]
        fn prop_softmax_is_distribution(v in proptest::collection::vec(-50.0f32..50.0, 1..32)) {
            let mut x = v;
            softmax(&mut x);
            prop_assert!(x.iter().all(|&p| (0.0..=1.0 + 1e-6).contains(&p)));
            let s: f32 = x.iter().sum();
            prop_assert!((s - 1.0).abs() < 1e-4);
        }

        #[test]
        fn prop_norm_triangle_inequality(
            a in proptest::collection::vec(-100.0f32..100.0, 1..32),
        ) {
            let b: Vec<f32> = a.iter().map(|x| x * 0.5 - 1.0).collect();
            let mut sum = a.clone();
            add_assign(&b, &mut sum);
            prop_assert!(norm(&sum) <= norm(&a) + norm(&b) + 1e-3);
        }
    }
}
