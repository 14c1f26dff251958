//! Runtime-dispatched SIMD microkernels for the dense hot path.
//!
//! Five kernels carry essentially all training FLOPs: [`dot`], [`axpy`],
//! [`gemm_nt`] (forward `A·Bᵀ`, as [`pack_nt`] + [`gemm_nt_packed`]),
//! [`gemm_tn`] (backward `Aᵀ·B`) and [`backward_delta`] (backward
//! `(Δ·W) ⊙ relu'`). This module provides a build of each at every
//! dispatch tier the build can target — AVX-512F and AVX2 on x86-64,
//! explicit `std::arch` code for all but `dot` and `axpy` — plus a portable
//! scalar reference (what every other architecture runs), selected once at
//! runtime from CPU feature detection.
//! Two more carry what is left of a step on the light model once the GEMMs
//! are fast, the per-row softmax tails: [`softmax_xent_rows`] (training:
//! logits → `(P − Y)/B` and the loss) and [`xent_argmax_rows`] (evaluation:
//! loss and correct count).
//!
//! # Bit-identity contract
//!
//! f32 addition is not associative, so "vectorize the loop" normally
//! changes results. Instead, every tier implements the *same* summation
//! DAG, defined by the scalar reference:
//!
//! - **dot**: 16 independent partial accumulators; chain `c` sums
//!   `x[16q+c] * y[16q+c]` over ascending `q`; the chains are then combined
//!   strictly left-to-right starting from `0.0`, followed by the remainder
//!   elements in ascending order. Every tier runs the scalar reference
//!   itself, inlined into a function compiled for the tier's features:
//!   LLVM lays the sixteen chains across vector lanes and, f32 addition
//!   not being associative, never reorders them.
//! - **axpy**: element-wise `y[i] + alpha * x[i]` — one multiply rounding
//!   and one add rounding per element in every tier, so lanes are trivially
//!   bit-identical; like **dot**, each tier is the scalar reference
//!   compiled with the tier's features.
//! - **gemm_nt**: each output element is one full-`k` [`dot`] in the
//!   canonical order, but a vector lane is an *output*, not a chain.
//!   [`pack_nt`] transposes `B` into 16-column panels (`panel[kk][l] =
//!   b[16p+l][kk]`, missing columns zero); per output row the kernel keeps
//!   one vector accumulator per chain (`acc[c] += bcast(a[16q+c]) ·
//!   panel[16q+c]`), then `0.0 + acc[0] + … + acc[15]` and the ascending
//!   `k`-remainder are vector adds. Every lane performs exactly the
//!   roundings of its own scalar dot, sixteen outputs at a time, and no
//!   accumulator is ever reduced across lanes. The optional epilogue is the
//!   layer's `+ bias[j]` then `x < 0.0 → 0.0` (so `−0.0` and NaN pass).
//! - **gemm_tn** / **backward_delta**: each output element accumulates
//!   `a(t,i) * b[t][j]` over strictly ascending `t`, skipping terms where
//!   `a(t,i) == 0.0` (the ReLU zero-skip: `0·inf` must not poison the sum).
//!   The two differ only in how `a` is strided and in the `relu'` gate that
//!   `backward_delta` applies on the way out. Vector tiers hold a column
//!   block of the output row in registers across the `t` sweep and skip
//!   with a *mask*, not a branch — on real deltas the branch is a coin
//!   flip. The mask is exact: AVX-512 leaves masked-off accumulator lanes
//!   untouched; AVX2 adds `product & mask`, i.e. `+0.0`, and `x + 0.0` is
//!   `x` for every `x` but `−0.0`, which an accumulator that starts at
//!   `+0.0` can never hold.
//!
//! - **exp**: [`crate::ops::exp`] is the reference — libm's table-driven
//!   `expf` restated in plain f64 operations — and a vector tier runs that
//!   operation sequence on every lane (two f64 halves per f32 vector), then
//!   lays its three special cases (NaN → `x + x`, above
//!   `0x1.62e42ep6` → `+∞`, below `−0x1.9fe368p6` → `0`) over the result by
//!   mask. libm forms the reduced argument with one fused `fma(C, x, −k)`;
//!   without FMA it is `r = (C_hi·x − k) + C_lo·x`, where `C_hi` is `C` with
//!   its low 27 bits cleared: both products are exact (26 + 24 and 27 + 24
//!   significant bits), the difference cancels exactly, and the one
//!   rounding left is the fused one. That step is load-bearing: with
//!   `r = C·x − k` from the rounded product, exactly two inputs in all of
//!   f32 differ from libm, `32.564632` and `−63.09946`. With it, the
//!   reference and every tier equal `f32::exp` on all 2³² bit patterns, NaN
//!   payloads included (`exp_equals_libm_on_every_f32`), so the goldens
//!   recorded over libm's `expf` stand.
//! - **softmax_xent_rows** / **xent_argmax_rows**: a vector lane is a
//!   *row*, not a chain. Per block of `L` rows (8 or 16) the rows are
//!   transposed in, one strided gather per class (`block[c][l]` = class `c`
//!   of row `l`). The NaN-ignoring maximum ([`crate::ops::softmax`]'s fold;
//!   the sign of a zero maximum cannot reach a result: `x − ±0` feeds only
//!   `exp`, and `exp(±0) = 1`) and the first-strict-maximum argmax are
//!   lane-wise compares; `sum` is one vector add per class in ascending
//!   class order, so each lane performs its row's scalar additions in its
//!   row's order and the `classes`-deep dependent chain disappears without
//!   a reassociation; the label's numerator is a mask select, `1/sum` a
//!   vector divide, and only `ln`, one per row, stays scalar libm, added to
//!   the running loss in row order. Rows past the last full block take the
//!   scalar row form on the same running loss; no lane reads past its row.
//!
//! **No FMA, anywhere.** A fused multiply-add rounds once where
//! mul-then-add rounds twice, so using FMA in any tier would break
//! cross-tier bit-identity. The AVX2 tier therefore requires only `avx2`
//! (not `fma`), and the AVX-512 tier only `avx512f`.
//!
//! # Dispatch
//!
//! The active tier is a setting of the calling thread, and a pool region
//! copies it to its participants for the region's duration (see
//! `gfl_parallel`). A thread that set none runs the process default, read
//! once from the `GFL_SIMD` environment variable by [`parse_tier`]:
//! `auto` (or unset) picks the best supported tier, `off`/`scalar` forces
//! the scalar reference, and a tier name (`avx2`, `avx512`) forces that
//! tier; a name this CPU lacks is an error. [`set_tier`] switches the
//! calling thread's tier — the determinism suite uses it to prove
//! `GFL_SIMD=off` vs `auto` equality in-process, and the bench harness
//! uses it to measure per-tier GFLOP/s — and no other thread sees it.

use std::sync::OnceLock;

use gfl_parallel::EnvError;

use crate::Scalar;

/// One SIMD dispatch tier. Ordering is by capability: later tiers are
/// wider. Every tier computes bit-identical results (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum SimdTier {
    /// Portable scalar reference (the canonical summation order).
    Scalar = 0,
    /// 256-bit AVX2 kernels (no FMA — see module docs).
    Avx2 = 2,
    /// 512-bit AVX-512F kernels.
    Avx512 = 3,
}

impl SimdTier {
    /// Stable lower-case name, matching the `GFL_SIMD` syntax.
    pub fn name(self) -> &'static str {
        match self {
            SimdTier::Scalar => "scalar",
            SimdTier::Avx2 => "avx2",
            SimdTier::Avx512 => "avx512",
        }
    }

    /// Whether this CPU runs the tier.
    fn is_supported(self) -> bool {
        match self {
            SimdTier::Scalar => true,
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            SimdTier::Avx2 => is_x86_feature_detected!("avx2"),
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            SimdTier::Avx512 => is_x86_feature_detected!("avx512f"),
            #[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
            _ => false,
        }
    }

    /// The tier [`set_tier`] stored as `v`, if this CPU runs it: safe code
    /// can write the public cell, so what reaches a kernel is checked here.
    fn from_u8(v: u8) -> Option<SimdTier> {
        ALL_TIERS
            .into_iter()
            .find(|&t| t as u8 == v && t.is_supported())
    }
}

const ALL_TIERS: [SimdTier; 3] = [SimdTier::Scalar, SimdTier::Avx2, SimdTier::Avx512];

/// Tiers usable on this CPU, ascending (always starts with `Scalar`).
pub fn supported_tiers() -> Vec<SimdTier> {
    ALL_TIERS.into_iter().filter(|t| t.is_supported()).collect()
}

/// The widest tier this CPU supports.
pub fn detect_best() -> SimdTier {
    *supported_tiers().last().expect("scalar always supported")
}

/// The tier a `GFL_SIMD` value names (`None` = unset), or an error naming
/// the value when it is no tier this CPU supports.
pub fn parse_tier(value: Option<&str>) -> Result<SimdTier, EnvError> {
    match value {
        None | Some("" | "auto") => Ok(detect_best()),
        Some("off" | "scalar") => Ok(SimdTier::Scalar),
        Some(name) => supported_tiers()
            .into_iter()
            .find(|t| t.name() == name)
            .ok_or_else(|| EnvError {
                var: "GFL_SIMD",
                value: name.to_string(),
                expected: format!(
                    "unknown or unsupported tier on this CPU (supported: auto, off{})",
                    supported_tiers()
                        .iter()
                        .map(|t| format!(", {}", t.name()))
                        .collect::<String>()
                ),
            }),
    }
}

/// The tier a `GFL_SIMD` value names, panicking with [`parse_tier`]'s
/// error when it names none.
fn tier_named(value: Option<&str>) -> SimdTier {
    parse_tier(value).unwrap_or_else(|e| panic!("{e}"))
}

/// The process default tier: `GFL_SIMD`, read once.
fn default_tier() -> SimdTier {
    static DEFAULT: OnceLock<SimdTier> = OnceLock::new();
    *DEFAULT.get_or_init(|| tier_named(std::env::var("GFL_SIMD").ok().as_deref()))
}

/// The tier the kernels dispatch to on the calling thread: its own
/// [`set_tier`], the one its region's caller set, or the process default
/// (see module docs).
pub fn active_tier() -> SimdTier {
    gfl_parallel::SIMD_TIER
        .get()
        .and_then(SimdTier::from_u8)
        .unwrap_or_else(default_tier)
}

/// Forces the calling thread's dispatch tier, and so that of every region
/// it opens, returning the previous tier.
///
/// # Panics
/// Panics if this CPU does not support `tier`. Results are bit-identical
/// across tiers, so switching mid-run changes timing only.
pub fn set_tier(tier: SimdTier) -> SimdTier {
    assert!(
        supported_tiers().contains(&tier),
        "SIMD tier {} not supported on this CPU",
        tier.name()
    );
    let prev = active_tier();
    gfl_parallel::SIMD_TIER.set(Some(tier as u8));
    prev
}

/// Calls the active tier's `$kernel`.
///
/// SAFETY: a tier is only ever active after its CPU feature was detected
/// (`active_tier` returns a stored tier only through
/// `SimdTier::from_u8`'s check, else the default `parse_tier` picked from
/// `supported_tiers`), and the asserts ahead of each use establish the
/// slice lengths the kernels index by.
macro_rules! dispatch {
    ($kernel:ident $args:tt) => {
        match active_tier() {
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            SimdTier::Avx2 => unsafe { x86::avx2::$kernel $args },
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            SimdTier::Avx512 => unsafe { x86::avx512::$kernel $args },
            _ => scalar::$kernel $args,
        }
    };
}

/// Dispatched dot product in the canonical 16-chain order.
pub fn dot(x: &[Scalar], y: &[Scalar]) -> Scalar {
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
    dispatch!(dot(x, y))
}

/// Dispatched `y += alpha * x`.
pub fn axpy(alpha: Scalar, x: &[Scalar], y: &mut [Scalar]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    dispatch!(axpy(alpha, x, y))
}

/// Output columns per packed panel — the canonical chain count, so one
/// 512-bit vector holds a panel row.
pub const PANEL: usize = 16;

/// The three extents of a GEMM, in the order its documentation names them.
pub type Dims = (usize, usize, usize);

/// One row of a packed panel: what sixteen adjacent outputs multiply by at
/// one `k`. A cache line of its own, so no vector load of it splits — the
/// split loads of a 4-byte-aligned image cost the kernel a third.
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(C, align(64))]
pub struct PanelRow(pub [Scalar; PANEL]);

impl PanelRow {
    pub const ZERO: PanelRow = PanelRow([0.0; PANEL]);
}

/// Rows in the [`pack_nt`] image of an `n×k` matrix: `⌈n/16⌉` panels of
/// `⌈k/16⌉·16` rows each (the rows past `k` are never read; they let the
/// packers store whole 16×16 blocks).
pub fn packed_len(n: usize, k: usize) -> usize {
    n.div_ceil(PANEL) * k.next_multiple_of(PANEL)
}

/// Packs the row-major `n×k` matrix `b` into the panel layout
/// [`gemm_nt_packed`] reads: `packed[p][kk][l] = b[16p+l][kk]`, zero where
/// `16p+l >= n`. Every row of `packed` is overwritten.
pub fn pack_nt(b: &[Scalar], n: usize, k: usize, packed: &mut [PanelRow]) {
    assert_eq!(b.len(), n * k, "pack_nt: matrix size");
    assert_eq!(packed.len(), packed_len(n, k), "pack_nt: packed size");
    dispatch!(pack_nt(b, n, k, packed))
}

/// `out = A · Bᵀ` against a [`pack_nt`] image of `B` (`n×k`), with the
/// layer epilogue folded in: `out[i][j] = dot(a.row(i), b.row(j))`, then
/// `+ bias[j]` when a bias is given, then `x < 0.0 → 0.0` when `relu`.
pub fn gemm_nt_packed(
    a: &[Scalar],
    packed: &[PanelRow],
    bias: Option<&[Scalar]>,
    relu: bool,
    out: &mut [Scalar],
    (m, n, k): Dims,
) {
    assert_eq!(a.len(), m * k, "gemm_nt: lhs size");
    assert_eq!(packed.len(), packed_len(n, k), "gemm_nt: packed rhs size");
    assert_eq!(out.len(), m * n, "gemm_nt: out size");
    assert!(bias.is_none_or(|b| b.len() == n), "gemm_nt: bias size");
    dispatch!(gemm_nt_packed(a, packed, bias, relu, out, (m, n, k)))
}

/// Dispatched `out = A · Bᵀ` over row-major slices: `a` is `m×k`, `b` is
/// `n×k`, `out` is `m×n`, and `out[i][j] = dot(a.row(i), b.row(j))`.
/// [`pack_nt`] into a scratch image, then [`gemm_nt_packed`]. Callers that
/// reuse `B` across calls pack once and call the packed kernel themselves.
pub fn gemm_nt(a: &[Scalar], b: &[Scalar], out: &mut [Scalar], m: usize, n: usize, k: usize) {
    assert_eq!(a.len(), m * k, "gemm_nt: lhs size");
    assert_eq!(b.len(), n * k, "gemm_nt: rhs size");
    assert_eq!(out.len(), m * n, "gemm_nt: out size");
    let mut packed = vec![PanelRow::ZERO; packed_len(n, k)];
    pack_nt(b, n, k, &mut packed);
    gemm_nt_packed(a, &packed, None, false, out, (m, n, k));
}

/// Dispatched `out = Aᵀ · B` (see [`crate::ops::gemm_tn`] for shapes).
pub fn gemm_tn(a: &[Scalar], b: &[Scalar], out: &mut [Scalar], r: usize, m: usize, n: usize) {
    assert_eq!(a.len(), r * m, "gemm_tn: lhs size");
    assert_eq!(b.len(), r * n, "gemm_tn: rhs size");
    assert_eq!(out.len(), m * n, "gemm_tn: out size");
    dispatch!(gemm_tn(a, b, out, (r, m, n)))
}

/// Backprop through one dense ReLU layer: `out = (Δ · W) ⊙ relu'(A)`.
///
/// `delta` is `m×r` (the layer's output deltas), `w` the layer's `r×n`
/// weights, `act` the `m×n` activations that fed the layer and `out` the
/// `m×n` deltas below it: `out[i][j] = Σ_t delta[i][t] * w[t][j]` over
/// ascending `t`, skipping `delta[i][t] == 0.0`, then `0.0` wherever
/// `act[i][j] <= 0.0`.
pub fn backward_delta(
    delta: &[Scalar],
    w: &[Scalar],
    act: &[Scalar],
    out: &mut [Scalar],
    (m, r, n): Dims,
) {
    assert_eq!(delta.len(), m * r, "backward_delta: delta size");
    assert_eq!(w.len(), r * n, "backward_delta: weight size");
    assert_eq!(act.len(), m * n, "backward_delta: activation size");
    assert_eq!(out.len(), m * n, "backward_delta: out size");
    dispatch!(backward_delta(delta, w, act, out, (m, r, n)))
}

/// Rows per block of the lane-per-row kernels: the widest tier's lanes.
const ROW_BLOCK: usize = 16;

/// What both row kernels demand of their arguments; sizes `block` for one
/// transposed block of rows.
fn check_rows(logits: &[Scalar], classes: usize, labels: &[usize], block: &mut Vec<Scalar>) {
    assert_eq!(logits.len(), labels.len() * classes, "rows: logits size");
    assert!(labels.iter().all(|&l| l < classes), "target out of range");
    assert!(classes <= i32::MAX as usize / ROW_BLOCK, "rows: too wide");
    block.resize(classes * ROW_BLOCK, 0.0);
}

/// Softmax cross-entropy over a batch of logit rows, in place: each
/// `classes`-wide row of `logits` becomes `(softmax(row) − onehot(label)) ·
/// inv_b`, and the rows' cross-entropies are returned summed in row order
/// from `0.0` — per row [`crate::ops::softmax`], [`crate::ops::cross_entropy`],
/// `row[label] -= 1.0`, [`crate::ops::scale`]. `block` is scratch, sized
/// here.
///
/// # Panics
/// Panics with "target out of range" if a label is `>= classes`.
pub fn softmax_xent_rows(
    logits: &mut [Scalar],
    classes: usize,
    labels: &[usize],
    inv_b: Scalar,
    block: &mut Vec<Scalar>,
) -> Scalar {
    check_rows(logits, classes, labels, block);
    dispatch!(softmax_xent_rows(logits, classes, labels, inv_b, block))
}

/// Evaluation's tail over a batch of logit rows: the rows' cross-entropies
/// summed in row order from `0.0`, and how many rows have their first
/// strict maximum ([`crate::ops::argmax`]) at their label. The
/// probabilities are never written out. `block` is scratch, sized here.
///
/// # Panics
/// Panics with "target out of range" if a label is `>= classes`.
pub fn xent_argmax_rows(
    logits: &[Scalar],
    classes: usize,
    labels: &[usize],
    block: &mut Vec<Scalar>,
) -> (Scalar, usize) {
    check_rows(logits, classes, labels, block);
    dispatch!(xent_argmax_rows(logits, classes, labels, block))
}

/// Every tier's vector `exp` over a slice, for the tests that hold it to
/// libm's bits.
#[cfg(test)]
fn exp_lanes(x: &[Scalar], out: &mut [Scalar]) {
    assert_eq!(x.len(), out.len(), "exp_lanes: length mismatch");
    dispatch!(exp_lanes(x, out))
}

/// Portable reference kernels defining the canonical summation order.
pub(crate) mod scalar {
    use super::{Dims, PanelRow, PANEL};
    use crate::ops::{self, GEMM_TILE};
    use crate::Scalar;

    /// The row loop `Mlp::loss_and_grad` used to run. Nothing is summed
    /// across rows but the loss, and that in row order.
    pub(crate) fn softmax_xent_rows(
        logits: &mut [Scalar],
        classes: usize,
        labels: &[usize],
        inv_b: Scalar,
        _block: &mut [Scalar],
    ) -> Scalar {
        softmax_xent_tail(0.0, logits, classes, labels, inv_b)
    }

    /// [`softmax_xent_rows`] continuing a running `loss`: what a vector
    /// tier hands the rows past its last full block.
    pub(crate) fn softmax_xent_tail(
        mut loss: Scalar,
        logits: &mut [Scalar],
        classes: usize,
        labels: &[usize],
        inv_b: Scalar,
    ) -> Scalar {
        // No classes means no rows, and `chunks_mut(0)` panics even then.
        for (row, &label) in logits.chunks_mut(classes.max(1)).zip(labels) {
            ops::softmax(row);
            loss += ops::cross_entropy(row, label);
            row[label] -= 1.0;
            ops::scale(inv_b, row);
        }
        loss
    }

    /// The row loop `Mlp::eval_chunk` used to run, one row of
    /// probabilities at a time in the head of `block`.
    pub(crate) fn xent_argmax_rows(
        logits: &[Scalar],
        classes: usize,
        labels: &[usize],
        block: &mut [Scalar],
    ) -> (Scalar, usize) {
        xent_argmax_tail((0.0, 0), logits, classes, labels, block)
    }

    /// [`xent_argmax_rows`] continuing a running `(loss, correct)`.
    pub(crate) fn xent_argmax_tail(
        (mut loss, mut correct): (Scalar, usize),
        logits: &[Scalar],
        classes: usize,
        labels: &[usize],
        block: &mut [Scalar],
    ) -> (Scalar, usize) {
        let probs = &mut block[..classes];
        for (row, &label) in logits.chunks(classes.max(1)).zip(labels) {
            probs.copy_from_slice(row);
            let pred = ops::argmax(probs);
            ops::softmax(probs);
            loss += ops::cross_entropy(probs, label);
            correct += usize::from(pred == label);
        }
        (loss, correct)
    }

    #[cfg(test)]
    pub(crate) fn exp_lanes(x: &[Scalar], out: &mut [Scalar]) {
        for (o, &x) in out.iter_mut().zip(x) {
            *o = ops::exp(x);
        }
    }

    /// Canonical dot: 16 stride-16 accumulator chains, reduced
    /// left-to-right from `0.0`, then the ascending remainder.
    #[inline(always)]
    pub(crate) fn dot(x: &[Scalar], y: &[Scalar]) -> Scalar {
        let mut acc = [0.0f32; 16];
        for (cx, cy) in x.chunks_exact(16).zip(y.chunks_exact(16)) {
            for ((a, &xv), &yv) in acc.iter_mut().zip(cx).zip(cy) {
                *a += xv * yv;
            }
        }
        let mut sum = 0.0;
        for &a in &acc {
            sum += a;
        }
        let done = (x.len() / 16) * 16;
        for (&xv, &yv) in x[done..].iter().zip(&y[done..]) {
            sum += xv * yv;
        }
        sum
    }

    #[inline(always)]
    pub(crate) fn axpy(alpha: Scalar, x: &[Scalar], y: &mut [Scalar]) {
        for (yi, &xi) in y.iter_mut().zip(x.iter()) {
            *yi += alpha * xi;
        }
    }

    pub(crate) fn pack_nt(b: &[Scalar], n: usize, k: usize, packed: &mut [PanelRow]) {
        let kpad = k.next_multiple_of(PANEL);
        for (p, panel) in packed.chunks_exact_mut(kpad).enumerate() {
            for (kk, row) in panel.iter_mut().enumerate() {
                for (l, v) in row.0.iter_mut().enumerate() {
                    let j = p * PANEL + l;
                    *v = if j < n && kk < k { b[j * k + kk] } else { 0.0 };
                }
            }
        }
    }

    /// Lane `l` of `acc[c]` is chain `c` of output `16p+l`: the canonical
    /// [`dot`] of sixteen outputs at once, one panel row per step.
    pub(crate) fn gemm_nt_packed(
        a: &[Scalar],
        packed: &[PanelRow],
        bias: Option<&[Scalar]>,
        relu: bool,
        out: &mut [Scalar],
        (m, n, k): Dims,
    ) {
        let full = k / PANEL * PANEL;
        for (p, panel) in packed.chunks_exact(k.next_multiple_of(PANEL)).enumerate() {
            for i in 0..m {
                let ai = &a[i * k..(i + 1) * k];
                let mut acc = [[0.0f32; PANEL]; PANEL];
                for (kk, (&av, row)) in ai[..full].iter().zip(panel).enumerate() {
                    for (s, &bv) in acc[kk % PANEL].iter_mut().zip(&row.0) {
                        *s += av * bv;
                    }
                }
                let mut sum = [0.0f32; PANEL];
                for chain in &acc {
                    for (s, &c) in sum.iter_mut().zip(chain) {
                        *s += c;
                    }
                }
                for (&av, row) in ai[full..].iter().zip(&panel[full..]) {
                    for (s, &bv) in sum.iter_mut().zip(&row.0) {
                        *s += av * bv;
                    }
                }
                let j0 = p * PANEL;
                for (l, o) in out[i * n + j0..(i + 1) * n]
                    .iter_mut()
                    .take(PANEL)
                    .enumerate()
                {
                    let x = bias.map_or(sum[l], |b| sum[l] + b[j0 + l]);
                    *o = if relu && x < 0.0 { 0.0 } else { x };
                }
            }
        }
    }

    pub(crate) fn gemm_tn(a: &[Scalar], b: &[Scalar], out: &mut [Scalar], (r, m, n): Dims) {
        out.fill(0.0);
        for ib in (0..m).step_by(GEMM_TILE) {
            let ie = (ib + GEMM_TILE).min(m);
            for t in 0..r {
                let at = &a[t * m..(t + 1) * m];
                let bt = &b[t * n..(t + 1) * n];
                for i in ib..ie {
                    let av = at[i];
                    // Zero-skip: ReLU deltas are sparse, and a skipped
                    // term must not contribute even `0·inf = NaN`.
                    if av != 0.0 {
                        axpy(av, bt, &mut out[i * n..(i + 1) * n]);
                    }
                }
            }
        }
    }

    /// The row loop `Mlp::loss_and_grad` used to run: per batch row, the
    /// zero-skipping axpy sweep over ascending `t`, then the ReLU gate.
    pub(crate) fn backward_delta(
        delta: &[Scalar],
        w: &[Scalar],
        act: &[Scalar],
        out: &mut [Scalar],
        (m, r, n): Dims,
    ) {
        for i in 0..m {
            let dst = &mut out[i * n..(i + 1) * n];
            dst.fill(0.0);
            for (t, &dt) in delta[i * r..(i + 1) * r].iter().enumerate() {
                if dt != 0.0 {
                    axpy(dt, &w[t * n..(t + 1) * n], dst);
                }
            }
            for (g, &a) in dst.iter_mut().zip(&act[i * n..(i + 1) * n]) {
                if a <= 0.0 {
                    *g = 0.0;
                }
            }
        }
    }
}

#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
mod x86 {
    //! x86 kernels. All are `unsafe` because of `#[target_feature]` and raw
    //! pointer indexing; the dispatcher only calls them after runtime
    //! feature detection, with slice lengths validated by its asserts.
    #![allow(unsafe_op_in_unsafe_fn)]

    #[cfg(target_arch = "x86")]
    use core::arch::x86::*;
    #[cfg(target_arch = "x86_64")]
    use core::arch::x86_64::*;

    use super::{scalar, Dims, PanelRow, PANEL};
    use crate::ops::{
        self, EXP_C, EXP_C_HI, EXP_C_LO, EXP_HI, EXP_LO, EXP_N, EXP_POLY, EXP_SHIFT, EXP_TABLE,
    };

    /// The kernels of one tier, written once over the names the tier's
    /// module binds: the vector width `L`; the plain intrinsics `load`,
    /// `store`, `set1`, `zero`, `add`, `sub`, `mul`, `div`, `max`;
    /// `load_head` and `store_head`, which touch only the first `cols`
    /// lanes' memory; the masked steps `add_if` and `gate`; and for the row
    /// kernels the types `V`/`VI`/`M` (f32 lanes, i32 lanes, a lane mask),
    /// the compares `gt`, `is_nan`, `eq_i32`, the selects `select`,
    /// `select_i32` (`mask ? yes : no`) and `count`, the strided `gather`
    /// and `scatter`, `load_i32`, and `exp`'s f64 halves: `widen`,
    /// `narrow`, `addd`, `subd`, `muld`, `set1d` and `exp_scale`.
    ///
    /// # Safety
    /// Every function requires the CPU feature it is compiled for and the
    /// slice lengths of the like-named dispatcher in the parent module.
    macro_rules! tier_kernels {
        ($feature:literal) => {
            /// The scalar reference, inlined: compiled under the tier's
            /// features it vectorizes as well as explicit intrinsics do
            /// (docs/PERF.md, "SIMD kernels"), with the same roundings.
            #[target_feature(enable = $feature)]
            pub(in super::super) unsafe fn dot(x: &[f32], y: &[f32]) -> f32 {
                scalar::dot(x, y)
            }

            #[target_feature(enable = $feature)]
            pub(in super::super) unsafe fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
                scalar::axpy(alpha, x, y)
            }

            /// One vector of outputs at a time (`j0` walks the panels in
            /// steps of `L` columns), panel outer and rows inner: a panel
            /// stays cache-resident while the rows of `a` stream past it.
            /// Eight of the sixteen chain accumulators are live at a time,
            /// which fits either register file.
            #[target_feature(enable = $feature)]
            pub(in super::super) unsafe fn gemm_nt_packed(
                a: &[f32],
                packed: &[PanelRow],
                bias: Option<&[f32]>,
                relu: bool,
                out: &mut [f32],
                (m, n, k): Dims,
            ) {
                const CHAINS: usize = 8;
                let kpad = k.next_multiple_of(PANEL);
                let chunks = k / PANEL;
                for j0 in (0..n).step_by(L) {
                    let cols = (n - j0).min(L);
                    let panel =
                        (packed.as_ptr().add(j0 / PANEL * kpad) as *const f32).add(j0 % PANEL);
                    let bias = bias.map(|b| load_head(b.as_ptr().add(j0), cols));
                    for i in 0..m {
                        let ar = a.as_ptr().add(i * k);
                        let mut sum = zero();
                        for first in (0..PANEL).step_by(CHAINS) {
                            let mut acc = [zero(); CHAINS];
                            for q in 0..chunks {
                                for (c, s) in acc.iter_mut().enumerate() {
                                    let kk = q * PANEL + first + c;
                                    *s = add(
                                        *s,
                                        mul(set1(*ar.add(kk)), load(panel.add(kk * PANEL))),
                                    );
                                }
                            }
                            for s in acc {
                                sum = add(sum, s);
                            }
                        }
                        for kk in chunks * PANEL..k {
                            sum = add(sum, mul(set1(*ar.add(kk)), load(panel.add(kk * PANEL))));
                        }
                        if let Some(b) = bias {
                            sum = add(sum, b);
                        }
                        if relu {
                            // `maxps(0, x)` is `0 > x ? 0 : x`: −0.0 and NaN
                            // fail the compare and pass through.
                            sum = max(zero(), sum);
                        }
                        store_head(out.as_mut_ptr().add(i * n + j0), sum, cols);
                    }
                }
            }

            /// `R` adjacent output rows by `W` vectors, held in registers
            /// across the whole `t` sweep; each `b` load feeds all `R` rows.
            /// The last vector is `cols` wide.
            #[inline]
            #[target_feature(enable = $feature)]
            unsafe fn skip_block<const R: usize, const W: usize>(
                a: *const f32,
                (sat, sai): (usize, usize),
                b: *const f32,
                act: Option<*const f32>,
                out: *mut f32,
                (r, n, cols): Dims,
            ) {
                let mut s = [[zero(); W]; R];
                for t in 0..r {
                    let mut bt = [zero(); W];
                    for (h, v) in bt.iter_mut().enumerate() {
                        let at = b.add(t * n + h * L);
                        *v = if h + 1 < W {
                            load(at)
                        } else {
                            load_head(at, cols)
                        };
                    }
                    for (i, row) in s.iter_mut().enumerate() {
                        let av = set1(*a.add(t * sat + i * sai));
                        for (s, &bv) in row.iter_mut().zip(&bt) {
                            *s = add_if(*s, av, bv);
                        }
                    }
                }
                for (i, row) in s.iter().enumerate() {
                    for (h, &s) in row.iter().enumerate() {
                        let (at, cols) = (i * n + h * L, if h + 1 < W { L } else { cols });
                        let s = act.map_or(s, |g| gate(s, load_head(g.add(at), cols)));
                        store_head(out.add(at), s, cols);
                    }
                }
            }

            /// `out[i][j] = Σ_t a(t,i)·b[t][j]` over ascending `t`, terms
            /// with `a(t,i) == 0.0` skipped, where `a(t,i) = a[t*sat + i*sai]`;
            /// then `0.0` wherever `act[i][j] <= 0.0`, when `act` is given.
            #[target_feature(enable = $feature)]
            unsafe fn gemm_skip(
                a: &[f32],
                strides: (usize, usize),
                b: &[f32],
                act: Option<&[f32]>,
                out: &mut [f32],
                (r, m, n): Dims,
            ) {
                for i in (0..m).step_by(2) {
                    for j in (0..n).step_by(4 * L) {
                        let vectors = (n - j).div_ceil(L).min(4);
                        let cols = (n - j - (vectors - 1) * L).min(L);
                        let a = a.as_ptr().add(i * strides.1);
                        let b = b.as_ptr().add(j);
                        let act = act.map(|g| g.as_ptr().add(i * n + j));
                        let out = out.as_mut_ptr().add(i * n + j);
                        let dims = (r, n, cols);
                        match (m - i > 1, vectors) {
                            (true, 4) => skip_block::<2, 4>(a, strides, b, act, out, dims),
                            (true, 3) => skip_block::<2, 3>(a, strides, b, act, out, dims),
                            (true, 2) => skip_block::<2, 2>(a, strides, b, act, out, dims),
                            (true, _) => skip_block::<2, 1>(a, strides, b, act, out, dims),
                            (false, 4) => skip_block::<1, 4>(a, strides, b, act, out, dims),
                            (false, 3) => skip_block::<1, 3>(a, strides, b, act, out, dims),
                            (false, 2) => skip_block::<1, 2>(a, strides, b, act, out, dims),
                            (false, _) => skip_block::<1, 1>(a, strides, b, act, out, dims),
                        }
                    }
                }
            }

            /// `a(t,i) = a[t][i]` of an `r×m` matrix.
            #[target_feature(enable = $feature)]
            pub(in super::super) unsafe fn gemm_tn(
                a: &[f32],
                b: &[f32],
                out: &mut [f32],
                dims: Dims,
            ) {
                gemm_skip(a, (dims.1, 1), b, None, out, dims)
            }

            /// `a(t,i) = delta[i][t]` of an `m×r` matrix, gated by `act`.
            #[target_feature(enable = $feature)]
            pub(in super::super) unsafe fn backward_delta(
                delta: &[f32],
                w: &[f32],
                act: &[f32],
                out: &mut [f32],
                (m, r, n): Dims,
            ) {
                gemm_skip(delta, (1, r), w, Some(act), out, (r, m, n))
            }

            /// [`ops::exp`] on every lane: the same f64 operations in the
            /// same order, half the lanes at a time, then its three special
            /// cases laid over the result by mask.
            #[inline]
            #[target_feature(enable = $feature)]
            unsafe fn exp(x: V) -> V {
                let [c0, c1, c2] = EXP_POLY;
                let mut halves = widen(x);
                for xd in halves.iter_mut() {
                    let kd0 = addd(muld(set1d(EXP_C), *xd), set1d(EXP_SHIFT));
                    let kd = subd(kd0, set1d(EXP_SHIFT));
                    let r = addd(
                        subd(muld(set1d(EXP_C_HI), *xd), kd),
                        muld(set1d(EXP_C_LO), *xd),
                    );
                    let poly = addd(
                        muld(addd(muld(set1d(c0), r), set1d(c1)), muld(r, r)),
                        addd(muld(set1d(c2), r), set1d(1.0)),
                    );
                    *xd = muld(poly, exp_scale(kd0));
                }
                let y = narrow(halves);
                let y = select(gt(x, set1(EXP_HI)), set1(f32::INFINITY), y);
                let y = select(gt(set1(EXP_LO), x), zero(), y);
                select(is_nan(x), add(x, x), y)
            }

            #[cfg(test)]
            #[target_feature(enable = $feature)]
            pub(in super::super) unsafe fn exp_lanes(x: &[f32], out: &mut [f32]) {
                let full = x.len() / L * L;
                for i in (0..full).step_by(L) {
                    store(out.as_mut_ptr().add(i), exp(load(x.as_ptr().add(i))));
                }
                scalar::exp_lanes(&x[full..], &mut out[full..]);
            }

            /// `L` labels (checked `< classes <= i32::MAX`) as i32 lanes.
            #[inline]
            #[target_feature(enable = $feature)]
            unsafe fn load_labels(labels: *const usize) -> VI {
                let mut lanes = [0i32; L];
                for (l, lane) in lanes.iter_mut().enumerate() {
                    *lane = *labels.add(l) as i32;
                }
                load_i32(lanes.as_ptr() as *const _)
            }

            /// Transposes `L` rows starting at `base` into `block` (class
            /// `c` of lane `l`'s row at `block[c·L + l]`) and returns each
            /// lane's NaN-ignoring maximum, [`ops::softmax`]'s fold.
            #[inline]
            #[target_feature(enable = $feature)]
            unsafe fn rows_in(base: *const f32, classes: usize, block: *mut f32) -> V {
                let mut m = set1(f32::NEG_INFINITY);
                for c in 0..classes {
                    let v = gather(base.add(c), classes);
                    store(block.add(c * L), v);
                    // `maxps` returns its second operand when the first is NaN.
                    m = max(v, m);
                }
                m
            }

            /// `block[c] = exp(block[c] − m)` for every class, ascending;
            /// returns the lanes' sums (each row's additions in its row's
            /// order, from `0.0`) and the lanes' numerators at their labels.
            #[inline]
            #[target_feature(enable = $feature)]
            unsafe fn rows_exp(block: *mut f32, classes: usize, m: V, label: VI) -> (V, V) {
                let (mut sum, mut num) = (zero(), zero());
                for c in 0..classes {
                    let e = exp(sub(load(block.add(c * L)), m));
                    store(block.add(c * L), e);
                    sum = add(sum, e);
                    num = select(eq_i32(label, set1_i32(c as i32)), e, num);
                }
                (sum, num)
            }

            /// Adds the lanes' cross-entropies to `loss` in lane order; the
            /// one `ln` per row stays libm's.
            #[inline]
            #[target_feature(enable = $feature)]
            unsafe fn add_xent(mut loss: f32, p: V) -> f32 {
                let mut lanes = [0.0f32; L];
                store(lanes.as_mut_ptr(), p);
                for p in lanes {
                    loss += ops::xent(p);
                }
                loss
            }

            /// A lane is a row: full blocks of `L` rows here, the rows past
            /// them through the scalar row form, one running loss.
            #[target_feature(enable = $feature)]
            pub(in super::super) unsafe fn softmax_xent_rows(
                logits: &mut [f32],
                classes: usize,
                labels: &[usize],
                inv_b: f32,
                block: &mut [f32],
            ) -> f32 {
                let full = labels.len() / L * L;
                let block = block.as_mut_ptr();
                let mut loss = 0.0f32;
                for r0 in (0..full).step_by(L) {
                    let base = logits.as_mut_ptr().add(r0 * classes);
                    let label = load_labels(labels.as_ptr().add(r0));
                    let m = rows_in(base, classes, block);
                    let (sum, num) = rows_exp(block, classes, m, label);
                    let inv = div(set1(1.0), sum);
                    loss = add_xent(loss, mul(num, inv));
                    for c in 0..classes {
                        let p = mul(load(block.add(c * L)), inv);
                        let hit = eq_i32(label, set1_i32(c as i32));
                        let p = select(hit, sub(p, set1(1.0)), p);
                        scatter(base.add(c), classes, mul(p, set1(inv_b)));
                    }
                }
                scalar::softmax_xent_tail(
                    loss,
                    &mut logits[full * classes..],
                    classes,
                    &labels[full..],
                    inv_b,
                )
            }

            #[target_feature(enable = $feature)]
            pub(in super::super) unsafe fn xent_argmax_rows(
                logits: &[f32],
                classes: usize,
                labels: &[usize],
                block: &mut [f32],
            ) -> (f32, usize) {
                let full = labels.len() / L * L;
                let (mut loss, mut correct) = (0.0f32, 0usize);
                for r0 in (0..full).step_by(L) {
                    let base = logits.as_ptr().add(r0 * classes);
                    let label = load_labels(labels.as_ptr().add(r0));
                    let m = rows_in(base, classes, block.as_mut_ptr());
                    // First strict maximum: a later class wins only if
                    // greater, and nothing is greater than a NaN.
                    let (mut best, mut at) = (load(block.as_ptr()), set1_i32(0));
                    for c in 1..classes {
                        let v = load(block.as_ptr().add(c * L));
                        let wins = gt(v, best);
                        best = select(wins, v, best);
                        at = select_i32(wins, set1_i32(c as i32), at);
                    }
                    correct += count(eq_i32(at, label));
                    let (sum, num) = rows_exp(block.as_mut_ptr(), classes, m, label);
                    loss = add_xent(loss, mul(num, div(set1(1.0), sum)));
                }
                scalar::xent_argmax_tail(
                    (loss, correct),
                    &logits[full * classes..],
                    classes,
                    &labels[full..],
                    block,
                )
            }
        };
    }

    pub(super) mod avx512 {
        use super::*;
        use {
            _mm512_add_pd as addd, _mm512_add_ps as add, _mm512_div_ps as div,
            _mm512_loadu_ps as load, _mm512_loadu_si512 as load_i32, _mm512_max_ps as max,
            _mm512_mul_pd as muld, _mm512_mul_ps as mul, _mm512_set1_epi32 as set1_i32,
            _mm512_set1_pd as set1d, _mm512_set1_ps as set1, _mm512_setzero_ps as zero,
            _mm512_storeu_ps as store, _mm512_sub_pd as subd, _mm512_sub_ps as sub,
        };

        const L: usize = 16;
        type V = __m512;
        type VI = __m512i;
        type M = __mmask16;

        #[inline]
        #[target_feature(enable = "avx512f")]
        unsafe fn gt(a: V, b: V) -> M {
            _mm512_cmp_ps_mask::<_CMP_GT_OQ>(a, b)
        }

        #[inline]
        #[target_feature(enable = "avx512f")]
        unsafe fn is_nan(x: V) -> M {
            _mm512_cmp_ps_mask::<_CMP_UNORD_Q>(x, x)
        }

        #[inline]
        #[target_feature(enable = "avx512f")]
        unsafe fn eq_i32(a: VI, b: VI) -> M {
            _mm512_cmpeq_epi32_mask(a, b)
        }

        #[inline]
        #[target_feature(enable = "avx512f")]
        unsafe fn select(m: M, yes: V, no: V) -> V {
            _mm512_mask_blend_ps(m, no, yes)
        }

        #[inline]
        #[target_feature(enable = "avx512f")]
        unsafe fn select_i32(m: M, yes: VI, no: VI) -> VI {
            _mm512_mask_blend_epi32(m, no, yes)
        }

        fn count(m: M) -> usize {
            m.count_ones() as usize
        }

        /// Lane `l`'s offset into a matrix of `classes`-wide rows.
        #[inline]
        #[target_feature(enable = "avx512f")]
        unsafe fn row_offsets(classes: usize) -> VI {
            let lane = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
            _mm512_mullo_epi32(lane, set1_i32(classes as i32))
        }

        /// Lane `l` = `base[l·classes]`.
        #[inline]
        #[target_feature(enable = "avx512f")]
        unsafe fn gather(base: *const f32, classes: usize) -> V {
            _mm512_i32gather_ps::<4>(row_offsets(classes), base)
        }

        /// `base[l·classes]` = lane `l`.
        #[inline]
        #[target_feature(enable = "avx512f")]
        unsafe fn scatter(base: *mut f32, classes: usize, v: V) {
            _mm512_i32scatter_ps::<4>(base, row_offsets(classes), v)
        }

        #[inline]
        #[target_feature(enable = "avx512f")]
        unsafe fn widen(x: V) -> [__m512d; 2] {
            let hi = _mm512_extractf64x4_pd::<1>(_mm512_castps_pd(x));
            [
                _mm512_cvtps_pd(_mm512_castps512_ps256(x)),
                _mm512_cvtps_pd(_mm256_castpd_ps(hi)),
            ]
        }

        #[inline]
        #[target_feature(enable = "avx512f")]
        unsafe fn narrow([lo, hi]: [__m512d; 2]) -> V {
            let lo = _mm512_castpd256_pd512(_mm256_castps_pd(_mm512_cvtpd_ps(lo)));
            _mm512_castpd_ps(_mm512_insertf64x4::<1>(
                lo,
                _mm256_castps_pd(_mm512_cvtpd_ps(hi)),
            ))
        }

        /// `2^(k/32)` for the `k` in `kd0`'s low bits: its table entry with
        /// `k << 47` added to the bit pattern.
        #[inline]
        #[target_feature(enable = "avx512f")]
        unsafe fn exp_scale(kd0: __m512d) -> __m512d {
            let ki = _mm512_castpd_si512(kd0);
            // The table is four registers: a two-source permute picks among
            // sixteen entries by index bits 0..=3, bit 4 picks the pair.
            let t = EXP_TABLE.as_ptr() as *const __m512i;
            let low =
                _mm512_permutex2var_epi64(_mm512_loadu_si512(t), ki, _mm512_loadu_si512(t.add(1)));
            let high = _mm512_permutex2var_epi64(
                _mm512_loadu_si512(t.add(2)),
                ki,
                _mm512_loadu_si512(t.add(3)),
            );
            let upper = _mm512_test_epi64_mask(ki, _mm512_set1_epi64(EXP_N as i64 / 2));
            let entry = _mm512_mask_blend_epi64(upper, low, high);
            _mm512_castsi512_pd(_mm512_add_epi64(entry, _mm512_slli_epi64::<47>(ki)))
        }

        #[inline]
        #[target_feature(enable = "avx512f")]
        unsafe fn load_head(p: *const f32, cols: usize) -> __m512 {
            _mm512_maskz_loadu_ps(((1u32 << cols) - 1) as __mmask16, p)
        }

        #[inline]
        #[target_feature(enable = "avx512f")]
        unsafe fn store_head(p: *mut f32, v: __m512, cols: usize) {
            _mm512_mask_storeu_ps(p, ((1u32 << cols) - 1) as __mmask16, v)
        }

        /// `acc + av·b` where `av != 0.0` (NaN included), else `acc`.
        #[inline]
        #[target_feature(enable = "avx512f")]
        unsafe fn add_if(acc: __m512, av: __m512, b: __m512) -> __m512 {
            let keep = _mm512_cmp_ps_mask::<_CMP_NEQ_UQ>(av, zero());
            _mm512_mask_add_ps(acc, keep, acc, mul(av, b))
        }

        /// `s` where `!(act <= 0.0)` (NaN included), else `0.0`.
        #[inline]
        #[target_feature(enable = "avx512f")]
        unsafe fn gate(s: __m512, act: __m512) -> __m512 {
            _mm512_maskz_mov_ps(_mm512_cmp_ps_mask::<_CMP_NLE_UQ>(act, zero()), s)
        }

        tier_kernels!("avx512f");

        /// Masked row loads (zero past `n` and past `k`), a 16×16 register
        /// transpose, sixteen panel-row stores per block.
        #[target_feature(enable = "avx512f")]
        pub(in super::super) unsafe fn pack_nt(
            b: &[f32],
            n: usize,
            k: usize,
            packed: &mut [PanelRow],
        ) {
            let blocks = k.div_ceil(PANEL);
            for p in 0..n.div_ceil(PANEL) {
                let rows = (n - p * PANEL).min(PANEL);
                for q in 0..blocks {
                    let in_k = (k - q * PANEL).min(PANEL);
                    let mut v = [zero(); PANEL];
                    for (l, v) in v.iter_mut().enumerate() {
                        // Rows past `n` load nothing, from a clamped address.
                        let row = (p * PANEL + l).min(n - 1) * k;
                        let cols = if l < rows { in_k } else { 0 };
                        *v = load_head(b.as_ptr().add(row + q * PANEL), cols);
                    }
                    // 32-bit, then 64-bit interleave: `u[4g+c]` holds, per
                    // 128-bit lane `x`, column `4x+c` of rows `4g..4g+4`.
                    let mut t = [zero(); PANEL];
                    for i in 0..8 {
                        t[2 * i] = _mm512_unpacklo_ps(v[2 * i], v[2 * i + 1]);
                        t[2 * i + 1] = _mm512_unpackhi_ps(v[2 * i], v[2 * i + 1]);
                    }
                    let mut u = [zero(); PANEL];
                    for g in 0..4 {
                        u[4 * g] = _mm512_shuffle_ps::<0x44>(t[4 * g], t[4 * g + 2]);
                        u[4 * g + 1] = _mm512_shuffle_ps::<0xEE>(t[4 * g], t[4 * g + 2]);
                        u[4 * g + 2] = _mm512_shuffle_ps::<0x44>(t[4 * g + 1], t[4 * g + 3]);
                        u[4 * g + 3] = _mm512_shuffle_ps::<0xEE>(t[4 * g + 1], t[4 * g + 3]);
                    }
                    // Two rounds of 128-bit lane shuffles gather lane `x` of
                    // the four row groups into panel row `4x+c`.
                    let dst = packed.as_mut_ptr().add((p * blocks + q) * PANEL) as *mut f32;
                    for c in 0..4 {
                        let lo02 = _mm512_shuffle_f32x4::<0x88>(u[c], u[4 + c]);
                        let lo13 = _mm512_shuffle_f32x4::<0xDD>(u[c], u[4 + c]);
                        let hi02 = _mm512_shuffle_f32x4::<0x88>(u[8 + c], u[12 + c]);
                        let hi13 = _mm512_shuffle_f32x4::<0xDD>(u[8 + c], u[12 + c]);
                        store(dst.add(c * PANEL), _mm512_shuffle_f32x4::<0x88>(lo02, hi02));
                        store(
                            dst.add((4 + c) * PANEL),
                            _mm512_shuffle_f32x4::<0x88>(lo13, hi13),
                        );
                        store(
                            dst.add((8 + c) * PANEL),
                            _mm512_shuffle_f32x4::<0xDD>(lo02, hi02),
                        );
                        store(
                            dst.add((12 + c) * PANEL),
                            _mm512_shuffle_f32x4::<0xDD>(lo13, hi13),
                        );
                    }
                }
            }
        }
    }

    pub(super) mod avx2 {
        use super::*;
        use {
            _mm256_add_pd as addd, _mm256_add_ps as add, _mm256_div_ps as div,
            _mm256_loadu_ps as load, _mm256_loadu_si256 as load_i32, _mm256_max_ps as max,
            _mm256_mul_pd as muld, _mm256_mul_ps as mul, _mm256_set1_epi32 as set1_i32,
            _mm256_set1_pd as set1d, _mm256_set1_ps as set1, _mm256_setzero_ps as zero,
            _mm256_storeu_ps as store, _mm256_sub_pd as subd, _mm256_sub_ps as sub,
        };

        const L: usize = 8;
        type V = __m256;
        type VI = __m256i;
        /// All-ones lanes where the condition holds.
        type M = __m256;

        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn gt(a: V, b: V) -> M {
            _mm256_cmp_ps::<_CMP_GT_OQ>(a, b)
        }

        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn is_nan(x: V) -> M {
            _mm256_cmp_ps::<_CMP_UNORD_Q>(x, x)
        }

        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn eq_i32(a: VI, b: VI) -> M {
            _mm256_castsi256_ps(_mm256_cmpeq_epi32(a, b))
        }

        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn select(m: M, yes: V, no: V) -> V {
            _mm256_blendv_ps(no, yes, m)
        }

        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn select_i32(m: M, yes: VI, no: VI) -> VI {
            _mm256_castps_si256(select(m, _mm256_castsi256_ps(yes), _mm256_castsi256_ps(no)))
        }

        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn count(m: M) -> usize {
            _mm256_movemask_ps(m).count_ones() as usize
        }

        /// Lane `l` = `base[l·classes]`.
        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn gather(base: *const f32, classes: usize) -> V {
            let lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
            _mm256_i32gather_ps::<4>(base, _mm256_mullo_epi32(lane, set1_i32(classes as i32)))
        }

        /// `base[l·classes]` = lane `l`; AVX2 has no scatter.
        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn scatter(base: *mut f32, classes: usize, v: V) {
            let mut lanes = [0.0f32; L];
            store(lanes.as_mut_ptr(), v);
            for (l, x) in lanes.into_iter().enumerate() {
                *base.add(l * classes) = x;
            }
        }

        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn widen(x: V) -> [__m256d; 2] {
            [
                _mm256_cvtps_pd(_mm256_castps256_ps128(x)),
                _mm256_cvtps_pd(_mm256_extractf128_ps::<1>(x)),
            ]
        }

        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn narrow([lo, hi]: [__m256d; 2]) -> V {
            _mm256_set_m128(_mm256_cvtpd_ps(hi), _mm256_cvtpd_ps(lo))
        }

        /// `2^(k/32)` for the `k` in `kd0`'s low bits: its table entry with
        /// `k << 47` added to the bit pattern.
        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn exp_scale(kd0: __m256d) -> __m256d {
            let ki = _mm256_castpd_si256(kd0);
            let index = _mm256_and_si256(ki, _mm256_set1_epi64x(EXP_N as i64 - 1));
            let entry = _mm256_i64gather_epi64::<8>(EXP_TABLE.as_ptr() as *const i64, index);
            _mm256_castsi256_pd(_mm256_add_epi64(entry, _mm256_slli_epi64::<47>(ki)))
        }

        /// All-ones in the first `cols` 32-bit lanes.
        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn head(cols: usize) -> __m256i {
            let lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
            _mm256_cmpgt_epi32(_mm256_set1_epi32(cols as i32), lane)
        }

        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn load_head(p: *const f32, cols: usize) -> __m256 {
            _mm256_maskload_ps(p, head(cols))
        }

        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn store_head(p: *mut f32, v: __m256, cols: usize) {
            _mm256_maskstore_ps(p, head(cols), v)
        }

        /// `acc + (av·b & mask)`: the skipped case adds `+0.0`, exact for an
        /// accumulator that started at `+0.0` (see the module docs).
        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn add_if(acc: __m256, av: __m256, b: __m256) -> __m256 {
            let keep = _mm256_cmp_ps::<_CMP_NEQ_UQ>(av, zero());
            add(acc, _mm256_and_ps(mul(av, b), keep))
        }

        /// `s` where `!(act <= 0.0)` (NaN included), else `0.0`.
        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn gate(s: __m256, act: __m256) -> __m256 {
            _mm256_and_ps(s, _mm256_cmp_ps::<_CMP_NLE_UQ>(act, zero()))
        }

        tier_kernels!("avx2");

        /// As the AVX-512 packer, in 8×8 blocks: each fills eight rows of
        /// one half of a 16-column panel.
        #[target_feature(enable = "avx2")]
        pub(in super::super) unsafe fn pack_nt(
            b: &[f32],
            n: usize,
            k: usize,
            packed: &mut [PanelRow],
        ) {
            let kpad = k.next_multiple_of(PANEL);
            for j0 in (0..n.next_multiple_of(PANEL)).step_by(L) {
                let rows = n.saturating_sub(j0).min(L);
                let panel =
                    (packed.as_mut_ptr().add(j0 / PANEL * kpad) as *mut f32).add(j0 % PANEL);
                for k0 in (0..kpad).step_by(L) {
                    let in_k = k.saturating_sub(k0).min(L);
                    let mut v = [zero(); L];
                    for (l, v) in v.iter_mut().enumerate() {
                        // Rows past `n` load nothing, from a clamped address.
                        let row = (j0 + l).min(n - 1) * k;
                        let cols = if l < rows { in_k } else { 0 };
                        *v = load_head(b.as_ptr().add(row + k0.min(k)), cols);
                    }
                    let mut t = [zero(); L];
                    for i in 0..4 {
                        t[2 * i] = _mm256_unpacklo_ps(v[2 * i], v[2 * i + 1]);
                        t[2 * i + 1] = _mm256_unpackhi_ps(v[2 * i], v[2 * i + 1]);
                    }
                    let mut u = [zero(); L];
                    for g in 0..2 {
                        u[4 * g] = _mm256_shuffle_ps::<0x44>(t[4 * g], t[4 * g + 2]);
                        u[4 * g + 1] = _mm256_shuffle_ps::<0xEE>(t[4 * g], t[4 * g + 2]);
                        u[4 * g + 2] = _mm256_shuffle_ps::<0x44>(t[4 * g + 1], t[4 * g + 3]);
                        u[4 * g + 3] = _mm256_shuffle_ps::<0xEE>(t[4 * g + 1], t[4 * g + 3]);
                    }
                    let dst = panel.add(k0 * PANEL);
                    for c in 0..4 {
                        store(
                            dst.add(c * PANEL),
                            _mm256_permute2f128_ps::<0x20>(u[c], u[4 + c]),
                        );
                        store(
                            dst.add((4 + c) * PANEL),
                            _mm256_permute2f128_ps::<0x31>(u[c], u[4 + c]),
                        );
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Deterministic pseudo-random fill that exercises non-representable
    /// sums (so any associativity drift actually flips bits).
    fn lcg_vec(len: usize, seed: u64) -> Vec<f32> {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).max(1);
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                ((state >> 33) as f32 / (1u64 << 31) as f32) * 2.0 - 1.0
            })
            .collect()
    }

    /// `lcg_vec` with a third of the entries replaced by what else a skip
    /// operand can hold: mostly the two zeros (skipped), some subnormals,
    /// and NaN and ±inf (not skipped) rarely enough that most outputs stay
    /// finite — an all-NaN result would compare equal to anything.
    fn hostile_vec(len: usize, seed: u64) -> Vec<f32> {
        let pick = lcg_vec(len, seed ^ 0xabcd);
        let mut v = lcg_vec(len, seed);
        for (x, p) in v.iter_mut().zip(pick) {
            *x = match (p * 50.0 + 50.0) as u32 {
                0..=14 => 0.0,
                15..=24 => -0.0,
                25..=27 => 1e-40,
                28..=29 => -3e-42,
                30 => f32::NAN,
                31 => f32::INFINITY,
                32 => f32::NEG_INFINITY,
                _ => *x,
            };
        }
        v
    }

    /// The other operand of a skip kernel: finite but for a few ±inf, so a
    /// term that must be skipped (`0·inf`) would poison its output if not.
    fn mostly_finite_vec(len: usize, seed: u64) -> Vec<f32> {
        let mut v = lcg_vec(len, seed);
        for x in v.iter_mut().filter(|x| x.abs() < 0.02) {
            *x = f32::INFINITY.copysign(*x);
        }
        v
    }

    /// Runs `kernel` under every supported tier and demands the reference's
    /// bits from each. NaN payloads are outside the contract (LLVM may
    /// commute the scalar operands), so two NaNs match.
    fn assert_every_tier(what: &str, want: &[f32], mut kernel: impl FnMut(&mut [f32])) {
        for tier in supported_tiers() {
            let mut got = vec![f32::from_bits(0x7fc0_dead); want.len()];
            let prev = set_tier(tier);
            kernel(&mut got);
            set_tier(prev);
            for (idx, (g, w)) in got.iter().zip(want).enumerate() {
                assert!(
                    g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                    "{what} tier={} idx={idx}: {g:e} vs reference {w:e}",
                    tier.name()
                );
            }
        }
    }

    /// `gemm_nt` plus epilogue, straight from its definition: one canonical
    /// scalar dot per output, then bias, then ReLU.
    fn gemm_nt_reference(
        a: &[f32],
        b: &[f32],
        bias: Option<&[f32]>,
        relu: bool,
        (m, n, k): Dims,
    ) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for (idx, o) in out.iter_mut().enumerate() {
            let (i, j) = (idx / n, idx % n);
            let mut x = scalar::dot(&a[i * k..(i + 1) * k], &b[j * k..(j + 1) * k]);
            if let Some(bias) = bias {
                x += bias[j];
            }
            *o = if relu && x < 0.0 { 0.0 } else { x };
        }
        out
    }

    fn check_gemm_nt(shape: Dims, seed: u64, hostile: bool) {
        let (m, n, k) = shape;
        let fill = if hostile { hostile_vec } else { lcg_vec };
        let a = fill(m * k, seed);
        let b = lcg_vec(n * k, seed ^ 0x77);
        let bias = fill(n, seed ^ 0x99);
        let want = gemm_nt_reference(&a, &b, None, false, shape);
        assert_every_tier(&format!("gemm_nt {shape:?}"), &want, |out| {
            gemm_nt(&a, &b, out, m, n, k)
        });
        for relu in [false, true] {
            let want = gemm_nt_reference(&a, &b, Some(&bias), relu, shape);
            assert_every_tier(
                &format!("gemm_nt+bias {shape:?} relu={relu}"),
                &want,
                |out| {
                    let mut packed = vec![PanelRow([f32::NAN; PANEL]); packed_len(n, k)];
                    pack_nt(&b, n, k, &mut packed);
                    gemm_nt_packed(&a, &packed, Some(&bias), relu, out, shape);
                },
            );
        }
    }

    /// `gemm_tn` (`r×m`ᵀ · `r×n`) and `backward_delta` (`m×r` · `r×n`, gated)
    /// on one set of operands, the skip operand hostile.
    fn check_skip_kernels((r, m, n): Dims, seed: u64) {
        let a = hostile_vec(r * m, seed);
        let b = mostly_finite_vec(r * n, seed ^ 0x55aa);
        let act = hostile_vec(m * n, seed ^ 0x1234);
        let mut want = vec![0.0f32; m * n];
        scalar::gemm_tn(&a, &b, &mut want, (r, m, n));
        assert_every_tier(&format!("gemm_tn ({r},{m},{n})"), &want, |out| {
            gemm_tn(&a, &b, out, r, m, n)
        });
        scalar::backward_delta(&a, &b, &act, &mut want, (m, r, n));
        assert_every_tier(&format!("backward_delta ({m},{r},{n})"), &want, |out| {
            backward_delta(&a, &b, &act, out, (m, r, n))
        });
    }

    /// Holds `ops::exp` and every tier's vector `exp` to libm's bits — NaN
    /// payloads included — on `patterns`, a buffer at a time. Returns how
    /// many `(tier, input)` pairs differ, printing the first few.
    fn exp_mismatches(patterns: impl Iterator<Item = u32>) -> usize {
        let tiers = supported_tiers();
        let mut patterns = patterns.peekable();
        let (mut x, mut want, mut got) = (Vec::new(), Vec::new(), Vec::new());
        let mut mismatches = 0usize;
        while patterns.peek().is_some() {
            x.clear();
            x.extend(patterns.by_ref().take(1 << 16).map(f32::from_bits));
            want.clear();
            // libm's own: the oracle.
            want.extend(x.iter().map(|&x| f32::exp(x).to_bits()));
            got.resize(x.len(), 0.0);
            let mut compare = |what: &str, got: &[f32]| {
                for ((x, g), w) in x.iter().zip(got).zip(&want) {
                    if g.to_bits() != *w {
                        mismatches += 1;
                        if mismatches <= 8 {
                            eprintln!(
                                "exp({x:e} = {:#010x}) {what}: {:#010x}, libm {w:#010x}",
                                x.to_bits(),
                                g.to_bits()
                            );
                        }
                    }
                }
            };
            for (g, &x) in got.iter_mut().zip(&x) {
                *g = crate::ops::exp(x);
            }
            compare("ops::exp", &got);
            for &tier in &tiers {
                let prev = set_tier(tier);
                exp_lanes(&x, &mut got);
                set_tier(prev);
                compare(tier.name(), &got);
            }
        }
        mismatches
    }

    /// All 2³² inputs, about 20 s a tier in release:
    /// `cargo test --release -p gfl-tensor -- --ignored exp_equals_libm_on_every_f32`.
    #[test]
    #[ignore = "enumerates all of f32; run in release"]
    fn exp_equals_libm_on_every_f32() {
        assert_eq!(exp_mismatches(0..=u32::MAX), 0, "of 2^32 inputs");
    }

    #[test]
    fn exp_equals_libm_on_a_stride() {
        let edges = [crate::ops::EXP_HI, crate::ops::EXP_LO]
            .into_iter()
            .flat_map(|t| [t.to_bits() - 1, t.to_bits(), t.to_bits() + 1]);
        // exp(x) is subnormal for x in about (−103.97, −87.34).
        let subnormal_results = ((-87.0f32).to_bits()..(-104.5f32).to_bits()).step_by(61);
        let specials = [
            0.0f32.to_bits(),
            (-0.0f32).to_bits(),
            f32::INFINITY.to_bits(),
            f32::NEG_INFINITY.to_bits(),
            0x7fc0_0000, // quiet NaNs, either sign, with and without payload
            0xffc0_0000,
            0x7fc0_dead,
            0x7fff_ffff,
            0x7f80_0001, // signalling NaNs
            0xff80_0001,
            0x7fa5_5aa5,
            // The two inputs in all of f32 where `r = C·x − k`, formed from
            // the rounded product, lands on the other side of a rounding.
            32.564632f32.to_bits(),
            (-63.09946f32).to_bits(),
        ];
        // Specials first: in full vectors, not in the scalar remainder.
        let patterns = specials
            .into_iter()
            .chain(edges)
            .chain(subnormal_results)
            .chain((0..=u32::MAX).step_by(4093));
        assert_eq!(exp_mismatches(patterns), 0);
    }

    /// Logit rows of every kind the row kernels must survive, one kind per
    /// row: plain spreads, spreads past `exp`'s underflow bound (104),
    /// huge magnitudes, rows salted with NaN, ±∞, ±0 and subnormals,
    /// all-equal rows, all-NaN rows, and ties for the maximum (first, middle
    /// and last positions among them).
    fn hostile_rows(rows: usize, classes: usize, seed: u64) -> Vec<f32> {
        let unit = lcg_vec(rows * classes, seed);
        let kind = lcg_vec(rows, seed ^ 0x5eed);
        let salt = hostile_vec(rows * classes, seed ^ 0xfeed);
        let mut out = Vec::with_capacity(rows * classes);
        for (r, k) in kind.iter().enumerate() {
            let row = r * classes..(r + 1) * classes;
            let at = out.len();
            match (k * 6.0 + 6.0) as u32 {
                0..=2 => out.extend(unit[row].iter().map(|u| u * 6.0)),
                3 => out.extend(unit[row].iter().map(|u| u * 150.0)),
                4 => out.extend(unit[row].iter().map(|u| u * 3e38)),
                5..=6 => out.extend(unit[row.clone()].iter().zip(&salt[row]).map(|(u, s)| {
                    if s.abs() < 0.5 || !s.is_finite() {
                        *s
                    } else {
                        u * 4.0
                    }
                })),
                7 => out.extend(std::iter::repeat_n(unit[row.start] * 9.0, classes)),
                8 => out.extend(std::iter::repeat_n(f32::NAN, classes)),
                _ => {
                    out.extend(unit[row].iter().map(|u| u * 2.0));
                    for tie in [0, classes / 2, classes - 1, (r * 7) % classes] {
                        if (r + tie) % 3 != 0 {
                            out[at + tie] = 2.5;
                        }
                    }
                }
            }
        }
        out
    }

    /// Both row kernels at every tier against the scalar row loops: every
    /// written element, the loss sum and the correct count.
    fn check_row_kernels(rows: usize, classes: usize, inv_b: f32, seed: u64) {
        let logits = hostile_rows(rows, classes, seed);
        let labels: Vec<usize> = (0..rows)
            .map(|r| (r * 11 + seed as usize) % classes)
            .collect();
        let mut block = Vec::new();

        let mut want = logits.clone();
        let loss = scalar::softmax_xent_tail(0.0, &mut want, classes, &labels, inv_b);
        want.push(loss);
        let what = format!("softmax_xent_rows rows={rows} classes={classes} seed={seed}");
        assert_every_tier(&what, &want, |out| {
            let (grad, loss) = out.split_at_mut(rows * classes);
            grad.copy_from_slice(&logits);
            loss[0] = softmax_xent_rows(grad, classes, &labels, inv_b, &mut block);
        });

        let mut probs = vec![0.0; classes];
        let (loss, correct) =
            scalar::xent_argmax_tail((0.0, 0), &logits, classes, &labels, &mut probs);
        let what = format!("xent_argmax_rows rows={rows} classes={classes} seed={seed}");
        assert_every_tier(&what, &[loss, correct as f32], |out| {
            let (loss, correct) = xent_argmax_rows(&logits, classes, &labels, &mut block);
            out.copy_from_slice(&[loss, correct as f32]);
        });
    }

    #[test]
    fn row_kernels_bitwise_identical_across_tiers_on_pinned_shapes() {
        // Every remainder mod 8 and mod 16 at the widths the models use and
        // at the edges of one and two lanes' worth of classes.
        for classes in [1, 2, 10, 35, 64, 65] {
            for rows in 0..=33 {
                check_row_kernels(rows, classes, 1.0 / rows.max(1) as f32, 41 + rows as u64);
            }
        }
    }

    #[test]
    #[should_panic(expected = "target out of range")]
    fn softmax_xent_rows_refuses_a_label_past_the_classes() {
        softmax_xent_rows(&mut [0.0; 6], 3, &[0, 3], 0.5, &mut Vec::new());
    }

    #[test]
    #[should_panic(expected = "target out of range")]
    fn xent_argmax_rows_refuses_a_label_past_the_classes() {
        xent_argmax_rows(&[0.0; 6], 3, &[3, 0], &mut Vec::new());
    }

    #[test]
    fn detect_best_is_last_supported() {
        let tiers = supported_tiers();
        assert_eq!(tiers[0], SimdTier::Scalar);
        assert_eq!(detect_best(), *tiers.last().unwrap());
    }

    #[test]
    #[should_panic(expected = "GFL_SIMD=neon: unknown or unsupported tier")]
    fn the_deleted_neon_tier_is_refused_by_name() {
        tier_named(Some("neon"));
    }

    #[test]
    fn tier_names_parse_or_name_the_bad_value() {
        let best = detect_best();
        for (value, want) in [
            (None, best),
            (Some(""), best),
            (Some("auto"), best),
            (Some("off"), SimdTier::Scalar),
            (Some("scalar"), SimdTier::Scalar),
        ] {
            assert_eq!(parse_tier(value), Ok(want), "{value:?}");
        }
        for tier in supported_tiers() {
            assert_eq!(parse_tier(Some(tier.name())), Ok(tier));
        }
        for bad in ["neon", "avx9", "AVX2", "neon ", "1"] {
            let err = parse_tier(Some(bad)).expect_err(bad);
            assert_eq!(err.var, "GFL_SIMD");
            assert!(
                err.to_string().starts_with(&format!("GFL_SIMD={bad}: ")),
                "{err}"
            );
        }
    }

    #[test]
    fn set_tier_roundtrips() {
        let initial = active_tier();
        let prev = set_tier(SimdTier::Scalar);
        assert_eq!(prev, initial);
        assert_eq!(active_tier(), SimdTier::Scalar);
        set_tier(initial);
        assert_eq!(active_tier(), initial);
    }

    #[test]
    fn a_tier_byte_that_names_no_tier_dispatches_to_the_default() {
        for byte in [1, 4, u8::MAX] {
            gfl_parallel::SIMD_TIER.set(Some(byte));
            assert_eq!(active_tier(), default_tier(), "byte {byte}");
        }
    }

    #[test]
    fn dot_bitwise_identical_across_tiers() {
        for len in [0usize, 1, 5, 15, 16, 17, 31, 32, 100, 255, 256, 1000] {
            let x = lcg_vec(len, 17 + len as u64);
            let y = lcg_vec(len, 91 + len as u64);
            let want = [scalar::dot(&x, &y)];
            assert_every_tier(&format!("dot len={len}"), &want, |out| out[0] = dot(&x, &y));
        }
    }

    #[test]
    fn axpy_bitwise_identical_across_tiers() {
        for len in [0usize, 1, 7, 16, 33, 64, 100, 257] {
            let x = lcg_vec(len, 3 + len as u64);
            let base = lcg_vec(len, 7 + len as u64);
            let mut want = base.clone();
            scalar::axpy(0.37, &x, &mut want);
            assert_every_tier(&format!("axpy len={len}"), &want, |out| {
                out.copy_from_slice(&base);
                axpy(0.37, &x, out);
            });
        }
    }

    #[test]
    fn pack_nt_places_every_element_and_zero_pads() {
        for (n, k) in [(1, 1), (10, 64), (16, 16), (35, 40), (37, 70), (70, 10)] {
            let b = lcg_vec(n * k, 29);
            let pack = |pack_nt: fn(&[f32], usize, usize, &mut [PanelRow])| {
                let mut image = vec![PanelRow([f32::NAN; PANEL]); packed_len(n, k)];
                pack_nt(&b, n, k, &mut image);
                image.iter().flat_map(|row| row.0).collect::<Vec<f32>>()
            };
            let want = pack(scalar::pack_nt);
            let kpad = k.next_multiple_of(PANEL);
            for (j, row) in b.chunks_exact(k).enumerate() {
                for (kk, &v) in row.iter().enumerate() {
                    assert_eq!(want[(j / PANEL * kpad + kk) * PANEL + j % PANEL], v);
                }
            }
            assert_eq!(want.iter().filter(|v| **v != 0.0).count(), n * k);
            assert_every_tier(&format!("pack_nt ({n},{k})"), &want, |out| {
                out.copy_from_slice(&pack(pack_nt))
            });
        }
    }

    #[test]
    fn gemm_kernels_bitwise_identical_across_tiers_on_edge_shapes() {
        for shape in [
            (1, 1, 1),
            (3, 5, 7),
            (8, 33, 17),
            (33, 31, 40),
            (40, 34, 129),
        ] {
            check_gemm_nt(shape, 11, false);
            check_skip_kernels(shape, 19);
        }
        // The models' own layers, full batch and epoch remainder.
        for batch in [32, 4] {
            for (o, i) in [(128, 64), (64, 128), (10, 64), (48, 40), (35, 48)] {
                check_gemm_nt((batch, o, i), 5, false);
                check_skip_kernels((batch, o, i), 7);
                check_skip_kernels((o, batch, i), 9);
            }
        }
    }

    /// Row counts and ragged widths the kernels' blockings must survive.
    const ROWS: [usize; 5] = [1, 4, 19, 32, 33];
    const WIDTHS: [usize; 5] = [10, 35, 37, 40, 70];

    proptest! {
        /// The masked skip is the branch: hostile skip operands (±0.0, NaN,
        /// ±inf, subnormals) through `gemm_tn` and `backward_delta` give the
        /// scalar reference's bits at every tier.
        #[test]
        fn prop_skip_kernels_bitwise(
            seed in 0u64..1000, r in 0usize..5, m in 0usize..5, n in 0usize..5,
        ) {
            check_skip_kernels((ROWS[r], WIDTHS[m], WIDTHS[n]), seed);
            check_skip_kernels((WIDTHS[m], ROWS[r], WIDTHS[n]), seed);
        }

        /// The same at arbitrary small shapes, every blocking remainder.
        #[test]
        fn prop_skip_kernels_small_shapes_bitwise(
            seed in 0u64..1000, r in 1usize..24, m in 1usize..12, n in 1usize..80,
        ) {
            check_skip_kernels((r, m, n), seed);
        }

        /// Lanes-as-outputs `gemm_nt`, with and without the epilogue, equals
        /// one canonical scalar dot per element at every tier.
        #[test]
        fn prop_gemm_nt_bitwise(
            seed in 0u64..1000, m in 0usize..5, n in 0usize..5, k in 0usize..5, hostile in 0u8..2,
        ) {
            check_gemm_nt((ROWS[m], WIDTHS[n], WIDTHS[k]), seed, hostile == 1);
        }

        /// A lane is a row: for any shape, any `inv_b` and hostile logits
        /// the row kernels give the scalar row loops' bits at every tier.
        #[test]
        fn prop_row_kernels_bitwise(
            seed in 0u64..1000, rows in 0usize..71, classes in 1usize..71, inv_b in -2.0f32..2.0,
        ) {
            check_row_kernels(rows, classes, inv_b, seed);
        }

        #[test]
        fn prop_gemm_nt_small_shapes_bitwise(
            seed in 0u64..1000, m in 1usize..10, n in 1usize..40, k in 1usize..96,
        ) {
            check_gemm_nt((m, n, k), seed, false);
        }
    }
}
