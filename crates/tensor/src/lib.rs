//! Dense linear-algebra substrate for Group-FEL.
//!
//! The paper trains neural networks (a small ResNet and a 5-layer CNN) with
//! plain SGD; our reproduction replaces the PyTorch substrate with this
//! from-scratch dense math library. Everything the network layer
//! (`gfl-nn`) needs lives here:
//!
//! * [`Matrix`]: row-major `f32` matrix and borrowed row views — the
//!   container the kernels below run over.
//! * [`ops`]: BLAS-1 style kernels over plain slices (axpy, dot, scale,
//!   norms, softmax).
//! * [`simd`]: explicit `std::arch` microkernels behind the hot ops
//!   (dot/axpy/gemm_nt/gemm_tn/backward_delta), the softmax row tails and
//!   the Box–Muller normals kernel, runtime-dispatched across AVX-512F /
//!   AVX2 / scalar tiers — all bit-identical, [`simd::set_tier`] override.
//! * [`init`]: seeded He/Xavier/uniform initializers on top of ChaCha8, so
//!   every experiment in the paper reproduction is bit-deterministic given
//!   its seed.
//! * [`stats`]: mean/variance/CoV helpers shared with the grouping code.
//!
//! Hot-loop discipline follows the HPC guide: no allocation inside kernels,
//! caller-provided output buffers for every `*_into` variant, contiguous
//! row-major traversal, and `par_*` entry points that tile work across the
//! `gfl-parallel` pool only above a size threshold.

pub mod init;
pub mod matrix;
pub mod ops;
pub mod simd;
pub mod stats;

pub use matrix::{Matrix, MatrixRef};

/// Crate-wide floating point type. The paper's workloads are f32 end-to-end.
pub type Scalar = f32;

#[cfg(test)]
pub(crate) mod test_util {
    /// Asserts two slices are element-wise close.
    pub fn assert_close(a: &[f32], b: &[f32], tol: f32) {
        assert_eq!(a.len(), b.len(), "length mismatch");
        for (i, (&x, &y)) in a.iter().zip(b.iter()).enumerate() {
            assert!(
                (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())),
                "index {i}: {x} vs {y} (tol {tol})"
            );
        }
    }
}
