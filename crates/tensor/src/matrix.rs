//! Row-major dense matrix: the container of datasets, minibatches and
//! layer activations.
//!
//! The products over it (`Y = X · Wᵀ + b` forward, `∇W = ∇Yᵀ · X` and
//! `∇X = ∇Y · W` backward) are the slice kernels in [`crate::simd`], which
//! the network layer calls on [`Matrix::as_slice`] and flat parameter
//! blocks directly.

use serde::{Deserialize, Serialize};

use crate::{ops, Scalar};

/// A dense row-major `f32` matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<Scalar>,
}

impl Matrix {
    /// Creates a zero-filled matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Wraps an existing buffer. Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<Scalar>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer size mismatch");
        Self { rows, cols, data }
    }

    /// Builds a matrix from a row-major closure.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> Scalar) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total element count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the backing row-major buffer.
    pub fn as_slice(&self) -> &[Scalar] {
        &self.data
    }

    /// Mutable view of the backing row-major buffer.
    pub fn as_mut_slice(&mut self) -> &mut [Scalar] {
        &mut self.data
    }

    /// Row `r` as a slice.
    pub fn row(&self, r: usize) -> &[Scalar] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Row `r` as a mutable slice.
    pub fn row_mut(&mut self, r: usize) -> &mut [Scalar] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Element accessor (bounds-checked in debug builds).
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> Scalar {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element setter.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: Scalar) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Adds `other` element-wise.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(self.rows, other.rows);
        assert_eq!(self.cols, other.cols);
        ops::add_assign(&other.data, &mut self.data);
    }

    /// Scales every element.
    pub fn scale(&mut self, alpha: Scalar) {
        ops::scale(alpha, &mut self.data);
    }

    /// Selects the given rows (gathers a minibatch) into a caller-owned
    /// matrix, reshaped to `indices.len() × self.cols` while reusing its
    /// backing buffer. This is the zero-allocation minibatch gather for the
    /// training hot path.
    pub fn gather_rows_into(&self, indices: &[usize], out: &mut Matrix) {
        out.resize(indices.len(), self.cols);
        for (dst, &src) in indices.iter().enumerate() {
            assert!(src < self.rows, "gather_rows: index out of range");
            out.row_mut(dst).copy_from_slice(self.row(src));
        }
    }

    /// Reshapes to `rows × cols`, reusing the backing buffer when capacity
    /// allows. Existing element values are unspecified afterwards (newly
    /// grown elements are zero).
    pub fn resize(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// Consumes the matrix, returning its row-major backing buffer. Lets
    /// callers recycle the allocation through a buffer pool.
    pub fn into_vec(self) -> Vec<Scalar> {
        self.data
    }

    /// Borrowed view of the whole matrix.
    pub fn as_view(&self) -> MatrixRef<'_> {
        MatrixRef {
            rows: self.rows,
            cols: self.cols,
            data: &self.data,
        }
    }

    /// Borrowed view of the row range `start..end` — no copy, just a
    /// reinterpretation of the contiguous row-major buffer. Used to forward
    /// evaluation chunks without gathering them first.
    pub fn view_rows(&self, start: usize, end: usize) -> MatrixRef<'_> {
        assert!(start <= end && end <= self.rows, "view_rows: range");
        MatrixRef {
            rows: end - start,
            cols: self.cols,
            data: &self.data[start * self.cols..end * self.cols],
        }
    }
}

/// Borrowed row-major matrix view: a row range of a [`Matrix`], or any flat
/// slice reinterpreted with a shape (e.g. a weight block inside a flat
/// parameter vector).
#[derive(Debug, Clone, Copy)]
pub struct MatrixRef<'a> {
    rows: usize,
    cols: usize,
    data: &'a [Scalar],
}

impl<'a> MatrixRef<'a> {
    /// Wraps a slice. Panics if `data.len() != rows * cols`.
    pub fn new(rows: usize, cols: usize, data: &'a [Scalar]) -> Self {
        assert_eq!(data.len(), rows * cols, "view size mismatch");
        Self { rows, cols, data }
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The backing row-major slice.
    pub fn as_slice(&self) -> &'a [Scalar] {
        self.data
    }

    /// Row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &'a [Scalar] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gather_rows_picks_correct_rows() {
        let a = Matrix::from_fn(4, 2, |r, c| (r * 10 + c) as f32);
        let mut g = Matrix::zeros(0, 0);
        a.gather_rows_into(&[3, 0, 3], &mut g);
        assert_eq!(g.rows(), 3);
        assert_eq!(g.row(0), &[30.0, 31.0]);
        assert_eq!(g.row(1), &[0.0, 1.0]);
        assert_eq!(g.row(2), &[30.0, 31.0]);
    }

    #[test]
    fn gather_rows_into_reuses_buffer_and_matches_gather() {
        let a = Matrix::from_fn(6, 3, |r, c| (r * 10 + c) as f32);
        let mut out = Matrix::zeros(2, 5); // wrong shape on purpose
        a.gather_rows_into(&[5, 1, 5, 0], &mut out);
        let picked = [5, 1, 5, 0];
        assert_eq!(out, Matrix::from_fn(4, 3, |r, c| a.get(picked[r], c)));
        // Shrinking must also work and reuse capacity.
        a.gather_rows_into(&[2], &mut out);
        assert_eq!(out.rows(), 1);
        assert_eq!(out.row(0), a.row(2));
    }

    #[test]
    fn view_rows_aliases_without_copy() {
        let a = Matrix::from_fn(5, 4, |r, c| (r * 4 + c) as f32);
        let v = a.view_rows(1, 4);
        assert_eq!(v.rows(), 3);
        assert_eq!(v.cols(), 4);
        assert_eq!(v.row(0), a.row(1));
        assert_eq!(v.row(2), a.row(3));
        assert_eq!(v.as_slice(), &a.as_slice()[4..16]);
        let full = a.as_view();
        assert_eq!(full.rows(), 5);
        assert_eq!(full.as_slice(), a.as_slice());
    }

    #[test]
    fn zero_sized_matrices_work() {
        let a = Matrix::zeros(0, 5);
        assert!(a.is_empty());
        assert_eq!(a.as_view().rows(), 0);
        let mut out = Matrix::zeros(2, 2);
        Matrix::zeros(3, 0).gather_rows_into(&[2, 0], &mut out);
        assert_eq!((out.rows(), out.cols()), (2, 0));
        assert!(out.is_empty());
        assert!(Matrix::zeros(0, 0).is_empty());
    }
}
