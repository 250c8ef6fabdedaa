//! Row-major dense matrix whose products run through the kernel layer.
//!
//! The multinomial logistic-regression model is a `classes x features`
//! matrix applied to mini-batches, and the CNN's im2col path reduces
//! convolution to matmul, so this type is the workhorse of every
//! experiment. All multiplication entry points here are thin wrappers
//! over [`crate::kernel`], which dispatches between the scalar
//! cpu-reference kernels and the cache-blocked tiled kernels; every
//! kernel produces bitwise-identical results.

use crate::error::TensorResult;
use serde::{Deserialize, Serialize};

/// A dense row-major matrix of `f64`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Create a matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// The identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Build from an owned buffer; `data.len()` must equal `rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "Matrix::from_vec: buffer length mismatch");
        Matrix { rows, cols, data }
    }

    /// Build from row slices (all rows must have equal length).
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |x| x.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "Matrix::from_rows: ragged rows");
            data.extend_from_slice(row);
        }
        Matrix { rows: r, cols: c, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Borrow the underlying row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrow the underlying row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consume into the underlying buffer.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Borrow row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element setter.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Checked matrix multiply; returns a [`crate::error::ShapeError`]
    /// when inner dimensions disagree.
    pub fn try_matmul(&self, rhs: &Matrix) -> TensorResult<Matrix> {
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        crate::kernel::try_matmul_into(self, rhs, &mut out)?;
        Ok(out)
    }

    /// Matrix multiply; panics on shape mismatch (use [`Self::try_matmul`]
    /// for the checked variant).
    #[allow(clippy::expect_used)]
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        // fedlint: allow(no-panic) — documented panicking wrapper; try_matmul is the checked API
        self.try_matmul(rhs).expect("matmul shape mismatch")
    }

    /// Checked matrix-vector product `self * x`; returns a
    /// [`crate::error::ShapeError`] when `x` has the wrong length.
    pub fn try_matvec(&self, x: &[f64]) -> TensorResult<Vec<f64>> {
        let mut out = vec![0.0; self.rows];
        crate::kernel::try_matvec_into(&self.data, self.rows, self.cols, x, &mut out)?;
        Ok(out)
    }

    /// Matrix-vector product `self * x`; panics on shape mismatch (use
    /// [`Self::try_matvec`] for the checked variant).
    #[allow(clippy::expect_used)]
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        // fedlint: allow(no-panic) — documented panicking wrapper; try_matvec is the checked API
        self.try_matvec(x).expect("matvec shape mismatch")
    }

    /// Checked `selfᵀ * x` without materialising the transpose; returns
    /// a [`crate::error::ShapeError`] when `x` has the wrong length.
    pub fn try_matvec_t(&self, x: &[f64]) -> TensorResult<Vec<f64>> {
        let mut out = vec![0.0; self.cols];
        crate::kernel::try_matvec_t_into(&self.data, self.rows, self.cols, x, &mut out)?;
        Ok(out)
    }

    /// `selfᵀ * x` without materialising the transpose; panics on shape
    /// mismatch (use [`Self::try_matvec_t`] for the checked variant).
    #[allow(clippy::expect_used)]
    pub fn matvec_t(&self, x: &[f64]) -> Vec<f64> {
        // fedlint: allow(no-panic) — documented panicking wrapper; try_matvec_t is the checked API
        self.try_matvec_t(x).expect("matvec_t shape mismatch")
    }

    /// Reshape in place to `rows × cols`, resizing the buffer (new cells
    /// are zero; surviving prefix cells keep their values only when the
    /// element count is unchanged — callers treat the buffer as scratch).
    pub(crate) fn reshape_in_place(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// Elementwise map into a new matrix.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Add `rhs` scaled by `alpha` into `self`.
    pub fn axpy(&mut self, alpha: f64, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "Matrix::axpy shape mismatch");
        crate::vecops::axpy(alpha, &rhs.data, &mut self.data);
    }
}

/// `out ← a * b` through the active kernel (see [`crate::kernel`]).
/// `out` must already have shape `(a.rows, b.cols)`.
pub fn matmul_into(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    let r = crate::kernel::try_matmul_into(a, b, out);
    assert!(r.is_ok(), "matmul_into shape mismatch: {r:?}");
}

/// `out ← aᵀ * b` without materialising `aᵀ`, through the active kernel.
pub fn matmul_tn_into(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    let r = crate::kernel::try_matmul_tn_into(a, b, out);
    assert!(r.is_ok(), "matmul_tn_into shape mismatch: {r:?}");
}

/// `out ← a * bᵀ` without materialising `bᵀ`, through the active kernel.
pub fn matmul_nt_into(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    let r = crate::kernel::try_matmul_nt_into(a, b, out);
    assert!(r.is_ok(), "matmul_nt_into shape mismatch: {r:?}");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut s = 0.0;
                for k in 0..a.cols() {
                    s += a.get(i, k) * b.get(k, j);
                }
                out.set(i, j, s);
            }
        }
        out
    }

    fn pseudo_random(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state as f64 / u64::MAX as f64) * 2.0 - 1.0
        };
        Matrix::from_vec(rows, cols, (0..rows * cols).map(|_| next()).collect())
    }

    #[test]
    fn identity_is_neutral() {
        let a = pseudo_random(5, 5, 42);
        let i = Matrix::identity(5);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    fn matmul_matches_naive_small() {
        let a = pseudo_random(7, 11, 1);
        let b = pseudo_random(11, 3, 2);
        let got = a.matmul(&b);
        let want = naive_matmul(&a, &b);
        for (g, w) in got.as_slice().iter().zip(want.as_slice()) {
            assert!((g - w).abs() < 1e-12);
        }
    }

    #[test]
    fn matmul_matches_naive_large() {
        let a = pseudo_random(80, 100, 3);
        let b = pseudo_random(100, 90, 4);
        let got = a.matmul(&b);
        let want = naive_matmul(&a, &b);
        for (g, w) in got.as_slice().iter().zip(want.as_slice()) {
            assert!((g - w).abs() < 1e-10);
        }
    }

    #[test]
    fn try_matmul_shape_error() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(4, 2);
        let err = a.try_matmul(&b).unwrap_err();
        assert_eq!(err.op, "matmul");
    }

    #[test]
    fn transpose_involution() {
        let a = pseudo_random(4, 9, 7);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn matvec_consistent_with_matmul() {
        let a = pseudo_random(6, 4, 9);
        let x = vec![1.0, -2.0, 0.5, 3.0];
        let xm = Matrix::from_vec(4, 1, x.clone());
        let via_matmul = a.matmul(&xm);
        let via_matvec = a.matvec(&x);
        for (m, v) in via_matmul.as_slice().iter().zip(&via_matvec) {
            assert!((m - v).abs() < 1e-12);
        }
    }

    #[test]
    fn matvec_t_matches_transpose() {
        let a = pseudo_random(6, 4, 10);
        let x = vec![0.5; 6];
        let got = a.matvec_t(&x);
        let want = a.transpose().matvec(&x);
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() < 1e-12);
        }
    }

    #[test]
    fn matmul_tn_matches() {
        let a = pseudo_random(8, 5, 11);
        let b = pseudo_random(8, 6, 12);
        let mut out = Matrix::zeros(5, 6);
        matmul_tn_into(&a, &b, &mut out);
        let want = a.transpose().matmul(&b);
        for (g, w) in out.as_slice().iter().zip(want.as_slice()) {
            assert!((g - w).abs() < 1e-12);
        }
    }

    #[test]
    fn matmul_nt_matches() {
        let a = pseudo_random(8, 5, 13);
        let b = pseudo_random(6, 5, 14);
        let mut out = Matrix::zeros(8, 6);
        matmul_nt_into(&a, &b, &mut out);
        let want = a.matmul(&b.transpose());
        for (g, w) in out.as_slice().iter().zip(want.as_slice()) {
            assert!((g - w).abs() < 1e-12);
        }
    }

    #[test]
    fn row_access() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m.row(0), &[1.0, 2.0]);
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.get(1, 0), 3.0);
    }

    #[test]
    fn map_and_axpy() {
        let a = Matrix::from_vec(2, 2, vec![2.0; 4]);
        let b = a.map(|x| x * x);
        assert_eq!(b.as_slice(), &[4.0; 4]);
        let mut c = Matrix::zeros(2, 2);
        c.axpy(0.5, &b);
        assert_eq!(c.as_slice(), &[2.0; 4]);
    }

    #[test]
    #[should_panic(expected = "buffer length mismatch")]
    fn from_vec_bad_len() {
        let _ = Matrix::from_vec(2, 2, vec![1.0; 3]);
    }
}
