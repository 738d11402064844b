//! Dense complex matrices.
//!
//! MUSIC needs exactly three matrix operations: accumulate outer products
//! `h·h^H` into a correlation matrix, multiply, and Hermitian-transpose.
//! This module provides a row-major dense [`CMatrix`] with just those plus
//! the small amount of glue the eigensolver and tests require. It is *not*
//! a general linear-algebra library by design (see DESIGN.md §7).

use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

use crate::Complex64;

/// A dense, row-major complex matrix.
#[derive(Clone, PartialEq)]
pub struct CMatrix {
    rows: usize,
    cols: usize,
    data: Vec<Complex64>,
}

impl CMatrix {
    /// Creates a `rows × cols` zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![Complex64::ZERO; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = Complex64::ONE;
        }
        m
    }

    /// Builds a matrix by evaluating `f(row, col)` for every entry.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> Complex64) -> Self {
        let mut m = Self::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m[(r, c)] = f(r, c);
            }
        }
        m
    }

    /// Builds a matrix from row-major data.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_rows(rows: usize, cols: usize, data: Vec<Complex64>) -> Self {
        assert_eq!(data.len(), rows * cols, "row-major data length mismatch");
        Self { rows, cols, data }
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

    /// Returns `true` for a square matrix.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrow of the underlying row-major storage.
    #[inline]
    pub fn as_slice(&self) -> &[Complex64] {
        &self.data
    }

    /// Mutable borrow of the underlying row-major storage (for kernels
    /// that work on several rows in place).
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [Complex64] {
        &mut self.data
    }

    /// Borrow of row `r` as a contiguous slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[Complex64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Conjugate (Hermitian) transpose `A^H`.
    pub fn hermitian(&self) -> CMatrix {
        CMatrix::from_fn(self.cols, self.rows, |r, c| self[(c, r)].conj())
    }

    /// Plain transpose `A^T` (no conjugation).
    pub fn transpose(&self) -> CMatrix {
        CMatrix::from_fn(self.cols, self.rows, |r, c| self[(c, r)])
    }

    /// Adds the outer product `v·v^H`, scaled by `k`, in place.
    ///
    /// This is the correlation-matrix accumulation step of smoothed MUSIC
    /// (Eq. 5.2 of the paper): `R += k·h·h^H`.
    ///
    /// # Panics
    /// Panics unless the matrix is `n × n` with `n == v.len()`.
    pub fn add_outer(&mut self, v: &[Complex64], k: f64) {
        assert!(
            self.is_square() && self.rows == v.len(),
            "outer-product shape mismatch"
        );
        let cols = self.cols;
        for (r, row) in self.data.chunks_exact_mut(cols).enumerate() {
            crate::simd::accumulate_outer_row(row, v, v[r], k);
        }
        // One aggregated flush per update, not one per ~40 ns row.
        crate::probe::count_kernel(crate::probe::Kernel::AxpyRows, self.rows as u64);
    }

    /// Matrix–vector product `A·x`.
    ///
    /// # Panics
    /// Panics if `x.len() != self.cols()`.
    pub fn mul_vec(&self, x: &[Complex64]) -> Vec<Complex64> {
        assert_eq!(x.len(), self.cols, "matrix–vector shape mismatch");
        (0..self.rows)
            .map(|r| (0..self.cols).map(|c| self[(r, c)] * x[c]).sum())
            .collect()
    }

    /// Frobenius norm `‖A‖_F`.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt()
    }

    /// Largest deviation from Hermitian symmetry, `max |A[r,c] − conj(A[c,r])|`.
    pub fn hermitian_deviation(&self) -> f64 {
        let mut worst: f64 = 0.0;
        for r in 0..self.rows {
            for c in 0..self.cols {
                worst = worst.max((self[(r, c)] - self[(c, r)].conj()).abs());
            }
        }
        worst
    }

    /// Extracts column `c` as a vector.
    pub fn col(&self, c: usize) -> Vec<Complex64> {
        (0..self.rows).map(|r| self[(r, c)]).collect()
    }

    /// Scales every entry by a real factor, in place.
    pub fn scale_mut(&mut self, k: f64) {
        for z in &mut self.data {
            *z = z.scale(k);
        }
    }

    /// Zeroes every entry in place (scratch-reuse reset: a zeroed reused
    /// matrix is indistinguishable from a fresh [`CMatrix::zeros`]).
    pub fn fill_zero(&mut self) {
        self.data.fill(Complex64::ZERO);
    }

    /// Overwrites `self` with the identity in place.
    ///
    /// # Panics
    /// Panics if the matrix is not square.
    pub fn set_identity(&mut self) {
        assert!(self.is_square(), "identity requires a square matrix");
        self.data.fill(Complex64::ZERO);
        for i in 0..self.rows {
            self[(i, i)] = Complex64::ONE;
        }
    }

    /// Copies `other`'s entries into `self` without reallocating.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn copy_from(&mut self, other: &CMatrix) {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "copy_from shape mismatch"
        );
        self.data.copy_from_slice(&other.data);
    }
}

impl Index<(usize, usize)> for CMatrix {
    type Output = Complex64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &Complex64 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for CMatrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut Complex64 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

impl Mul for &CMatrix {
    type Output = CMatrix;
    fn mul(self, rhs: &CMatrix) -> CMatrix {
        assert_eq!(self.cols, rhs.rows, "matrix product shape mismatch");
        let mut out = CMatrix::zeros(self.rows, rhs.cols);
        for r in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(r, k)];
                if a == Complex64::ZERO {
                    continue;
                }
                for c in 0..rhs.cols {
                    out[(r, c)] += a * rhs[(k, c)];
                }
            }
        }
        out
    }
}

impl Add for &CMatrix {
    type Output = CMatrix;
    fn add(self, rhs: &CMatrix) -> CMatrix {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols));
        CMatrix::from_fn(self.rows, self.cols, |r, c| self[(r, c)] + rhs[(r, c)])
    }
}

impl Sub for &CMatrix {
    type Output = CMatrix;
    fn sub(self, rhs: &CMatrix) -> CMatrix {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols));
        CMatrix::from_fn(self.rows, self.cols, |r, c| self[(r, c)] - rhs[(r, c)])
    }
}

impl fmt::Debug for CMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "CMatrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows {
            write!(f, "  ")?;
            for c in 0..self.cols {
                write!(f, "{:>18}", format!("{}", self[(r, c)]))?;
            }
            writeln!(f)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(re: f64, im: f64) -> Complex64 {
        Complex64::new(re, im)
    }

    #[test]
    fn identity_is_multiplicative_neutral() {
        let a = CMatrix::from_fn(3, 3, |r, cidx| {
            c((r * 3 + cidx) as f64, r as f64 - cidx as f64)
        });
        let i = CMatrix::identity(3);
        assert_eq!(&a * &i, a);
        assert_eq!(&i * &a, a);
    }

    #[test]
    fn hermitian_transpose_involution() {
        let a = CMatrix::from_fn(2, 4, |r, cidx| c(r as f64, cidx as f64));
        assert_eq!(a.hermitian().hermitian(), a);
        assert_eq!(a.hermitian().rows(), 4);
    }

    #[test]
    fn mul_vec_matches_matrix_product() {
        let a = CMatrix::from_fn(3, 2, |r, cidx| c((r + cidx) as f64, (r as f64) - 1.0));
        let x = vec![c(1.0, 1.0), c(0.5, -2.0)];
        let via_vec = a.mul_vec(&x);
        let xm = CMatrix::from_rows(2, 1, x);
        let via_mat = &a * &xm;
        for r in 0..3 {
            assert!((via_vec[r] - via_mat[(r, 0)]).abs() < 1e-12);
        }
    }

    #[test]
    fn outer_product_accumulation_is_hermitian() {
        let mut r = CMatrix::zeros(3, 3);
        r.add_outer(&[c(1.0, 2.0), c(-0.5, 0.0), c(0.0, 1.0)], 1.0);
        r.add_outer(&[c(0.3, -1.0), c(2.0, 0.5), c(1.0, 0.0)], 0.5);
        assert!(r.hermitian_deviation() < 1e-14);
        // Diagonal of a (sum of) outer products is real and nonnegative.
        for i in 0..3 {
            assert!(r[(i, i)].im.abs() < 1e-14);
            assert!(r[(i, i)].re >= 0.0);
        }
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = CMatrix::from_fn(2, 2, |r, cidx| c(r as f64, cidx as f64));
        let b = CMatrix::from_fn(2, 2, |r, cidx| c(cidx as f64, -(r as f64)));
        let s = &(&a + &b) - &b;
        assert_eq!(s, a);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn mismatched_product_panics() {
        let a = CMatrix::zeros(2, 3);
        let b = CMatrix::zeros(2, 3);
        let _ = &a * &b;
    }

    #[test]
    fn scratch_reuse_helpers() {
        let a = CMatrix::from_fn(3, 3, |r, cidx| c(r as f64, cidx as f64));
        let mut scratch = CMatrix::from_fn(3, 3, |_, _| c(9.0, 9.0));
        scratch.copy_from(&a);
        assert_eq!(scratch, a);
        scratch.set_identity();
        assert_eq!(scratch, CMatrix::identity(3));
        scratch.fill_zero();
        assert_eq!(scratch, CMatrix::zeros(3, 3));
    }

    #[test]
    #[should_panic(expected = "copy_from shape mismatch")]
    fn copy_from_checks_shape() {
        let a = CMatrix::zeros(2, 3);
        let mut b = CMatrix::zeros(3, 2);
        b.copy_from(&a);
    }

    #[test]
    fn col_extraction() {
        let a = CMatrix::from_fn(3, 2, |r, cidx| c((r * 10 + cidx) as f64, 0.0));
        assert_eq!(a.col(1), vec![c(1.0, 0.0), c(11.0, 0.0), c(21.0, 0.0)]);
    }
}
