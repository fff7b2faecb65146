//! Dense row-major complex matrices.
//!
//! Used by the quantum simulator for density matrices, unitaries and Kraus
//! operators. The API mirrors [`crate::rmatrix::RMatrix`] with the complex
//! extras a quantum library needs: dagger (conjugate transpose),
//! Hermiticity checks, and Kronecker (tensor) products.

use crate::complex::C64;
use crate::error::MathError;
use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

/// A dense row-major matrix of [`C64`] values.
#[derive(Debug, Clone, PartialEq)]
pub struct CMatrix {
    rows: usize,
    cols: usize,
    data: Vec<C64>,
}

impl CMatrix {
    /// Creates a zero matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        CMatrix {
            rows,
            cols,
            data: vec![C64::ZERO; rows * cols],
        }
    }

    /// Creates the n×n identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = CMatrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = C64::ONE;
        }
        m
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// # Errors
    /// Returns [`MathError::DimensionMismatch`] if `data.len() != rows*cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<C64>) -> Result<Self, MathError> {
        if data.len() != rows * cols {
            return Err(MathError::DimensionMismatch {
                op: "CMatrix::from_vec",
                lhs: (rows, cols),
                rhs: (data.len(), 1),
            });
        }
        Ok(CMatrix { rows, cols, data })
    }

    /// Builds a matrix by evaluating `f(i, j)` at each entry.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> C64) -> Self {
        let mut m = CMatrix::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// The outer product `|v⟩⟨w|` of two complex vectors.
    pub fn outer(v: &[C64], w: &[C64]) -> Self {
        CMatrix::from_fn(v.len(), w.len(), |i, j| v[i] * w[j].conj())
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

    /// True if the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrow the underlying row-major data.
    #[inline]
    pub fn as_slice(&self) -> &[C64] {
        &self.data
    }

    /// Borrow one row as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[C64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Conjugate transpose (the physicists' dagger, `A†`).
    pub fn dagger(&self) -> CMatrix {
        CMatrix::from_fn(self.cols, self.rows, |i, j| self[(j, i)].conj())
    }

    /// Matrix product.
    ///
    /// # Errors
    /// Returns [`MathError::DimensionMismatch`] if inner dimensions differ.
    pub fn matmul(&self, rhs: &CMatrix) -> Result<CMatrix, MathError> {
        if self.cols != rhs.rows {
            return Err(MathError::DimensionMismatch {
                op: "cmatmul",
                lhs: (self.rows, self.cols),
                rhs: (rhs.rows, rhs.cols),
            });
        }
        let mut out = CMatrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self[(i, k)];
                if aik == C64::ZERO {
                    continue;
                }
                for j in 0..rhs.cols {
                    out[(i, j)] += aik * rhs[(k, j)];
                }
            }
        }
        Ok(out)
    }

    /// Matrix–vector product.
    ///
    /// # Errors
    /// Returns [`MathError::DimensionMismatch`] if `v.len() != cols`.
    pub fn matvec(&self, v: &[C64]) -> Result<Vec<C64>, MathError> {
        if v.len() != self.cols {
            return Err(MathError::DimensionMismatch {
                op: "cmatvec",
                lhs: (self.rows, self.cols),
                rhs: (v.len(), 1),
            });
        }
        Ok((0..self.rows)
            .map(|i| self.row(i).iter().zip(v).map(|(a, x)| *a * *x).sum())
            .collect())
    }

    /// Kronecker (tensor) product `self ⊗ rhs`.
    pub fn kron(&self, rhs: &CMatrix) -> CMatrix {
        let (r1, c1, r2, c2) = (self.rows, self.cols, rhs.rows, rhs.cols);
        CMatrix::from_fn(r1 * r2, c1 * c2, |i, j| {
            self[(i / r2, j / c2)] * rhs[(i % r2, j % c2)]
        })
    }

    /// Scales every entry by a complex factor.
    pub fn scaled(&self, alpha: C64) -> CMatrix {
        let mut out = self.clone();
        for x in out.data.iter_mut() {
            *x *= alpha;
        }
        out
    }

    /// Trace.
    ///
    /// # Panics
    /// Panics if the matrix is not square.
    pub fn trace(&self) -> C64 {
        assert!(self.is_square(), "trace of non-square matrix");
        (0..self.rows).map(|i| self[(i, i)]).sum()
    }

    /// Maximum deviation from Hermiticity `max |A[i][j] - conj(A[j][i])|`.
    ///
    /// # Panics
    /// Panics if the matrix is not square.
    pub fn max_nonhermiticity(&self) -> f64 {
        assert!(self.is_square(), "hermiticity of non-square matrix");
        let mut worst: f64 = 0.0;
        for i in 0..self.rows {
            worst = worst.max(self[(i, i)].im.abs());
            for j in (i + 1)..self.cols {
                worst = worst.max((self[(i, j)] - self[(j, i)].conj()).abs());
            }
        }
        worst
    }

    /// True if Hermitian within `tol`.
    pub fn is_hermitian(&self, tol: f64) -> bool {
        self.is_square() && self.max_nonhermiticity() <= tol
    }

    /// True if `A†A = I` within `tol` (i.e. `A` is unitary).
    pub fn is_unitary(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        let prod = self.dagger().matmul(self).expect("square matmul");
        prod.max_abs_diff(&CMatrix::identity(self.rows)) <= tol
    }

    /// Entrywise maximum absolute difference from another matrix.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn max_abs_diff(&self, rhs: &CMatrix) -> f64 {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols));
        self.data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| (*a - *b).abs())
            .fold(0.0, f64::max)
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt()
    }
}

impl Index<(usize, usize)> for CMatrix {
    type Output = C64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &C64 {
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for CMatrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut C64 {
        &mut self.data[i * self.cols + j]
    }
}

impl Add for &CMatrix {
    type Output = CMatrix;
    fn add(self, rhs: &CMatrix) -> CMatrix {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols), "add shape");
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| *a + *b)
            .collect();
        CMatrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }
}

impl Sub for &CMatrix {
    type Output = CMatrix;
    fn sub(self, rhs: &CMatrix) -> CMatrix {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols), "sub shape");
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| *a - *b)
            .collect();
        CMatrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }
}

impl Mul for &CMatrix {
    type Output = CMatrix;
    fn mul(self, rhs: &CMatrix) -> CMatrix {
        self.matmul(rhs).expect("cmatmul shape mismatch")
    }
}

impl fmt::Display for CMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            write!(f, "[")?;
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:6.3}{:+6.3}i", self[(i, j)].re, self[(i, j)].im)?;
            }
            writeln!(f, "]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pauli_x() -> CMatrix {
        CMatrix::from_vec(2, 2, vec![C64::ZERO, C64::ONE, C64::ONE, C64::ZERO]).unwrap()
    }

    fn pauli_y() -> CMatrix {
        CMatrix::from_vec(2, 2, vec![C64::ZERO, -C64::I, C64::I, C64::ZERO]).unwrap()
    }

    #[test]
    fn paulis_are_hermitian_and_unitary() {
        for p in [pauli_x(), pauli_y()] {
            assert!(p.is_hermitian(1e-12));
            assert!(p.is_unitary(1e-12));
        }
    }

    #[test]
    fn pauli_algebra_xy_equals_iz() {
        let xy = pauli_x().matmul(&pauli_y()).unwrap();
        // XY = iZ
        let iz = CMatrix::from_vec(2, 2, vec![C64::I, C64::ZERO, C64::ZERO, -C64::I]).unwrap();
        assert!(xy.max_abs_diff(&iz) < 1e-12);
    }

    #[test]
    fn dagger_involution() {
        let a = CMatrix::from_fn(3, 2, |i, j| C64::new(i as f64, j as f64));
        assert!(a.dagger().dagger().max_abs_diff(&a) < 1e-15);
    }

    #[test]
    fn kron_dimensions_and_values() {
        let i2 = CMatrix::identity(2);
        let x = pauli_x();
        let ix = i2.kron(&x);
        assert_eq!(ix.rows(), 4);
        // I ⊗ X block structure: X in top-left and bottom-right blocks
        assert_eq!(ix[(0, 1)], C64::ONE);
        assert_eq!(ix[(2, 3)], C64::ONE);
        assert_eq!(ix[(0, 2)], C64::ZERO);
        assert!(ix.is_unitary(1e-12));
    }

    #[test]
    fn kron_mixed_product_property() {
        // (A⊗B)(C⊗D) = (AC)⊗(BD)
        let a = pauli_x();
        let b = pauli_y();
        let lhs = a.kron(&b).matmul(&b.kron(&a)).unwrap();
        let rhs = a.matmul(&b).unwrap().kron(&b.matmul(&a).unwrap());
        assert!(lhs.max_abs_diff(&rhs) < 1e-12);
    }

    #[test]
    fn outer_product_trace_is_inner_product() {
        let v = vec![C64::new(0.6, 0.0), C64::new(0.0, 0.8)];
        let p = CMatrix::outer(&v, &v);
        assert!(p.trace().approx_eq(C64::ONE, 1e-12));
        assert!(p.is_hermitian(1e-12));
    }

    #[test]
    fn matvec_applies_matrix() {
        let x = pauli_x();
        let v = vec![C64::ONE, C64::ZERO];
        let w = x.matvec(&v).unwrap();
        assert_eq!(w, vec![C64::ZERO, C64::ONE]);
    }

    #[test]
    fn trace_linear() {
        let a = pauli_x();
        let b = pauli_y();
        let t = (&a + &b).trace();
        assert!(t.approx_eq(a.trace() + b.trace(), 1e-12));
    }

    #[test]
    fn non_hermitian_detected() {
        let mut a = CMatrix::identity(2);
        a[(0, 1)] = C64::new(1.0, 0.0);
        assert!(!a.is_hermitian(1e-12));
        assert!((a.max_nonhermiticity() - 1.0).abs() < 1e-12);
    }
}
