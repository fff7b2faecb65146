//! Dense row-major real (`f64`) matrices.

use crate::error::MathError;
use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

/// A dense row-major matrix of `f64` values.
///
/// Sized for the workspace's needs — Gram matrices of non-local games and
/// cost matrices — i.e. dimensions in the tens to low hundreds. All
/// operations are straightforward O(n³)/O(n²) loops; no blocking or SIMD.
#[derive(Debug, Clone, PartialEq)]
pub struct RMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl RMatrix {
    /// Creates a zero matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        RMatrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the n×n identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = RMatrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// # Errors
    /// Returns [`MathError::DimensionMismatch`] if `data.len() != rows*cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self, MathError> {
        if data.len() != rows * cols {
            return Err(MathError::DimensionMismatch {
                op: "RMatrix::from_vec",
                lhs: (rows, cols),
                rhs: (data.len(), 1),
            });
        }
        Ok(RMatrix { rows, cols, data })
    }

    /// Creates a matrix from nested rows. All rows must have equal length.
    ///
    /// # Errors
    /// Returns [`MathError::DimensionMismatch`] on ragged input and
    /// [`MathError::Empty`] on no rows.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self, MathError> {
        if rows.is_empty() {
            return Err(MathError::Empty {
                op: "RMatrix::from_rows",
            });
        }
        let cols = rows[0].len();
        for r in rows {
            if r.len() != cols {
                return Err(MathError::DimensionMismatch {
                    op: "RMatrix::from_rows",
                    lhs: (1, cols),
                    rhs: (1, r.len()),
                });
            }
        }
        let data = rows.iter().flatten().copied().collect();
        Ok(RMatrix {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Builds a matrix by evaluating `f(i, j)` at each entry.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = RMatrix::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m[(i, j)] = f(i, j);
            }
        }
        m
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
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Borrow one row as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Matrix transpose.
    pub fn transpose(&self) -> RMatrix {
        RMatrix::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Matrix product.
    ///
    /// # Errors
    /// Returns [`MathError::DimensionMismatch`] if inner dimensions differ.
    pub fn matmul(&self, rhs: &RMatrix) -> Result<RMatrix, MathError> {
        if self.cols != rhs.rows {
            return Err(MathError::DimensionMismatch {
                op: "matmul",
                lhs: (self.rows, self.cols),
                rhs: (rhs.rows, rhs.cols),
            });
        }
        let mut out = RMatrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self[(i, k)];
                if aik == 0.0 {
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
    pub fn matvec(&self, v: &[f64]) -> Result<Vec<f64>, MathError> {
        if v.len() != self.cols {
            return Err(MathError::DimensionMismatch {
                op: "matvec",
                lhs: (self.rows, self.cols),
                rhs: (v.len(), 1),
            });
        }
        Ok((0..self.rows)
            .map(|i| crate::vecops::dot(self.row(i), v))
            .collect())
    }

    /// Scales every entry by `alpha`.
    pub fn scaled(&self, alpha: f64) -> RMatrix {
        let mut out = self.clone();
        for x in out.data.iter_mut() {
            *x *= alpha;
        }
        out
    }

    /// Trace (sum of diagonal entries).
    ///
    /// # Panics
    /// Panics if the matrix is not square.
    pub fn trace(&self) -> f64 {
        assert!(self.is_square(), "trace of non-square matrix");
        (0..self.rows).map(|i| self[(i, i)]).sum()
    }

    /// Frobenius inner product `⟨A, B⟩ = Σ AᵢⱼBᵢⱼ`.
    ///
    /// # Errors
    /// Returns [`MathError::DimensionMismatch`] on shape mismatch.
    pub fn frobenius_inner(&self, rhs: &RMatrix) -> Result<f64, MathError> {
        if self.rows != rhs.rows || self.cols != rhs.cols {
            return Err(MathError::DimensionMismatch {
                op: "frobenius_inner",
                lhs: (self.rows, self.cols),
                rhs: (rhs.rows, rhs.cols),
            });
        }
        Ok(self.data.iter().zip(&rhs.data).map(|(a, b)| a * b).sum())
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Maximum absolute asymmetry `max |A[i][j] - A[j][i]|`; 0 for symmetric.
    ///
    /// # Panics
    /// Panics if the matrix is not square.
    pub fn max_asymmetry(&self) -> f64 {
        assert!(self.is_square(), "max_asymmetry of non-square matrix");
        let mut worst: f64 = 0.0;
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                worst = worst.max((self[(i, j)] - self[(j, i)]).abs());
            }
        }
        worst
    }

    /// Symmetrizes in place: `A ← (A + Aᵀ)/2`.
    ///
    /// # Panics
    /// Panics if the matrix is not square.
    pub fn symmetrize(&mut self) {
        assert!(self.is_square(), "symmetrize of non-square matrix");
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                let m = 0.5 * (self[(i, j)] + self[(j, i)]);
                self[(i, j)] = m;
                self[(j, i)] = m;
            }
        }
    }

    /// Entrywise maximum absolute difference from another matrix.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn max_abs_diff(&self, rhs: &RMatrix) -> f64 {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols));
        crate::vecops::max_abs_diff(&self.data, &rhs.data)
    }
}

impl Index<(usize, usize)> for RMatrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for RMatrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.cols + j]
    }
}

impl Add for &RMatrix {
    type Output = RMatrix;
    fn add(self, rhs: &RMatrix) -> RMatrix {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols), "add shape");
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a + b)
            .collect();
        RMatrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }
}

impl Sub for &RMatrix {
    type Output = RMatrix;
    fn sub(self, rhs: &RMatrix) -> RMatrix {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols), "sub shape");
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a - b)
            .collect();
        RMatrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }
}

impl Mul for &RMatrix {
    type Output = RMatrix;
    fn mul(self, rhs: &RMatrix) -> RMatrix {
        self.matmul(rhs).expect("matmul shape mismatch")
    }
}

impl fmt::Display for RMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            write!(f, "[")?;
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:9.4}", self[(i, j)])?;
            }
            writeln!(f, "]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn mat2(a: f64, b: f64, c: f64, d: f64) -> RMatrix {
        RMatrix::from_vec(2, 2, vec![a, b, c, d]).unwrap()
    }

    #[test]
    fn identity_is_multiplicative_identity() {
        let a = mat2(1.0, 2.0, 3.0, 4.0);
        let i = RMatrix::identity(2);
        assert_eq!(a.matmul(&i).unwrap(), a);
        assert_eq!(i.matmul(&a).unwrap(), a);
    }

    #[test]
    fn matmul_known_product() {
        let a = mat2(1.0, 2.0, 3.0, 4.0);
        let b = mat2(0.0, 1.0, 1.0, 0.0);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c, mat2(2.0, 1.0, 4.0, 3.0));
    }

    #[test]
    fn matmul_dimension_error() {
        let a = RMatrix::zeros(2, 3);
        let b = RMatrix::zeros(2, 3);
        assert!(matches!(
            a.matmul(&b),
            Err(MathError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn transpose_involution() {
        let a = RMatrix::from_fn(3, 2, |i, j| (i * 10 + j) as f64);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().rows(), 2);
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = mat2(1.0, 2.0, 3.0, 4.0);
        let v = vec![5.0, 6.0];
        assert_eq!(a.matvec(&v).unwrap(), vec![17.0, 39.0]);
    }

    #[test]
    fn trace_and_frobenius() {
        let a = mat2(1.0, 2.0, 3.0, 4.0);
        assert_eq!(a.trace(), 5.0);
        assert_eq!(a.frobenius_inner(&a).unwrap(), 30.0);
        assert!((a.frobenius_norm() - 30.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn symmetrize_produces_symmetric() {
        let mut a = mat2(1.0, 5.0, 1.0, 2.0);
        assert_eq!(a.max_asymmetry(), 4.0);
        a.symmetrize();
        assert_eq!(a.max_asymmetry(), 0.0);
        assert_eq!(a[(0, 1)], 3.0);
    }

    #[test]
    fn from_rows_ragged_errors() {
        let err = RMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0]]);
        assert!(matches!(err, Err(MathError::DimensionMismatch { .. })));
        assert!(matches!(
            RMatrix::from_rows(&[]),
            Err(MathError::Empty { .. })
        ));
    }

    proptest! {
        #[test]
        fn prop_transpose_preserves_frobenius(
            vals in proptest::collection::vec(-10.0f64..10.0, 12))
        {
            let a = RMatrix::from_vec(3, 4, vals).unwrap();
            prop_assert!((a.frobenius_norm() - a.transpose().frobenius_norm()).abs() < 1e-9);
        }

        #[test]
        fn prop_matmul_associative(
            a_vals in proptest::collection::vec(-3.0f64..3.0, 4),
            b_vals in proptest::collection::vec(-3.0f64..3.0, 4),
            c_vals in proptest::collection::vec(-3.0f64..3.0, 4))
        {
            let a = RMatrix::from_vec(2, 2, a_vals).unwrap();
            let b = RMatrix::from_vec(2, 2, b_vals).unwrap();
            let c = RMatrix::from_vec(2, 2, c_vals).unwrap();
            let ab_c = a.matmul(&b).unwrap().matmul(&c).unwrap();
            let a_bc = a.matmul(&b.matmul(&c).unwrap()).unwrap();
            prop_assert!(ab_c.max_abs_diff(&a_bc) < 1e-9);
        }

        #[test]
        fn prop_trace_of_product_commutes(
            a_vals in proptest::collection::vec(-3.0f64..3.0, 9),
            b_vals in proptest::collection::vec(-3.0f64..3.0, 9))
        {
            let a = RMatrix::from_vec(3, 3, a_vals).unwrap();
            let b = RMatrix::from_vec(3, 3, b_vals).unwrap();
            let tab = a.matmul(&b).unwrap().trace();
            let tba = b.matmul(&a).unwrap().trace();
            prop_assert!((tab - tba).abs() < 1e-9);
        }
    }
}
