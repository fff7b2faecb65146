//! Error type shared by all `qmath` operations.

use std::fmt;

/// Errors produced by linear-algebra routines.
///
/// All routines in this crate are total over well-formed inputs; errors
/// signal contract violations (dimension mismatches) or mathematical
/// infeasibility (e.g. Cholesky of an indefinite matrix), never internal
/// numerical surprises.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MathError {
    /// Operand dimensions are incompatible with the requested operation.
    DimensionMismatch {
        /// Human-readable description of the operation that failed.
        op: &'static str,
        /// Dimensions of the left operand as (rows, cols).
        lhs: (usize, usize),
        /// Dimensions of the right operand as (rows, cols).
        rhs: (usize, usize),
    },
    /// The matrix is not square but the operation requires it.
    NotSquare {
        /// Human-readable description of the operation that failed.
        op: &'static str,
        /// Actual dimensions as (rows, cols).
        dims: (usize, usize),
    },
    /// The matrix is not symmetric/Hermitian within tolerance.
    NotSymmetric {
        /// Maximum observed asymmetry `|A[i][j] - A[j][i]|`.
        max_asymmetry: u64,
    },
    /// Cholesky factorization failed: the matrix is not positive definite.
    NotPositiveDefinite {
        /// The pivot index at which a non-positive diagonal was found.
        pivot: usize,
    },
    /// The iterative algorithm did not converge within its iteration budget.
    NoConvergence {
        /// Human-readable description of the algorithm.
        algorithm: &'static str,
        /// Number of iterations performed before giving up.
        iterations: usize,
    },
    /// An input was empty where a non-empty one is required.
    Empty {
        /// Human-readable description of the operation that failed.
        op: &'static str,
    },
}

impl MathError {
    /// Convenience constructor for [`MathError::NotSymmetric`] from a float
    /// asymmetry magnitude (stored as bits so the error stays `Eq`).
    pub fn not_symmetric(max_asymmetry: f64) -> Self {
        MathError::NotSymmetric {
            max_asymmetry: max_asymmetry.to_bits(),
        }
    }
}

impl fmt::Display for MathError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MathError::DimensionMismatch { op, lhs, rhs } => write!(
                f,
                "dimension mismatch in {op}: ({}x{}) vs ({}x{})",
                lhs.0, lhs.1, rhs.0, rhs.1
            ),
            MathError::NotSquare { op, dims } => {
                write!(
                    f,
                    "{op} requires a square matrix, got {}x{}",
                    dims.0, dims.1
                )
            }
            MathError::NotSymmetric { max_asymmetry } => write!(
                f,
                "matrix is not symmetric/Hermitian (max asymmetry {})",
                f64::from_bits(*max_asymmetry)
            ),
            MathError::NotPositiveDefinite { pivot } => {
                write!(f, "matrix is not positive definite (pivot {pivot})")
            }
            MathError::NoConvergence {
                algorithm,
                iterations,
            } => {
                write!(
                    f,
                    "{algorithm} did not converge after {iterations} iterations"
                )
            }
            MathError::Empty { op } => write!(f, "{op} requires a non-empty input"),
        }
    }
}

impl std::error::Error for MathError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = MathError::DimensionMismatch {
            op: "matmul",
            lhs: (2, 3),
            rhs: (4, 5),
        };
        let s = e.to_string();
        assert!(s.contains("matmul"));
        assert!(s.contains("2x3"));

        let e = MathError::not_symmetric(0.5);
        assert!(e.to_string().contains("0.5"));
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(
            MathError::Empty { op: "mean" },
            MathError::Empty { op: "mean" }
        );
        assert_ne!(
            MathError::NotPositiveDefinite { pivot: 0 },
            MathError::NotPositiveDefinite { pivot: 1 }
        );
    }
}
