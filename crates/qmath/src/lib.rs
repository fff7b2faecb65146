//! # qmath — small dense linear algebra for quantum simulation
//!
//! Self-contained numerical substrate for the `qnlg` workspace. Provides:
//!
//! - [`C64`]: a complex `f64` scalar type with full operator support.
//! - [`RMatrix`] / [`CMatrix`]: dense row-major real and complex matrices.
//! - [`eigen`]: Jacobi eigendecomposition for real-symmetric and Hermitian
//!   matrices (the workhorse behind PSD projection and density-matrix
//!   spectral analysis).
//! - [`mod@cholesky`]: Cholesky factorization and PSD checks.
//! - [`psd`]: projection onto the positive-semidefinite cone and onto the
//!   elliptope (unit-diagonal PSD matrices), used by the XOR-game SDP solver.
//! - [`vecops`]: free functions over `&[f64]` vectors (dot, norm, axpy, ...).
//! - [`stattest`]: statistical acceptance-test helpers — Wilson intervals
//!   at arbitrary confidence, Hoeffding bounds, and the
//!   [`assert_prob_in!`] macro, so stochastic tests state their sample
//!   size and confidence instead of magic tolerances.
//!
//! Everything here is written for *small* dense problems (dimension up to a
//! few hundred): quantum states on ≤ 20 qubits and Gram matrices of
//! non-local games. No external linear-algebra dependency is used; the
//! algorithms are classical textbook methods chosen for robustness over
//! asymptotic speed, in the spirit of smoltcp's "simplicity and robustness"
//! design goals.

pub mod cholesky;
pub mod cmatrix;
pub mod complex;
pub mod eigen;
pub mod error;
pub mod psd;
pub mod rmatrix;
pub mod stats;
pub mod stattest;
pub mod vecops;

pub use cholesky::{cholesky, is_positive_semidefinite};
pub use cmatrix::CMatrix;
pub use complex::C64;
pub use eigen::{eigh, eigh_hermitian, EigenDecomposition};
pub use error::MathError;
pub use psd::{project_elliptope, project_psd};
pub use rmatrix::RMatrix;
pub use stats::{wilson, Proportion};
pub use stattest::{hoeffding_epsilon, hoeffding_samples, wilson_at, z_value, BoundCheck};

/// Default numerical tolerance used across the workspace for comparisons
/// of floating-point quantities that should be exact in infinite precision
/// (normalization, Hermiticity, trace preservation, ...).
pub const EPS: f64 = 1e-9;

/// Returns true if `a` and `b` are within `tol` of each other.
#[inline]
pub fn approx_eq(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() <= tol
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_basic() {
        assert!(approx_eq(1.0, 1.0 + 1e-12, EPS));
        assert!(!approx_eq(1.0, 1.1, EPS));
    }
}
