//! Projections onto the PSD cone and the elliptope.
//!
//! These are the geometric primitives behind the projected-gradient SDP
//! solver used to cross-check XOR-game quantum values
//! (`games::xor::quantum_value_pgd`).

use crate::eigen::eigh;
use crate::error::MathError;
use crate::rmatrix::RMatrix;

/// Projects a symmetric matrix onto the positive-semidefinite cone in
/// Frobenius norm: eigendecompose and clamp negative eigenvalues to zero.
///
/// # Errors
/// Propagates [`eigh`] errors (non-square or asymmetric input).
pub fn project_psd(a: &RMatrix) -> Result<RMatrix, MathError> {
    let n = a.rows();
    let dec = eigh(a)?;
    let mut out = RMatrix::zeros(n, n);
    for k in 0..n {
        let lam = dec.values[k];
        if lam <= 0.0 {
            continue;
        }
        let v = dec.vectors.row(k);
        for i in 0..n {
            for j in 0..n {
                out[(i, j)] += lam * v[i] * v[j];
            }
        }
    }
    Ok(out)
}

/// Approximately projects a symmetric matrix onto the *elliptope* — the set
/// of PSD matrices with unit diagonal (correlation matrices / Gram matrices
/// of unit vectors).
///
/// Uses alternating projection between the PSD cone ([`project_psd`]) and
/// the unit-diagonal affine constraint, followed by a congruence rescale
/// `D^{-1/2} G D^{-1/2}` that restores exact unit diagonal while preserving
/// positive semidefiniteness. Alternating projection between a convex cone
/// and an affine set converges to a point in the intersection; the final
/// rescale guarantees the diagonal constraint holds exactly after finitely
/// many rounds.
///
/// # Errors
/// Propagates [`eigh`] errors.
pub fn project_elliptope(a: &RMatrix, rounds: usize) -> Result<RMatrix, MathError> {
    let n = a.rows();
    let mut g = a.clone();
    g.symmetrize();
    for _ in 0..rounds {
        g = project_psd(&g)?;
        for i in 0..n {
            g[(i, i)] = 1.0;
        }
    }
    g = project_psd(&g)?;
    // Congruence rescale: exact unit diagonal, stays PSD.
    let mut d = vec![0.0; n];
    for (i, di) in d.iter_mut().enumerate() {
        // Guard against a zero diagonal (can only happen if the input row
        // was entirely zero); fall back to the identity direction.
        let gii = g[(i, i)];
        if gii <= 1e-12 {
            g[(i, i)] = 1.0;
            for j in 0..n {
                if j != i {
                    g[(i, j)] = 0.0;
                    g[(j, i)] = 0.0;
                }
            }
            *di = 1.0;
        } else {
            *di = gii.sqrt();
        }
    }
    for i in 0..n {
        for j in 0..n {
            g[(i, j)] /= d[i] * d[j];
        }
    }
    Ok(g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cholesky::is_positive_semidefinite;

    #[test]
    fn project_psd_fixes_negative_eigenvalue() {
        // [[1, 2], [2, 1]] has eigenvalues -1, 3.
        let a = RMatrix::from_vec(2, 2, vec![1.0, 2.0, 2.0, 1.0]).unwrap();
        let p = project_psd(&a).unwrap();
        assert!(is_positive_semidefinite(&p, 1e-9).unwrap());
        // The projection keeps only the λ=3 component: 1.5 * [[1,1],[1,1]].
        assert!((p[(0, 0)] - 1.5).abs() < 1e-9);
        assert!((p[(0, 1)] - 1.5).abs() < 1e-9);
    }

    #[test]
    fn project_psd_identity_on_psd_input() {
        let a = RMatrix::from_vec(2, 2, vec![2.0, 1.0, 1.0, 2.0]).unwrap();
        let p = project_psd(&a).unwrap();
        assert!(p.max_abs_diff(&a) < 1e-9);
    }

    #[test]
    fn elliptope_projection_feasible() {
        let a =
            RMatrix::from_vec(3, 3, vec![5.0, 0.9, -0.9, 0.9, 0.1, 0.9, -0.9, 0.9, 1.0]).unwrap();
        let g = project_elliptope(&a, 20).unwrap();
        assert!(is_positive_semidefinite(&g, 1e-7).unwrap());
        for i in 0..3 {
            assert!((g[(i, i)] - 1.0).abs() < 1e-9, "diag {i} = {}", g[(i, i)]);
        }
        for i in 0..3 {
            for j in 0..3 {
                assert!(g[(i, j)].abs() <= 1.0 + 1e-9);
            }
        }
    }

    #[test]
    fn elliptope_projection_fixed_point() {
        // A valid correlation matrix should be (nearly) unchanged.
        let a = RMatrix::from_vec(2, 2, vec![1.0, 0.5, 0.5, 1.0]).unwrap();
        let g = project_elliptope(&a, 10).unwrap();
        assert!(g.max_abs_diff(&a) < 1e-8);
    }
}
