//! Eigendecomposition of real-symmetric and Hermitian matrices.
//!
//! Uses the cyclic Jacobi rotation method: numerically very robust, simple
//! to verify, and more than fast enough for the ≤ few-hundred-dimensional
//! matrices this workspace produces (density matrices on ≤ 8 qubits, Gram
//! matrices of XOR games). Hermitian matrices are handled by the standard
//! embedding of an n×n Hermitian `H = A + iB` into the 2n×2n real symmetric
//! matrix `[[A, -B], [B, A]]`, whose spectrum is that of `H` with every
//! eigenvalue doubled.

use crate::cmatrix::CMatrix;
use crate::complex::C64;
use crate::error::MathError;
use crate::rmatrix::RMatrix;

/// Result of an eigendecomposition: `A = V diag(λ) Vᵀ`.
///
/// Eigenvalues are sorted ascending; `vectors.row(k)` — note: rows, not
/// columns — is the unit eigenvector for `values[k]`.
#[derive(Debug, Clone)]
pub struct EigenDecomposition {
    /// Eigenvalues in ascending order.
    pub values: Vec<f64>,
    /// Eigenvectors as rows: `vectors.row(k)` pairs with `values[k]`.
    pub vectors: RMatrix,
}

/// Maximum number of full Jacobi sweeps before declaring non-convergence.
/// Jacobi converges quadratically; well-conditioned matrices need < 15
/// sweeps even at n = 200, so 100 indicates pathological input (NaN/Inf).
const MAX_SWEEPS: usize = 100;

/// Eigendecomposition of a real symmetric matrix by cyclic Jacobi rotations.
///
/// # Errors
/// - [`MathError::NotSquare`] if `a` is not square.
/// - [`MathError::NotSymmetric`] if `a` deviates from symmetry by more
///   than `1e-8` (relative to its Frobenius norm scale).
/// - [`MathError::NoConvergence`] if the sweep budget is exhausted
///   (only possible for non-finite input).
pub fn eigh(a: &RMatrix) -> Result<EigenDecomposition, MathError> {
    if !a.is_square() {
        return Err(MathError::NotSquare {
            op: "eigh",
            dims: (a.rows(), a.cols()),
        });
    }
    let n = a.rows();
    let scale = a.frobenius_norm().max(1.0);
    let asym = a.max_asymmetry();
    if asym > 1e-8 * scale {
        return Err(MathError::not_symmetric(asym));
    }
    if n == 0 {
        return Ok(EigenDecomposition {
            values: vec![],
            vectors: RMatrix::zeros(0, 0),
        });
    }

    // Work on a copy; accumulate rotations in v (as columns initially).
    let mut m = a.clone();
    m.symmetrize();
    let mut v = RMatrix::identity(n);

    for sweep in 0..MAX_SWEEPS {
        // Off-diagonal Frobenius norm² — convergence criterion.
        let mut off = 0.0;
        for i in 0..n {
            for j in (i + 1)..n {
                off += 2.0 * m[(i, j)] * m[(i, j)];
            }
        }
        if off.sqrt() <= 1e-14 * scale {
            return Ok(finish(m, v, n));
        }
        if !off.is_finite() {
            return Err(MathError::NoConvergence {
                algorithm: "jacobi (non-finite input)",
                iterations: sweep,
            });
        }

        for p in 0..n {
            for q in (p + 1)..n {
                let apq = m[(p, q)];
                if apq.abs() <= 1e-300 {
                    continue;
                }
                // Compute the Jacobi rotation that zeroes m[p][q].
                let theta = (m[(q, q)] - m[(p, p)]) / (2.0 * apq);
                let t = if theta >= 0.0 {
                    1.0 / (theta + (1.0 + theta * theta).sqrt())
                } else {
                    -1.0 / (-theta + (1.0 + theta * theta).sqrt())
                };
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = t * c;

                // Apply rotation: rows/cols p and q of m.
                for k in 0..n {
                    let mkp = m[(k, p)];
                    let mkq = m[(k, q)];
                    m[(k, p)] = c * mkp - s * mkq;
                    m[(k, q)] = s * mkp + c * mkq;
                }
                for k in 0..n {
                    let mpk = m[(p, k)];
                    let mqk = m[(q, k)];
                    m[(p, k)] = c * mpk - s * mqk;
                    m[(q, k)] = s * mpk + c * mqk;
                }
                // Accumulate eigenvector rotation (columns of v).
                for k in 0..n {
                    let vkp = v[(k, p)];
                    let vkq = v[(k, q)];
                    v[(k, p)] = c * vkp - s * vkq;
                    v[(k, q)] = s * vkp + c * vkq;
                }
            }
        }
    }
    Err(MathError::NoConvergence {
        algorithm: "jacobi",
        iterations: MAX_SWEEPS,
    })
}

/// Sorts eigenpairs ascending and converts column-eigenvectors to rows.
fn finish(m: RMatrix, v: RMatrix, n: usize) -> EigenDecomposition {
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| {
        m[(i, i)]
            .partial_cmp(&m[(j, j)])
            .expect("finite eigenvalues")
    });
    let values: Vec<f64> = order.iter().map(|&i| m[(i, i)]).collect();
    let vectors = RMatrix::from_fn(n, n, |row, col| v[(col, order[row])]);
    EigenDecomposition { values, vectors }
}

/// Result of a Hermitian eigendecomposition.
#[derive(Debug, Clone)]
pub struct HermitianEigen {
    /// Eigenvalues in ascending order (real for Hermitian matrices).
    pub values: Vec<f64>,
    /// Unit eigenvectors; `vectors[k]` pairs with `values[k]`.
    pub vectors: Vec<Vec<C64>>,
}

/// Eigendecomposition of a Hermitian complex matrix.
///
/// Embeds `H = A + iB` into the real symmetric `[[A, -B], [B, A]]` and
/// deduplicates the doubled spectrum. The real eigenvector `(x, y)` maps to
/// the complex eigenvector `x + iy`; for a doubled eigenvalue the two real
/// eigenvectors map to complex vectors equal up to phase, so we keep every
/// other one after re-orthonormalization within degenerate clusters.
///
/// # Errors
/// Same conditions as [`eigh`], plus [`MathError::NotSymmetric`] if the
/// input is not Hermitian.
pub fn eigh_hermitian(h: &CMatrix) -> Result<HermitianEigen, MathError> {
    if !h.is_square() {
        return Err(MathError::NotSquare {
            op: "eigh_hermitian",
            dims: (h.rows(), h.cols()),
        });
    }
    let n = h.rows();
    let scale = h.frobenius_norm().max(1.0);
    let nonherm = h.max_nonhermiticity();
    if nonherm > 1e-8 * scale {
        return Err(MathError::not_symmetric(nonherm));
    }

    // Real embedding: M = [[A, -B], [B, A]], where H = A + iB.
    let m = RMatrix::from_fn(2 * n, 2 * n, |i, j| {
        let (bi, bj) = (i % n, j % n);
        let z = h[(bi, bj)];
        match (i < n, j < n) {
            (true, true) => z.re,
            (true, false) => -z.im,
            (false, true) => z.im,
            (false, false) => z.re,
        }
    });
    let dec = eigh(&m)?;

    // The 2n eigenvalues come in duplicated pairs. Walk ascending and take
    // one complex eigenvector per pair, Gram-Schmidt-orthonormalizing within
    // clusters of (numerically) equal eigenvalues to handle degeneracy.
    let mut values = Vec::with_capacity(n);
    let mut vectors: Vec<Vec<C64>> = Vec::with_capacity(n);
    let tol = 1e-7 * scale;
    for k in 0..2 * n {
        if values.len() == n {
            break;
        }
        let lam = dec.values[k];
        let row = dec.vectors.row(k);
        let mut cv: Vec<C64> = (0..n).map(|i| C64::new(row[i], row[n + i])).collect();
        // Project out previously kept eigenvectors with the same eigenvalue.
        for (idx, prev) in values.iter().enumerate() {
            if (lam - prev).abs() <= tol {
                let overlap = crate::vecops::cdot(&vectors[idx], &cv);
                for (c, p) in cv.iter_mut().zip(&vectors[idx]) {
                    *c -= overlap * *p;
                }
            }
        }
        // After projection, the duplicate partner of an already-kept
        // eigenvector collapses to numerical noise — require a genuinely
        // non-trivial residual before keeping it.
        if crate::vecops::cnorm(&cv) > 1e-6 {
            crate::vecops::cnormalize(&mut cv);
            values.push(lam);
            vectors.push(cv);
        }
    }
    debug_assert_eq!(values.len(), n, "duplicated spectrum extraction failed");
    Ok(HermitianEigen { values, vectors })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vecops;
    use proptest::prelude::*;

    fn reconstruct(dec: &EigenDecomposition, n: usize) -> RMatrix {
        let mut out = RMatrix::zeros(n, n);
        for k in 0..n {
            let v = dec.vectors.row(k);
            for i in 0..n {
                for j in 0..n {
                    out[(i, j)] += dec.values[k] * v[i] * v[j];
                }
            }
        }
        out
    }

    #[test]
    fn eigh_diagonal_matrix() {
        let a = RMatrix::from_vec(3, 3, vec![3.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 2.0]).unwrap();
        let dec = eigh(&a).unwrap();
        assert_eq!(dec.values.len(), 3);
        assert!((dec.values[0] - 1.0).abs() < 1e-12);
        assert!((dec.values[1] - 2.0).abs() < 1e-12);
        assert!((dec.values[2] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn eigh_2x2_known() {
        // [[2,1],[1,2]] has eigenvalues 1 and 3.
        let a = RMatrix::from_vec(2, 2, vec![2.0, 1.0, 1.0, 2.0]).unwrap();
        let dec = eigh(&a).unwrap();
        assert!((dec.values[0] - 1.0).abs() < 1e-10);
        assert!((dec.values[1] - 3.0).abs() < 1e-10);
        // Eigenvector for λ=3 is (1,1)/√2 up to sign.
        let v = dec.vectors.row(1);
        assert!((v[0].abs() - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-10);
        assert!((v[0] - v[1]).abs() < 1e-10);
    }

    #[test]
    fn eigh_reconstruction() {
        let a = RMatrix::from_vec(
            4,
            4,
            vec![
                4.0, 1.0, 0.5, 0.0, 1.0, 3.0, 0.2, 0.1, 0.5, 0.2, 2.0, 0.3, 0.0, 0.1, 0.3, 1.0,
            ],
        )
        .unwrap();
        let dec = eigh(&a).unwrap();
        let r = reconstruct(&dec, 4);
        assert!(r.max_abs_diff(&a) < 1e-9);
    }

    #[test]
    fn eigh_eigenvectors_orthonormal() {
        let a = RMatrix::from_fn(5, 5, |i, j| 1.0 / (1.0 + (i + j) as f64));
        let dec = eigh(&a).unwrap();
        for i in 0..5 {
            for j in 0..5 {
                let d = vecops::dot(dec.vectors.row(i), dec.vectors.row(j));
                let expected = if i == j { 1.0 } else { 0.0 };
                assert!((d - expected).abs() < 1e-9, "({i},{j}): {d}");
            }
        }
    }

    #[test]
    fn eigh_rejects_asymmetric() {
        let a = RMatrix::from_vec(2, 2, vec![1.0, 5.0, 0.0, 1.0]).unwrap();
        assert!(matches!(eigh(&a), Err(MathError::NotSymmetric { .. })));
    }

    #[test]
    fn eigh_rejects_nonsquare() {
        let a = RMatrix::zeros(2, 3);
        assert!(matches!(eigh(&a), Err(MathError::NotSquare { .. })));
    }

    #[test]
    fn hermitian_pauli_y_spectrum() {
        // Y has eigenvalues ±1.
        let y = CMatrix::from_vec(2, 2, vec![C64::ZERO, -C64::I, C64::I, C64::ZERO]).unwrap();
        let dec = eigh_hermitian(&y).unwrap();
        assert!((dec.values[0] + 1.0).abs() < 1e-10);
        assert!((dec.values[1] - 1.0).abs() < 1e-10);
        // Check Y v = λ v.
        for k in 0..2 {
            let v = &dec.vectors[k];
            let yv = y.matvec(v).unwrap();
            for i in 0..2 {
                assert!((yv[i] - v[i] * dec.values[k]).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn hermitian_eigenvectors_orthonormal_degenerate() {
        // Identity: fully degenerate spectrum — hardest case for the
        // duplicated-pair extraction.
        let i4 = CMatrix::identity(4);
        let dec = eigh_hermitian(&i4).unwrap();
        assert_eq!(dec.values.len(), 4);
        for k in 0..4 {
            assert!((dec.values[k] - 1.0).abs() < 1e-10);
            for l in 0..4 {
                let d = vecops::cdot(&dec.vectors[k], &dec.vectors[l]);
                let expected = if k == l { C64::ONE } else { C64::ZERO };
                assert!(d.approx_eq(expected, 1e-8), "({k},{l}): {d}");
            }
        }
    }

    #[test]
    fn hermitian_random_reconstruction() {
        // Deterministic pseudo-random Hermitian matrix.
        let n = 4;
        let mut h = CMatrix::zeros(n, n);
        let mut seed = 1u64;
        let mut next = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((seed >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        for i in 0..n {
            h[(i, i)] = C64::real(next());
            for j in (i + 1)..n {
                let z = C64::new(next(), next());
                h[(i, j)] = z;
                h[(j, i)] = z.conj();
            }
        }
        let dec = eigh_hermitian(&h).unwrap();
        // Reconstruct Σ λ |v⟩⟨v|.
        let mut r = CMatrix::zeros(n, n);
        for k in 0..n {
            let p = CMatrix::outer(&dec.vectors[k], &dec.vectors[k]);
            r = &r + &p.scaled(C64::real(dec.values[k]));
        }
        assert!(r.max_abs_diff(&h) < 1e-8);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_eigh_trace_equals_eigenvalue_sum(
            vals in proptest::collection::vec(-5.0f64..5.0, 16))
        {
            let mut a = RMatrix::from_vec(4, 4, vals).unwrap();
            a.symmetrize();
            let dec = eigh(&a).unwrap();
            let sum: f64 = dec.values.iter().sum();
            prop_assert!((sum - a.trace()).abs() < 1e-8);
        }

        #[test]
        fn prop_eigh_reconstruction(
            vals in proptest::collection::vec(-5.0f64..5.0, 9))
        {
            let mut a = RMatrix::from_vec(3, 3, vals).unwrap();
            a.symmetrize();
            let dec = eigh(&a).unwrap();
            let r = reconstruct(&dec, 3);
            prop_assert!(r.max_abs_diff(&a) < 1e-8);
        }
    }
}
