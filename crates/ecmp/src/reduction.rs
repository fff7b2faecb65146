//! Numerical verification of the §4.2 no-signaling reduction.
//!
//! The paper's argument: place inactive switch C far from active switches
//! A and B. The no-signaling principle forces the joint distribution of
//! A's and B's outcomes to be independent of anything C does. Hence we may
//! assume WLOG that C measures *first* — which reduces the tripartite
//! state to a probabilistic mixture of bipartite (A, B) states. Global
//! (3-way) entanglement therefore buys nothing beyond 2-way entanglement
//! plus shared randomness.
//!
//! This module checks the equality
//!
//! ```text
//! P(a, b | A, B measure; C silent)  ==  P(a, b | C measured first in any basis)
//! ```
//!
//! exactly, via density matrices, for arbitrary tripartite states and
//! arbitrary measurement bases.

use qsim::measure::Basis1;
use qsim::{DensityMatrix, SimError, StateVector};

/// Joint distribution `P(a, b)` over the 4 outcomes of parties 0 and 1 of
/// a tripartite state measuring in `basis_a` / `basis_b`, with party 2
/// left unmeasured (traced out).
///
/// # Errors
/// Propagates simulator errors (wrong qubit counts).
pub fn joint_ab_traced(
    state: &StateVector,
    basis_a: &Basis1,
    basis_b: &Basis1,
) -> Result<[f64; 4], SimError> {
    let rho = DensityMatrix::from_pure(state);
    let rho_ab = rho.partial_trace(&[0, 1])?;
    joint_from_bipartite(&rho_ab, basis_a, basis_b)
}

/// Joint distribution `P(a, b)` when party 2 measures *first* in
/// `basis_c`, then parties 0 and 1 measure: the mixture over C's outcomes
/// of the conditional bipartite distributions.
///
/// # Errors
/// Propagates simulator errors.
pub fn joint_ab_after_c_measures(
    state: &StateVector,
    basis_a: &Basis1,
    basis_b: &Basis1,
    basis_c: &Basis1,
) -> Result<[f64; 4], SimError> {
    let rho = DensityMatrix::from_pure(state);
    let mut total = [0.0f64; 4];
    for c_outcome in 0..2u8 {
        // Project C on its outcome (Lüders), weight by its probability.
        let p1 = rho.prob_one_in_basis(2, basis_c)?;
        let p_c = if c_outcome == 1 { p1 } else { 1.0 - p1 };
        if p_c < 1e-15 {
            continue;
        }
        let mut conditional = rho.clone();
        // Deterministically project instead of sampling: use a fake "rng"
        // by projecting manually via measure probabilities. We rebuild the
        // projected state with the projector embedding used by
        // measure_in_basis, but deterministically.
        let projected = project_party(&conditional, 2, basis_c, c_outcome)?;
        conditional = projected;
        let rho_ab = conditional.partial_trace(&[0, 1])?;
        let cond_dist = joint_from_bipartite(&rho_ab, basis_a, basis_b)?;
        for (t, c) in total.iter_mut().zip(cond_dist) {
            *t += p_c * c;
        }
    }
    Ok(total)
}

/// The maximum absolute difference between the traced-out and
/// measured-first distributions — zero (to round-off) by no-signaling.
///
/// # Errors
/// Propagates simulator errors.
pub fn reduction_deviation(
    state: &StateVector,
    basis_a: &Basis1,
    basis_b: &Basis1,
    basis_c: &Basis1,
) -> Result<f64, SimError> {
    let traced = joint_ab_traced(state, basis_a, basis_b)?;
    let measured = joint_ab_after_c_measures(state, basis_a, basis_b, basis_c)?;
    Ok(traced
        .iter()
        .zip(&measured)
        .map(|(t, m)| (t - m).abs())
        .fold(0.0, f64::max))
}

/// Projects `party` of `rho` onto `outcome` in `basis` and renormalizes
/// (the deterministic Lüders update used to enumerate C's branches).
fn project_party(
    rho: &DensityMatrix,
    party: usize,
    basis: &Basis1,
    outcome: u8,
) -> Result<DensityMatrix, SimError> {
    // Reuse the public measurement API with a rigged "rng" that forces the
    // desired branch: measure_in_basis draws one f64 and compares with
    // P(1) — feed it 0.0 to force outcome 1, 1-ε... simpler and more
    // honest: construct the projector directly here.
    use qmath::{CMatrix, C64};
    let phi = if outcome == 1 { basis.phi1 } else { basis.phi0 };
    let proj2 = CMatrix::from_vec(
        2,
        2,
        vec![
            phi[0] * phi[0].conj(),
            phi[0] * phi[1].conj(),
            phi[1] * phi[0].conj(),
            phi[1] * phi[1].conj(),
        ],
    )
    .expect("2x2");
    let n = rho.n_qubits();
    if party >= n {
        return Err(SimError::QubitOutOfRange {
            qubit: party,
            n_qubits: n,
        });
    }
    let left = CMatrix::identity(1 << party);
    let right = CMatrix::identity(1 << (n - 1 - party));
    let full = left.kron(&proj2).kron(&right);
    let projected = full
        .matmul(rho.matrix())
        .and_then(|m| m.matmul(&full))
        .expect("square");
    let norm = projected.trace().re;
    if norm < 1e-15 {
        return Err(SimError::BadProbability { value: norm });
    }
    DensityMatrix::from_matrix(projected.scaled(C64::real(1.0 / norm)))
}

/// `P(a, b)` for a bipartite density matrix measured in product bases.
fn joint_from_bipartite(
    rho_ab: &DensityMatrix,
    basis_a: &Basis1,
    basis_b: &Basis1,
) -> Result<[f64; 4], SimError> {
    use qmath::CMatrix;
    let proj = |basis: &Basis1, outcome: usize| -> CMatrix {
        let phi = if outcome == 1 { basis.phi1 } else { basis.phi0 };
        CMatrix::from_vec(
            2,
            2,
            vec![
                phi[0] * phi[0].conj(),
                phi[0] * phi[1].conj(),
                phi[1] * phi[0].conj(),
                phi[1] * phi[1].conj(),
            ],
        )
        .expect("2x2")
    };
    let mut out = [0.0f64; 4];
    for a in 0..2 {
        for b in 0..2 {
            let joint = proj(basis_a, a).kron(&proj(basis_b, b));
            out[a * 2 + b] = rho_ab.expectation(&joint)?;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qmath::C64;
    use qsim::bell;

    fn bases() -> Vec<Basis1> {
        vec![
            Basis1::computational(),
            Basis1::angle(0.3),
            Basis1::angle(std::f64::consts::FRAC_PI_4),
            Basis1::angle(1.2),
            // A complex basis (Y-like).
            Basis1::new(
                [
                    C64::real(std::f64::consts::FRAC_1_SQRT_2),
                    C64::new(0.0, std::f64::consts::FRAC_1_SQRT_2),
                ],
                [
                    C64::real(std::f64::consts::FRAC_1_SQRT_2),
                    C64::new(0.0, -std::f64::consts::FRAC_1_SQRT_2),
                ],
            )
            .unwrap(),
        ]
    }

    #[test]
    fn ghz_reduction_invariance_all_bases() {
        // The headline check: for GHZ(3), C's measurement (any basis) does
        // not move the A-B joint distribution.
        let state = bell::ghz(3);
        for ba in bases() {
            for bb in bases() {
                for bc in bases() {
                    let dev = reduction_deviation(&state, &ba, &bb, &bc).unwrap();
                    assert!(dev < 1e-10, "deviation {dev}");
                }
            }
        }
    }

    #[test]
    fn w_state_reduction_invariance() {
        let state = bell::w_state(3);
        for bc in bases() {
            let dev =
                reduction_deviation(&state, &Basis1::angle(0.7), &Basis1::angle(1.9), &bc).unwrap();
            assert!(dev < 1e-10, "deviation {dev}");
        }
    }

    #[test]
    fn random_state_reduction_invariance() {
        // A deterministic "random" 3-qubit state.
        let mut amps = Vec::with_capacity(8);
        let mut seed = 12345u64;
        for _ in 0..8 {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let re = ((seed >> 33) as f64 / (1u64 << 31) as f64) - 1.0;
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let im = ((seed >> 33) as f64 / (1u64 << 31) as f64) - 1.0;
            amps.push(C64::new(re, im));
        }
        let norm: f64 = amps.iter().map(|a| a.norm_sqr()).sum::<f64>().sqrt();
        let amps: Vec<C64> = amps.into_iter().map(|a| a / norm).collect();
        let state = StateVector::from_amplitudes(amps).unwrap();
        for bc in bases() {
            let dev =
                reduction_deviation(&state, &Basis1::angle(0.2), &Basis1::angle(2.5), &bc).unwrap();
            assert!(dev < 1e-10, "deviation {dev}");
        }
    }

    #[test]
    fn distributions_are_normalized() {
        let state = bell::ghz(3);
        let d = joint_ab_traced(&state, &Basis1::angle(0.4), &Basis1::angle(1.1)).unwrap();
        let total: f64 = d.iter().sum();
        assert!((total - 1.0).abs() < 1e-10);
        let d2 = joint_ab_after_c_measures(
            &state,
            &Basis1::angle(0.4),
            &Basis1::angle(1.1),
            &Basis1::angle(0.9),
        )
        .unwrap();
        let total: f64 = d2.iter().sum();
        assert!((total - 1.0).abs() < 1e-10);
    }

    #[test]
    fn ghz_traced_pair_is_classically_correlated() {
        // Tracing C from GHZ leaves (|00⟩⟨00| + |11⟩⟨11|)/2: perfect
        // Z-correlation, zero X-correlation (no entanglement left).
        let state = bell::ghz(3);
        let z =
            joint_ab_traced(&state, &Basis1::computational(), &Basis1::computational()).unwrap();
        assert!((z[0] - 0.5).abs() < 1e-10); // 00
        assert!((z[3] - 0.5).abs() < 1e-10); // 11
        let x = joint_ab_traced(
            &state,
            &Basis1::angle(std::f64::consts::FRAC_PI_4),
            &Basis1::angle(std::f64::consts::FRAC_PI_4),
        )
        .unwrap();
        for p in x {
            assert!((p - 0.25).abs() < 1e-10, "X-basis uniform, got {p}");
        }
    }

    #[test]
    fn unused_variable_check_project_party_errors() {
        let rho = DensityMatrix::maximally_mixed(2);
        assert!(project_party(&rho, 5, &Basis1::computational(), 0).is_err());
    }
}
