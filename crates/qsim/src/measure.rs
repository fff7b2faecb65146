//! Measurement in arbitrary single-qubit bases.
//!
//! The CHSH strategy of the paper measures each half of a Bell pair in a
//! *rotated real basis* `{cosθ|0⟩ + sinθ|1⟩, −sinθ|0⟩ + cosθ|1⟩}`; this
//! module provides that operation (and the general complex-basis variant)
//! on top of [`StateVector`].

use crate::error::SimError;
use crate::gates;
use crate::state::StateVector;
use qmath::C64;
use rand::Rng;

/// An orthonormal single-qubit measurement basis `{|φ₀⟩, |φ₁⟩}`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Basis1 {
    /// First basis vector (outcome 0).
    pub phi0: [C64; 2],
    /// Second basis vector (outcome 1).
    pub phi1: [C64; 2],
}

impl Basis1 {
    /// The computational basis `{|0⟩, |1⟩}`.
    pub fn computational() -> Self {
        Basis1 {
            phi0: [C64::ONE, C64::ZERO],
            phi1: [C64::ZERO, C64::ONE],
        }
    }

    /// The real rotated basis at angle θ:
    /// `|φ₀⟩ = cosθ|0⟩ + sinθ|1⟩`, `|φ₁⟩ = −sinθ|0⟩ + cosθ|1⟩`.
    ///
    /// This is the basis family used by the optimal CHSH strategy (§2 of
    /// the paper: "player x in input i measures in the basis
    /// cos θ|0⟩ + sin θ|1⟩").
    pub fn angle(theta: f64) -> Self {
        let (c, s) = (theta.cos(), theta.sin());
        Basis1 {
            phi0: [C64::real(c), C64::real(s)],
            phi1: [C64::real(-s), C64::real(c)],
        }
    }

    /// Constructs a basis from two vectors, validating orthonormality.
    ///
    /// # Errors
    /// [`SimError::NotUnitary`] if the vectors are not orthonormal within
    /// [`crate::EPS`].
    pub fn new(phi0: [C64; 2], phi1: [C64; 2]) -> Result<Self, SimError> {
        let n0 = phi0[0].norm_sqr() + phi0[1].norm_sqr();
        let n1 = phi1[0].norm_sqr() + phi1[1].norm_sqr();
        let ortho = phi0[0].conj() * phi1[0] + phi0[1].conj() * phi1[1];
        if (n0 - 1.0).abs() > crate::EPS
            || (n1 - 1.0).abs() > crate::EPS
            || ortho.abs() > crate::EPS
        {
            return Err(SimError::NotUnitary);
        }
        Ok(Basis1 { phi0, phi1 })
    }

    /// The unitary whose *rows* are `⟨φ₀|` and `⟨φ₁|` — applying it maps
    /// the basis vectors onto `|0⟩`, `|1⟩`, reducing a measurement in this
    /// basis to a computational-basis measurement.
    pub fn to_computational(&self) -> gates::Gate1 {
        [
            [self.phi0[0].conj(), self.phi0[1].conj()],
            [self.phi1[0].conj(), self.phi1[1].conj()],
        ]
    }
}

/// Measures `qubit` of `state` in an arbitrary orthonormal basis,
/// collapsing the state. Returns 0 for `|φ₀⟩`, 1 for `|φ₁⟩`.
///
/// Implementation: rotate the basis onto the computational one, measure,
/// and rotate back, so the post-measurement state is the projected state in
/// the *original* frame.
///
/// # Errors
/// [`SimError::QubitOutOfRange`] for a bad qubit index.
pub fn measure_in_basis<R: Rng + ?Sized>(
    state: &mut StateVector,
    qubit: usize,
    basis: &Basis1,
    rng: &mut R,
) -> Result<u8, SimError> {
    let u = basis.to_computational();
    state.apply_gate1(qubit, &u)?;
    let outcome = state.measure_qubit(qubit, rng)?;
    state.apply_gate1(qubit, &gates::dagger(&u))?;
    Ok(outcome)
}

/// Measures `qubit` in the real rotated basis at angle θ (the CHSH
/// measurement), collapsing the state.
///
/// # Errors
/// [`SimError::QubitOutOfRange`] for a bad qubit index.
pub fn measure_in_angle_basis<R: Rng + ?Sized>(
    state: &mut StateVector,
    qubit: usize,
    theta: f64,
    rng: &mut R,
) -> Result<u8, SimError> {
    measure_in_basis(state, qubit, &Basis1::angle(theta), rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn computational_basis_matches_direct_measurement() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..100 {
            let mut s = StateVector::zero(1);
            s.apply_gate1(0, &gates::h()).unwrap();
            let mut s2 = s.clone();
            // Drive both from the same RNG state independently: compare
            // statistics instead of outcomes.
            let _ = measure_in_basis(&mut s, 0, &Basis1::computational(), &mut rng).unwrap();
            let _ = s2.measure_qubit(0, &mut rng).unwrap();
        }
    }

    #[test]
    fn aligned_basis_gives_deterministic_outcome() {
        // |ψ⟩ = (|0⟩+|1⟩)/√2 measured in the θ=π/4 basis yields 0 always
        // (the state *is* the first basis vector) — the §2 worked example.
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..50 {
            let mut s = StateVector::zero(1);
            s.apply_gate1(0, &gates::h()).unwrap();
            let o =
                measure_in_angle_basis(&mut s, 0, std::f64::consts::FRAC_PI_4, &mut rng).unwrap();
            assert_eq!(o, 0);
        }
    }

    #[test]
    fn orthogonal_basis_gives_opposite_outcome() {
        // Same state measured at θ = π/4 + π/2 always yields 1.
        let mut rng = StdRng::seed_from_u64(10);
        for _ in 0..50 {
            let mut s = StateVector::zero(1);
            s.apply_gate1(0, &gates::h()).unwrap();
            let theta = std::f64::consts::FRAC_PI_4 + std::f64::consts::FRAC_PI_2;
            let o = measure_in_angle_basis(&mut s, 0, theta, &mut rng).unwrap();
            assert_eq!(o, 1);
        }
    }

    #[test]
    fn tilted_basis_statistics() {
        // |0⟩ measured at angle θ yields 0 with probability cos²θ.
        let mut rng = StdRng::seed_from_u64(21);
        let theta = 0.6f64;
        let trials = 20_000;
        let mut zeros = 0;
        for _ in 0..trials {
            let mut s = StateVector::zero(1);
            if measure_in_angle_basis(&mut s, 0, theta, &mut rng).unwrap() == 0 {
                zeros += 1;
            }
        }
        let f = zeros as f64 / trials as f64;
        assert!((f - theta.cos().powi(2)).abs() < 0.02, "freq {f}");
    }

    #[test]
    fn one_third_two_thirds_example() {
        // The §2 worked example: Bell pair, first qubit measured in the
        // computational basis; second measured in the basis
        // {(1/√3)|0⟩ + (√2/√3)|1⟩, (√2/√3)|0⟩ − (1/√3)|1⟩}.
        // Given first = 0, P(second = 0) = 1/3.
        let mut rng = StdRng::seed_from_u64(33);
        let basis = Basis1::new(
            [
                C64::real(1.0 / 3.0f64.sqrt()),
                C64::real(2.0f64.sqrt() / 3.0f64.sqrt()),
            ],
            [
                C64::real(2.0f64.sqrt() / 3.0f64.sqrt()),
                C64::real(-1.0 / 3.0f64.sqrt()),
            ],
        )
        .unwrap();
        let trials = 30_000;
        let mut first0 = 0u32;
        let mut first0_second0 = 0u32;
        for _ in 0..trials {
            let mut s = crate::bell::phi_plus();
            let a = s.measure_qubit(0, &mut rng).unwrap();
            let b = measure_in_basis(&mut s, 1, &basis, &mut rng).unwrap();
            if a == 0 {
                first0 += 1;
                if b == 0 {
                    first0_second0 += 1;
                }
            }
        }
        let cond = first0_second0 as f64 / first0 as f64;
        assert!((cond - 1.0 / 3.0).abs() < 0.02, "P(b=0|a=0) = {cond}");
    }

    #[test]
    fn basis_validation_rejects_non_orthonormal() {
        let bad = Basis1::new([C64::ONE, C64::ZERO], [C64::ONE, C64::ZERO]);
        assert!(matches!(bad, Err(SimError::NotUnitary)));
        let unnorm = Basis1::new([C64::real(2.0), C64::ZERO], [C64::ZERO, C64::ONE]);
        assert!(unnorm.is_err());
    }

    #[test]
    fn post_measurement_state_is_projected_in_original_frame() {
        let mut rng = StdRng::seed_from_u64(77);
        let theta = 0.9;
        let mut s = StateVector::zero(1);
        s.apply_gate1(0, &gates::h()).unwrap();
        let o = measure_in_angle_basis(&mut s, 0, theta, &mut rng).unwrap();
        // Measuring again in the same basis must repeat the outcome.
        let o2 = measure_in_angle_basis(&mut s, 0, theta, &mut rng).unwrap();
        assert_eq!(o, o2);
    }
}
