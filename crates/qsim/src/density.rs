//! Mixed states as density matrices.
//!
//! Density matrices are needed in two places in the reproduction:
//!
//! 1. **Noise** (§3 "all quantum technologies operate with an error
//!    margin"): an imperfect Bell pair from an SPDC source is a Werner
//!    state, a mixture — not a pure state.
//! 2. **The ECMP reduction** (§4.2): the paper's impossibility argument is
//!    that a far-away party C measuring first reduces the global state to
//!    *a mixture of pairwise-entangled states between A and B* — a
//!    statement about reduced density matrices that
//!    [`crate::density::DensityMatrix::partial_trace`] lets us verify
//!    numerically.

use crate::error::SimError;
use crate::gates::Gate1;
use crate::measure::Basis1;
use crate::state::StateVector;
use qmath::{eigh_hermitian, CMatrix, C64};
use rand::Rng;

/// A mixed quantum state on `n` qubits: a Hermitian, PSD, unit-trace
/// 2ⁿ×2ⁿ matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct DensityMatrix {
    n_qubits: usize,
    mat: CMatrix,
}

impl DensityMatrix {
    /// The pure-state density matrix `|ψ⟩⟨ψ|`.
    pub fn from_pure(psi: &StateVector) -> Self {
        DensityMatrix {
            n_qubits: psi.n_qubits(),
            mat: CMatrix::outer(psi.amplitudes(), psi.amplitudes()),
        }
    }

    /// The maximally mixed state `I / 2ⁿ`.
    pub fn maximally_mixed(n_qubits: usize) -> Self {
        let dim = 1usize << n_qubits;
        DensityMatrix {
            n_qubits,
            mat: CMatrix::identity(dim).scaled(C64::real(1.0 / dim as f64)),
        }
    }

    /// A probabilistic mixture `Σ pᵢ ρᵢ`.
    ///
    /// # Errors
    /// - [`SimError::SizeMismatch`] if components differ in qubit count or
    ///   the list is empty.
    /// - [`SimError::BadProbability`] if weights are negative or don't sum
    ///   to 1 within [`crate::EPS`].
    pub fn mixture(components: &[(f64, DensityMatrix)]) -> Result<Self, SimError> {
        let first = components.first().ok_or(SimError::SizeMismatch {
            op: "mixture",
            lhs: 0,
            rhs: 0,
        })?;
        let n = first.1.n_qubits;
        let mut total = 0.0;
        let dim = 1usize << n;
        let mut mat = CMatrix::zeros(dim, dim);
        for (p, rho) in components {
            if rho.n_qubits != n {
                return Err(SimError::SizeMismatch {
                    op: "mixture",
                    lhs: n,
                    rhs: rho.n_qubits,
                });
            }
            if *p < -crate::EPS {
                return Err(SimError::BadProbability { value: *p });
            }
            total += p;
            mat = &mat + &rho.mat.scaled(C64::real(*p));
        }
        if (total - 1.0).abs() > crate::EPS {
            return Err(SimError::BadProbability { value: total });
        }
        Ok(DensityMatrix { n_qubits: n, mat })
    }

    /// Builds a density matrix from a raw matrix, validating Hermiticity
    /// and unit trace (PSD-ness is checked by [`Self::is_valid`], which is
    /// more expensive).
    ///
    /// # Errors
    /// [`SimError::BadDimension`] / [`SimError::NotNormalized`].
    pub fn from_matrix(mat: CMatrix) -> Result<Self, SimError> {
        let dim = mat.rows();
        if !mat.is_square() || dim == 0 || !dim.is_power_of_two() {
            return Err(SimError::BadDimension { len: dim });
        }
        if !mat.is_hermitian(1e-8) {
            return Err(SimError::NotUnitary);
        }
        let tr = mat.trace();
        if (tr.re - 1.0).abs() > 1e-8 || tr.im.abs() > 1e-8 {
            return Err(SimError::NotNormalized { norm: tr.re });
        }
        Ok(DensityMatrix {
            n_qubits: dim.trailing_zeros() as usize,
            mat,
        })
    }

    /// Number of qubits.
    #[inline]
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Borrow the underlying matrix.
    #[inline]
    pub fn matrix(&self) -> &CMatrix {
        &self.mat
    }

    /// Trace (1 for a valid state).
    pub fn trace(&self) -> f64 {
        self.mat.trace().re
    }

    /// Purity `tr(ρ²)`: 1 for pure states, `1/2ⁿ` for maximally mixed.
    pub fn purity(&self) -> f64 {
        self.mat.matmul(&self.mat).expect("square").trace().re
    }

    /// Full validity check: Hermitian, unit trace, and PSD (via
    /// eigendecomposition).
    pub fn is_valid(&self, tol: f64) -> bool {
        if !self.mat.is_hermitian(tol) || (self.trace() - 1.0).abs() > tol {
            return false;
        }
        match eigh_hermitian(&self.mat) {
            Ok(dec) => dec.values.iter().all(|&l| l >= -tol),
            Err(_) => false,
        }
    }

    /// Embeds a single-qubit gate on `qubit` into the full-register
    /// unitary `I ⊗ … ⊗ U ⊗ … ⊗ I`.
    fn embed_gate1(&self, qubit: usize, g: &Gate1) -> Result<CMatrix, SimError> {
        if qubit >= self.n_qubits {
            return Err(SimError::QubitOutOfRange {
                qubit,
                n_qubits: self.n_qubits,
            });
        }
        let u = CMatrix::from_vec(2, 2, vec![g[0][0], g[0][1], g[1][0], g[1][1]]).expect("2x2");
        let left = CMatrix::identity(1 << qubit);
        let right = CMatrix::identity(1 << (self.n_qubits - 1 - qubit));
        Ok(left.kron(&u).kron(&right))
    }

    /// Applies a single-qubit unitary to `qubit`: `ρ → UρU†`.
    ///
    /// # Errors
    /// [`SimError::QubitOutOfRange`] for a bad index.
    pub fn apply_gate1(&mut self, qubit: usize, g: &Gate1) -> Result<(), SimError> {
        let u = self.embed_gate1(qubit, g)?;
        self.mat = u
            .matmul(&self.mat)
            .and_then(|m| m.matmul(&u.dagger()))
            .expect("square");
        Ok(())
    }

    /// Applies a full-register unitary: `ρ → UρU†`.
    ///
    /// # Errors
    /// [`SimError::SizeMismatch`] if `u` is not 2ⁿ×2ⁿ;
    /// [`SimError::NotUnitary`] if `u` is not unitary.
    pub fn apply_unitary(&mut self, u: &CMatrix) -> Result<(), SimError> {
        if u.rows() != self.mat.rows() || !u.is_square() {
            return Err(SimError::SizeMismatch {
                op: "apply_unitary",
                lhs: self.mat.rows(),
                rhs: u.rows(),
            });
        }
        if !u.is_unitary(1e-8) {
            return Err(SimError::NotUnitary);
        }
        self.mat = u
            .matmul(&self.mat)
            .and_then(|m| m.matmul(&u.dagger()))
            .expect("square");
        Ok(())
    }

    /// Partial trace keeping the qubits in `keep` (strictly increasing
    /// order), tracing out the rest.
    ///
    /// # Errors
    /// [`SimError::QubitOutOfRange`] for a bad index or unsorted `keep`.
    pub fn partial_trace(&self, keep: &[usize]) -> Result<DensityMatrix, SimError> {
        for w in keep.windows(2) {
            if w[0] >= w[1] {
                return Err(SimError::QubitOutOfRange {
                    qubit: w[1],
                    n_qubits: self.n_qubits,
                });
            }
        }
        if let Some(&max) = keep.last() {
            if max >= self.n_qubits {
                return Err(SimError::QubitOutOfRange {
                    qubit: max,
                    n_qubits: self.n_qubits,
                });
            }
        }
        let n = self.n_qubits;
        let traced: Vec<usize> = (0..n).filter(|q| !keep.contains(q)).collect();
        let kd = 1usize << keep.len();
        let td = 1usize << traced.len();

        // Maps (keep-subindex, traced-subindex) to a full basis index,
        // honoring the "qubit 0 is the most significant bit" convention.
        let full_index = |ki: usize, ti: usize| -> usize {
            let mut idx = 0usize;
            for (pos, &q) in keep.iter().enumerate() {
                let bit = (ki >> (keep.len() - 1 - pos)) & 1;
                idx |= bit << (n - 1 - q);
            }
            for (pos, &q) in traced.iter().enumerate() {
                let bit = (ti >> (traced.len() - 1 - pos)) & 1;
                idx |= bit << (n - 1 - q);
            }
            idx
        };

        let mut out = CMatrix::zeros(kd, kd);
        for i in 0..kd {
            for j in 0..kd {
                let mut acc = C64::ZERO;
                for t in 0..td {
                    acc += self.mat[(full_index(i, t), full_index(j, t))];
                }
                out[(i, j)] = acc;
            }
        }
        Ok(DensityMatrix {
            n_qubits: keep.len(),
            mat: out,
        })
    }

    /// Probability that measuring `qubit` in `basis` yields outcome 1.
    ///
    /// # Errors
    /// [`SimError::QubitOutOfRange`] for a bad index.
    pub fn prob_one_in_basis(&self, qubit: usize, basis: &Basis1) -> Result<f64, SimError> {
        // P(1) = tr(Π₁ ρ) with Π₁ = |φ₁⟩⟨φ₁| embedded on `qubit`.
        let phi1 = basis.phi1;
        let proj: Gate1 = [
            [phi1[0] * phi1[0].conj(), phi1[0] * phi1[1].conj()],
            [phi1[1] * phi1[0].conj(), phi1[1] * phi1[1].conj()],
        ];
        let p = self.embed_gate1(qubit, &proj)?;
        Ok(p.matmul(&self.mat).expect("square").trace().re)
    }

    /// Measures `qubit` in `basis`, collapsing the state (Lüders rule).
    /// Returns the observed bit.
    ///
    /// # Errors
    /// [`SimError::QubitOutOfRange`] for a bad index.
    pub fn measure_in_basis<R: Rng + ?Sized>(
        &mut self,
        qubit: usize,
        basis: &Basis1,
        rng: &mut R,
    ) -> Result<u8, SimError> {
        let p1 = self.prob_one_in_basis(qubit, basis)?;
        let outcome = u8::from(rng.gen::<f64>() < p1);
        let phi = if outcome == 1 { basis.phi1 } else { basis.phi0 };
        let proj: Gate1 = [
            [phi[0] * phi[0].conj(), phi[0] * phi[1].conj()],
            [phi[1] * phi[0].conj(), phi[1] * phi[1].conj()],
        ];
        let p = self.embed_gate1(qubit, &proj)?;
        let projected = p
            .matmul(&self.mat)
            .and_then(|m| m.matmul(&p))
            .expect("square");
        let norm = projected.trace().re;
        debug_assert!(norm > 1e-150, "measured a zero-probability outcome");
        self.mat = projected.scaled(C64::real(1.0 / norm));
        Ok(outcome)
    }

    /// Tensor product `self ⊗ other` (self's qubits come first).
    pub fn tensor(&self, other: &DensityMatrix) -> DensityMatrix {
        DensityMatrix {
            n_qubits: self.n_qubits + other.n_qubits,
            mat: self.mat.kron(&other.mat),
        }
    }

    /// Fidelity `⟨ψ|ρ|ψ⟩` with a pure state.
    ///
    /// # Errors
    /// [`SimError::SizeMismatch`] if qubit counts differ.
    pub fn fidelity_with_pure(&self, psi: &StateVector) -> Result<f64, SimError> {
        if psi.n_qubits() != self.n_qubits {
            return Err(SimError::SizeMismatch {
                op: "fidelity_with_pure",
                lhs: self.n_qubits,
                rhs: psi.n_qubits(),
            });
        }
        let v = self.mat.matvec(psi.amplitudes()).expect("dim checked");
        let f: C64 = psi
            .amplitudes()
            .iter()
            .zip(&v)
            .map(|(a, b)| a.conj() * *b)
            .sum();
        Ok(f.re)
    }

    /// Expectation `tr(Oρ)` of a full-register Hermitian observable.
    ///
    /// # Errors
    /// [`SimError::SizeMismatch`] on dimension mismatch.
    pub fn expectation(&self, o: &CMatrix) -> Result<f64, SimError> {
        if o.rows() != self.mat.rows() {
            return Err(SimError::SizeMismatch {
                op: "expectation",
                lhs: self.mat.rows(),
                rhs: o.rows(),
            });
        }
        Ok(o.matmul(&self.mat).expect("square").trace().re)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{bell, gates};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn pure_state_properties() {
        let rho = DensityMatrix::from_pure(&bell::phi_plus());
        assert!((rho.trace() - 1.0).abs() < 1e-12);
        assert!((rho.purity() - 1.0).abs() < 1e-12);
        assert!(rho.is_valid(1e-9));
    }

    #[test]
    fn maximally_mixed_properties() {
        let rho = DensityMatrix::maximally_mixed(2);
        assert!((rho.trace() - 1.0).abs() < 1e-12);
        assert!((rho.purity() - 0.25).abs() < 1e-12);
        assert!(rho.is_valid(1e-9));
    }

    #[test]
    fn mixture_validation() {
        let a = DensityMatrix::from_pure(&StateVector::zero(1));
        let b = DensityMatrix::from_pure(&StateVector::basis(1, 1).unwrap());
        let m = DensityMatrix::mixture(&[(0.5, a.clone()), (0.5, b.clone())]).unwrap();
        assert!((m.purity() - 0.5).abs() < 1e-12);
        assert!(DensityMatrix::mixture(&[(0.7, a.clone()), (0.7, b.clone())]).is_err());
        assert!(DensityMatrix::mixture(&[]).is_err());
        let c2 = DensityMatrix::maximally_mixed(2);
        assert!(DensityMatrix::mixture(&[(0.5, a), (0.5, c2)]).is_err());
    }

    #[test]
    fn partial_trace_of_bell_is_maximally_mixed() {
        // The defining property of maximal entanglement.
        let rho = DensityMatrix::from_pure(&bell::phi_plus());
        for keep in [[0usize], [1usize]] {
            let r = rho.partial_trace(&keep).unwrap();
            assert_eq!(r.n_qubits(), 1);
            let mm = DensityMatrix::maximally_mixed(1);
            assert!(r.matrix().max_abs_diff(mm.matrix()) < 1e-12);
        }
    }

    #[test]
    fn partial_trace_of_product_state() {
        // |+⟩ ⊗ |1⟩: tracing out qubit 1 leaves |+⟩⟨+| exactly (pure).
        let mut plus = StateVector::zero(1);
        plus.apply_gate1(0, &gates::h()).unwrap();
        let one = StateVector::basis(1, 1).unwrap();
        let prod = plus.tensor(&one);
        let rho = DensityMatrix::from_pure(&prod);
        let r0 = rho.partial_trace(&[0]).unwrap();
        assert!((r0.purity() - 1.0).abs() < 1e-12);
        assert!((r0.fidelity_with_pure(&plus).unwrap() - 1.0).abs() < 1e-12);
        let r1 = rho.partial_trace(&[1]).unwrap();
        assert!((r1.fidelity_with_pure(&one).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn partial_trace_ghz_keep_two() {
        // Tracing one qubit of GHZ(3) leaves the *classically* correlated
        // mixture (|00⟩⟨00| + |11⟩⟨11|)/2 — exactly the paper's §4.2 point
        // that C's qubit reduces A,B to a mixture.
        let rho = DensityMatrix::from_pure(&bell::ghz(3));
        let r = rho.partial_trace(&[0, 1]).unwrap();
        assert_eq!(r.n_qubits(), 2);
        assert!((r.matrix()[(0, 0)].re - 0.5).abs() < 1e-12);
        assert!((r.matrix()[(3, 3)].re - 0.5).abs() < 1e-12);
        // No coherence between |00⟩ and |11⟩ — it is NOT a Bell state.
        assert!(r.matrix()[(0, 3)].abs() < 1e-12);
        assert!((r.purity() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn partial_trace_validates_input() {
        let rho = DensityMatrix::maximally_mixed(2);
        assert!(rho.partial_trace(&[2]).is_err());
        assert!(rho.partial_trace(&[1, 0]).is_err());
        assert!(rho.partial_trace(&[0, 0]).is_err());
    }

    #[test]
    fn gate_application_matches_statevector() {
        let mut sv = StateVector::zero(2);
        let mut rho = DensityMatrix::from_pure(&sv);
        sv.apply_gate1(0, &gates::h()).unwrap();
        sv.apply_gate1(1, &gates::t()).unwrap();
        rho.apply_gate1(0, &gates::h()).unwrap();
        rho.apply_gate1(1, &gates::t()).unwrap();
        let expect = DensityMatrix::from_pure(&sv);
        assert!(rho.matrix().max_abs_diff(expect.matrix()) < 1e-12);
    }

    #[test]
    fn apply_unitary_rejects_bad_input() {
        let mut rho = DensityMatrix::maximally_mixed(1);
        assert!(rho.apply_unitary(&CMatrix::identity(4)).is_err());
        let not_unitary =
            CMatrix::from_vec(2, 2, vec![C64::ONE, C64::ONE, C64::ZERO, C64::ONE]).unwrap();
        assert!(matches!(
            rho.apply_unitary(&not_unitary),
            Err(SimError::NotUnitary)
        ));
    }

    #[test]
    fn measurement_statistics_on_mixed_state() {
        let mut rng = StdRng::seed_from_u64(4);
        let trials = 20_000;
        let mut ones = 0u32;
        for _ in 0..trials {
            let mut rho = DensityMatrix::maximally_mixed(1);
            ones += rho
                .measure_in_basis(0, &Basis1::computational(), &mut rng)
                .unwrap() as u32;
        }
        let f = ones as f64 / trials as f64;
        assert!((f - 0.5).abs() < 0.02);
    }

    #[test]
    fn measurement_collapse_repeatable() {
        let mut rng = StdRng::seed_from_u64(8);
        let basis = Basis1::angle(0.4);
        for _ in 0..20 {
            let mut rho = DensityMatrix::from_pure(&bell::phi_plus());
            let o1 = rho.measure_in_basis(0, &basis, &mut rng).unwrap();
            let o2 = rho.measure_in_basis(0, &basis, &mut rng).unwrap();
            assert_eq!(o1, o2);
            assert!(rho.is_valid(1e-8));
        }
    }

    #[test]
    fn bell_correlations_via_density_matrix() {
        // Same-basis measurements on Φ+ agree.
        let mut rng = StdRng::seed_from_u64(12);
        for _ in 0..100 {
            let mut rho = DensityMatrix::from_pure(&bell::phi_plus());
            let a = rho
                .measure_in_basis(0, &Basis1::computational(), &mut rng)
                .unwrap();
            let b = rho
                .measure_in_basis(1, &Basis1::computational(), &mut rng)
                .unwrap();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn fidelity_with_pure_detects_mismatch() {
        let rho = DensityMatrix::from_pure(&bell::phi_plus());
        assert!((rho.fidelity_with_pure(&bell::phi_plus()).unwrap() - 1.0).abs() < 1e-12);
        assert!(rho.fidelity_with_pure(&bell::phi_minus()).unwrap().abs() < 1e-12);
        assert!(rho.fidelity_with_pure(&StateVector::zero(1)).is_err());
    }

    #[test]
    fn from_matrix_validation() {
        assert!(DensityMatrix::from_matrix(CMatrix::identity(2)).is_err()); // trace 2
        let half = CMatrix::identity(2).scaled(C64::real(0.5));
        assert!(DensityMatrix::from_matrix(half).is_ok());
        let mut nonherm = CMatrix::identity(2).scaled(C64::real(0.5));
        nonherm[(0, 1)] = C64::I;
        assert!(DensityMatrix::from_matrix(nonherm).is_err());
        assert!(DensityMatrix::from_matrix(CMatrix::identity(3)).is_err()); // not 2^n
    }
}
