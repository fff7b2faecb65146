//! Noise channels and imperfect entangled states.
//!
//! §3 of the paper: "all quantum technologies operate with an error margin,
//! which system designs must account for". The standard abstractions are:
//!
//! - **Kraus channels** — completely-positive trace-preserving maps
//!   `ρ → Σ Kᵢ ρ Kᵢ†`, covering depolarizing, dephasing and amplitude
//!   damping noise.
//! - **Werner states** — the result of sending one half of a Bell pair
//!   through a depolarizing channel; parametrized by *visibility* `v`:
//!   `ρ = v·|Φ⁺⟩⟨Φ⁺| + (1−v)·I/4`. The CHSH advantage survives exactly
//!   while `v > 1/√2 ≈ 0.707`, which experiment E6 reproduces.
//! - **Storage decay** — a QNIC holding a photon for time `t` with memory
//!   lifetime `τ` applies dephasing with strength `1 − e^{−t/τ}`
//!   (used by `qnet::qnic`).

use crate::density::DensityMatrix;
use crate::error::SimError;
use qmath::{CMatrix, C64};

/// A completely-positive trace-preserving map given by Kraus operators
/// `{Kᵢ}` on a single qubit, with `Σ Kᵢ†Kᵢ = I`.
#[derive(Debug, Clone)]
pub struct KrausChannel {
    ops: Vec<CMatrix>,
}

impl KrausChannel {
    /// Builds a channel from Kraus operators, validating trace
    /// preservation.
    ///
    /// # Errors
    /// [`SimError::NotTracePreserving`] if `Σ Kᵢ†Kᵢ` deviates from the
    /// identity by more than `1e-9`; [`SimError::BadDimension`] if the
    /// operators are not all 2×2.
    pub fn new(ops: Vec<CMatrix>) -> Result<Self, SimError> {
        if ops.is_empty() {
            return Err(SimError::BadDimension { len: 0 });
        }
        for k in &ops {
            if k.rows() != 2 || k.cols() != 2 {
                return Err(SimError::BadDimension { len: k.rows() });
            }
        }
        let mut sum = CMatrix::zeros(2, 2);
        for k in &ops {
            sum = &sum + &k.dagger().matmul(k).expect("2x2");
        }
        let dev = sum.max_abs_diff(&CMatrix::identity(2));
        if dev > 1e-9 {
            return Err(SimError::NotTracePreserving { deviation: dev });
        }
        Ok(KrausChannel { ops })
    }

    /// The identity (noiseless) channel.
    pub fn identity() -> Self {
        KrausChannel {
            ops: vec![CMatrix::identity(2)],
        }
    }

    /// Depolarizing channel: with probability `p` the qubit is replaced by
    /// the maximally mixed state.
    ///
    /// # Errors
    /// [`SimError::BadProbability`] if `p ∉ [0, 1]`.
    pub fn depolarizing(p: f64) -> Result<Self, SimError> {
        check_prob(p)?;
        let k0 = CMatrix::identity(2).scaled(C64::real((1.0 - 3.0 * p / 4.0).sqrt()));
        let sx = pauli(&[[0., 1.], [1., 0.]]);
        let sz = pauli(&[[1., 0.], [0., -1.]]);
        let sy = CMatrix::from_vec(2, 2, vec![C64::ZERO, -C64::I, C64::I, C64::ZERO]).expect("2x2");
        let w = (p / 4.0).sqrt();
        KrausChannel::new(vec![
            k0,
            sx.scaled(C64::real(w)),
            sy.scaled(C64::real(w)),
            sz.scaled(C64::real(w)),
        ])
    }

    /// Phase-damping (dephasing) channel: Z error with probability `p`.
    ///
    /// # Errors
    /// [`SimError::BadProbability`] if `p ∉ [0, 1]`.
    pub fn dephasing(p: f64) -> Result<Self, SimError> {
        check_prob(p)?;
        let k0 = CMatrix::identity(2).scaled(C64::real((1.0 - p).sqrt()));
        let kz = pauli(&[[1., 0.], [0., -1.]]).scaled(C64::real(p.sqrt()));
        KrausChannel::new(vec![k0, kz])
    }

    /// Bit-flip channel: X error with probability `p`.
    ///
    /// # Errors
    /// [`SimError::BadProbability`] if `p ∉ [0, 1]`.
    pub fn bit_flip(p: f64) -> Result<Self, SimError> {
        check_prob(p)?;
        let k0 = CMatrix::identity(2).scaled(C64::real((1.0 - p).sqrt()));
        let kx = pauli(&[[0., 1.], [1., 0.]]).scaled(C64::real(p.sqrt()));
        KrausChannel::new(vec![k0, kx])
    }

    /// Amplitude damping with decay probability `γ` (photon loss /
    /// spontaneous emission).
    ///
    /// # Errors
    /// [`SimError::BadProbability`] if `γ ∉ [0, 1]`.
    pub fn amplitude_damping(gamma: f64) -> Result<Self, SimError> {
        check_prob(gamma)?;
        let k0 = CMatrix::from_vec(
            2,
            2,
            vec![
                C64::ONE,
                C64::ZERO,
                C64::ZERO,
                C64::real((1.0 - gamma).sqrt()),
            ],
        )
        .expect("2x2");
        let k1 = CMatrix::from_vec(
            2,
            2,
            vec![C64::ZERO, C64::real(gamma.sqrt()), C64::ZERO, C64::ZERO],
        )
        .expect("2x2");
        KrausChannel::new(vec![k0, k1])
    }

    /// The dephasing channel a quantum memory applies after storing a qubit
    /// for `held` seconds with coherence lifetime `lifetime` seconds:
    /// `p = (1 − e^{−t/τ}) / 2` (fully decohered as `t → ∞`).
    ///
    /// # Errors
    /// [`SimError::BadProbability`] if either argument is negative or
    /// `lifetime` is zero.
    pub fn storage_decay(held: f64, lifetime: f64) -> Result<Self, SimError> {
        if held < 0.0 || lifetime <= 0.0 {
            return Err(SimError::BadProbability {
                value: if held < 0.0 { held } else { lifetime },
            });
        }
        let p = (1.0 - (-held / lifetime).exp()) / 2.0;
        KrausChannel::dephasing(p)
    }

    /// Applies the channel to `qubit` of a density matrix:
    /// `ρ → Σ (I⊗Kᵢ⊗I) ρ (I⊗Kᵢ⊗I)†`.
    ///
    /// # Errors
    /// [`SimError::QubitOutOfRange`] for a bad index.
    pub fn apply(&self, rho: &DensityMatrix, qubit: usize) -> Result<DensityMatrix, SimError> {
        let n = rho.n_qubits();
        if qubit >= n {
            return Err(SimError::QubitOutOfRange { qubit, n_qubits: n });
        }
        let left = CMatrix::identity(1 << qubit);
        let right = CMatrix::identity(1 << (n - 1 - qubit));
        let dim = 1usize << n;
        let mut out = CMatrix::zeros(dim, dim);
        for k in &self.ops {
            let full = left.kron(k).kron(&right);
            let term = full
                .matmul(rho.matrix())
                .and_then(|m| m.matmul(&full.dagger()))
                .expect("square");
            out = &out + &term;
        }
        DensityMatrix::from_matrix(out)
    }
}

fn check_prob(p: f64) -> Result<(), SimError> {
    if !(0.0..=1.0).contains(&p) {
        return Err(SimError::BadProbability { value: p });
    }
    Ok(())
}

fn pauli(m: &[[f64; 2]; 2]) -> CMatrix {
    CMatrix::from_vec(
        2,
        2,
        vec![
            C64::real(m[0][0]),
            C64::real(m[0][1]),
            C64::real(m[1][0]),
            C64::real(m[1][1]),
        ],
    )
    .expect("2x2")
}

/// The two-qubit Werner state `v·|Φ⁺⟩⟨Φ⁺| + (1−v)·I/4`, the standard model
/// of an imperfect Bell pair with *visibility* `v`.
///
/// Its fidelity with `|Φ⁺⟩` is `(1+3v)/4`; the CHSH quantum advantage
/// survives iff `v > 1/√2`.
///
/// # Errors
/// [`SimError::BadProbability`] if `v ∉ [0, 1]`.
pub fn werner(visibility: f64) -> Result<DensityMatrix, SimError> {
    check_prob(visibility)?;
    let pure = DensityMatrix::from_pure(&crate::bell::phi_plus());
    DensityMatrix::mixture(&[
        (visibility, pure),
        (1.0 - visibility, DensityMatrix::maximally_mixed(2)),
    ])
}

/// Visibility threshold below which a Werner state loses the CHSH
/// advantage: `1/√2`.
pub const WERNER_CHSH_THRESHOLD: f64 = std::f64::consts::FRAC_1_SQRT_2;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bell;
    use crate::state::StateVector;

    #[test]
    fn channels_are_trace_preserving_by_construction() {
        for ch in [
            KrausChannel::depolarizing(0.3).unwrap(),
            KrausChannel::dephasing(0.2).unwrap(),
            KrausChannel::bit_flip(0.7).unwrap(),
            KrausChannel::amplitude_damping(0.5).unwrap(),
            KrausChannel::identity(),
        ] {
            let rho = DensityMatrix::from_pure(&bell::phi_plus());
            let out = ch.apply(&rho, 0).unwrap();
            assert!((out.trace() - 1.0).abs() < 1e-9);
            assert!(out.is_valid(1e-8));
        }
    }

    #[test]
    fn bad_probability_rejected() {
        assert!(KrausChannel::depolarizing(1.5).is_err());
        assert!(KrausChannel::dephasing(-0.1).is_err());
        assert!(werner(2.0).is_err());
        assert!(KrausChannel::storage_decay(-1.0, 1.0).is_err());
        assert!(KrausChannel::storage_decay(1.0, 0.0).is_err());
    }

    #[test]
    fn non_trace_preserving_rejected() {
        let half = CMatrix::identity(2).scaled(C64::real(0.5));
        assert!(matches!(
            KrausChannel::new(vec![half]),
            Err(SimError::NotTracePreserving { .. })
        ));
        assert!(KrausChannel::new(vec![]).is_err());
    }

    #[test]
    fn full_depolarizing_gives_maximally_mixed() {
        let ch = KrausChannel::depolarizing(1.0).unwrap();
        let rho = DensityMatrix::from_pure(&StateVector::zero(1));
        let out = ch.apply(&rho, 0).unwrap();
        let mm = DensityMatrix::maximally_mixed(1);
        assert!(out.matrix().max_abs_diff(mm.matrix()) < 1e-9);
    }

    #[test]
    fn dephasing_kills_coherence_keeps_populations() {
        let mut plus = StateVector::zero(1);
        plus.apply_gate1(0, &crate::gates::h()).unwrap();
        let rho = DensityMatrix::from_pure(&plus);
        let out = KrausChannel::dephasing(0.5)
            .unwrap()
            .apply(&rho, 0)
            .unwrap();
        // Fully dephased at p = 0.5: off-diagonals vanish.
        assert!(out.matrix()[(0, 1)].abs() < 1e-9);
        assert!((out.matrix()[(0, 0)].re - 0.5).abs() < 1e-9);
    }

    #[test]
    fn amplitude_damping_decays_excited_state() {
        let one = StateVector::basis(1, 1).unwrap();
        let rho = DensityMatrix::from_pure(&one);
        let out = KrausChannel::amplitude_damping(0.3)
            .unwrap()
            .apply(&rho, 0)
            .unwrap();
        assert!((out.matrix()[(1, 1)].re - 0.7).abs() < 1e-9);
        assert!((out.matrix()[(0, 0)].re - 0.3).abs() < 1e-9);
    }

    #[test]
    fn werner_fidelity_formula() {
        for v in [0.0, 0.25, 0.5, 0.8, 1.0] {
            let rho = werner(v).unwrap();
            let f = rho.fidelity_with_pure(&bell::phi_plus()).unwrap();
            assert!((f - (1.0 + 3.0 * v) / 4.0).abs() < 1e-9, "v = {v}");
            assert!(rho.is_valid(1e-8));
        }
    }

    #[test]
    fn werner_extremes() {
        let pure = werner(1.0).unwrap();
        assert!((pure.purity() - 1.0).abs() < 1e-9);
        let mixed = werner(0.0).unwrap();
        assert!((mixed.purity() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn storage_decay_limits() {
        // t = 0: identity-like (p = 0). t → ∞: p → 1/2 (full dephasing).
        let fresh = KrausChannel::storage_decay(0.0, 100e-6).unwrap();
        let mut plus = StateVector::zero(1);
        plus.apply_gate1(0, &crate::gates::h()).unwrap();
        let rho = DensityMatrix::from_pure(&plus);
        let out = fresh.apply(&rho, 0).unwrap();
        assert!((out.purity() - 1.0).abs() < 1e-9);

        let stale = KrausChannel::storage_decay(1.0, 100e-6).unwrap();
        let out = stale.apply(&rho, 0).unwrap();
        assert!(out.matrix()[(0, 1)].abs() < 1e-6, "fully dephased");
    }

    #[test]
    fn depolarizing_half_reduces_werner_visibility() {
        // Applying depolarizing(p) to one half of Φ+ yields a Werner state
        // with visibility (1 − p).
        let p = 0.4;
        let rho = DensityMatrix::from_pure(&bell::phi_plus());
        let out = KrausChannel::depolarizing(p)
            .unwrap()
            .apply(&rho, 1)
            .unwrap();
        let expect = werner(1.0 - p).unwrap();
        assert!(out.matrix().max_abs_diff(expect.matrix()) < 1e-9);
    }

    #[test]
    fn channel_on_out_of_range_qubit_errors() {
        let ch = KrausChannel::identity();
        let rho = DensityMatrix::maximally_mixed(1);
        assert!(ch.apply(&rho, 1).is_err());
    }
}
