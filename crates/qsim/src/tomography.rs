//! Two-qubit state tomography from measurement statistics.
//!
//! A deployment of the paper's architecture needs to *calibrate*: estimate
//! the visibility of the pairs actually coming out of the
//! source-fiber-QNIC pipeline, using only local measurements and classical
//! post-processing. That is standard Pauli tomography:
//!
//! 1. For each of the 9 local basis settings (X/Y/Z per side), consume
//!    `shots` fresh pairs and record the ±1 outcome products.
//! 2. Estimate all 15 Pauli expectations `⟨σᵢ ⊗ σⱼ⟩` (marginals give the
//!    single-sided ones).
//! 3. Reconstruct `ρ̂ = ¼ Σᵢⱼ Êᵢⱼ σᵢ⊗σⱼ`, then project onto the physical
//!    set (PSD, unit trace) to clean up sampling noise.
//!
//! The reconstruction feeds [`werner_visibility`], the calibration number
//! the load balancer needs to decide whether the quantum strategy is
//! worth using at all (it is not below `v = 1/√2`; see
//! [`crate::noise::WERNER_CHSH_THRESHOLD`]).

use crate::density::DensityMatrix;
use crate::error::SimError;
use crate::measure::Basis1;
use crate::pair::{Party, SharedPair};
use qmath::{eigh_hermitian, CMatrix, C64};
use rand::Rng;

/// The three Pauli measurement settings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PauliSetting {
    /// σx: measure in `{|+⟩, |−⟩}`.
    X,
    /// σy: measure in `{(|0⟩+i|1⟩)/√2, (|0⟩−i|1⟩)/√2}`.
    Y,
    /// σz: the computational basis.
    Z,
}

impl PauliSetting {
    /// The measurement basis realizing this setting (outcome 0 ↦ +1).
    pub fn basis(self) -> Basis1 {
        let f = std::f64::consts::FRAC_1_SQRT_2;
        match self {
            PauliSetting::X => Basis1::angle(std::f64::consts::FRAC_PI_4),
            PauliSetting::Y => Basis1::new(
                [C64::real(f), C64::new(0.0, f)],
                [C64::real(f), C64::new(0.0, -f)],
            )
            .expect("orthonormal by construction"),
            PauliSetting::Z => Basis1::computational(),
        }
    }

    /// The Pauli matrix.
    pub fn matrix(self) -> CMatrix {
        match self {
            PauliSetting::X => {
                CMatrix::from_vec(2, 2, vec![C64::ZERO, C64::ONE, C64::ONE, C64::ZERO])
            }
            PauliSetting::Y => CMatrix::from_vec(2, 2, vec![C64::ZERO, -C64::I, C64::I, C64::ZERO]),
            PauliSetting::Z => {
                CMatrix::from_vec(2, 2, vec![C64::ONE, C64::ZERO, C64::ZERO, C64::real(-1.0)])
            }
        }
        .expect("2x2")
    }

    /// All three settings.
    pub const ALL: [PauliSetting; 3] = [PauliSetting::X, PauliSetting::Y, PauliSetting::Z];
}

/// Raw tomography data: outcome-product and marginal sums per setting
/// pair.
#[derive(Debug, Clone)]
pub struct TomographyData {
    shots_per_setting: usize,
    /// `corr[i][j]` = Σ (±1)·(±1) for settings (i, j).
    corr: [[f64; 3]; 3],
    /// `marg_a[i]` = Σ (±1) of A's outcomes across all settings with A = i.
    marg_a: [f64; 3],
    /// Same for B.
    marg_b: [f64; 3],
}

/// Collects tomography statistics by consuming `shots` fresh pairs per
/// basis-setting pair (9·shots pairs total) from `source`.
///
/// # Errors
/// Propagates measurement errors (impossible for well-formed pairs).
pub fn collect<F, R>(mut source: F, shots: usize, rng: &mut R) -> Result<TomographyData, SimError>
where
    F: FnMut() -> SharedPair,
    R: Rng + ?Sized,
{
    let mut data = TomographyData {
        shots_per_setting: shots,
        corr: [[0.0; 3]; 3],
        marg_a: [0.0; 3],
        marg_b: [0.0; 3],
    };
    for (i, sa) in PauliSetting::ALL.iter().enumerate() {
        for (j, sb) in PauliSetting::ALL.iter().enumerate() {
            for _ in 0..shots {
                let mut pair = source();
                let a = pair.measure(Party::A, &sa.basis(), rng)?;
                let b = pair.measure(Party::B, &sb.basis(), rng)?;
                let va = if a == 0 { 1.0 } else { -1.0 };
                let vb = if b == 0 { 1.0 } else { -1.0 };
                data.corr[i][j] += va * vb;
                data.marg_a[i] += va;
                data.marg_b[j] += vb;
            }
        }
    }
    Ok(data)
}

impl TomographyData {
    /// The estimated expectation `⟨σᵢ ⊗ σⱼ⟩`.
    pub fn correlation(&self, i: usize, j: usize) -> f64 {
        self.corr[i][j] / self.shots_per_setting as f64
    }

    /// The estimated single-sided expectation `⟨σᵢ ⊗ I⟩` (averaged over
    /// B's three settings).
    pub fn marginal_a(&self, i: usize) -> f64 {
        self.marg_a[i] / (3 * self.shots_per_setting) as f64
    }

    /// The estimated single-sided expectation `⟨I ⊗ σⱼ⟩`.
    pub fn marginal_b(&self, j: usize) -> f64 {
        self.marg_b[j] / (3 * self.shots_per_setting) as f64
    }

    /// Reconstructs the density matrix
    /// `ρ̂ = ¼ (I⊗I + Σᵢ âᵢ σᵢ⊗I + Σⱼ b̂ⱼ I⊗σⱼ + Σᵢⱼ Êᵢⱼ σᵢ⊗σⱼ)`,
    /// projected onto the physical set (eigenvalues clamped ≥ 0, trace
    /// renormalized).
    ///
    /// # Errors
    /// Propagates linear-algebra failures (non-finite statistics).
    pub fn reconstruct(&self) -> Result<DensityMatrix, SimError> {
        let i2 = CMatrix::identity(2);
        let mut rho = i2.kron(&i2);
        for (i, si) in PauliSetting::ALL.iter().enumerate() {
            rho = &rho + &si.matrix().kron(&i2).scaled(C64::real(self.marginal_a(i)));
            rho = &rho + &i2.kron(&si.matrix()).scaled(C64::real(self.marginal_b(i)));
            for (j, sj) in PauliSetting::ALL.iter().enumerate() {
                rho = &rho
                    + &si
                        .matrix()
                        .kron(&sj.matrix())
                        .scaled(C64::real(self.correlation(i, j)));
            }
        }
        rho = rho.scaled(C64::real(0.25));

        // Physical projection: clamp negative eigenvalues, renormalize.
        let dec = eigh_hermitian(&rho).map_err(|_| SimError::NotUnitary)?;
        let mut cleaned = CMatrix::zeros(4, 4);
        let mut total = 0.0;
        for (lam, vec) in dec.values.iter().zip(&dec.vectors) {
            let l = lam.max(0.0);
            if l == 0.0 {
                continue;
            }
            total += l;
            cleaned = &cleaned + &CMatrix::outer(vec, vec).scaled(C64::real(l));
        }
        debug_assert!(total > 0.0, "all-negative spectrum");
        DensityMatrix::from_matrix(cleaned.scaled(C64::real(1.0 / total)))
    }
}

/// Estimates the Werner visibility of a two-qubit state from its fidelity
/// with `|Φ⁺⟩`: for a Werner state `F = (1 + 3v)/4`, so `v = (4F − 1)/3`.
pub fn werner_visibility(rho: &DensityMatrix) -> Result<f64, SimError> {
    let f = rho.fidelity_with_pure(&crate::bell::phi_plus())?;
    Ok(((4.0 * f - 1.0) / 3.0).clamp(-1.0 / 3.0, 1.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::noise;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn settings_are_valid_bases_and_matrices() {
        for s in PauliSetting::ALL {
            assert!(s.matrix().is_hermitian(1e-12));
            assert!(s.matrix().is_unitary(1e-12));
            let _ = s.basis(); // constructor validates orthonormality
        }
    }

    #[test]
    fn tomography_of_ideal_bell_pair() {
        let mut rng = StdRng::seed_from_u64(1);
        let data = collect(SharedPair::ideal, 3_000, &mut rng).unwrap();
        // Φ+ signature: ⟨XX⟩ = +1, ⟨YY⟩ = −1, ⟨ZZ⟩ = +1, cross terms 0.
        assert!((data.correlation(0, 0) - 1.0).abs() < 0.05, "XX");
        assert!((data.correlation(1, 1) + 1.0).abs() < 0.05, "YY");
        assert!((data.correlation(2, 2) - 1.0).abs() < 0.05, "ZZ");
        assert!(data.correlation(0, 2).abs() < 0.06, "XZ");

        let rho = data.reconstruct().unwrap();
        assert!(rho.is_valid(1e-8));
        let f = rho.fidelity_with_pure(&crate::bell::phi_plus()).unwrap();
        assert!(f > 0.97, "reconstructed fidelity {f}");
        let v = werner_visibility(&rho).unwrap();
        assert!(v > 0.95, "estimated visibility {v}");
    }

    #[test]
    fn tomography_recovers_werner_visibility() {
        let mut rng = StdRng::seed_from_u64(2);
        for v_true in [0.9, 0.7, 0.5] {
            let data = collect(
                || SharedPair::werner(v_true).expect("valid visibility"),
                3_000,
                &mut rng,
            )
            .unwrap();
            let rho = data.reconstruct().unwrap();
            let v_est = werner_visibility(&rho).unwrap();
            assert!(
                (v_est - v_true).abs() < 0.05,
                "true {v_true} vs estimated {v_est}"
            );
        }
    }

    #[test]
    fn calibration_detects_useless_hardware() {
        // The operational question: is v above the CHSH threshold?
        let mut rng = StdRng::seed_from_u64(3);
        let good = collect(|| SharedPair::werner(0.95).expect("valid"), 2_000, &mut rng).unwrap();
        let bad = collect(|| SharedPair::werner(0.5).expect("valid"), 2_000, &mut rng).unwrap();
        let v_good = werner_visibility(&good.reconstruct().unwrap()).unwrap();
        let v_bad = werner_visibility(&bad.reconstruct().unwrap()).unwrap();
        assert!(v_good > noise::WERNER_CHSH_THRESHOLD);
        assert!(v_bad < noise::WERNER_CHSH_THRESHOLD);
    }

    #[test]
    fn reconstruction_is_physical_even_at_low_shots() {
        // With few shots the linear inversion is noisy and typically
        // non-PSD; the projection must still return a valid state.
        let mut rng = StdRng::seed_from_u64(4);
        let data = collect(SharedPair::ideal, 40, &mut rng).unwrap();
        let rho = data.reconstruct().unwrap();
        assert!(rho.is_valid(1e-8));
        assert!((rho.trace() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn visibility_formula_roundtrip() {
        for v in [0.0, 0.3, 0.8, 1.0] {
            let rho = noise::werner(v).unwrap();
            let est = werner_visibility(&rho).unwrap();
            assert!((est - v).abs() < 1e-9, "v {v} est {est}");
        }
    }
}
