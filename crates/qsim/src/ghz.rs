//! Closed-form measurement kernel for noisy N-party GHZ states.
//!
//! The N-party analogue of [`crate::werner`]: multiparty coordination
//! (the Mermin parity game, GPU-SM placement across a rack) only ever
//! consumes one state family — a visibility-`v` GHZ state whose qubits
//! may each have picked up storage dephasing — measured in *equatorial*
//! bases `(|0⟩ ± e^{iφ}|1⟩)/√2` (X is `φ = 0`, Y is `φ = π/2`). That
//! joint distribution has an exact parity-sector closed form, so a full
//! n-party round needs ONE `f64` draw plus one word of bulk random bits
//! instead of an O(2ⁿ)-amplitude statevector simulation with O(n)
//! projective collapses.
//!
//! ## The closed form
//!
//! Write the noisy state as the GHZ⁺/GHZ⁻ mixture
//! `ρ = (1+v)/2·|G⁺⟩⟨G⁺| + (1−v)/2·|G⁻⟩⟨G⁻|` with
//! `|G^±⟩ = (|0…0⟩ ± |1…1⟩)/√2` — only the `|0…0⟩⟨1…1|` coherence
//! carries `v`, so per-qubit dephasing with retention `dⱼ` simply
//! rescales it: the *effective coherence* is `w = v·∏ⱼ dⱼ`. Measuring
//! qubit `j` in the equatorial basis at phase `φⱼ` gives outcome vector
//! `a` with probability
//!
//! ```text
//! P(a) = 2^{−n} · (1 + w·s·cos Θ),   s = (−1)^{wt(a)},  Θ = Σⱼ φⱼ
//! ```
//!
//! i.e. the even-parity sector has total weight `(1 + w·cos Θ)/2`, the
//! odd sector the complement, and outcomes *within* a sector are exactly
//! uniform. (A depolarized GHZ `v·|G⟩⟨G| + (1−v)·I/2ⁿ` has the same
//! equatorial statistics: its extra diagonal weight is uniform under
//! every equatorial basis, so the kernel covers both noise models.)
//!
//! Sampling is therefore: one `f64` draw picks the parity sector, one
//! `u64` supplies `n−1` free bits, and the last bit closes the parity —
//! O(n) per round, independent of the 2ⁿ state dimension.
//!
//! The full quantum-simulation path stays as the pinned test oracle:
//! [`NoisyGhz::oracle_density`] builds the exact density matrix for the
//! 1e-12 cell-equivalence tests, [`NoisyGhz::oracle_sample`] is the
//! trajectory-sampling statevector route `tests/ghz_stat.rs` checks
//! against the same closed form.

use crate::bell;
use crate::error::SimError;
use crate::gates;
use crate::measure::{measure_in_basis, Basis1};
use crate::noise::KrausChannel;
use crate::DensityMatrix;
use qmath::C64;
use rand::Rng;

/// Largest party count the kernel supports: `n − 1` free bits plus the
/// parity bit must fit one `u64` outcome word.
pub const MAX_PARTIES: usize = 63;

/// The equatorial measurement basis at phase `φ`:
/// `|φ₀⟩ = (|0⟩ + e^{iφ}|1⟩)/√2`, `|φ₁⟩ = (|0⟩ − e^{iφ}|1⟩)/√2`.
/// `φ = 0` is the X basis `{|+⟩, |−⟩}`, `φ = π/2` the Y basis.
pub fn equatorial_basis(phi: f64) -> Basis1 {
    let f = std::f64::consts::FRAC_1_SQRT_2;
    let (s, c) = phi.sin_cos();
    let e = C64::new(c * f, s * f);
    Basis1 {
        phi0: [C64::real(f), e],
        phi1: [C64::real(f), C64::new(-e.re, -e.im)],
    }
}

/// A noisy n-party GHZ state reduced to the numbers its equatorial
/// measurement statistics depend on: source visibility and the per-party
/// dephasing retentions. One allocation at construction, then every
/// round is allocation-free.
#[derive(Debug, Clone, PartialEq)]
pub struct NoisyGhz {
    visibility: f64,
    retentions: Vec<f64>,
    /// Cached `v·∏ dⱼ` — the only number sampling needs.
    coherence: f64,
}

impl NoisyGhz {
    /// A fresh (undecohered) n-party GHZ state of the given visibility.
    ///
    /// # Errors
    /// [`SimError::BadProbability`] if `visibility ∉ [0, 1]`;
    /// [`SimError::BadDimension`] if `n < 2` or `n >` [`MAX_PARTIES`].
    pub fn new(n: usize, visibility: f64) -> Result<Self, SimError> {
        Self::with_dephasing(visibility, vec![1.0; n])
    }

    /// A noisy GHZ state whose qubit `j` has been dephased down to
    /// coherence retention `retentions[j]` (`exp(−held/lifetime)` for
    /// QNIC storage decay).
    ///
    /// # Errors
    /// [`SimError::BadProbability`] if any argument is outside `[0, 1]`;
    /// [`SimError::BadDimension`] for party counts outside
    /// `2..=`[`MAX_PARTIES`].
    pub fn with_dephasing(visibility: f64, retentions: Vec<f64>) -> Result<Self, SimError> {
        let n = retentions.len();
        if !(2..=MAX_PARTIES).contains(&n) {
            return Err(SimError::BadDimension { len: n });
        }
        for &value in std::iter::once(&visibility).chain(&retentions) {
            if !(0.0..=1.0).contains(&value) {
                return Err(SimError::BadProbability { value });
            }
        }
        let coherence = visibility * retentions.iter().product::<f64>();
        Ok(NoisyGhz {
            visibility,
            retentions,
            coherence,
        })
    }

    /// A perfect n-party GHZ state (`v = 1`, no dephasing).
    ///
    /// # Errors
    /// [`SimError::BadDimension`] for party counts outside
    /// `2..=`[`MAX_PARTIES`].
    pub fn ideal(n: usize) -> Result<Self, SimError> {
        Self::new(n, 1.0)
    }

    /// Number of parties (qubits).
    pub fn n_parties(&self) -> usize {
        self.retentions.len()
    }

    /// Source visibility `v`.
    pub fn visibility(&self) -> f64 {
        self.visibility
    }

    /// Per-party coherence retentions `dⱼ`.
    pub fn retentions(&self) -> &[f64] {
        &self.retentions
    }

    /// The effective coherence `w = v·∏ dⱼ` — the single number the
    /// joint distribution depends on besides the measurement phases.
    pub fn coherence(&self) -> f64 {
        self.coherence
    }

    /// The ±1 outcome-parity expectation `E = w·cos(Σ φⱼ)` for
    /// equatorial measurement phases `phases` (see module docs).
    pub fn correlation(&self, phases: &[f64]) -> f64 {
        debug_assert_eq!(phases.len(), self.n_parties());
        self.coherence * phases.iter().sum::<f64>().cos()
    }

    /// The parity expectation for X/Y settings: parties in `y_mask`
    /// measure Y (`φ = π/2`), the rest X (`φ = 0`), so
    /// `cos Θ ∈ {1, 0, −1, 0}` by the Y-count mod 4 — no trig.
    pub fn correlation_xy(&self, y_mask: u64) -> f64 {
        match y_mask.count_ones() % 4 {
            0 => self.coherence,
            2 => -self.coherence,
            _ => 0.0,
        }
    }

    /// Exact probability of the outcome word `outcome` (party `j` reads
    /// bit `j`) under equatorial phases `phases`:
    /// `2^{−n}·(1 + E·(−1)^{wt(outcome)})`.
    pub fn joint_prob(&self, phases: &[f64], outcome: u64) -> f64 {
        let e = self.correlation(phases);
        let sign = if outcome.count_ones().is_multiple_of(2) {
            1.0
        } else {
            -1.0
        };
        (1.0 + e * sign) / (1u64 << self.n_parties()) as f64
    }

    /// Samples a full n-party round at equatorial phases `phases`.
    /// Returns the outcome word (party `j` reads bit `j`).
    pub fn sample<R: Rng + ?Sized>(&self, phases: &[f64], rng: &mut R) -> u64 {
        self.sample_with_correlation(self.correlation(phases), rng)
    }

    /// Samples a round at X/Y settings given as a Y mask.
    pub fn sample_xy<R: Rng + ?Sized>(&self, y_mask: u64, rng: &mut R) -> u64 {
        self.sample_with_correlation(self.correlation_xy(y_mask), rng)
    }

    /// The hot inner kernel: given a precomputed parity expectation `e`
    /// (from [`Self::correlation`] / [`Self::correlation_xy`], hoistable
    /// out of a batch loop), draws one `f64` for the parity sector and
    /// one `u64` for the bulk bits. Parties `0..n−1` take the free bits;
    /// party `n−1`'s bit closes the parity.
    pub fn sample_with_correlation<R: Rng + ?Sized>(&self, e: f64, rng: &mut R) -> u64 {
        let n = self.n_parties();
        let even = rng.gen::<f64>() < 0.5 * (1.0 + e);
        let free = rng.next_u64() & ((1u64 << (n - 1)) - 1);
        let close = (free.count_ones() as u64 & 1) ^ u64::from(!even);
        free | (close << (n - 1))
    }

    /// Builds the *oracle* state this kernel claims to sample: the
    /// GHZ⁺/GHZ⁻ mixture at visibility `v` pushed through per-qubit
    /// dephasing channels with `p = (1 − dⱼ)/2`. Used by the 1e-12
    /// cell-equivalence tests. The matrix is `2ⁿ × 2ⁿ` — oracle use only.
    ///
    /// # Errors
    /// Propagates channel-construction errors (cannot occur for a
    /// validated `NoisyGhz`).
    pub fn oracle_density(&self) -> Result<DensityMatrix, SimError> {
        let n = self.n_parties();
        let plus = DensityMatrix::from_pure(&bell::ghz(n));
        let mut minus_sv = bell::ghz(n);
        minus_sv.apply_gate1(0, &gates::z())?;
        let minus = DensityMatrix::from_pure(&minus_sv);
        let mut rho = DensityMatrix::mixture(&[
            ((1.0 + self.visibility) / 2.0, plus),
            ((1.0 - self.visibility) / 2.0, minus),
        ])?;
        for (qubit, &retain) in self.retentions.iter().enumerate() {
            if retain < 1.0 {
                let channel = KrausChannel::dephasing((1.0 - retain) / 2.0)?;
                rho = channel.apply(&rho, qubit)?;
            }
        }
        Ok(rho)
    }

    /// The exact-simulation sampling route (a test oracle):
    /// trajectory-unravel the noise — the GHZ⁺/GHZ⁻ mixture is a Z on
    /// any one qubit with probability `(1−v)/2`, and each dephasing
    /// channel a Z with probability `(1−dⱼ)/2` — then projectively
    /// measure every qubit of the statevector in its basis. Exactly the
    /// distribution of [`Self::sample`], at O(n·2ⁿ) cost per round.
    ///
    /// # Errors
    /// [`SimError::SizeMismatch`] if `bases.len()` ≠ the party count.
    pub fn oracle_sample<R: Rng + ?Sized>(
        &self,
        bases: &[Basis1],
        rng: &mut R,
    ) -> Result<u64, SimError> {
        let n = self.n_parties();
        if bases.len() != n {
            return Err(SimError::SizeMismatch {
                op: "NoisyGhz::oracle_sample",
                lhs: n,
                rhs: bases.len(),
            });
        }
        let mut sv = bell::ghz(n);
        if rng.gen::<f64>() < (1.0 - self.visibility) / 2.0 {
            sv.apply_gate1(0, &gates::z())?;
        }
        for (qubit, &retain) in self.retentions.iter().enumerate() {
            if retain < 1.0 && rng.gen::<f64>() < (1.0 - retain) / 2.0 {
                sv.apply_gate1(qubit, &gates::z())?;
            }
        }
        let mut out = 0u64;
        for (party, basis) in bases.iter().enumerate() {
            let bit = measure_in_basis(&mut sv, party, basis, rng)?;
            out |= u64::from(bit) << party;
        }
        Ok(out)
    }

    /// [`Self::oracle_sample`] at X/Y settings given as a Y mask.
    ///
    /// # Errors
    /// Same as [`Self::oracle_sample`] (cannot occur here).
    pub fn oracle_sample_xy<R: Rng + ?Sized>(
        &self,
        y_mask: u64,
        rng: &mut R,
    ) -> Result<u64, SimError> {
        let bases: Vec<Basis1> = (0..self.n_parties())
            .map(|j| {
                if (y_mask >> j) & 1 == 1 {
                    equatorial_basis(std::f64::consts::FRAC_PI_2)
                } else {
                    equatorial_basis(0.0)
                }
            })
            .collect();
        self.oracle_sample(&bases, rng)
    }
}

/// `⟨Φ_a|ρ|Φ_a⟩` for per-party bases — the oracle's cell probability,
/// computed directly from the density matrix. Shared by the in-crate
/// tests and the `ghz_stat` integration suite.
pub fn oracle_cell(rho: &DensityMatrix, bases: &[Basis1], outcome: u64) -> f64 {
    let n = bases.len();
    let dim = 1usize << n;
    debug_assert_eq!(rho.n_qubits(), n);
    // |Φ_a⟩ = ⊗ⱼ |φ_{aⱼ}⟩; amplitude index b encodes qubit k in bit
    // (b >> (n−1−k)) & 1 (the crate's ordering convention).
    let mut v = vec![C64::ZERO; dim];
    for (b, amp) in v.iter_mut().enumerate() {
        let mut product = C64::ONE;
        for (k, basis) in bases.iter().enumerate() {
            let vec = if (outcome >> k) & 1 == 0 {
                &basis.phi0
            } else {
                &basis.phi1
            };
            product *= vec[(b >> (n - 1 - k)) & 1];
        }
        *amp = product;
    }
    let m = rho.matrix();
    let mut p = C64::ZERO;
    for (r, vr) in v.iter().enumerate() {
        for (c, vc) in v.iter().enumerate() {
            p += vr.conj() * m.row(r)[c] * *vc;
        }
    }
    p.re
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};
    use std::f64::consts::{FRAC_PI_2, PI};

    fn random_phases<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Vec<f64> {
        (0..n).map(|_| rng.gen::<f64>() * 2.0 * PI).collect()
    }

    #[test]
    fn probabilities_normalized_with_uniform_marginals() {
        let mut rng = StdRng::seed_from_u64(0x6427);
        for n in 2..=6usize {
            for _ in 0..20 {
                let retentions = (0..n).map(|_| rng.gen::<f64>()).collect();
                let ghz = NoisyGhz::with_dephasing(rng.gen::<f64>(), retentions).unwrap();
                let phases = random_phases(n, &mut rng);
                let mut total = 0.0;
                let mut marginals = vec![0.0; n];
                for a in 0..(1u64 << n) {
                    let p = ghz.joint_prob(&phases, a);
                    assert!((0.0..=1.0).contains(&p));
                    total += p;
                    for (j, m) in marginals.iter_mut().enumerate() {
                        if (a >> j) & 1 == 1 {
                            *m += p;
                        }
                    }
                }
                assert!((total - 1.0).abs() < 1e-12);
                for (j, m) in marginals.iter().enumerate() {
                    assert!((m - 0.5).abs() < 1e-12, "party {j} marginal {m}");
                }
            }
        }
    }

    #[test]
    fn ideal_x_measurements_have_even_parity() {
        // |G⁺⟩ is a +1 eigenstate of X⊗…⊗X: all-X measurement always
        // lands in the even sector, and the kernel reproduces that
        // deterministically (E = 1).
        let mut rng = StdRng::seed_from_u64(1);
        for n in [3usize, 5, 8] {
            let ghz = NoisyGhz::ideal(n).unwrap();
            assert!((ghz.correlation_xy(0) - 1.0).abs() < 1e-15);
            for _ in 0..200 {
                let a = ghz.sample_xy(0, &mut rng);
                assert_eq!(a.count_ones() % 2, 0, "n = {n}, outcome {a:#b}");
            }
        }
    }

    #[test]
    fn xy_fast_path_matches_trig_path() {
        let mut rng = StdRng::seed_from_u64(2);
        for n in 2..=8usize {
            let ghz = NoisyGhz::new(n, 0.83).unwrap();
            for _ in 0..20 {
                let y_mask = rng.next_u64() & ((1 << n) - 1);
                let phases: Vec<f64> = (0..n)
                    .map(|j| {
                        if (y_mask >> j) & 1 == 1 {
                            FRAC_PI_2
                        } else {
                            0.0
                        }
                    })
                    .collect();
                assert!(
                    (ghz.correlation_xy(y_mask) - ghz.correlation(&phases)).abs() < 1e-12,
                    "n = {n}, y_mask = {y_mask:#b}"
                );
            }
        }
    }

    #[test]
    fn kernel_cells_match_oracle_density_to_1e12() {
        let mut rng = StdRng::seed_from_u64(0x04AC1E);
        for n in 2..=4usize {
            for _ in 0..8 {
                let retentions = (0..n).map(|_| rng.gen::<f64>()).collect();
                let ghz = NoisyGhz::with_dephasing(rng.gen::<f64>(), retentions).unwrap();
                let phases = random_phases(n, &mut rng);
                let bases: Vec<Basis1> = phases.iter().map(|&phi| equatorial_basis(phi)).collect();
                let rho = ghz.oracle_density().unwrap();
                for a in 0..(1u64 << n) {
                    let kernel = ghz.joint_prob(&phases, a);
                    let oracle = oracle_cell(&rho, &bases, a);
                    assert!(
                        (kernel - oracle).abs() < 1e-12,
                        "n = {n}, a = {a:#b}: kernel {kernel} vs oracle {oracle}"
                    );
                }
            }
        }
    }

    #[test]
    fn sampling_matches_joint_probs() {
        let ghz = NoisyGhz::with_dephasing(0.9, vec![0.95, 0.85, 1.0]).unwrap();
        let phases = [0.4, -0.7, FRAC_PI_2];
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts = [0u64; 8];
        let rounds = 50_000u64;
        for _ in 0..rounds {
            counts[ghz.sample(&phases, &mut rng) as usize] += 1;
        }
        for (a, &c) in counts.iter().enumerate() {
            let expected = ghz.joint_prob(&phases, a as u64);
            qmath::assert_prob_in!(c, rounds, expected, conf = 0.999);
        }
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(NoisyGhz::new(1, 1.0).is_err(), "single party rejected");
        assert!(NoisyGhz::new(64, 1.0).is_err(), "beyond MAX_PARTIES");
        assert!(NoisyGhz::new(3, 1.5).is_err());
        assert!(NoisyGhz::new(3, -0.1).is_err());
        assert!(NoisyGhz::with_dephasing(0.5, vec![1.0, 1.1, 1.0]).is_err());
        assert!(NoisyGhz::with_dephasing(0.5, vec![1.0, -0.2]).is_err());
        assert!(NoisyGhz::ideal(4).is_ok());
    }

    #[test]
    fn oracle_sample_rejects_basis_count_mismatch() {
        let mut rng = StdRng::seed_from_u64(9);
        let ghz = NoisyGhz::ideal(3).unwrap();
        let bases = vec![equatorial_basis(0.0); 2];
        assert!(matches!(
            ghz.oracle_sample(&bases, &mut rng),
            Err(SimError::SizeMismatch { .. })
        ));
    }

    #[test]
    fn equatorial_bases_are_orthonormal() {
        for phi in [0.0, 0.3, FRAC_PI_2, 2.5, PI] {
            let b = equatorial_basis(phi);
            // Re-validate through the checked constructor.
            assert!(Basis1::new(b.phi0, b.phi1).is_ok(), "phi = {phi}");
        }
    }

    #[test]
    fn coherence_multiplies_retentions() {
        let ghz = NoisyGhz::with_dephasing(0.8, vec![0.5, 0.25, 1.0]).unwrap();
        assert!((ghz.coherence() - 0.8 * 0.5 * 0.25).abs() < 1e-15);
        assert_eq!(ghz.n_parties(), 3);
        assert!((ghz.visibility() - 0.8).abs() < 1e-15);
    }
}
