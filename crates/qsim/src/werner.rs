//! Closed-form measurement kernel for (dephased) Werner pairs.
//!
//! The entanglement data plane only ever handles one state family: a
//! visibility-`v` Werner pair whose halves may have sat in a QNIC memory
//! and picked up storage dephasing. Measuring both halves in the paper's
//! real rotated bases (`Basis1::angle`) therefore has an *exact* joint
//! distribution, and sampling it needs one RNG draw — no `DensityMatrix`
//! allocation, no basis-rotation matmuls (the same observation behind
//! PR 1's `CorrelationBox`, and standard practice in large-scale network
//! simulators that dispatch to reduced formalism backends).
//!
//! ## The closed form
//!
//! Storage dephasing with Kraus probability `p` scales the `|00⟩⟨11|`
//! coherence by `d = 1 − 2p` (the *retention*; `KrausChannel::storage_decay`
//! chooses `p` so that `d = exp(−held/lifetime)`). For a Werner-`v` pair
//! dephased to retentions `da`, `db` and measured at angles `(θa, θb)`,
//! the ±1-outcome correlation is
//!
//! ```text
//! E = v·(cos 2θa · cos 2θb  +  da·db · sin 2θa · sin 2θb)
//! ```
//!
//! (`Tr[ρ Z⊗Z] = v`, `Tr[ρ X⊗X] = v·da·db`, cross terms vanish), the
//! marginals are exactly uniform, and the joint cell probabilities are
//!
//! ```text
//! P(0,0) = P(1,1) = (1 + E)/4      P(0,1) = P(1,0) = (1 − E)/4
//! ```
//!
//! At `da = db = 1` this reduces to `E = v·cos 2(θa−θb)`, i.e.
//! `P(agree) = (1−v)/2 + v·cos²(θa−θb)` — the textbook Werner form.
//!
//! Drawing such a pair is the one correlated-pair kernel of the
//! workspace, [`CorrelatedBits`]: every caller that samples a
//! uniform-marginal bit pair of correlation `c` (this kernel, the
//! `games::CorrelationBox` strategies, the served decision slots) goes
//! through it.
//!
//! The gate-evolution path ([`crate::SharedPair`]) is kept as a test
//! oracle: [`WernerPair::oracle_density`] builds the exact same state for
//! the equivalence tests (`tests/werner_stat.rs`).

use crate::error::SimError;
use crate::noise::{self, KrausChannel};
use crate::DensityMatrix;
use rand::{Rng, RngCore};

/// 2⁻⁵³: maps the top 53 bits of a draw onto `[0, 1)`.
const UNIT: f64 = 1.0 / (1u64 << 53) as f64;

/// A uniform-marginal correlated bit pair: each bit is a fair coin and
/// `E[(−1)^{a⊕b}] = c`, so `P(00) = P(11) = (1+c)/4` and
/// `P(01) = P(10) = (1−c)/4`.
///
/// Holds the CDF over the cells `00, 01, 10` (`11` takes the rest):
/// `(1+c)/4, 1/2, 1/2 + (1−c)/4`. The middle boundary is exactly 1/2
/// because the marginals are uniform. `Copy`, and cheap enough to build
/// per draw.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorrelatedBits {
    cdf: [f64; 3],
}

impl CorrelatedBits {
    /// The sampler for correlation `c`. `c` is clamped to `[−1, 1]`, so
    /// the thresholds stay ordered even when a closed form overshoots
    /// ±1 by an ulp.
    #[inline]
    pub fn new(c: f64) -> Self {
        let c = c.clamp(-1.0, 1.0);
        CorrelatedBits {
            cdf: [0.25 * (1.0 + c), 0.5, 0.5 + 0.25 * (1.0 - c)],
        }
    }

    /// Draws `(a, b)` with one RNG draw: `u = (next_u64() >> 11) · 2⁻⁵³`
    /// (the draw `gen::<f64>()` makes) counted against the three
    /// thresholds without branches.
    #[inline]
    pub fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> (bool, bool) {
        let u = (rng.next_u64() >> 11) as f64 * UNIT;
        let [t0, t1, t2] = self.cdf;
        let k = u8::from(u >= t0) + u8::from(u >= t1) + u8::from(u >= t2);
        (k >= 2, k & 1 != 0)
    }
}

/// A Werner pair reduced to the three numbers its measurement statistics
/// depend on: source visibility and the per-half dephasing retentions.
/// `Copy`, allocation-free, and exact.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WernerPair {
    visibility: f64,
    retain_a: f64,
    retain_b: f64,
}

impl WernerPair {
    /// A fresh (undecohered) Werner pair of the given visibility.
    ///
    /// # Errors
    /// [`SimError::BadProbability`] if `visibility ∉ [0, 1]`.
    pub fn new(visibility: f64) -> Result<Self, SimError> {
        Self::with_dephasing(visibility, 1.0, 1.0)
    }

    /// A Werner pair whose halves have been dephased down to coherence
    /// retentions `retain_a`, `retain_b` (`exp(−held/lifetime)` for QNIC
    /// storage decay).
    ///
    /// # Errors
    /// [`SimError::BadProbability`] if any argument is outside `[0, 1]`.
    pub fn with_dephasing(visibility: f64, retain_a: f64, retain_b: f64) -> Result<Self, SimError> {
        for value in [visibility, retain_a, retain_b] {
            if !(0.0..=1.0).contains(&value) {
                return Err(SimError::BadProbability { value });
            }
        }
        Ok(WernerPair {
            visibility,
            retain_a,
            retain_b,
        })
    }

    /// A perfect `|Φ⁺⟩` pair (`v = 1`, no dephasing).
    pub fn ideal() -> Self {
        WernerPair {
            visibility: 1.0,
            retain_a: 1.0,
            retain_b: 1.0,
        }
    }

    /// Source visibility `v`.
    pub fn visibility(&self) -> f64 {
        self.visibility
    }

    /// Coherence retentions `(da, db)` of the two halves.
    pub fn retentions(&self) -> (f64, f64) {
        (self.retain_a, self.retain_b)
    }

    /// The ±1-outcome correlation `E(θa, θb)` (see module docs).
    pub fn correlation(&self, theta_a: f64, theta_b: f64) -> f64 {
        let (s2a, c2a) = (2.0 * theta_a).sin_cos();
        let (s2b, c2b) = (2.0 * theta_b).sin_cos();
        self.visibility * (c2a * c2b + self.retain_a * self.retain_b * s2a * s2b)
    }

    /// Exact joint cell probabilities in outcome order
    /// `(0,0), (0,1), (1,0), (1,1)`.
    pub fn joint_probs(&self, theta_a: f64, theta_b: f64) -> [f64; 4] {
        let e = self.correlation(theta_a, theta_b);
        let agree = 0.25 * (1.0 + e);
        let differ = 0.25 * (1.0 - e);
        [agree, differ, differ, agree]
    }

    /// Samples the joint outcome of measuring both halves at `(θa, θb)`
    /// with a single RNG draw from [`CorrelatedBits`] at correlation
    /// `E(θa, θb)`.
    pub fn sample<R: Rng + ?Sized>(&self, theta_a: f64, theta_b: f64, rng: &mut R) -> (u8, u8) {
        let (a, b) = CorrelatedBits::new(self.correlation(theta_a, theta_b)).sample(rng);
        (u8::from(a), u8::from(b))
    }

    /// Builds the *oracle* state this kernel claims to sample: the
    /// Werner-`v` density matrix pushed through per-half dephasing
    /// channels with `p = (1 − d)/2`. Used by the equivalence tests.
    ///
    /// # Errors
    /// Propagates channel-construction errors (cannot occur for a
    /// validated `WernerPair`).
    pub fn oracle_density(&self) -> Result<DensityMatrix, SimError> {
        let mut rho = noise::werner(self.visibility)?;
        for (qubit, retain) in [(0, self.retain_a), (1, self.retain_b)] {
            if retain < 1.0 {
                let channel = KrausChannel::dephasing((1.0 - retain) / 2.0)?;
                rho = channel.apply(&rho, qubit)?;
            }
        }
        Ok(rho)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qmath::C64;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::f64::consts::{FRAC_PI_4, FRAC_PI_8, PI};

    /// ⟨φi φj| ρ |φi φj⟩ for real rotated bases — the oracle's cell
    /// probability, computed directly from the density matrix.
    fn oracle_cell(rho: &DensityMatrix, theta_a: f64, theta_b: f64, i: u8, j: u8) -> f64 {
        let basis = |theta: f64, out: u8| -> [f64; 2] {
            let (s, c) = theta.sin_cos();
            if out == 0 {
                [c, s]
            } else {
                [-s, c]
            }
        };
        let a = basis(theta_a, i);
        let b = basis(theta_b, j);
        // |φ⟩ = a ⊗ b, all-real.
        let v = [a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1]];
        let m = rho.matrix();
        let mut p = C64::ZERO;
        for (r, &vr) in v.iter().enumerate() {
            for (c, &vc) in v.iter().enumerate() {
                p += m.row(r)[c] * (vr * vc);
            }
        }
        p.re
    }

    #[test]
    fn probabilities_are_normalized_with_uniform_marginals() {
        let mut rng = StdRng::seed_from_u64(0xA11CE);
        for _ in 0..200 {
            let pair =
                WernerPair::with_dephasing(rng.gen::<f64>(), rng.gen::<f64>(), rng.gen::<f64>())
                    .unwrap();
            let (ta, tb) = (rng.gen::<f64>() * PI, rng.gen::<f64>() * PI);
            let p = pair.joint_probs(ta, tb);
            assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
            assert!((p[0] + p[1] - 0.5).abs() < 1e-12, "Alice marginal");
            assert!((p[0] + p[2] - 0.5).abs() < 1e-12, "Bob marginal");
            assert!(p.iter().all(|&x| (0.0..=1.0).contains(&x)));
        }
    }

    #[test]
    fn chsh_angle_cells_match_cos2_pi_8_to_1e12() {
        // Ideal pair at the optimal CHSH angles: P(agree) = cos²(π/8),
        // split evenly over (0,0) and (1,1).
        let pair = WernerPair::ideal();
        let expected = FRAC_PI_8.cos().powi(2) / 2.0;
        // (a0, b0) = (0, π/8) and (a1, b0) = (π/4, π/8) both have
        // |θa − θb| = π/8.
        for (ta, tb) in [(0.0, FRAC_PI_8), (FRAC_PI_4, FRAC_PI_8)] {
            let p = pair.joint_probs(ta, tb);
            assert!((p[0] - expected).abs() < 1e-12, "P(0,0) = {}", p[0]);
            assert!((p[3] - expected).abs() < 1e-12, "P(1,1) = {}", p[3]);
        }
        // The anti-aligned CHSH cell: (a1, b1) = (π/4, −π/8), Δ = 3π/8,
        // P(agree) = cos²(3π/8) = sin²(π/8).
        let p = pair.joint_probs(FRAC_PI_4, -FRAC_PI_8);
        let expected_anti = FRAC_PI_8.sin().powi(2) / 2.0;
        assert!((p[0] - expected_anti).abs() < 1e-12);
        assert!((p[3] - expected_anti).abs() < 1e-12);
    }

    #[test]
    fn kernel_probabilities_match_oracle_density_exactly() {
        // The closed form and the Kraus-evolved density matrix must agree
        // cell-by-cell to numerical precision, across visibilities,
        // retentions, and angles.
        let mut rng = StdRng::seed_from_u64(0x04AC1E);
        for case in 0..40 {
            let pair =
                WernerPair::with_dephasing(rng.gen::<f64>(), rng.gen::<f64>(), rng.gen::<f64>())
                    .unwrap();
            let (ta, tb) = (rng.gen::<f64>() * PI, rng.gen::<f64>() * PI);
            let kernel = pair.joint_probs(ta, tb);
            let rho = pair.oracle_density().unwrap();
            for (cell, &kp) in kernel.iter().enumerate() {
                let (i, j) = ((cell as u8) >> 1, (cell as u8) & 1);
                let op = oracle_cell(&rho, ta, tb, i, j);
                assert!(
                    (kp - op).abs() < 1e-12,
                    "case {case} cell ({i},{j}): kernel {kp} vs oracle {op}"
                );
            }
        }
    }

    #[test]
    fn sampling_matches_joint_probs() {
        let pair = WernerPair::with_dephasing(0.9, 0.8, 0.95).unwrap();
        let (ta, tb) = (0.3, 1.1);
        let probs = pair.joint_probs(ta, tb);
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts = [0u64; 4];
        let n = 50_000u64;
        for _ in 0..n {
            let (a, b) = pair.sample(ta, tb, &mut rng);
            counts[((a << 1) | b) as usize] += 1;
        }
        for cell in 0..4 {
            qmath::assert_prob_in!(counts[cell], n, probs[cell], conf = 0.999);
        }
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(WernerPair::new(1.5).is_err());
        assert!(WernerPair::new(-0.1).is_err());
        assert!(WernerPair::with_dephasing(0.5, 1.1, 1.0).is_err());
        assert!(WernerPair::with_dephasing(0.5, 1.0, -0.2).is_err());
    }
}
