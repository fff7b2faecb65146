//! Entanglement swapping — extending entanglement beyond one fiber hop.
//!
//! §3 cites quantum repeaters \[62\] and metropolitan-scale heralded
//! entanglement \[63\]. The primitive underneath both is *swapping*: given a
//! pair shared between A and a midpoint M, and another between M and B, a
//! Bell-state measurement (BSM) at M — plus a 2-bit classical correction
//! sent to B — leaves A and B entangled even though their photons never
//! met. (The classical correction travels at light speed: swapping
//! extends *pre-shared* entanglement; it does not communicate faster than
//! light.)
//!
//! Noise composes multiplicatively: swapping two Werner pairs of
//! visibilities `v₁` and `v₂` yields a pair of visibility `v₁·v₂` —
//! verified by the tests below, and the reason long repeater chains need
//! purification.

use qmath::CMatrix;
use qsim::{gates, DensityMatrix, SimError};
use rand::Rng;
use std::fmt;

/// Swaps performed.
static SWAPS: obs::LazyCounter = obs::LazyCounter::new("qnet.swap.count");
/// End-to-end Werner visibility of swapped pairs, in basis points
/// (v × 10⁴, clamped to [0, 10⁴]).
static SWAP_VISIBILITY_BP: obs::LazyHist = obs::LazyHist::new("qnet.swap.visibility_bp");

/// The outcome of a swap: the end-to-end pair (A, B) plus the midpoint's
/// Bell-measurement outcome bits (already corrected for — reported for
/// bookkeeping/heralding).
#[derive(Debug, Clone)]
pub struct SwapOutcome {
    /// The resulting two-qubit state shared by the end parties.
    pub pair: DensityMatrix,
    /// The midpoint's first measurement bit (Z-type correction applied).
    pub m1: u8,
    /// The midpoint's second measurement bit (X-type correction applied).
    pub m2: u8,
}

/// Swaps entanglement: consumes a pair between A and midpoint (qubits
/// A, M₁) and a pair between midpoint and B (qubits M₂, B), performs a
/// BSM on (M₁, M₂), applies the heralded Pauli correction on B, and
/// returns the (A, B) pair.
///
/// # Errors
/// [`SimError::SizeMismatch`] unless both inputs are 2-qubit states.
pub fn entanglement_swap<R: Rng + ?Sized>(
    pair_am: &DensityMatrix,
    pair_mb: &DensityMatrix,
    rng: &mut R,
) -> Result<SwapOutcome, SimError> {
    if pair_am.n_qubits() != 2 || pair_mb.n_qubits() != 2 {
        return Err(SimError::SizeMismatch {
            op: "entanglement_swap",
            lhs: pair_am.n_qubits(),
            rhs: pair_mb.n_qubits(),
        });
    }
    // Joint register: qubit 0 = A, 1 = M₁, 2 = M₂, 3 = B.
    let mut joint = pair_am.tensor(pair_mb);

    // Bell-state measurement on (1, 2): CNOT(1→2), H(1), measure both.
    let cnot = embed_cnot_adjacent(4, 1);
    joint.apply_unitary(&cnot)?;
    joint.apply_gate1(1, &gates::h())?;
    let m1 = joint.measure_in_basis(1, &qsim::measure::Basis1::computational(), rng)?;
    let m2 = joint.measure_in_basis(2, &qsim::measure::Basis1::computational(), rng)?;

    // Heralded corrections on B (transmitted classically in a real
    // system; the end-to-end pair is unusable until they arrive).
    if m2 == 1 {
        joint.apply_gate1(3, &gates::x())?;
    }
    if m1 == 1 {
        joint.apply_gate1(3, &gates::z())?;
    }

    let pair = joint.partial_trace(&[0, 3])?;
    SWAPS.inc();
    if obs::enabled() {
        // The fidelity estimate is itself a small matrix contraction, so
        // it runs only while collection is on.
        if let Ok(f) = pair.fidelity_with_pure(&qsim::bell::phi_plus()) {
            let v = ((4.0 * f - 1.0) / 3.0).clamp(0.0, 1.0);
            SWAP_VISIBILITY_BP.record((v * 1e4).round() as u64);
        }
    }
    Ok(SwapOutcome { pair, m1, m2 })
}

/// Builds the full-register CNOT with control `q` and target `q+1`.
fn embed_cnot_adjacent(n_qubits: usize, q: usize) -> CMatrix {
    debug_assert!(q + 1 < n_qubits);
    let g = gates::cnot();
    let mut u = CMatrix::zeros(4, 4);
    for r in 0..4 {
        for c in 0..4 {
            u[(r, c)] = g[r][c];
        }
    }
    let left = CMatrix::identity(1 << q);
    let right = CMatrix::identity(1 << (n_qubits - q - 2));
    left.kron(&u).kron(&right)
}

/// Swap-layer input errors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SwapError {
    /// A visibility outside `[0, 1]` (NaN included).
    BadVisibility {
        /// The offending value.
        value: f64,
    },
    /// A probability outside `[0, 1]` (NaN included).
    BadProbability {
        /// The offending value.
        value: f64,
    },
}

impl fmt::Display for SwapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SwapError::BadVisibility { value } => {
                write!(f, "visibility {value} outside [0, 1]")
            }
            SwapError::BadProbability { value } => {
                write!(f, "probability {value} outside [0, 1]")
            }
        }
    }
}

impl std::error::Error for SwapError {}

/// The number of swap hops a chain can tolerate before the end-to-end
/// visibility `v₀^(hops+1)` drops below the CHSH threshold `1/√2`.
///
/// Closed form: the largest `h` with `v₀^(h+1) > 1/√2`, computed from
/// logarithms and then corrected with exact powers — the historical
/// repeated-multiplication loop needed `h` iterations, which for
/// visibilities within a few ULP of 1 (e.g. `1 − 1e−15`) meant ~10¹⁴
/// iterations: an effective hang.
///
/// # Errors
/// [`SwapError::BadVisibility`] when `per_link_visibility ∉ [0, 1]`
/// (NaN included) — the typed replacement for the old panicking assert.
pub fn max_swap_hops(per_link_visibility: f64) -> Result<usize, SwapError> {
    if !(0.0..=1.0).contains(&per_link_visibility) {
        return Err(SwapError::BadVisibility {
            value: per_link_visibility,
        });
    }
    if per_link_visibility >= 1.0 {
        return Ok(usize::MAX);
    }
    if per_link_visibility <= 0.0 {
        return Ok(0);
    }
    let threshold = qsim::noise::WERNER_CHSH_THRESHOLD;
    // v^(h+1) > t  ⟺  h + 1 < ln t / ln v  (both logs negative).
    let mut hops = (threshold.ln() / per_link_visibility.ln() - 1.0)
        .floor()
        .max(0.0) as usize;
    // The log estimate can be off by one either way; settle it with exact
    // powers where the exponent fits (beyond ~10⁹ hops a ±1 correction is
    // physically meaningless anyway).
    if hops < (i32::MAX - 2) as usize {
        while hops > 0 && per_link_visibility.powi(hops as i32 + 1) <= threshold {
            hops -= 1;
        }
        while per_link_visibility.powi(hops as i32 + 2) > threshold {
            hops += 1;
        }
    }
    Ok(hops)
}

/// Panicking convenience wrapper around [`max_swap_hops`], kept for call
/// sites that validate their visibility up front.
///
/// # Panics
/// Panics on a visibility outside `[0, 1]` (NaN included).
pub fn max_useful_hops(per_link_visibility: f64) -> usize {
    max_swap_hops(per_link_visibility).expect("bad visibility")
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsim::{bell, tomography};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Swaps two Werner pairs of the given visibilities and returns the
    /// end-to-end state.
    fn swap_werner_pairs(v1: f64, v2: f64, rng: &mut StdRng) -> Result<DensityMatrix, SimError> {
        let p1 = qsim::noise::werner(v1)?;
        let p2 = qsim::noise::werner(v2)?;
        Ok(entanglement_swap(&p1, &p2, rng)?.pair)
    }

    #[test]
    fn swapping_perfect_pairs_yields_perfect_pair() {
        let mut rng = StdRng::seed_from_u64(1);
        let ideal = DensityMatrix::from_pure(&bell::phi_plus());
        for _ in 0..20 {
            let out = entanglement_swap(&ideal, &ideal, &mut rng).unwrap();
            let f = out.pair.fidelity_with_pure(&bell::phi_plus()).unwrap();
            assert!(
                (f - 1.0).abs() < 1e-9,
                "swap fidelity {f} (m1={}, m2={})",
                out.m1,
                out.m2
            );
        }
    }

    #[test]
    fn all_four_heralds_occur() {
        let mut rng = StdRng::seed_from_u64(2);
        let ideal = DensityMatrix::from_pure(&bell::phi_plus());
        let mut seen = [false; 4];
        for _ in 0..200 {
            let out = entanglement_swap(&ideal, &ideal, &mut rng).unwrap();
            seen[(out.m1 * 2 + out.m2) as usize] = true;
        }
        assert_eq!(seen, [true; 4], "all BSM outcomes should occur");
    }

    #[test]
    fn werner_visibilities_multiply() {
        let mut rng = StdRng::seed_from_u64(3);
        for (v1, v2) in [(1.0, 0.8), (0.9, 0.9), (0.7, 0.6)] {
            let pair = swap_werner_pairs(v1, v2, &mut rng).unwrap();
            let v_out = tomography::werner_visibility(&pair).unwrap();
            assert!(
                (v_out - v1 * v2).abs() < 1e-9,
                "v1={v1} v2={v2}: got {v_out}, expected {}",
                v1 * v2
            );
        }
    }

    #[test]
    fn swapped_pair_is_valid_state() {
        let mut rng = StdRng::seed_from_u64(4);
        let pair = swap_werner_pairs(0.85, 0.85, &mut rng).unwrap();
        assert!(pair.is_valid(1e-8));
        assert_eq!(pair.n_qubits(), 2);
    }

    #[test]
    fn hop_budget() {
        // v = 0.95 per link: v^(h+1) > 0.7071 → h+1 < ln(.7071)/ln(.95)
        // ≈ 6.76 → 5 swaps (6 links).
        assert_eq!(max_useful_hops(0.95), 5);
        assert_eq!(max_useful_hops(1.0), usize::MAX);
        assert_eq!(max_useful_hops(0.5), 0);
    }

    #[test]
    fn hop_budget_boundary_inputs() {
        // Exact domain edges return, never panic.
        assert_eq!(max_swap_hops(0.0), Ok(0));
        assert_eq!(max_swap_hops(1.0), Ok(usize::MAX));
        // At exactly the CHSH threshold even the first swap kills the
        // advantage: v² < v = 1/√2.
        assert_eq!(max_swap_hops(qsim::noise::WERNER_CHSH_THRESHOLD), Ok(0));
        // Just above the threshold: v² still below it → 0 swaps.
        assert_eq!(max_swap_hops(0.71), Ok(0));
        // A visibility a few ULP under 1 must return promptly (the old
        // repeated-multiplication loop needed ~10¹⁴ iterations here).
        let near_one = 1.0 - 1e-15;
        let hops = max_swap_hops(near_one).unwrap();
        assert!(hops > 100_000_000_000_000, "{hops}");
    }

    #[test]
    fn hop_budget_matches_multiplicative_oracle() {
        // The closed form must agree with the literal loop wherever the
        // loop is feasible.
        for v in [0.72, 0.75, 0.8, 0.85, 0.9, 0.95, 0.99, 0.999] {
            let threshold = qsim::noise::WERNER_CHSH_THRESHOLD;
            let mut acc = v;
            let mut oracle = 0usize;
            while acc * v > threshold {
                acc *= v;
                oracle += 1;
            }
            assert_eq!(max_swap_hops(v), Ok(oracle), "v = {v}");
        }
    }

    #[test]
    fn hop_budget_rejects_invalid_visibility() {
        for bad in [-0.1, 1.1, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = max_swap_hops(bad).unwrap_err();
            assert!(
                matches!(err, SwapError::BadVisibility { .. }),
                "{bad}: {err}"
            );
        }
    }

    #[test]
    fn wrong_sizes_rejected() {
        let mut rng = StdRng::seed_from_u64(5);
        let one = DensityMatrix::maximally_mixed(1);
        let two = DensityMatrix::maximally_mixed(2);
        assert!(entanglement_swap(&one, &two, &mut rng).is_err());
    }
}
