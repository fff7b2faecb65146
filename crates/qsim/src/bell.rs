//! Constructors for the entangled states the paper uses.
//!
//! The paper (§2) considers "generalizations of the Bell pair": the four
//! Bell states for two-party games and GHZ states for multi-party ones
//! (§2 Related Work mentions GHZ-based consensus; §4.2 uses three-way
//! entanglement in the ECMP reduction).

use crate::gates;
use crate::state::StateVector;
use qmath::C64;

/// `|Φ⁺⟩ = (|00⟩ + |11⟩)/√2` — the Bell pair distributed by the Figure 1
/// quantum computer; the resource state for the CHSH strategy.
pub fn phi_plus() -> StateVector {
    let mut s = StateVector::zero(2);
    s.apply_gate1(0, &gates::h()).expect("in range");
    s.apply_controlled(0, 1, &gates::x()).expect("in range");
    s
}

/// `|Φ⁻⟩ = (|00⟩ − |11⟩)/√2`.
pub fn phi_minus() -> StateVector {
    let mut s = phi_plus();
    s.apply_gate1(0, &gates::z()).expect("in range");
    s
}

/// `|Ψ⁺⟩ = (|01⟩ + |10⟩)/√2`.
pub fn psi_plus() -> StateVector {
    let mut s = phi_plus();
    s.apply_gate1(1, &gates::x()).expect("in range");
    s
}

/// `|Ψ⁻⟩ = (|01⟩ − |10⟩)/√2` — the singlet state.
pub fn psi_minus() -> StateVector {
    let mut s = phi_minus();
    s.apply_gate1(1, &gates::x()).expect("in range");
    s
}

/// The n-party GHZ state `(|0…0⟩ + |1…1⟩)/√2`.
///
/// # Panics
/// Panics if `n == 0`.
pub fn ghz(n: usize) -> StateVector {
    assert!(n >= 1, "GHZ state needs at least one qubit");
    let mut s = StateVector::zero(n);
    s.apply_gate1(0, &gates::h()).expect("in range");
    for q in 1..n {
        s.apply_controlled(0, q, &gates::x()).expect("in range");
    }
    s
}

/// The n-party W state `(|10…0⟩ + |01…0⟩ + … + |0…01⟩)/√n`.
///
/// # Panics
/// Panics if `n == 0`.
pub fn w_state(n: usize) -> StateVector {
    assert!(n >= 1, "W state needs at least one qubit");
    let amp = C64::real(1.0 / (n as f64).sqrt());
    let mut amps = vec![C64::ZERO; 1 << n];
    for q in 0..n {
        amps[1 << (n - 1 - q)] = amp;
    }
    StateVector::from_amplitudes(amps).expect("normalized by construction")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn bell_states_are_orthonormal() {
        let states = [phi_plus(), phi_minus(), psi_plus(), psi_minus()];
        for (i, a) in states.iter().enumerate() {
            for (j, b) in states.iter().enumerate() {
                let ip = a.inner(b).unwrap().abs();
                let expected = if i == j { 1.0 } else { 0.0 };
                assert!((ip - expected).abs() < 1e-12, "({i},{j}): {ip}");
            }
        }
    }

    #[test]
    fn phi_plus_amplitudes() {
        let s = phi_plus();
        let f = std::f64::consts::FRAC_1_SQRT_2;
        assert!((s.amplitude(0b00).re - f).abs() < 1e-12);
        assert!((s.amplitude(0b11).re - f).abs() < 1e-12);
        assert!(s.amplitude(0b01).abs() < 1e-12);
    }

    #[test]
    fn ghz_reduces_to_bell_for_two() {
        assert!((ghz(2).fidelity(&phi_plus()).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ghz_measurements_all_agree() {
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..100 {
            let mut s = ghz(4);
            let first = s.measure_qubit(0, &mut rng).unwrap();
            for q in 1..4 {
                assert_eq!(s.measure_qubit(q, &mut rng).unwrap(), first);
            }
        }
    }

    #[test]
    fn w_state_single_excitation() {
        let mut rng = StdRng::seed_from_u64(23);
        for _ in 0..100 {
            let mut s = w_state(3);
            let idx = s.measure_all(&mut rng);
            assert_eq!((idx as u32).count_ones(), 1, "outcome {idx:#b}");
        }
    }

    #[test]
    fn w_state_marginal_uniform() {
        let s = w_state(5);
        for q in 0..5 {
            let p1 = s.prob_one(q).unwrap();
            assert!((p1 - 0.2).abs() < 1e-12);
        }
    }

    #[test]
    fn singlet_anticorrelated_in_any_common_basis() {
        // |Ψ⁻⟩ yields opposite outcomes in *every* common measurement
        // basis — the hallmark of the singlet.
        let mut rng = StdRng::seed_from_u64(31);
        for k in 0..8 {
            let theta = k as f64 * 0.3;
            for _ in 0..50 {
                let mut s = psi_minus();
                let a = crate::measure::measure_in_angle_basis(&mut s, 0, theta, &mut rng).unwrap();
                let b = crate::measure::measure_in_angle_basis(&mut s, 1, theta, &mut rng).unwrap();
                assert_ne!(a, b, "theta = {theta}");
            }
        }
    }
}
