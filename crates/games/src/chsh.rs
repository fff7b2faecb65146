//! The paper's optimal CHSH strategies.
//!
//! §2 of the paper: the referee sends uniformly random bits `x`, `y`;
//! the players answer with bits `a`, `b`, and win iff `a ⊕ b = x ∧ y`
//! ([`XorGame::chsh`]). The best classical strategy (always answer 0)
//! wins with probability 0.75; sharing a Bell pair and measuring in the
//! angles below wins with `cos²(π/8) ≈ 0.8536` — the Tsirelson optimum.
//!
//! For the load-balancing application (§4.1) the paper flips one party's
//! output so the pair plays `a ⊕ b = ¬(x ∧ y)` ([`XorGame::flipped_chsh`]):
//! co-locate (equal outputs) exactly when both tasks are type-C
//! (`x = y = 1`).
//!
//! [`XorGame::chsh`]: crate::XorGame::chsh
//! [`XorGame::flipped_chsh`]: crate::XorGame::flipped_chsh

use crate::game::PairStrategy;
use qsim::{Party, SharedPair};
use rand::Rng;

/// Alice's optimal measurement angles, indexed by her input bit:
/// `θ_A(0) = 0`, `θ_A(1) = π/4` (paper §2).
pub fn alice_angle(x: usize) -> f64 {
    match x {
        0 => 0.0,
        _ => std::f64::consts::FRAC_PI_4,
    }
}

/// Bob's optimal measurement angles, indexed by his input bit:
/// `θ_B(0) = π/8`, `θ_B(1) = −π/8` (paper §2).
pub fn bob_angle(y: usize) -> f64 {
    match y {
        0 => std::f64::consts::FRAC_PI_8,
        _ => -std::f64::consts::FRAC_PI_8,
    }
}

/// The optimal quantum CHSH strategy: one fresh Bell pair per round,
/// measured at the paper's angles. For the flipped game Bob negates his
/// output bit — a purely local post-processing.
///
/// `pair_source` supplies the entangled resource, letting callers inject
/// noisy (Werner) pairs to model hardware error (experiment E6).
pub struct QuantumChshStrategy<F>
where
    F: FnMut() -> SharedPair,
{
    pair_source: F,
    flip_bob: bool,
}

impl QuantumChshStrategy<fn() -> SharedPair> {
    /// Ideal strategy for the standard game: perfect Bell pairs.
    pub fn ideal() -> Self {
        QuantumChshStrategy {
            pair_source: SharedPair::ideal,
            flip_bob: false,
        }
    }

    /// Ideal strategy for the flipped (load-balancing) game.
    pub fn ideal_flipped() -> Self {
        QuantumChshStrategy {
            pair_source: SharedPair::ideal,
            flip_bob: true,
        }
    }
}

impl<F> QuantumChshStrategy<F>
where
    F: FnMut() -> SharedPair,
{
    /// Strategy for the standard game drawing pairs from an arbitrary
    /// source (e.g. Werner states with sub-unit visibility).
    pub fn with_source(pair_source: F) -> Self {
        QuantumChshStrategy {
            pair_source,
            flip_bob: false,
        }
    }
}

impl<F> PairStrategy for QuantumChshStrategy<F>
where
    F: FnMut() -> SharedPair,
{
    fn play<R: Rng + ?Sized>(&mut self, x: usize, y: usize, rng: &mut R) -> (bool, bool) {
        let mut pair = (self.pair_source)();
        // Each party measures its own qubit at an angle depending only on
        // its own input. Order is irrelevant (see qsim::pair tests).
        let a = pair
            .measure_angle(Party::A, alice_angle(x), rng)
            .expect("fresh pair, party A unmeasured");
        let b = pair
            .measure_angle(Party::B, bob_angle(y), rng)
            .expect("fresh pair, party B unmeasured");
        (a == 1, (b == 1) ^ self.flip_bob)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::game::{empirical_win_rate, DeterministicStrategy};
    use crate::XorGame;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn classical_optimum_is_three_quarters() {
        // Both answer 0 in the standard game; Bob answers 1 in the
        // flipped one.
        let mut rng = StdRng::seed_from_u64(1);
        for (game, b) in [(XorGame::chsh(), false), (XorGame::flipped_chsh(), true)] {
            let mut s = DeterministicStrategy {
                a_out: vec![false; 2],
                b_out: vec![b; 2],
            };
            let rate = empirical_win_rate(&game, &mut s, 40_000, &mut rng);
            assert!((rate - 0.75).abs() < 0.01, "b = {b}: {rate}");
        }
    }

    #[test]
    fn quantum_strategy_beats_classical_bound() {
        let mut rng = StdRng::seed_from_u64(2);
        let game = XorGame::chsh();
        let mut s = QuantumChshStrategy::ideal();
        let rate = empirical_win_rate(&game, &mut s, 60_000, &mut rng);
        let expect = crate::chsh_quantum_value();
        assert!((rate - expect).abs() < 0.01, "rate {rate} expect {expect}");
        assert!(rate > 0.8, "must clearly exceed the classical 0.75");
    }

    #[test]
    fn flipped_quantum_strategy_same_value() {
        let mut rng = StdRng::seed_from_u64(3);
        let game = XorGame::flipped_chsh();
        let mut s = QuantumChshStrategy::ideal_flipped();
        let rate = empirical_win_rate(&game, &mut s, 60_000, &mut rng);
        assert!(
            (rate - crate::chsh_quantum_value()).abs() < 0.01,
            "rate {rate}"
        );
    }

    #[test]
    fn quantum_outputs_are_marginally_uniform() {
        // §2: "each party still outputs 0 or 1 with equal probability" —
        // knowing Alice's IO reveals nothing about Bob's.
        let mut rng = StdRng::seed_from_u64(4);
        let mut s = QuantumChshStrategy::ideal();
        let trials = 40_000;
        let mut a_ones = 0u32;
        let mut b_ones = 0u32;
        for i in 0..trials {
            let (x, y) = ((i / 2) % 2, i % 2);
            let (a, b) = s.play(x, y, &mut rng);
            a_ones += u32::from(a);
            b_ones += u32::from(b);
        }
        let fa = a_ones as f64 / trials as f64;
        let fb = b_ones as f64 / trials as f64;
        assert!((fa - 0.5).abs() < 0.01, "Alice marginal {fa}");
        assert!((fb - 0.5).abs() < 0.01, "Bob marginal {fb}");
    }

    #[test]
    fn noisy_pairs_degrade_gracefully() {
        // Werner visibility 0.5 < 1/√2: quantum value drops below the
        // classical optimum (win prob = 1/2 + v·√2/4).
        let mut rng = StdRng::seed_from_u64(5);
        let game = XorGame::chsh();
        let v = 0.5;
        let mut s = QuantumChshStrategy::with_source(move || {
            SharedPair::werner(v).expect("valid visibility")
        });
        let rate = empirical_win_rate(&game, &mut s, 60_000, &mut rng);
        let expect = crate::chsh_werner_value(v);
        assert!((rate - expect).abs() < 0.01, "rate {rate} expect {expect}");
        assert!(rate < 0.75);
    }

    #[test]
    fn werner_threshold_is_the_crossover() {
        // Just above 1/√2 the quantum strategy still beats classical.
        let mut rng = StdRng::seed_from_u64(6);
        let game = XorGame::chsh();
        let v = 0.8; // > 1/√2 ≈ 0.707
        let mut s = QuantumChshStrategy::with_source(move || {
            SharedPair::werner(v).expect("valid visibility")
        });
        let rate = empirical_win_rate(&game, &mut s, 60_000, &mut rng);
        assert!(rate > 0.75, "rate {rate} should beat classical at v=0.8");
    }

    #[test]
    fn win_predicate_truth_table() {
        // Standard: win iff a ⊕ b = x ∧ y; flipped: iff a ⊕ b = ¬(x ∧ y).
        // Both draw their inputs uniformly from {0,1}².
        let (g, f) = (XorGame::chsh(), XorGame::flipped_chsh());
        for game in [&g, &f] {
            assert_eq!((game.n_a(), game.n_b()), (2, 2));
        }
        for x in 0..2 {
            for y in 0..2 {
                assert_eq!(g.bias_matrix()[(x, y)].abs(), 0.25);
                assert_eq!(f.bias_matrix()[(x, y)].abs(), 0.25);
                for (a, b) in [(false, false), (false, true), (true, false), (true, true)] {
                    let target = x == 1 && y == 1;
                    assert_eq!(g.wins(x, y, a, b), (a ^ b) == target, "{x}{y}{a}{b}");
                    assert_eq!(f.wins(x, y, a, b), (a ^ b) != target, "{x}{y}{a}{b}");
                }
            }
        }
    }

    #[test]
    fn angles_match_paper() {
        assert_eq!(alice_angle(0), 0.0);
        assert!((alice_angle(1) - std::f64::consts::FRAC_PI_4).abs() < 1e-15);
        assert!((bob_angle(0) - std::f64::consts::FRAC_PI_8).abs() < 1e-15);
        assert!((bob_angle(1) + std::f64::consts::FRAC_PI_8).abs() < 1e-15);
    }
}
