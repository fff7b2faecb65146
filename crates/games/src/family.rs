//! Parametrized XOR-game families with known closed-form values.
//!
//! These serve two purposes: (1) ground-truth validation of the solvers
//! in [`crate::xor`] against published analytic values, and (2) a library
//! of coordination patterns beyond CHSH for systems designers (the paper
//! §4.1: "future research should aim to identify additional classes of
//! games").
//!
//! Families:
//!
//! - [`odd_cycle`] — the CHTW odd-cycle game on `C_n` (n odd): parties
//!   receive adjacent-or-equal vertices of an n-cycle and must output
//!   equal bits iff the vertices are equal. Classical value
//!   `(2n−1)/(2n)`; quantum value `cos²(π/4n)` (Cleve-Høyer-Toner-Watrous
//!   2004, the paper's ref \[18\]).
//! - [`biased_chsh`] — CHSH with input distribution skewed toward
//!   `x∧y = 0`: π(1,1) = p, the rest uniform. The quantum advantage
//!   shrinks as the game gets easier classically and vanishes entirely
//!   once one deterministic strategy satisfies almost all weight
//!   (Lawson-Linden-Popescu, the paper's ref \[38\]).
//! - [`distributed_coloring`] — the affinity-graph game of Figure 3,
//!   re-exported here for completeness of the family menu.

use crate::graph::AffinityGraph;
use crate::xor::XorGame;
use qmath::RMatrix;

/// The odd-cycle XOR game on `C_n`.
///
/// Inputs: vertices `x, y` with `y ∈ {x, x+1 mod n}`, uniform over the
/// `2n` such pairs. Win iff `a ⊕ b = [x ≠ y]` (equal bits on equal
/// vertices, different bits across each edge). For odd `n` the cycle is
/// frustrated: one of the `2n` constraints must break classically.
///
/// # Panics
/// Panics if `n` is even or `< 3` (even cycles are unfrustrated and
/// trivially winnable).
pub fn odd_cycle(n: usize) -> XorGame {
    assert!(n >= 3 && n % 2 == 1, "odd_cycle needs odd n ≥ 3, got {n}");
    let mut prob = RMatrix::zeros(n, n);
    let mut target = vec![vec![false; n]; n];
    let w = 1.0 / (2 * n) as f64;
    for x in 0..n {
        prob[(x, x)] = w;
        let y = (x + 1) % n;
        prob[(x, y)] = w;
        target[x][y] = true;
    }
    XorGame::new(prob, target)
}

/// The exact classical value of [`odd_cycle`]: `(2n−1)/(2n)`.
pub fn odd_cycle_classical_value(n: usize) -> f64 {
    (2 * n - 1) as f64 / (2 * n) as f64
}

/// The exact quantum value of [`odd_cycle`]: `cos²(π/4n)`.
pub fn odd_cycle_quantum_value(n: usize) -> f64 {
    (std::f64::consts::PI / (4 * n) as f64).cos().powi(2)
}

/// CHSH with biased inputs: `π(1,1) = p11`, the other three input pairs
/// share `1 − p11` uniformly. Win iff `a ⊕ b = x ∧ y`.
///
/// # Panics
/// Panics if `p11 ∉ [0, 1]`.
pub fn biased_chsh(p11: f64) -> XorGame {
    assert!((0.0..=1.0).contains(&p11), "bad probability {p11}");
    let rest = (1.0 - p11) / 3.0;
    let prob = RMatrix::from_fn(2, 2, |x, y| if x == 1 && y == 1 { p11 } else { rest });
    let target = vec![vec![false, false], vec![false, true]];
    XorGame::new(prob, target)
}

/// The exact classical value of [`biased_chsh`]: the best deterministic
/// strategy either satisfies the three `x∧y = 0` clauses (value `1 − p11`)
/// or sacrifices one of them to also win `(1,1)` (value `p11 + 2(1−p11)/3`);
/// take the max.
pub fn biased_chsh_classical_value(p11: f64) -> f64 {
    let all_zero = 1.0 - p11;
    let sacrifice = p11 + 2.0 * (1.0 - p11) / 3.0;
    all_zero.max(sacrifice)
}

/// The affinity-graph (distributed 2-coloring) game of Figure 3.
pub fn distributed_coloring(graph: &AffinityGraph, include_diagonal: bool) -> XorGame {
    graph.to_xor_game(include_diagonal)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn odd_cycle_classical_matches_closed_form() {
        for n in [3usize, 5, 7, 9] {
            let game = odd_cycle(n);
            let expect = odd_cycle_classical_value(n);
            assert!(
                (game.classical_value().unwrap() - expect).abs() < 1e-12,
                "n = {n}: {} vs {expect}",
                game.classical_value().unwrap()
            );
        }
    }

    #[test]
    fn odd_cycle_quantum_matches_closed_form() {
        let mut rng = StdRng::seed_from_u64(1);
        for n in [3usize, 5, 7] {
            let game = odd_cycle(n);
            let got = game.quantum_solution(16, &mut rng).value;
            let expect = odd_cycle_quantum_value(n);
            assert!(
                (got - expect).abs() < 1e-4,
                "n = {n}: solver {got} vs closed form {expect}"
            );
        }
    }

    #[test]
    fn warm_start_hits_odd_cycle_closed_form_tightly() {
        // The spectral warm start plus convergence exit must reach the
        // closed-form quantum value cos²(π/4n) to 1e-6 — no random
        // restarts needed (restarts = 1 consumes no RNG draws).
        use crate::xor::SolverOpts;
        let mut rng = StdRng::seed_from_u64(7);
        let opts = SolverOpts {
            restarts: 1,
            ..SolverOpts::default()
        };
        for n in [3usize, 5, 7, 9, 11] {
            let game = odd_cycle(n);
            let got = game.quantum_solution_with(&opts, &mut rng).value;
            let expect = odd_cycle_quantum_value(n);
            assert!(
                (got - expect).abs() < 1e-6,
                "n = {n}: warm-started solver {got} vs closed form {expect}"
            );
        }
    }

    #[test]
    fn odd_cycle_advantage_shrinks_with_n() {
        // The per-game advantage cos²(π/4n) − (2n−1)/2n shrinks as n
        // grows — both approach 1.
        let gap3 = odd_cycle_quantum_value(3) - odd_cycle_classical_value(3);
        let gap7 = odd_cycle_quantum_value(7) - odd_cycle_classical_value(7);
        assert!(gap3 > gap7);
        assert!(gap7 > 0.0);
    }

    #[test]
    #[should_panic(expected = "odd_cycle needs odd n")]
    fn even_cycle_rejected() {
        odd_cycle(4);
    }

    #[test]
    fn biased_chsh_classical_matches_closed_form() {
        for p11 in [0.0, 0.1, 0.25, 0.4, 0.6, 0.9, 1.0] {
            let game = biased_chsh(p11);
            let expect = biased_chsh_classical_value(p11);
            assert!(
                (game.classical_value().unwrap() - expect).abs() < 1e-12,
                "p11 = {p11}: {} vs {expect}",
                game.classical_value().unwrap()
            );
        }
    }

    #[test]
    fn biased_chsh_uniform_recovers_standard() {
        let game = biased_chsh(0.25);
        assert!((game.classical_value().unwrap() - 0.75).abs() < 1e-12);
        let mut rng = StdRng::seed_from_u64(2);
        assert!((game.quantum_value(&mut rng) - crate::chsh_quantum_value()).abs() < 1e-5);
    }

    #[test]
    fn biased_chsh_advantage_vanishes_at_extremes() {
        let mut rng = StdRng::seed_from_u64(3);
        // p11 = 0: the (1,1) clause has no weight; "always equal" wins
        // everything. p11 = 1: "always different" wins everything.
        for p11 in [0.0, 1.0] {
            let game = biased_chsh(p11);
            assert!((game.classical_value().unwrap() - 1.0).abs() < 1e-12);
            assert!(
                !game.has_quantum_advantage(1e-4, &mut rng).unwrap(),
                "p11 = {p11}"
            );
        }
        // Mid-bias retains an advantage.
        let game = biased_chsh(0.25);
        assert!(game.has_quantum_advantage(1e-3, &mut rng).unwrap());
    }

    #[test]
    fn biased_chsh_advantage_is_maximal_at_uniform() {
        let mut rng = StdRng::seed_from_u64(4);
        let gap = |p11: f64, rng: &mut StdRng| {
            let game = biased_chsh(p11);
            game.quantum_solution(12, rng).value - game.classical_value().unwrap()
        };
        let uniform = gap(0.25, &mut rng);
        let skew = gap(0.6, &mut rng);
        assert!(
            uniform > skew,
            "uniform gap {uniform} should exceed skewed {skew}"
        );
    }

    #[test]
    fn distributed_coloring_roundtrips() {
        let g = AffinityGraph::from_edges(3, &[(0, 1, true)]);
        let game = distributed_coloring(&g, true);
        assert_eq!(game.n_a(), 3);
        assert!(game.classical_value().unwrap() < 1.0);
    }
}
