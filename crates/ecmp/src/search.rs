//! Empirical support for the paper's conjecture: no quantum advantage for
//! ECMP at all.
//!
//! For the `K = 2` active switches on `M = 2` paths family, the classical
//! bound follows from a *pigeonhole argument that binds any joint output
//! distribution* — quantum, super-quantum, anything:
//!
//! Let the N switches' (hypothetical) outputs be bits `b₁…b_N` drawn from
//! an arbitrary joint distribution (entanglement included: with no inputs
//! to condition on, the strategy is exactly one fixed joint distribution).
//! With `c₀` zeros and `c₁ = N − c₀` ones, the number of *agreeing pairs*
//! is `C(c₀,2) + C(c₁,2) ≥ m(N)`, minimized by the balanced split. The
//! collision probability over a uniformly random active pair is therefore
//! at least `m(N) / C(N,2)` — and a balanced deterministic assignment
//! achieves it. Quantum strategies can only match, never beat, classical.
//!
//! [`exhaustive_quantum_search`] additionally searches measurement-angle
//! space on GHZ / W / random tripartite states and confirms the bound
//! numerically.

use crate::model::{run_rounds, EcmpScenario};
use crate::strategy::{EntangledStateKind, GlobalEntangled};
use rand::Rng;

/// Minimum number of agreeing pairs among `n` binary outputs
/// (pigeonhole: minimized by the most balanced split).
fn min_agreeing_pairs(n: usize) -> usize {
    let c0 = n / 2;
    let c1 = n - c0;
    c0 * c0.saturating_sub(1) / 2 + c1 * c1.saturating_sub(1) / 2
}

/// The information-theoretic lower bound on collision probability for
/// `K = 2` active of `n` switches on 2 paths, valid for **any** joint
/// output distribution (quantum or classical).
pub fn pigeonhole_lower_bound(n_switches: usize) -> f64 {
    assert!(n_switches >= 2, "need two switches for a pair");
    let pairs = n_switches * (n_switches - 1) / 2;
    min_agreeing_pairs(n_switches) as f64 / pairs as f64
}

/// The best classical collision probability for 2 active of `n` on 2
/// paths — a balanced deterministic assignment meets the pigeonhole
/// bound, so the two coincide.
pub fn classical_optimum_two_active(n_switches: usize) -> f64 {
    pigeonhole_lower_bound(n_switches)
}

/// Result of the quantum strategy search.
#[derive(Debug, Clone)]
pub struct SearchResult {
    /// Best (lowest) collision probability found over all searched
    /// quantum strategies.
    pub best_quantum: f64,
    /// The classical optimum for the same scenario.
    pub classical: f64,
    /// Number of strategies evaluated.
    pub evaluated: usize,
}

/// Searches GHZ- and W-state strategies with random and structured
/// measurement angles for the minimal (3, 2, 2) scenario, returning the
/// best quantum collision probability found. Monte-Carlo evaluated with
/// `rounds` rounds per candidate.
///
/// Candidates are evaluated on the shared worker pool; each gets its own
/// seed stream derived from a master seed drawn once from `rng`, so the
/// result depends only on the caller's RNG state, not the worker count.
pub fn exhaustive_quantum_search<R: Rng>(
    candidates: usize,
    rounds: usize,
    rng: &mut R,
) -> SearchResult {
    let scenario = EcmpScenario::minimal();
    let classical = classical_optimum_two_active(3);

    // Structured grid: evenly spread angle triples (the intuitive
    // "3-coloring" attempts), then random candidates.
    let tau = std::f64::consts::TAU;
    let mut pool: Vec<(Vec<f64>, EntangledStateKind)> = Vec::new();
    for i in 0..4 {
        for j in 0..4 {
            for k in 0..4 {
                let angles = vec![
                    i as f64 * tau / 8.0,
                    j as f64 * tau / 8.0,
                    k as f64 * tau / 8.0,
                ];
                for kind in [EntangledStateKind::Ghz, EntangledStateKind::W] {
                    pool.push((angles.clone(), kind));
                }
            }
        }
    }
    for _ in 0..candidates {
        let angles: Vec<f64> = (0..3).map(|_| rng.gen::<f64>() * tau).collect();
        let kind = if rng.gen() {
            EntangledStateKind::Ghz
        } else {
            EntangledStateKind::W
        };
        pool.push((angles, kind));
    }

    SearchResult {
        best_quantum: best_of_pool(scenario, &pool, rounds, rng),
        classical,
        evaluated: pool.len(),
    }
}

/// Generalized search: 2 active of `n` switches on 2 paths, GHZ/W states
/// with random per-switch angles. Returns the best (honestly
/// re-evaluated) quantum collision probability found and the classical
/// optimum.
pub fn search_two_of_n<R: Rng>(
    n_switches: usize,
    candidates: usize,
    rounds: usize,
    rng: &mut R,
) -> SearchResult {
    let scenario = EcmpScenario::new(n_switches, 2, 2);
    let classical = classical_optimum_two_active(n_switches);
    let tau = std::f64::consts::TAU;
    let pool: Vec<(Vec<f64>, EntangledStateKind)> = (0..candidates)
        .map(|_| {
            let angles: Vec<f64> = (0..n_switches).map(|_| rng.gen::<f64>() * tau).collect();
            let kind = if rng.gen() {
                EntangledStateKind::Ghz
            } else {
                EntangledStateKind::W
            };
            (angles, kind)
        })
        .collect();

    SearchResult {
        best_quantum: best_of_pool(scenario, &pool, rounds, rng),
        classical,
        evaluated: pool.len(),
    }
}

/// Evaluates every candidate with `rounds` rounds, candidate `i` on stream
/// `i` of a master seed drawn once from `rng`, and returns the lowest
/// scorer's collision probability re-estimated with 20× the rounds on
/// stream `pool.len()`.
///
/// The minimum over noisy estimates is biased low (selection on noise),
/// so the winner's first estimate is not the one reported.
fn best_of_pool<R: Rng>(
    scenario: EcmpScenario,
    pool: &[(Vec<f64>, EntangledStateKind)],
    rounds: usize,
    rng: &mut R,
) -> f64 {
    let master = rng.next_u64();
    let probs = runtime::par_sweep(master, pool, |_, (angles, kind), rng| {
        let mut s = GlobalEntangled::new(*kind, angles.clone());
        run_rounds(scenario, &mut s, rounds, rng).collision_probability
    });
    let winner = probs
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite probabilities"))
        .map(|(i, _)| i)
        .expect("non-empty candidate pool");
    let (angles, kind) = &pool[winner];
    let mut s = GlobalEntangled::new(*kind, angles.clone());
    let mut rng = runtime::stream_rng(master, pool.len() as u64);
    run_rounds(scenario, &mut s, rounds * 20, &mut rng).collision_probability
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn pigeonhole_values() {
        // n = 3: balanced split (1,2) → 0 + 1 = 1 agreeing pair of 3.
        assert!((pigeonhole_lower_bound(3) - 1.0 / 3.0).abs() < 1e-12);
        // n = 4: (2,2) → 1 + 1 = 2 of 6.
        assert!((pigeonhole_lower_bound(4) - 1.0 / 3.0).abs() < 1e-12);
        // n = 5: (2,3) → 1 + 3 = 4 of 10.
        assert!((pigeonhole_lower_bound(5) - 0.4).abs() < 1e-12);
        // n = 2: (1,1) → 0 agreeing pairs: collision avoidable entirely.
        assert_eq!(pigeonhole_lower_bound(2), 0.0);
    }

    #[test]
    fn quantum_search_never_beats_classical() {
        // The paper's conjecture, checked over 128+ grid and 30 random
        // strategies: no quantum strategy undercuts the classical optimum
        // (up to Monte-Carlo noise).
        let mut rng = StdRng::seed_from_u64(1);
        let result = exhaustive_quantum_search(30, 4_000, &mut rng);
        assert!(result.evaluated > 128);
        assert!(
            result.best_quantum >= result.classical - 0.02,
            "quantum {} undercut classical {}",
            result.best_quantum,
            result.classical
        );
    }

    #[test]
    fn two_of_four_search_never_beats_classical() {
        // The larger instance of the conjecture: 4 switches sharing
        // 4-party entanglement, 2 active. Classical optimum (= pigeonhole
        // floor) is 1/3 again.
        let mut rng = StdRng::seed_from_u64(7);
        let result = search_two_of_n(4, 25, 3_000, &mut rng);
        assert!((result.classical - 1.0 / 3.0).abs() < 1e-12);
        assert!(
            result.best_quantum >= result.classical - 0.02,
            "quantum {} undercut classical {}",
            result.best_quantum,
            result.classical
        );
    }

    #[test]
    fn two_of_four_search_result_is_pinned() {
        // No artifact covers `search_two_of_n`'s draws, so its result is
        // pinned bit for bit: the candidate draw, the master seed, the
        // per-candidate streams and the 20× re-evaluation of the winner.
        let mut rng = StdRng::seed_from_u64(7);
        let result = search_two_of_n(4, 25, 3_000, &mut rng);
        assert_eq!(result.evaluated, 25);
        assert_eq!(
            result.best_quantum.to_bits(),
            0x3fd9_d14e_3bcd_35a8,
            "best_quantum {} drifted",
            result.best_quantum
        );
    }

    #[test]
    fn some_quantum_strategy_matches_classical() {
        // The bound is attainable: the best quantum candidate should get
        // close to 1/3 (e.g. GHZ with well-spread angles approximates the
        // balanced assignment mixture).
        let mut rng = StdRng::seed_from_u64(2);
        let result = exhaustive_quantum_search(50, 4_000, &mut rng);
        assert!(
            result.best_quantum < result.classical + 0.1,
            "best quantum {} far above classical {}",
            result.best_quantum,
            result.classical
        );
    }
}
