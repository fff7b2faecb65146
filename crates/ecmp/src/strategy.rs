//! ECMP path-selection strategies.
//!
//! The crucial constraint: a switch does *not* know which other switches
//! are active this round. Its choice may depend only on its own identity
//! and pre-shared resources (randomness or entanglement). Note this is
//! exactly why entanglement cannot help here (§4.2): there is no per-round
//! *input* to condition the measurement basis on, so the joint output
//! distribution is a fixed (round-independent) distribution — something
//! shared classical randomness can replicate.

use crate::model::EcmpScenario;
use qsim::measure::Basis1;
use qsim::{bell, SharedState, StateVector};
use rand::Rng;

/// A path-selection strategy. `choose_paths` receives the active set only
/// to index per-switch resources; implementations must not let one
/// switch's choice depend on *which* other switches are active.
pub trait EcmpStrategy {
    /// Chooses a path for each active switch (same order as `active`).
    fn choose_paths(
        &mut self,
        scenario: EcmpScenario,
        active: &[usize],
        rng: &mut dyn rand::RngCore,
    ) -> Vec<usize>;

    /// Name for report tables.
    fn name(&self) -> &'static str;
}

/// Baseline: each switch flips independent coins (per-packet ECMP
/// hashing).
#[derive(Debug, Clone, Copy, Default)]
pub struct IidRandom;

impl EcmpStrategy for IidRandom {
    fn choose_paths(
        &mut self,
        scenario: EcmpScenario,
        active: &[usize],
        rng: &mut dyn rand::RngCore,
    ) -> Vec<usize> {
        active
            .iter()
            .map(|_| rng.gen_range(0..scenario.n_paths))
            .collect()
    }

    fn name(&self) -> &'static str {
        "iid-random"
    }
}

/// The classical optimum for fixed assignments: a pre-shared balanced
/// permutation mapping switch → path (switch `σ(i)` uses path
/// `σ(i) mod M`). Re-randomized per round via a shared seed in real
/// systems; the distribution of collisions is identical either way.
#[derive(Debug, Clone)]
pub struct SharedPermutation {
    assignment: Vec<usize>,
}

impl SharedPermutation {
    /// Draws a balanced random assignment of `n_switches` to `n_paths`.
    pub fn new<R: Rng>(n_switches: usize, n_paths: usize, rng: &mut R) -> Self {
        let mut order: Vec<usize> = (0..n_switches).collect();
        use rand::seq::SliceRandom;
        order.shuffle(rng);
        let mut assignment = vec![0; n_switches];
        for (pos, &sw) in order.iter().enumerate() {
            assignment[sw] = pos % n_paths;
        }
        SharedPermutation { assignment }
    }
}

impl EcmpStrategy for SharedPermutation {
    fn choose_paths(
        &mut self,
        _scenario: EcmpScenario,
        active: &[usize],
        _rng: &mut dyn rand::RngCore,
    ) -> Vec<usize> {
        active.iter().map(|&sw| self.assignment[sw]).collect()
    }

    fn name(&self) -> &'static str {
        "shared-permutation"
    }
}

/// A quantum strategy for `M = 2` paths: all `N` switches share an
/// entangled state (one qubit each); an active switch measures its qubit
/// in its own fixed basis and uses the outcome as its path bit.
///
/// The measurement angle is fixed per switch — there is no input to vary
/// it by, which is the heart of the paper's impossibility argument.
#[derive(Debug, Clone)]
pub struct GlobalEntangled {
    /// The shared state's constructor kind.
    state: EntangledStateKind,
    /// Per-switch measurement angle (radians).
    angles: Vec<f64>,
}

/// Which N-party entangled state the strategy shares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntangledStateKind {
    /// The GHZ state `(|0…0⟩ + |1…1⟩)/√2`.
    Ghz,
    /// The W state (single excitation, symmetrized).
    W,
}

impl GlobalEntangled {
    /// Builds the strategy with per-switch measurement angles.
    ///
    /// # Panics
    /// Panics if `angles` is empty.
    pub fn new(state: EntangledStateKind, angles: Vec<f64>) -> Self {
        assert!(!angles.is_empty(), "need at least one switch angle");
        GlobalEntangled { state, angles }
    }

    fn fresh_state(&self) -> StateVector {
        let n = self.angles.len();
        match self.state {
            EntangledStateKind::Ghz => bell::ghz(n),
            EntangledStateKind::W => bell::w_state(n),
        }
    }
}

impl EcmpStrategy for GlobalEntangled {
    fn choose_paths(
        &mut self,
        scenario: EcmpScenario,
        active: &[usize],
        rng: &mut dyn rand::RngCore,
    ) -> Vec<usize> {
        assert_eq!(
            scenario.n_paths, 2,
            "binary measurement outcomes address two paths"
        );
        assert_eq!(
            self.angles.len(),
            scenario.n_switches,
            "one angle per switch"
        );
        // Fresh entangled state each round (a new pair from the stream).
        let mut shared = SharedState::from_pure(self.fresh_state());
        active
            .iter()
            .map(|&sw| {
                let theta = self.angles[sw];
                shared
                    .measure(sw, &Basis1::angle(theta), rng)
                    .expect("each switch measures its own qubit once") as usize
            })
            .collect()
    }

    fn name(&self) -> &'static str {
        match self.state {
            EntangledStateKind::Ghz => "ghz-entangled",
            EntangledStateKind::W => "w-entangled",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{run_rounds, EcmpScenario};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn ghz_common_basis_always_collides() {
        // All switches measuring GHZ at angle 0 get identical bits: the
        // *worst* possible ECMP strategy — perfect correlation is exactly
        // what you don't want here.
        let mut rng = StdRng::seed_from_u64(1);
        let mut s = GlobalEntangled::new(EntangledStateKind::Ghz, vec![0.0; 3]);
        let stats = run_rounds(EcmpScenario::minimal(), &mut s, 2_000, &mut rng);
        assert_eq!(stats.collision_probability, 1.0);
    }

    #[test]
    fn ghz_orthogonal_ish_angles_match_classical_not_beat_it() {
        // Angles (0, π/2, …): pairwise correlations E = cos(2Δθ)... for a
        // GHZ pair marginal the agreement is (1 + cosθ_i·cosθ_j)/2.
        // At (0, π/2): 1/2 — no better than a coin. Sweep a few combos and
        // confirm none beats the classical optimum of 1/3.
        let mut rng = StdRng::seed_from_u64(2);
        let classical_opt = 1.0 / 3.0;
        let grid = [
            [0.0, 2.094, 4.189],                                      // 120°-spread
            [0.0, std::f64::consts::FRAC_PI_2, std::f64::consts::PI], // 90°-spread
            [0.524, 1.571, 2.618],                                    // asymmetric
        ];
        for angles in grid {
            let mut s = GlobalEntangled::new(EntangledStateKind::Ghz, angles.to_vec());
            let stats = run_rounds(EcmpScenario::minimal(), &mut s, 30_000, &mut rng);
            assert!(
                stats.collision_probability >= classical_opt - 0.01,
                "angles {angles:?} beat the classical optimum: {}",
                stats.collision_probability
            );
        }
    }

    #[test]
    fn w_state_also_bounded_by_classical() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut s = GlobalEntangled::new(EntangledStateKind::W, vec![0.0, 2.094, 4.189]);
        let stats = run_rounds(EcmpScenario::minimal(), &mut s, 30_000, &mut rng);
        assert!(
            stats.collision_probability >= 1.0 / 3.0 - 0.01,
            "W state beat classical: {}",
            stats.collision_probability
        );
    }

    #[test]
    fn strategies_have_distinct_names() {
        let mut rng = StdRng::seed_from_u64(4);
        let names = [
            IidRandom.name(),
            SharedPermutation::new(3, 2, &mut rng).name(),
            GlobalEntangled::new(EntangledStateKind::Ghz, vec![0.0]).name(),
            GlobalEntangled::new(EntangledStateKind::W, vec![0.0]).name(),
        ];
        for i in 0..names.len() {
            for j in (i + 1)..names.len() {
                assert_ne!(names[i], names[j]);
            }
        }
    }
}
