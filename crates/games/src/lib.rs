//! # games — quantum non-local games
//!
//! The theory layer of the reproduction: two-player XOR games (the class
//! the paper maps load balancing onto, §4.1), with CHSH and its flipped
//! form as instances, the n-player Mermin game (GHZ at n = 3), and the
//! quantum-value solvers that replace the paper's use of the Toqito
//! Python package. Each game is written once.
//!
//! ## Structure
//!
//! - [`xor`]: two-player XOR games — the input distribution, the win
//!   predicate `a ⊕ b = f(x, y)`, the input draw, and the standard and
//!   flipped CHSH games ([`XorGame::chsh`], [`XorGame::flipped_chsh`],
//!   win iff `a⊕b = ¬(x∧y)`, the load-balancing mapping); classical value
//!   by exact brute force, quantum value by Tsirelson's vector
//!   characterization (alternating optimization + an independent
//!   projected-gradient SDP cross-check).
//! - [`game`]: strategies (deterministic tables, independent coins) and
//!   the Monte-Carlo referee that scores one on an [`XorGame`].
//! - [`chsh`]: the paper's optimal CHSH strategy on a Bell pair
//!   (θ_A ∈ {0, π/4}, θ_B ∈ {π/8, −π/8}), with Bob's bit negated for the
//!   flipped game.
//! - [`pairing`]: the load-balancing pairing rule (§4.1) — the candidate
//!   draw, the placement, and the classical and flipped-CHSH bit rules —
//!   written once for every caller.
//! - [`correlation`]: quantum correlation "boxes" — joint conditional
//!   distributions `p(a,b|x,y)` with uniform marginals realized by an
//!   entangled strategy; includes no-signaling verification and the
//!   CHSH/Tsirelson operator value.
//! - [`multiparty`]: the n-player Mermin parity game, the GHZ game at
//!   n = 3 (quantum win probability 1 vs classical `1/2 + 2^{−⌈n/2⌉}`),
//!   over bit-mask inputs and outputs: played on the closed-form
//!   noisy-GHZ kernel ([`multiparty::play_mermin_batch`]), with the
//!   statevector kept as the ideal-state reference.
//! - [`magic`]: the Mermin–Peres Magic Square game — two-player
//!   pseudo-telepathy on two Werner pairs, sampled via the Pauli twirl.
//! - [`graph`]: random edge-labeled affinity graphs and their conversion
//!   to XOR games (the Figure 3 experiment).
//! - [`cache`]: canonicalizing sharded value cache — sweeps over random
//!   graph games skip solves that are identical up to vertex relabeling
//!   and global sign ([`cache::solve_batch_threads`]).
//! - [`error`]: typed errors ([`GameError`]) for structurally infeasible
//!   requests (e.g. classical enumeration beyond 2^24 patterns).

pub mod cache;
pub mod chsh;
pub mod correlation;
pub mod error;
pub mod family;
pub mod game;
pub mod graph;
pub mod magic;
pub mod multiparty;
pub mod pairing;
pub mod xor;

pub use cache::{GameValues, ValueCache};
pub use correlation::CorrelationBox;
pub use error::GameError;
pub use game::PairStrategy;
pub use graph::AffinityGraph;
pub use xor::{QuantumSolution, SolverOpts, XorGame};

/// The classical optimum of the CHSH game.
pub const CHSH_CLASSICAL_VALUE: f64 = 0.75;

/// The quantum optimum of the CHSH game, `cos²(π/8) ≈ 0.8536`
/// (Tsirelson's bound).
pub fn chsh_quantum_value() -> f64 {
    (std::f64::consts::FRAC_PI_8).cos().powi(2)
}

/// The CHSH win probability of the paper's angles on a Werner pair of
/// visibility `v`: `1/2 + v·√2/4`, above the classical 0.75 iff
/// `v > 1/√2`.
pub fn chsh_werner_value(v: f64) -> f64 {
    0.5 + v * std::f64::consts::SQRT_2 / 4.0
}

#[cfg(test)]
mod tests {
    #[test]
    fn chsh_quantum_value_matches_half_plus_sqrt2_over_4() {
        // cos²(π/8) = 1/2 + √2/4: the Werner value at v = 1.
        let v = super::chsh_quantum_value();
        assert!((v - (0.5 + std::f64::consts::SQRT_2 / 4.0)).abs() < 1e-12);
        assert!((super::chsh_werner_value(1.0) - v).abs() < 1e-12);
    }
}
