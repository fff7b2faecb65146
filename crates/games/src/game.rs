//! Strategies for two-player games and the Monte-Carlo referee that
//! scores them.
//!
//! The referee scores a strategy on an [`XorGame`]: an input distribution
//! π(x, y) and the win predicate `a ⊕ b = f(x, y)`. A *strategy*
//! produces (a, b) from (x, y) without communication between the parties
//! after inputs arrive — the locality constraint is enforced by the
//! strategy implementations (quantum strategies only touch their own
//! half of a [`qsim::SharedPair`]; classical strategies fix all
//! randomness before seeing inputs).

use crate::XorGame;
use rand::Rng;

/// A (possibly stateful) joint strategy for one round of a two-player
/// game.
///
/// Implementations must respect locality: the bit `a` may depend only on
/// `x` (plus pre-shared resources) and `b` only on `y`. The trait cannot
/// express that restriction in types — implementations in this crate
/// uphold it by construction and are tested for no-signaling.
pub trait PairStrategy {
    /// Plays one round: consumes one unit of pre-shared resource (Bell
    /// pair, shared random tape, ...) and returns the two output bits.
    fn play<R: Rng + ?Sized>(&mut self, x: usize, y: usize, rng: &mut R) -> (bool, bool);
}

/// Runs `rounds` independent rounds of `game` under `strategy`, returning
/// the empirical win probability.
pub fn empirical_win_rate<S, R>(game: &XorGame, strategy: &mut S, rounds: usize, rng: &mut R) -> f64
where
    S: PairStrategy + ?Sized,
    R: Rng + ?Sized,
{
    assert!(rounds > 0, "need at least one round");
    let mut wins = 0usize;
    for _ in 0..rounds {
        let (x, y) = game.sample_inputs(rng);
        let (a, b) = strategy.play(x, y, rng);
        if game.wins(x, y, a, b) {
            wins += 1;
        }
    }
    wins as f64 / rounds as f64
}

/// A deterministic classical strategy: fixed response tables.
///
/// The optimal classical strategy for any XOR game can be taken
/// deterministic (shared randomness cannot beat the best deterministic
/// point by convexity), so this type doubles as the classical baseline in
/// experiments: both parties answering 0 wins standard CHSH on the three
/// input pairs where `x ∧ y = 0`, and `a = 0, b = 1` wins the flipped
/// game on the same three.
#[derive(Debug, Clone)]
pub struct DeterministicStrategy {
    /// Alice's output for each input.
    pub a_out: Vec<bool>,
    /// Bob's output for each input.
    pub b_out: Vec<bool>,
}

impl PairStrategy for DeterministicStrategy {
    fn play<R: Rng + ?Sized>(&mut self, x: usize, y: usize, _rng: &mut R) -> (bool, bool) {
        (self.a_out[x], self.b_out[y])
    }
}

/// An independent uniformly-random strategy (the "no coordination at all"
/// baseline: each party flips a private coin).
#[derive(Debug, Clone, Default)]
pub struct IndependentRandomStrategy;

impl PairStrategy for IndependentRandomStrategy {
    fn play<R: Rng + ?Sized>(&mut self, _x: usize, _y: usize, rng: &mut R) -> (bool, bool) {
        (rng.gen(), rng.gen())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qmath::RMatrix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A trivial game: uniform inputs on {0,1}², win iff a == b.
    fn agree_game() -> XorGame {
        XorGame::new(RMatrix::from_fn(2, 2, |_, _| 0.25), vec![vec![false; 2]; 2])
    }

    #[test]
    fn deterministic_strategy_wins_agree_game() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut s = DeterministicStrategy {
            a_out: vec![false, false],
            b_out: vec![false, false],
        };
        let rate = empirical_win_rate(&agree_game(), &mut s, 1000, &mut rng);
        assert_eq!(rate, 1.0);
    }

    #[test]
    fn independent_random_wins_half() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut s = IndependentRandomStrategy;
        let rate = empirical_win_rate(&agree_game(), &mut s, 50_000, &mut rng);
        assert!((rate - 0.5).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn sample_inputs_respects_distribution() {
        let prob = RMatrix::from_fn(2, 2, |x, y| match (x, y) {
            (0, 0) => 0.7,
            (1, 1) => 0.3,
            _ => 0.0,
        });
        let skewed = XorGame::new(prob, vec![vec![false; 2]; 2]);
        let mut rng = StdRng::seed_from_u64(3);
        let mut count00 = 0;
        let trials = 20_000;
        for _ in 0..trials {
            let (x, y) = skewed.sample_inputs(&mut rng);
            assert!((x == 0 && y == 0) || (x == 1 && y == 1));
            if x == 0 {
                count00 += 1;
            }
        }
        let f = count00 as f64 / trials as f64;
        assert!((f - 0.7).abs() < 0.02, "f {f}");
    }
}
