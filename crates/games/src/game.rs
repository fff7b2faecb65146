//! The two-player non-local game framework.
//!
//! A game is defined by its input alphabets, an input distribution π(x,y),
//! and a win predicate V(a,b|x,y). A *strategy* produces (a, b) from
//! (x, y) without communication between the parties after inputs arrive —
//! the locality constraint is enforced by the strategy implementations
//! (quantum strategies only touch their own half of a
//! [`qsim::SharedPair`]; classical strategies fix all randomness before
//! seeing inputs).

use qmath::RMatrix;
use rand::Rng;

/// A two-player game with binary outputs.
pub trait TwoPlayerGame {
    /// Size of Alice's input alphabet.
    fn n_inputs_a(&self) -> usize;
    /// Size of Bob's input alphabet.
    fn n_inputs_b(&self) -> usize;
    /// Probability π(x, y) that the referee sends inputs `(x, y)`.
    fn input_probability(&self, x: usize, y: usize) -> f64;
    /// The win predicate `V(a, b | x, y)`.
    fn wins(&self, x: usize, y: usize, a: bool, b: bool) -> bool;

    /// Samples an input pair from π.
    fn sample_inputs<R: Rng + ?Sized>(&self, rng: &mut R) -> (usize, usize) {
        let r: f64 = rng.gen();
        let mut acc = 0.0;
        for x in 0..self.n_inputs_a() {
            for y in 0..self.n_inputs_b() {
                acc += self.input_probability(x, y);
                if r < acc {
                    return (x, y);
                }
            }
        }
        (self.n_inputs_a() - 1, self.n_inputs_b() - 1)
    }

    /// The input distribution as a matrix (for solvers).
    fn input_matrix(&self) -> RMatrix {
        RMatrix::from_fn(self.n_inputs_a(), self.n_inputs_b(), |x, y| {
            self.input_probability(x, y)
        })
    }
}

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

    /// Human-readable name for reports.
    fn name(&self) -> &'static str {
        "unnamed"
    }
}

/// Runs `rounds` independent rounds of `game` under `strategy`, returning
/// the empirical win probability.
pub fn empirical_win_rate<G, S, R>(game: &G, strategy: &mut S, rounds: usize, rng: &mut R) -> f64
where
    G: TwoPlayerGame,
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
/// experiments.
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

    fn name(&self) -> &'static str {
        "deterministic"
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

    fn name(&self) -> &'static str {
        "independent-random"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A trivial game: uniform inputs on {0,1}², win iff a == b.
    struct AgreeGame;
    impl TwoPlayerGame for AgreeGame {
        fn n_inputs_a(&self) -> usize {
            2
        }
        fn n_inputs_b(&self) -> usize {
            2
        }
        fn input_probability(&self, _x: usize, _y: usize) -> f64 {
            0.25
        }
        fn wins(&self, _x: usize, _y: usize, a: bool, b: bool) -> bool {
            a == b
        }
    }

    #[test]
    fn deterministic_strategy_wins_agree_game() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut s = DeterministicStrategy {
            a_out: vec![false, false],
            b_out: vec![false, false],
        };
        let rate = empirical_win_rate(&AgreeGame, &mut s, 1000, &mut rng);
        assert_eq!(rate, 1.0);
    }

    #[test]
    fn independent_random_wins_half() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut s = IndependentRandomStrategy;
        let rate = empirical_win_rate(&AgreeGame, &mut s, 50_000, &mut rng);
        assert!((rate - 0.5).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn sample_inputs_respects_distribution() {
        struct Skewed;
        impl TwoPlayerGame for Skewed {
            fn n_inputs_a(&self) -> usize {
                2
            }
            fn n_inputs_b(&self) -> usize {
                2
            }
            fn input_probability(&self, x: usize, y: usize) -> f64 {
                if x == 0 && y == 0 {
                    0.7
                } else if x == 1 && y == 1 {
                    0.3
                } else {
                    0.0
                }
            }
            fn wins(&self, _: usize, _: usize, _: bool, _: bool) -> bool {
                true
            }
        }
        let mut rng = StdRng::seed_from_u64(3);
        let mut count00 = 0;
        let trials = 20_000;
        for _ in 0..trials {
            let (x, y) = Skewed.sample_inputs(&mut rng);
            assert!((x == 0 && y == 0) || (x == 1 && y == 1));
            if x == 0 {
                count00 += 1;
            }
        }
        let f = count00 as f64 / trials as f64;
        assert!((f - 0.7).abs() < 0.02, "f {f}");
    }

    #[test]
    fn input_matrix_shape() {
        let m = AgreeGame.input_matrix();
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 2);
        let total: f64 = (0..2)
            .flat_map(|x| (0..2).map(move |y| (x, y)))
            .map(|(x, y)| m[(x, y)])
            .sum();
        assert!((total - 1.0).abs() < 1e-12);
    }
}
