//! The Mermin–Peres Magic Square game: two-player pseudo-telepathy.
//!
//! Alongside the n-player Mermin parity game, the Magic Square is the
//! other canonical pseudo-telepathy workload ROADMAP item 2 calls for
//! (da Silva & Wehner single both out as near-term coordination
//! primitives). The referee names Alice a **row** and Bob a **column**
//! of a 3×3 grid; Alice answers three ±1 values with product **+1**,
//! Bob three values with product **−1**, and they win iff they agree on
//! the shared cell. No classical strategy can fill the grid consistently
//! (the parity constraints are contradictory), capping classical play at
//! **8/9**; measuring the two-observable-per-qubit square below on two
//! shared Bell pairs wins with probability **1**.
//!
//! The observable grid (cell `(i, j)` acts on pair 1 ⊗ pair 2):
//!
//! ```text
//!     I⊗Z    Z⊗I    Z⊗Z        row products  = +I
//!     X⊗I    I⊗X    X⊗X        col products  = −I
//!    −X⊗Z   −Z⊗X    Y⊗Y
//! ```
//!
//! Noise model: each shared pair is a Werner state with visibility `v`,
//! equivalent (by the Pauli twirl) to a perfect pair whose Bob half
//! suffers a uniform Pauli error with probability `3(1−v)/4`. A cell
//! correlation is `v` per non-identity tensor factor, giving the closed
//! form [`quantum_win`] `= 1/2 + (4v + 5v²)/18` and a classical
//! crossover at `v* = (√39 − 2)/5 ≈ 0.849` ([`crossover_visibility`]).
//! [`MagicSquare::play_round`] samples rounds directly from the twirl —
//! O(1) per round, same costing discipline as the GHZ kernel.

use qsim::SimError;
use rand::Rng;

use obs::LazyCounter;

/// Magic-square rounds played (batch or single).
static ROUNDS: LazyCounter = LazyCounter::new("games.magic.rounds");

/// Single-qubit Pauli label (`I`, `X`, `Y`, `Z`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pauli {
    /// Identity.
    I,
    /// Pauli X.
    X,
    /// Pauli Y.
    Y,
    /// Pauli Z.
    Z,
}

impl Pauli {
    /// Whether two Paulis anticommute (both non-identity and distinct).
    pub fn anticommutes(self, other: Pauli) -> bool {
        self != Pauli::I && other != Pauli::I && self != other
    }
}

use Pauli::{I, X, Y, Z};

/// The observable square: `SQUARE[i][j]` is (sign, pair-1 Pauli, pair-2
/// Pauli) of cell `(i, j)`. Row products are `+I⊗I`, column products
/// `−I⊗I` (verified algebraically in the tests).
pub const SQUARE: [[(i8, Pauli, Pauli); 3]; 3] = [
    [(1, I, Z), (1, Z, I), (1, Z, Z)],
    [(1, X, I), (1, I, X), (1, X, X)],
    [(-1, X, Z), (-1, Z, X), (1, Y, Y)],
];

/// Win predicate: outputs are bit-vectors (`true` ↔ value −1). Alice's
/// row triple must have even parity (product +1), Bob's column triple odd
/// parity (product −1) — both guaranteed by honest players — and they
/// win iff they agree on the intersection cell.
pub fn magic_wins(row: usize, col: usize, alice: [bool; 3], bob: [bool; 3]) -> bool {
    debug_assert!(!(alice[0] ^ alice[1] ^ alice[2]), "row product must be +1");
    debug_assert!(bob[0] ^ bob[1] ^ bob[2], "column product must be −1");
    alice[col] == bob[row]
}

/// The classical optimum **8/9**, by exhaustive search: Alice picks one
/// of the 4 even-parity triples per row, Bob one of the 4 odd-parity
/// triples per column (64 × 64 deterministic strategies, 9 cells each).
pub fn classical_optimum() -> f64 {
    // Triple encodings: low 2 bits free, third bit closes the parity.
    let triple = |enc: u64, odd: bool| -> [bool; 3] {
        let (b0, b1) = (enc & 1 == 1, enc >> 1 & 1 == 1);
        [b0, b1, b0 ^ b1 ^ odd]
    };
    let mut best = 0usize;
    for sa in 0u64..64 {
        for sb in 0u64..64 {
            let wins = (0..9)
                .filter(|cell| {
                    let (row, col) = (cell / 3, cell % 3);
                    let a = triple(sa >> (2 * row) & 3, false);
                    let b = triple(sb >> (2 * col) & 3, true);
                    magic_wins(row, col, a, b)
                })
                .count();
            best = best.max(wins);
        }
    }
    best as f64 / 9.0
}

/// Closed-form quantum win probability of the optimal strategy on two
/// visibility-`v` Werner pairs: `1/2 + (4v + 5v²)/18` — the four
/// identity-containing cells correlate as `v`, the other five as `v²`.
pub fn quantum_win(visibility: f64) -> f64 {
    0.5 + (4.0 * visibility + 5.0 * visibility * visibility) / 18.0
}

/// The visibility where [`quantum_win`] meets the classical 8/9:
/// the positive root of `5v² + 4v − 7 = 0`, `v* = (√39 − 2)/5 ≈ 0.8490`.
pub fn crossover_visibility() -> f64 {
    (39f64.sqrt() - 2.0) / 5.0
}

/// Result of a [`MagicSquare::play_batch`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MagicBatch {
    /// Rounds won.
    pub wins: u64,
    /// Rounds played.
    pub rounds: u64,
}

impl MagicBatch {
    /// Empirical win rate (`NaN` for an empty batch).
    pub fn win_rate(&self) -> f64 {
        self.wins as f64 / self.rounds as f64
    }
}

/// The Magic Square game over two shared visibility-`v` Werner pairs,
/// sampled via the Pauli-twirl reduction (no statevector in the loop).
#[derive(Debug, Clone)]
pub struct MagicSquare {
    visibility: f64,
}

impl MagicSquare {
    /// Builds the game at the given Werner-pair visibility.
    ///
    /// # Errors
    /// [`SimError::BadProbability`] if `visibility ∉ [0, 1]`.
    pub fn new(visibility: f64) -> Result<Self, SimError> {
        if !(0.0..=1.0).contains(&visibility) || visibility.is_nan() {
            return Err(SimError::BadProbability { value: visibility });
        }
        Ok(MagicSquare { visibility })
    }

    /// The noiseless game (`v = 1`): pseudo-telepathy, win rate 1.
    pub fn ideal() -> Self {
        MagicSquare { visibility: 1.0 }
    }

    /// The shared pairs' visibility.
    pub fn visibility(&self) -> f64 {
        self.visibility
    }

    /// Draws one Pauli-twirl error for a Werner pair's Bob half:
    /// `I` with probability `(1 + 3v)/4`, else uniform over `{X, Y, Z}`.
    fn twirl_error<R: Rng + ?Sized>(&self, rng: &mut R) -> Pauli {
        if rng.gen::<f64>() < 0.25 * (1.0 + 3.0 * self.visibility) {
            Pauli::I
        } else {
            [Pauli::X, Pauli::Y, Pauli::Z][rng.gen_range(0..3usize)]
        }
    }

    /// Plays one round on fresh pairs: Alice measures `row`, Bob `col`.
    /// Returns `(alice, bob)` outcome triples (`true` ↔ value −1).
    ///
    /// Sampling uses the exact measurement statistics: Alice's triple is
    /// uniform over the even-parity options; Bob's clean triple copies
    /// Alice at the intersection and closes the odd parity; a Pauli
    /// twirl error per pair then flips Bob's cell `i` iff the error
    /// anticommutes with cell `(i, col)`'s tensor factors an odd number
    /// of times (the flips multiply to +1 down a column, so the parity
    /// promise survives noise).
    pub fn play_round<R: Rng + ?Sized>(
        &self,
        row: usize,
        col: usize,
        rng: &mut R,
    ) -> ([bool; 3], [bool; 3]) {
        assert!(row < 3 && col < 3, "magic square is 3×3");
        ROUNDS.inc();
        let mut alice = [rng.gen::<bool>(), rng.gen::<bool>(), false];
        alice[2] = alice[0] ^ alice[1];
        let mut bob = [false; 3];
        bob[row] = alice[col];
        let (o1, o2) = ((row + 1) % 3, (row + 2) % 3);
        bob[o1] = rng.gen::<bool>();
        bob[o2] = !(bob[row] ^ bob[o1]);
        let (e1, e2) = (self.twirl_error(rng), self.twirl_error(rng));
        for (i, b) in bob.iter_mut().enumerate() {
            let (_, p1, p2) = SQUARE[i][col];
            *b ^= e1.anticommutes(p1) ^ e2.anticommutes(p2);
        }
        (alice, bob)
    }

    /// Plays `rounds` rounds with uniformly-drawn `(row, col)` referee
    /// questions, counting wins.
    pub fn play_batch<R: Rng + ?Sized>(&self, rounds: u64, rng: &mut R) -> MagicBatch {
        let mut wins = 0u64;
        for _ in 0..rounds {
            let (row, col) = (rng.gen_range(0..3), rng.gen_range(0..3));
            let (a, b) = self.play_round(row, col, rng);
            wins += u64::from(magic_wins(row, col, a, b));
        }
        MagicBatch { wins, rounds }
    }

    /// Exact win probability on question `(row, col)` by enumerating the
    /// 16 Pauli-twirl error pairs — the non-statistical oracle for
    /// [`Self::play_round`], pinned to the closed form in the tests.
    pub fn exact_cell_win(&self, row: usize, col: usize) -> f64 {
        assert!(row < 3 && col < 3, "magic square is 3×3");
        let p_id = 0.25 * (1.0 + 3.0 * self.visibility);
        let p_err = 0.25 * (1.0 - self.visibility);
        let prob = |p: Pauli| if p == Pauli::I { p_id } else { p_err };
        let (_, c1, c2) = SQUARE[row][col];
        [I, X, Y, Z]
            .iter()
            .flat_map(|&e1| [I, X, Y, Z].iter().map(move |&e2| (e1, e2)))
            .filter(|&(e1, e2)| !(e1.anticommutes(c1) ^ e2.anticommutes(c2)))
            .map(|(e1, e2)| prob(e1) * prob(e2))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Single-qubit Pauli product with phase: returns (i-power, result).
    fn pauli_mul(a: Pauli, b: Pauli) -> (u8, Pauli) {
        use Pauli::*;
        match (a, b) {
            (I, p) | (p, I) => (0, p),
            (p, q) if p == q => (0, I),
            // Cyclic: XY = iZ, YZ = iX, ZX = iY; reversed pick up −i (i³).
            (X, Y) => (1, Z),
            (Y, Z) => (1, X),
            (Z, X) => (1, Y),
            (Y, X) => (3, Z),
            (Z, Y) => (3, X),
            (X, Z) => (3, Y),
            _ => unreachable!(),
        }
    }

    /// Product of three cells: (overall sign, pair-1 Pauli, pair-2 Pauli).
    fn product(cells: [(i8, Pauli, Pauli); 3]) -> (i8, Pauli, Pauli) {
        let mut sign = 1i8;
        let mut phase = 0u8; // power of i, mod 4
        let (mut p1, mut p2) = (Pauli::I, Pauli::I);
        for (s, a, b) in cells {
            sign *= s;
            let (ph1, r1) = pauli_mul(p1, a);
            let (ph2, r2) = pauli_mul(p2, b);
            phase = (phase + ph1 + ph2) % 4;
            (p1, p2) = (r1, r2);
        }
        assert_eq!(phase % 2, 0, "observable products must be Hermitian");
        if phase == 2 {
            sign = -sign;
        }
        (sign, p1, p2)
    }

    #[test]
    fn square_is_magic() {
        // Row products +I⊗I, column products −I⊗I: the parity structure
        // that makes the grid classically unfillable.
        for (i, row) in SQUARE.iter().enumerate() {
            assert_eq!(product(*row), (1, Pauli::I, Pauli::I), "row {i}");
            let col = [SQUARE[0][i], SQUARE[1][i], SQUARE[2][i]];
            assert_eq!(product(col), (-1, Pauli::I, Pauli::I), "column {i}");
        }
    }

    #[test]
    fn classical_optimum_is_eight_ninths() {
        assert!((classical_optimum() - 8.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn exact_cells_match_the_closed_form() {
        // Cell correlation is v per non-identity factor: 4 cells at v,
        // 5 at v²; the uniform-question average is quantum_win(v).
        for v in [0.0, 0.3, 0.7, crossover_visibility(), 0.95, 1.0] {
            let game = MagicSquare::new(v).unwrap();
            let mut avg = 0.0;
            for (row, cells) in SQUARE.iter().enumerate() {
                for (col, &(_, p1, p2)) in cells.iter().enumerate() {
                    let k = i32::from(p1 != Pauli::I) + i32::from(p2 != Pauli::I);
                    let expect = 0.5 * (1.0 + v.powi(k));
                    let exact = game.exact_cell_win(row, col);
                    assert!(
                        (exact - expect).abs() < 1e-12,
                        "v = {v}, cell ({row},{col}): {exact} vs {expect}"
                    );
                    avg += exact / 9.0;
                }
            }
            assert!((avg - quantum_win(v)).abs() < 1e-12, "v = {v}");
        }
    }

    #[test]
    fn ideal_game_always_wins() {
        let mut rng = StdRng::seed_from_u64(21);
        let game = MagicSquare::ideal();
        for row in 0..3 {
            for col in 0..3 {
                for _ in 0..200 {
                    let (a, b) = game.play_round(row, col, &mut rng);
                    assert!(magic_wins(row, col, a, b), "lost cell ({row},{col})");
                }
            }
        }
        let batch = game.play_batch(2000, &mut rng);
        assert_eq!(batch.wins, batch.rounds);
    }

    #[test]
    fn noisy_rounds_keep_the_parity_promise() {
        // The twirl flips multiply to +1 down a column, so even heavy
        // noise never produces an invalid (dishonest) answer triple.
        let mut rng = StdRng::seed_from_u64(22);
        let game = MagicSquare::new(0.2).unwrap();
        for _ in 0..2000 {
            let (row, col) = (rng.gen_range(0..3), rng.gen_range(0..3));
            let (a, b) = game.play_round(row, col, &mut rng);
            assert!(!(a[0] ^ a[1] ^ a[2]), "Alice parity broken");
            assert!(b[0] ^ b[1] ^ b[2], "Bob parity broken");
        }
    }

    #[test]
    fn crossover_meets_the_classical_optimum() {
        let v = crossover_visibility();
        assert!((quantum_win(v) - 8.0 / 9.0).abs() < 1e-12);
        assert!((quantum_win(1.0) - 1.0).abs() < 1e-12);
        assert!((quantum_win(0.0) - 0.5).abs() < 1e-12);
        // The magic square needs much cleaner states than Mermin at
        // moderate n: its crossover sits at ≈0.849.
        assert!((v - 0.849).abs() < 1e-3);
    }

    #[test]
    fn rejects_bad_visibility() {
        assert!(MagicSquare::new(-0.1).is_err());
        assert!(MagicSquare::new(1.1).is_err());
        assert!(MagicSquare::new(f64::NAN).is_err());
    }
}
