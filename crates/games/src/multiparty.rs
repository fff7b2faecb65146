//! Multiparty non-local games: the n-player Mermin parity game.
//!
//! The paper notes (§4.1) that XOR games "have also been extended to more
//! than two players, corresponding to scenarios with more than two
//! load balancers, where the advantage is larger than in the two-party
//! case". The Mermin game is the canonical example: the quantum strategy
//! wins with probability **1**, versus a classical optimum of
//! `1/2 + 2^{−⌈n/2⌉}`. At n = 3 it is the GHZ game (classical 0.75): the
//! inputs are `{000, 011, 101, 110}` and the players win iff
//! `a ⊕ b ⊕ c = x ∨ y ∨ z`.
//!
//! Rules: the referee draws an even-weight input vector uniformly; the
//! players answer bits and win iff the parity of the answers is
//! `(wt(x) mod 4) / 2`. Inputs and answers are bit masks throughout: bit
//! `j` is player `j`'s input or answer ([`mermin_input_masks`],
//! [`mermin_wins_mask`]).
//!
//! Quantum strategy: share a GHZ state; on input 0 measure in the X basis,
//! on input 1 in the Y basis. The GHZ state is a `(−1)^{k/2}` eigenstate
//! of any `X^{n−k}Y^{k}` string with even `k`, which makes the win
//! condition hold with certainty.
//!
//! Rounds are played on the closed-form [`qsim::ghz::NoisyGhz`] kernel
//! ([`play_mermin_batch`]: O(n) per round, one f64 draw + one word of
//! bulk bits), which also models visibility/dephasing noise.
//! [`play_mermin_quantum`] runs the full statevector (O(2ⁿ) amplitudes
//! per round) on an ideal state: the reference the kernel is checked
//! against here, while `qsim`'s `tests/ghz_stat.rs` pins the kernel to
//! the density-matrix oracle (`NoisyGhz::oracle_sample_xy`).

use crate::error::GameError;
use obs::LazyCounter;
use qmath::C64;
use qsim::ghz::NoisyGhz;
use qsim::measure::Basis1;
use qsim::SharedState;
use rand::Rng;

/// Mermin rounds played through the closed-form kernel.
static ROUNDS: LazyCounter = LazyCounter::new("games.ghz.rounds");

/// The X measurement basis `{|+⟩, |−⟩}`.
pub fn x_basis() -> Basis1 {
    Basis1::angle(std::f64::consts::FRAC_PI_4)
}

/// The Y measurement basis `{(|0⟩+i|1⟩)/√2, (|0⟩−i|1⟩)/√2}`.
pub fn y_basis() -> Basis1 {
    let f = std::f64::consts::FRAC_1_SQRT_2;
    Basis1::new(
        [C64::real(f), C64::new(0.0, f)],
        [C64::real(f), C64::new(0.0, -f)],
    )
    .expect("orthonormal by construction")
}

/// All even-parity Mermin input vectors for `n` players as bit masks
/// (bit `j` = player `j`'s input), in increasing order.
pub fn mermin_input_masks(n: usize) -> Vec<u64> {
    assert!(n >= 2, "Mermin game needs at least two players");
    (0..1u64 << n)
        .filter(|m| m.count_ones().is_multiple_of(2))
        .collect()
}

/// The Mermin win predicate: bit `j` of `outcome` is player `j`'s
/// answer, and for an even-weight `y_mask` the players win iff the
/// answers' parity is `(wt mod 4)/2` — 0 when the input weight is ≡ 0
/// (mod 4), 1 when ≡ 2 (mod 4).
pub fn mermin_wins_mask(y_mask: u64, outcome: u64) -> bool {
    debug_assert!(
        y_mask.count_ones().is_multiple_of(2),
        "Mermin inputs have even parity"
    );
    let target = y_mask.count_ones() % 4 == 2;
    (outcome.count_ones() % 2 == 1) == target
}

/// Plays one round of the n-player Mermin game with the optimal quantum
/// strategy on a fresh GHZ(n) statevector: player `j` measures Y iff bit
/// `j` of `y_mask` is set, else X. Returns the outcome mask (bit `j` =
/// player `j`'s answer).
pub fn play_mermin_quantum<R: Rng + ?Sized>(n: usize, y_mask: u64, rng: &mut R) -> u64 {
    let mut state = SharedState::ghz(n);
    (0..n).fold(0u64, |outcome, party| {
        let basis = if (y_mask >> party) & 1 == 0 {
            x_basis()
        } else {
            y_basis()
        };
        let bit = state
            .measure(party, &basis, rng)
            .expect("fresh state, party unmeasured");
        outcome | (u64::from(bit == 1) << party)
    })
}

/// Largest player count accepted by [`mermin_classical_optimum`]: the
/// brute force enumerates 4ⁿ deterministic strategies × 2^{n−1} inputs.
pub const MERMIN_ENUM_LIMIT: usize = 10;

/// The exact classical optimum of the n-player Mermin game by brute force
/// over all deterministic strategies (each player picks one of the four
/// functions {0,1} → {0,1}).
///
/// # Errors
/// [`GameError::TooLarge`] if `n >` [`MERMIN_ENUM_LIMIT`] (the 4ⁿ · 2^{n−1}
/// enumeration becomes unreasonable).
pub fn mermin_classical_optimum(n: usize) -> Result<f64, GameError> {
    if n > MERMIN_ENUM_LIMIT {
        return Err(GameError::TooLarge {
            n_a: n,
            limit: MERMIN_ENUM_LIMIT,
        });
    }
    let masks = mermin_input_masks(n);
    let mut best = 0usize;
    // Strategy encoding: 2 bits per player (answer on input 0, on input 1).
    for strat in 0u64..(1 << (2 * n)) {
        let wins = masks
            .iter()
            .filter(|&&y_mask| {
                let outcome = (0..n).fold(0u64, |acc, i| {
                    let answer = (strat >> (2 * i + ((y_mask >> i) & 1) as usize)) & 1;
                    acc | (answer << i)
                });
                mermin_wins_mask(y_mask, outcome)
            })
            .count();
        best = best.max(wins);
    }
    Ok(best as f64 / masks.len() as f64)
}

/// The closed-form classical bound of the Mermin game:
/// `1/2 + 2^{−⌈n/2⌉}` (Mermin 1990; the paper's refs [12, 31] discuss the
/// growing multiparty gap).
pub fn mermin_classical_bound(n: usize) -> f64 {
    0.5 + 2f64.powi(-(n.div_ceil(2) as i32))
}

/// Empirical statevector win rate of the quantum strategy over `rounds`
/// rounds cycling through the inputs (should be exactly 1).
pub fn mermin_quantum_win_rate<R: Rng + ?Sized>(n: usize, rounds: usize, rng: &mut R) -> f64 {
    let masks = mermin_input_masks(n);
    let mut wins = 0usize;
    for i in 0..rounds {
        let y_mask = masks[i % masks.len()];
        let outcome = play_mermin_quantum(n, y_mask, rng);
        wins += usize::from(mermin_wins_mask(y_mask, outcome));
    }
    wins as f64 / rounds as f64
}

/// Result of a [`play_mermin_batch`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MerminBatch {
    /// Rounds won.
    pub wins: u64,
    /// Rounds played.
    pub rounds: u64,
}

impl MerminBatch {
    /// Empirical win rate (`NaN` for an empty batch).
    pub fn win_rate(&self) -> f64 {
        self.wins as f64 / self.rounds as f64
    }
}

/// Plays `rounds` Mermin rounds on `kernel`, drawing the full input
/// schedule up front (games-first, like the fig3 sweep) and then playing
/// them with the per-input correlation hoisted out of the sampling loop.
pub fn play_mermin_batch<R: Rng + ?Sized>(
    kernel: &NoisyGhz,
    rounds: u64,
    rng: &mut R,
) -> MerminBatch {
    let masks = mermin_input_masks(kernel.n_parties());
    // Referee phase: the whole schedule of input masks, drawn first.
    let schedule: Vec<u32> = (0..rounds)
        .map(|_| rng.gen_range(0..masks.len() as u32))
        .collect();
    // Player phase: per-input correlations computed once, not per round.
    let correlations: Vec<f64> = masks.iter().map(|&m| kernel.correlation_xy(m)).collect();
    let mut wins = 0u64;
    for &i in &schedule {
        let outcome = kernel.sample_with_correlation(correlations[i as usize], rng);
        wins += u64::from(mermin_wins_mask(masks[i as usize], outcome));
    }
    ROUNDS.add(rounds);
    MerminBatch { wins, rounds }
}

/// Closed-form Mermin win probability of the X/Y strategy on a GHZ state
/// with effective coherence `w` (visibility × ∏ retentions): `(1 + w)/2`,
/// independent of the player count.
pub fn mermin_quantum_win(coherence: f64) -> f64 {
    0.5 * (1.0 + coherence)
}

/// The visibility at which the quantum X/Y strategy's win rate
/// `(1 + v)/2` meets the classical bound `1/2 + 2^{−⌈n/2⌉}`:
/// `v* = 2^{1−⌈n/2⌉}`. Below it, noise erases the multiparty advantage.
pub fn mermin_crossover_visibility(n: usize) -> f64 {
    2f64.powi(1 - n.div_ceil(2) as i32)
}

#[cfg(test)]
mod tests {
    // The GHZ game: Mermin at n = 3.
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn classical_optimum_is_three_quarters() {
        assert_eq!(mermin_classical_optimum(3), Ok(0.75));
    }

    #[test]
    fn quantum_strategy_wins_always() {
        let mut rng = StdRng::seed_from_u64(1);
        let rate = mermin_quantum_win_rate(3, 2000, &mut rng);
        assert!(
            (rate - 1.0).abs() < 1e-12,
            "GHZ quantum strategy must be perfect, got {rate}"
        );
    }

    #[test]
    fn each_input_triple_wins_deterministically() {
        let mut rng = StdRng::seed_from_u64(2);
        for y_mask in mermin_input_masks(3) {
            for _ in 0..200 {
                let outcome = play_mermin_quantum(3, y_mask, &mut rng);
                assert!(
                    mermin_wins_mask(y_mask, outcome),
                    "lost on {y_mask:03b} → {outcome:03b}"
                );
            }
        }
    }

    #[test]
    fn outputs_remain_random() {
        // Perfection without determinism: each player's output is still an
        // unbiased coin (the "free lunch" the paper's XOR framing gives).
        let mut rng = StdRng::seed_from_u64(3);
        let masks = mermin_input_masks(3);
        let trials = 4000;
        let mut ones = [0usize; 3];
        for i in 0..trials {
            let outcome = play_mermin_quantum(3, masks[i % 4], &mut rng);
            for (p, o) in ones.iter_mut().enumerate() {
                *o += ((outcome >> p) & 1) as usize;
            }
        }
        for (p, o) in ones.iter().enumerate() {
            let f = *o as f64 / trials as f64;
            assert!((f - 0.5).abs() < 0.03, "party {p} marginal {f}");
        }
    }

    #[test]
    fn y_basis_is_orthonormal() {
        // Already validated by Basis1::new, but assert the construction
        // doesn't silently change.
        let b = y_basis();
        let ip = b.phi0[0].conj() * b.phi1[0] + b.phi0[1].conj() * b.phi1[1];
        assert!(ip.abs() < 1e-12);
    }

    #[test]
    fn win_predicate_cases() {
        // Bit j is player j: inputs (x, y, z) = (0, 1, 1) are 0b110.
        assert!(mermin_wins_mask(0b000, 0b000));
        assert!(!mermin_wins_mask(0b000, 0b001));
        assert!(mermin_wins_mask(0b110, 0b001));
        assert!(mermin_wins_mask(0b011, 0b010));
        assert!(!mermin_wins_mask(0b101, 0b011));
    }
}

#[cfg(test)]
mod mermin_tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn input_sets_have_even_parity_and_full_count() {
        for n in 2..=7 {
            let masks = mermin_input_masks(n);
            assert_eq!(masks.len(), 1 << (n - 1));
            assert!(masks.windows(2).all(|w| w[0] < w[1]), "distinct, sorted");
            for &m in &masks {
                assert!(m < 1 << n && m.count_ones() % 2 == 0, "{m:b}");
            }
        }
    }

    #[test]
    fn three_player_mermin_is_the_ghz_game() {
        // The GHZ game's inputs are {000, 011, 101, 110} and it is won iff
        // a ⊕ b ⊕ c = x ∨ y ∨ z: weight-0 inputs want parity 0, weight-2
        // inputs want parity 1.
        assert_eq!(mermin_input_masks(3), [0b000, 0b011, 0b101, 0b110]);
        for y_mask in mermin_input_masks(3) {
            for outcome in 0..8u64 {
                let ghz = (outcome.count_ones() % 2 == 1) == (y_mask != 0);
                assert_eq!(mermin_wins_mask(y_mask, outcome), ghz);
            }
        }
    }

    #[test]
    fn classical_optimum_matches_closed_form() {
        for n in [2usize, 3, 4, 5, 6] {
            let brute = mermin_classical_optimum(n).expect("within enum limit");
            let bound = mermin_classical_bound(n);
            assert!(
                (brute - bound).abs() < 1e-12,
                "n = {n}: brute {brute} vs closed form {bound}"
            );
        }
    }

    #[test]
    fn quantum_wins_always_up_to_six_players() {
        let mut rng = StdRng::seed_from_u64(5);
        for n in [3usize, 4, 5, 6] {
            let rate = mermin_quantum_win_rate(n, 400, &mut rng);
            assert!((rate - 1.0).abs() < 1e-12, "n = {n}: quantum rate {rate}");
        }
    }

    #[test]
    fn multiparty_gap_grows_with_n() {
        // Quantum is always 1; classical drops toward 1/2 — the paper's
        // "the advantage is larger than in the two-party case".
        let gap3 = 1.0 - mermin_classical_bound(3);
        let gap5 = 1.0 - mermin_classical_bound(5);
        let gap7 = 1.0 - mermin_classical_bound(7);
        assert!(gap3 < gap5 && gap5 < gap7);
    }

    #[test]
    fn classical_optimum_rejects_oversized_games() {
        assert_eq!(
            mermin_classical_optimum(MERMIN_ENUM_LIMIT + 1),
            Err(GameError::TooLarge {
                n_a: MERMIN_ENUM_LIMIT + 1,
                limit: MERMIN_ENUM_LIMIT,
            })
        );
    }
}

#[cfg(test)]
mod kernel_tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn kernel_is_perfect_at_unit_visibility() {
        let mut rng = StdRng::seed_from_u64(11);
        for n in [3usize, 4, 5, 6] {
            let kernel = NoisyGhz::ideal(n).unwrap();
            for &y_mask in &mermin_input_masks(n) {
                for _ in 0..100 {
                    let a = kernel.sample_xy(y_mask, &mut rng);
                    assert!(mermin_wins_mask(y_mask, a), "n = {n}, y = {y_mask:#b}");
                }
            }
            let batch = play_mermin_batch(&kernel, 2000, &mut rng);
            assert_eq!(batch.wins, batch.rounds, "n = {n} batch must be perfect");
            assert!((batch.win_rate() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn zero_visibility_batch_is_a_coin_flip() {
        // v = 0 is the fully-mixed parity sector: win rate 1/2.
        let mut rng = StdRng::seed_from_u64(12);
        let kernel = NoisyGhz::new(4, 0.0).unwrap();
        let batch = play_mermin_batch(&kernel, 40_000, &mut rng);
        assert!(
            (batch.win_rate() - 0.5).abs() < 0.01,
            "{}",
            batch.win_rate()
        );
    }

    #[test]
    fn crossover_visibility_meets_the_classical_bound() {
        for n in 3..=10 {
            let v = mermin_crossover_visibility(n);
            assert!(
                (mermin_quantum_win(v) - mermin_classical_bound(n)).abs() < 1e-12,
                "n = {n}: crossover v* = {v}"
            );
        }
        // The advantage window widens with n: v* shrinks toward 0.
        assert!(mermin_crossover_visibility(9) < mermin_crossover_visibility(5));
    }

    #[test]
    fn kernel_agrees_with_statevector_on_ideal_states() {
        // The statevector path (play_mermin_quantum) wins every promise
        // round; the kernel at v = 1 must do the same on the same masks.
        let mut rng = StdRng::seed_from_u64(13);
        let n = 4;
        let kernel = NoisyGhz::ideal(n).unwrap();
        for y_mask in mermin_input_masks(n) {
            assert!(mermin_wins_mask(
                y_mask,
                play_mermin_quantum(n, y_mask, &mut rng)
            ));
            assert!(mermin_wins_mask(y_mask, kernel.sample_xy(y_mask, &mut rng)));
        }
    }

    #[test]
    fn input_masks_mirror_input_vectors() {
        // Bit j of each mask is player j's input: the masks, read back as
        // input vectors, are the even-weight vectors of {0,1}^n in order
        // of their little-endian value.
        for n in 2..=7 {
            let vecs: Vec<Vec<u8>> = (0..1u32 << n)
                .map(|m| (0..n).map(|j| ((m >> j) & 1) as u8).collect::<Vec<u8>>())
                .filter(|x| x.iter().map(|&b| b as u32).sum::<u32>() % 2 == 0)
                .collect();
            let masks = mermin_input_masks(n);
            assert_eq!(masks.len(), vecs.len());
            for (m, x) in masks.iter().zip(&vecs) {
                for (j, &xj) in x.iter().enumerate() {
                    assert_eq!(((m >> j) & 1) as u8, xj);
                }
            }
        }
    }
}
