//! Multiparty non-local games: the 3-player GHZ (Mermin) game.
//!
//! The paper notes (§4.1) that XOR games "have also been extended to more
//! than two players, corresponding to scenarios with more than two
//! load balancers, where the advantage is larger than in the two-party
//! case". The GHZ game is the canonical example: the quantum strategy wins
//! with probability **1**, versus a classical optimum of 0.75.
//!
//! Rules: the referee draws inputs `(x, y, z)` uniformly from
//! `{000, 011, 101, 110}` (even parity); players answer bits `a, b, c`
//! and win iff `a ⊕ b ⊕ c = x ∨ y ∨ z`.
//!
//! Quantum strategy: share a GHZ state; on input 0 measure in the X basis,
//! on input 1 in the Y basis. The GHZ state is a +1 eigenstate of `X⊗X⊗X`
//! and a −1 eigenstate of `X⊗Y⊗Y` (and permutations), which makes the win
//! condition hold with certainty.
//!
//! Two execution paths coexist. [`play_mermin_quantum`] runs the full
//! statevector simulation (O(2ⁿ) amplitudes per round); the hot path
//! [`play_mermin_kernel`] / [`play_mermin_batch`] uses the closed-form
//! [`qsim::ghz::NoisyGhz`] kernel (O(n) per round, one f64 draw + one
//! word of bulk bits) and additionally models visibility/dephasing noise.
//! The statevector oracle (`NoisyGhz::oracle_sample_xy`) stays a test
//! oracle, pinned to the kernel by `qsim`'s `tests/ghz_stat.rs`.

use crate::error::GameError;
use obs::LazyCounter;
use qmath::C64;
use qsim::ghz::NoisyGhz;
use qsim::measure::Basis1;
use qsim::SharedState;
use rand::Rng;

/// Mermin rounds played through the closed-form kernel (batch or single).
static ROUNDS: LazyCounter = LazyCounter::new("games.ghz.rounds");

/// The four valid GHZ-game input triples (even parity).
pub const GHZ_INPUTS: [(u8, u8, u8); 4] = [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)];

/// The GHZ-game win predicate: `a ⊕ b ⊕ c = x ∨ y ∨ z`.
pub fn ghz_wins(inputs: (u8, u8, u8), outputs: (bool, bool, bool)) -> bool {
    let (x, y, z) = inputs;
    let target = (x | y | z) == 1;
    (outputs.0 ^ outputs.1 ^ outputs.2) == target
}

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

/// Plays one round of the GHZ game with the optimal quantum strategy on a
/// fresh GHZ state. Each party measures only its own qubit, in a basis
/// determined only by its own input.
pub fn play_quantum_round<R: Rng + ?Sized>(
    inputs: (u8, u8, u8),
    rng: &mut R,
) -> (bool, bool, bool) {
    let mut state = SharedState::ghz(3);
    let ins = [inputs.0, inputs.1, inputs.2];
    let mut outs = [false; 3];
    for (party, (&input, out)) in ins.iter().zip(outs.iter_mut()).enumerate() {
        let basis = if input == 0 { x_basis() } else { y_basis() };
        *out = state
            .measure(party, &basis, rng)
            .expect("fresh state, party unmeasured")
            == 1;
    }
    (outs[0], outs[1], outs[2])
}

/// The best classical (deterministic or shared-randomness) win probability
/// for the GHZ game, computed by exhaustive search over all deterministic
/// strategies: each player picks one of 4 response functions `{0,1}→{0,1}`.
pub fn classical_optimum() -> f64 {
    let mut best = 0.0f64;
    // A response function maps input bit → output bit: 4 choices/player.
    for fa in 0..4u8 {
        for fb in 0..4u8 {
            for fc in 0..4u8 {
                let apply = |f: u8, input: u8| -> bool { (f >> input) & 1 == 1 };
                let wins = GHZ_INPUTS
                    .iter()
                    .filter(|&&(x, y, z)| {
                        ghz_wins((x, y, z), (apply(fa, x), apply(fb, y), apply(fc, z)))
                    })
                    .count();
                best = best.max(wins as f64 / 4.0);
            }
        }
    }
    best
}

/// Runs `rounds` rounds of the quantum strategy, returning the empirical
/// win rate (should be 1.0 up to simulator round-off).
pub fn quantum_win_rate<R: Rng + ?Sized>(rounds: usize, rng: &mut R) -> f64 {
    let mut wins = 0usize;
    for i in 0..rounds {
        let inputs = GHZ_INPUTS[i % 4];
        let outputs = play_quantum_round(inputs, rng);
        wins += usize::from(ghz_wins(inputs, outputs));
    }
    wins as f64 / rounds as f64
}

/// All even-parity input vectors for the n-player Mermin game.
pub fn mermin_inputs(n: usize) -> Vec<Vec<u8>> {
    assert!(n >= 2, "Mermin game needs at least two players");
    (0..1u32 << n)
        .filter(|m| m.count_ones() % 2 == 0)
        .map(|m| (0..n).map(|i| ((m >> i) & 1) as u8).collect())
        .collect()
}

/// The n-player Mermin parity game win predicate: for an even-weight
/// input vector `x`, the players win iff `⊕ᵢ aᵢ = (wt(x) mod 4) / 2` —
/// output parity 0 when the input weight is ≡ 0 (mod 4), parity 1 when
/// ≡ 2 (mod 4).
pub fn mermin_wins(inputs: &[u8], outputs: &[bool]) -> bool {
    let weight: u32 = inputs.iter().map(|&x| x as u32).sum();
    debug_assert!(weight.is_multiple_of(2), "Mermin inputs have even parity");
    let target = weight % 4 == 2;
    let parity = outputs.iter().fold(false, |acc, &b| acc ^ b);
    parity == target
}

/// Plays one round of the n-player Mermin game with the optimal quantum
/// strategy: share GHZ(n); measure X on input 0, Y on input 1. The GHZ
/// state is a `(−1)^{k/2}` eigenstate of any `X^{n−k}Y^{k}` string with
/// even `k`, so the win is deterministic.
pub fn play_mermin_quantum<R: Rng + ?Sized>(inputs: &[u8], rng: &mut R) -> Vec<bool> {
    let n = inputs.len();
    let mut state = SharedState::ghz(n);
    inputs
        .iter()
        .enumerate()
        .map(|(party, &x)| {
            let basis = if x == 0 { x_basis() } else { y_basis() };
            state
                .measure(party, &basis, rng)
                .expect("fresh state, party unmeasured")
                == 1
        })
        .collect()
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
    let inputs = mermin_inputs(n);
    let mut best = 0usize;
    // Strategy encoding: 2 bits per player (output on input 0, on input 1).
    for strat in 0u64..(1 << (2 * n)) {
        let wins = inputs
            .iter()
            .filter(|x| {
                let outs: Vec<bool> = x
                    .iter()
                    .enumerate()
                    .map(|(i, &xi)| (strat >> (2 * i + xi as usize)) & 1 == 1)
                    .collect();
                mermin_wins(x, &outs)
            })
            .count();
        best = best.max(wins);
    }
    Ok(best as f64 / inputs.len() as f64)
}

/// The closed-form classical bound of the Mermin game:
/// `1/2 + 2^{−⌈n/2⌉}` (Mermin 1990; the paper's refs [12, 31] discuss the
/// growing multiparty gap).
pub fn mermin_classical_bound(n: usize) -> f64 {
    0.5 + 2f64.powi(-(n.div_ceil(2) as i32))
}

/// Empirical quantum win rate over `rounds` uniformly-drawn inputs
/// (should be exactly 1).
pub fn mermin_quantum_win_rate<R: Rng + ?Sized>(n: usize, rounds: usize, rng: &mut R) -> f64 {
    let inputs = mermin_inputs(n);
    let mut wins = 0usize;
    for i in 0..rounds {
        let x = &inputs[i % inputs.len()];
        let outs = play_mermin_quantum(x, rng);
        wins += usize::from(mermin_wins(x, &outs));
    }
    wins as f64 / rounds as f64
}

/// All even-parity Mermin input vectors as bit masks (bit `j` = player
/// `j`'s input), the packed form the kernel path consumes. Same order as
/// [`mermin_inputs`].
pub fn mermin_input_masks(n: usize) -> Vec<u64> {
    assert!(n >= 2, "Mermin game needs at least two players");
    (0..1u64 << n)
        .filter(|m| m.count_ones().is_multiple_of(2))
        .collect()
}

/// Mask form of [`mermin_wins`]: bit `j` of `outcome` is player `j`'s
/// answer; the win target for even-weight `y_mask` is `(wt mod 4)/2`.
pub fn mermin_wins_mask(y_mask: u64, outcome: u64) -> bool {
    debug_assert!(
        y_mask.count_ones().is_multiple_of(2),
        "Mermin inputs have even parity"
    );
    let target = y_mask.count_ones() % 4 == 2;
    (outcome.count_ones() % 2 == 1) == target
}

/// Plays one Mermin round on `kernel` with the optimal X/Y strategy:
/// player `j` measures Y iff bit `j` of `y_mask` is set. Returns the
/// outcome mask (bit `j` = player `j`'s answer).
pub fn play_mermin_kernel<R: Rng + ?Sized>(kernel: &NoisyGhz, y_mask: u64, rng: &mut R) -> u64 {
    ROUNDS.inc();
    kernel.sample_xy(y_mask, rng)
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
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn classical_optimum_is_three_quarters() {
        assert!((classical_optimum() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn quantum_strategy_wins_always() {
        let mut rng = StdRng::seed_from_u64(1);
        let rate = quantum_win_rate(2000, &mut rng);
        assert!(
            (rate - 1.0).abs() < 1e-12,
            "GHZ quantum strategy must be perfect, got {rate}"
        );
    }

    #[test]
    fn each_input_triple_wins_deterministically() {
        let mut rng = StdRng::seed_from_u64(2);
        for &inputs in &GHZ_INPUTS {
            for _ in 0..200 {
                let outputs = play_quantum_round(inputs, &mut rng);
                assert!(
                    ghz_wins(inputs, outputs),
                    "lost on {inputs:?} → {outputs:?}"
                );
            }
        }
    }

    #[test]
    fn outputs_remain_random() {
        // Perfection without determinism: each player's output is still an
        // unbiased coin (the "free lunch" the paper's XOR framing gives).
        let mut rng = StdRng::seed_from_u64(3);
        let trials = 4000;
        let mut ones = [0usize; 3];
        for i in 0..trials {
            let (a, b, c) = play_quantum_round(GHZ_INPUTS[i % 4], &mut rng);
            ones[0] += usize::from(a);
            ones[1] += usize::from(b);
            ones[2] += usize::from(c);
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
        assert!(ghz_wins((0, 0, 0), (false, false, false)));
        assert!(!ghz_wins((0, 0, 0), (true, false, false)));
        assert!(ghz_wins((0, 1, 1), (true, false, false)));
        assert!(ghz_wins((1, 1, 0), (false, true, false)));
        assert!(!ghz_wins((1, 0, 1), (true, true, false)));
    }
}

#[cfg(test)]
mod mermin_tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn input_sets_have_even_parity_and_full_count() {
        for n in 2..=6 {
            let inputs = mermin_inputs(n);
            assert_eq!(inputs.len(), 1 << (n - 1));
            for x in &inputs {
                assert_eq!(x.iter().map(|&b| b as u32).sum::<u32>() % 2, 0);
            }
        }
    }

    #[test]
    fn three_player_mermin_is_the_ghz_game() {
        // The n=3 Mermin game and the GHZ_INPUTS game agree: weight-0
        // inputs want parity 0, weight-2 inputs want parity 1.
        assert!(mermin_wins(&[0, 0, 0], &[false, false, false]));
        assert!(mermin_wins(&[0, 1, 1], &[true, false, false]));
        assert!(!mermin_wins(&[1, 1, 0], &[false, false, false]));
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
    fn input_masks_mirror_input_vectors() {
        for n in 2..=7 {
            let masks = mermin_input_masks(n);
            let vecs = mermin_inputs(n);
            assert_eq!(masks.len(), vecs.len());
            for (m, x) in masks.iter().zip(&vecs) {
                for (j, &xj) in x.iter().enumerate() {
                    assert_eq!(((m >> j) & 1) as u8, xj);
                }
            }
        }
    }

    #[test]
    fn mask_predicate_agrees_with_vector_predicate() {
        for n in 2..=5usize {
            for y_mask in mermin_input_masks(n) {
                let x: Vec<u8> = (0..n).map(|j| ((y_mask >> j) & 1) as u8).collect();
                for outcome in 0..(1u64 << n) {
                    let outs: Vec<bool> = (0..n).map(|j| (outcome >> j) & 1 == 1).collect();
                    assert_eq!(
                        mermin_wins_mask(y_mask, outcome),
                        mermin_wins(&x, &outs),
                        "n = {n}, y = {y_mask:#b}, a = {outcome:#b}"
                    );
                }
            }
        }
    }

    #[test]
    fn kernel_is_perfect_at_unit_visibility() {
        let mut rng = StdRng::seed_from_u64(11);
        for n in [3usize, 4, 5, 6] {
            let kernel = NoisyGhz::ideal(n).unwrap();
            for &y_mask in &mermin_input_masks(n) {
                for _ in 0..100 {
                    let a = play_mermin_kernel(&kernel, y_mask, &mut rng);
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
            let x: Vec<u8> = (0..n).map(|j| ((y_mask >> j) & 1) as u8).collect();
            let sv = play_mermin_quantum(&x, &mut rng);
            assert!(mermin_wins(&x, &sv));
            let a = kernel.sample_xy(y_mask, &mut rng);
            assert!(mermin_wins_mask(y_mask, a));
        }
    }
}
