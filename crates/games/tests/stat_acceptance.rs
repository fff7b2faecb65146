//! Statistical acceptance tests for the CHSH, Mermin, and Magic Square
//! win rates.
//!
//! Every assertion here goes through `qmath::assert_prob_in!`, which
//! checks the *theoretical* win probability against the Wilson interval
//! of the observed counts at an explicit confidence level — the sample
//! size and confidence are part of the assertion, not folded into a
//! hand-tuned tolerance. Run `make test-stat` to see the accounting.

use games::chsh::QuantumChshStrategy;
use games::game::PairStrategy;
use games::XorGame;
use qmath::assert_prob_in;
use qsim::SharedPair;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Confidence for all acceptance intervals in this file. At n = 50 000
/// the 99.9% Wilson interval around 0.8536 is ≈ ±0.0052 — tight enough
/// to catch an angle or sign error (worth ≥ 0.02), loose enough that a
/// correct implementation passes for any reasonable seed.
const CONF: f64 = 0.999;
const ROUNDS: u64 = 50_000;

/// Plays `ROUNDS` rounds of `game` with uniform inputs and returns the
/// win count.
fn wins<S: PairStrategy>(game: &XorGame, strategy: &mut S, rng: &mut StdRng) -> u64 {
    let mut wins = 0u64;
    for _ in 0..ROUNDS {
        let (x, y) = (
            usize::from(rng.gen::<bool>()),
            usize::from(rng.gen::<bool>()),
        );
        let (a, b) = strategy.play(x, y, rng);
        wins += u64::from(game.wins(x, y, a, b));
    }
    wins
}

#[test]
fn ideal_chsh_hits_the_tsirelson_win_rate() {
    // cos²(π/8) = 1/2 + √2/4 ≈ 0.85355.
    let mut rng = StdRng::seed_from_u64(100);
    let game = XorGame::chsh();
    let w = wins(&game, &mut QuantumChshStrategy::ideal(), &mut rng);
    assert_prob_in!(w, ROUNDS, games::chsh_quantum_value(), conf = CONF);
}

#[test]
fn flipped_chsh_hits_the_same_value() {
    let mut rng = StdRng::seed_from_u64(101);
    let game = XorGame::flipped_chsh();
    let w = wins(&game, &mut QuantumChshStrategy::ideal_flipped(), &mut rng);
    assert_prob_in!(w, ROUNDS, games::chsh_quantum_value(), conf = CONF);
}

#[test]
fn depolarized_pairs_hit_the_werner_closed_form() {
    // A Bell pair depolarized to visibility v (qsim::noise::werner) wins
    // CHSH with probability exactly 1/2 + v·√2/4.
    for (lane, v) in [0.9f64, 0.6].into_iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(200 + lane as u64);
        let game = XorGame::chsh();
        let rho = qsim::noise::werner(v).expect("valid visibility");
        let mut strategy = QuantumChshStrategy::with_source(move || {
            SharedPair::from_density(rho.clone()).expect("valid Werner state")
        });
        let w = wins(&game, &mut strategy, &mut rng);
        assert_prob_in!(w, ROUNDS, games::chsh_werner_value(v), conf = CONF);
    }
}

#[test]
fn sub_threshold_visibility_is_significantly_below_classical() {
    // v = 0.5 < 1/√2: the upper Wilson bound must sit below 0.75, i.e.
    // the degradation is statistically significant, not just a smaller
    // point estimate.
    let mut rng = StdRng::seed_from_u64(300);
    let game = XorGame::chsh();
    let v = 0.5;
    let mut strategy =
        QuantumChshStrategy::with_source(move || SharedPair::werner(v).expect("valid visibility"));
    let w = wins(&game, &mut strategy, &mut rng);
    let check = assert_prob_in!(w, ROUNDS, games::chsh_werner_value(v), conf = CONF);
    assert!(
        check.hi < 0.75,
        "upper bound {:.4} must fall below the classical optimum (n = {ROUNDS}, conf = {CONF})",
        check.hi
    );
}

#[test]
fn mermin_kernel_hits_the_closed_form_for_three_to_eight_players() {
    // The X/Y strategy on a visibility-v GHZ state wins the Mermin game
    // with probability exactly (1 + v)/2 for EVERY player count — the
    // ISSUE-mandated pinning of the kernel win rate, n = 3..8 at
    // 99.9%/50k.
    for n in 3..=8usize {
        for (lane, v) in [1.0f64, 0.8, 0.4].into_iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(400 + 10 * n as u64 + lane as u64);
            let kernel = qsim::ghz::NoisyGhz::new(n, v).expect("valid visibility");
            let batch = games::multiparty::play_mermin_batch(&kernel, ROUNDS, &mut rng);
            assert_prob_in!(
                batch.wins,
                ROUNDS,
                games::multiparty::mermin_quantum_win(v),
                conf = CONF
            );
        }
    }
}

#[test]
fn mermin_kernel_beats_the_classical_bound_above_crossover() {
    // At n = 6, v = 0.6 sits well above the crossover v* = 2^{-2} = 0.25:
    // the LOWER Wilson bound must clear the classical ceiling 0.625.
    let mut rng = StdRng::seed_from_u64(500);
    let n = 6;
    let v = 0.6;
    let kernel = qsim::ghz::NoisyGhz::new(n, v).expect("valid visibility");
    let batch = games::multiparty::play_mermin_batch(&kernel, ROUNDS, &mut rng);
    let check = assert_prob_in!(
        batch.wins,
        ROUNDS,
        games::multiparty::mermin_quantum_win(v),
        conf = CONF
    );
    let bound = games::multiparty::mermin_classical_bound(n);
    assert!(
        check.lo > bound,
        "lower bound {:.4} must clear the classical ceiling {bound} (n = {ROUNDS}, conf = {CONF})",
        check.lo
    );
}

#[test]
fn magic_square_hits_its_closed_form() {
    // Two visibility-v Werner pairs win the Magic Square with probability
    // exactly 1/2 + (4v + 5v²)/18 under uniform referee questions.
    for (lane, v) in [1.0f64, 0.9, 0.5].into_iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(600 + lane as u64);
        let game = games::magic::MagicSquare::new(v).expect("valid visibility");
        let batch = game.play_batch(ROUNDS, &mut rng);
        assert_prob_in!(
            batch.wins,
            ROUNDS,
            games::magic::quantum_win(v),
            conf = CONF
        );
    }
}
