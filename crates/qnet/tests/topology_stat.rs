//! Statistical acceptance tests for the repeater-chain physics.
//!
//! CHSH played over an n-hop chain's delivered Werner pair must win at
//! exactly `1/2 + v_e2e·√2/4` with `v_e2e = v_hop^n · ideality^(n−1)`.
//! Each assertion states its sample size and confidence through
//! `qmath::assert_prob_in!` (99.9% Wilson intervals over 50 000 rounds,
//! half-width ≈ ±0.007) — run `make test-stat` to see the accounting.
//! The below-crossover certificate is one-sided: an 8-hop chain at these
//! parameters has `v_e2e ≈ 0.687 < 1/√2`, so its win rate must sit
//! statistically at its (sub-classical) theory value, below 0.75.

use games::chsh::{alice_angle, bob_angle};
use qmath::assert_prob_in;
use qmath::stattest::wilson_at;
use qnet::{ChainSpec, SwapModel};
use qsim::WernerPair;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CONF: f64 = 0.999;
const ROUNDS: u64 = 50_000;
const HOP_VISIBILITY: f64 = 0.98;

fn swap() -> SwapModel {
    SwapModel::new(0.9, 0.97).unwrap()
}

/// Plays `ROUNDS` standard CHSH rounds over the chain's end-to-end
/// Werner pair; returns the win count.
fn chsh_wins_over_chain(spec: &ChainSpec, rng: &mut StdRng) -> u64 {
    let pair = WernerPair::new(spec.end_to_end_visibility()).expect("valid chain visibility");
    let mut wins = 0u64;
    for _ in 0..ROUNDS {
        let x = usize::from(rng.gen::<bool>());
        let y = usize::from(rng.gen::<bool>());
        let (a, b) = pair.sample(alice_angle(x), bob_angle(y), rng);
        if ((a ^ b) == 1) == (x == 1 && y == 1) {
            wins += 1;
        }
    }
    wins
}

#[test]
fn chsh_over_chain_matches_closed_form() {
    for (lane, hops) in [1usize, 2, 4].into_iter().enumerate() {
        let spec = ChainSpec::uniform(hops, HOP_VISIBILITY, 1.0, swap()).unwrap();
        let v = spec.end_to_end_visibility();
        let expected = games::chsh_werner_value(v);
        let mut rng = StdRng::seed_from_u64(1_000 + lane as u64);
        let wins = chsh_wins_over_chain(&spec, &mut rng);
        assert_prob_in!(wins, ROUNDS, expected, conf = CONF);
    }
}

#[test]
fn below_crossover_chain_is_flagged_and_sub_classical() {
    // 8 hops at these parameters: v_e2e = 0.98⁸·0.97⁷ ≈ 0.687 ≤ 1/√2.
    let spec = ChainSpec::uniform(8, HOP_VISIBILITY, 1.0, swap()).unwrap();
    assert!(!spec.witnesses_chsh(), "8-hop chain must not witness CHSH");
    let v = spec.end_to_end_visibility();
    assert!(v < qsim::noise::WERNER_CHSH_THRESHOLD);
    let expected = games::chsh_werner_value(v);
    // The theory value 0.7430 sits only ~0.007 below the classical 0.75,
    // so the one-sided certificate needs a tighter interval than the
    // two-sided pins: 200k rounds put the 99.9% half-width at ±0.0032.
    let certificate_rounds = 4 * ROUNDS;
    let mut rng = StdRng::seed_from_u64(1_100);
    let pair = WernerPair::new(v).expect("valid chain visibility");
    let mut wins = 0u64;
    for _ in 0..certificate_rounds {
        let x = usize::from(rng.gen::<bool>());
        let y = usize::from(rng.gen::<bool>());
        let (a, b) = pair.sample(alice_angle(x), bob_angle(y), &mut rng);
        if ((a ^ b) == 1) == (x == 1 && y == 1) {
            wins += 1;
        }
    }
    // Two-sided: the rate still matches its (sub-classical) theory...
    assert_prob_in!(wins, certificate_rounds, expected, conf = CONF);
    // ...and one-sided: the whole confidence interval sits below the
    // classical value 0.75 — no quantum advantage survives this chain.
    let (_, hi) = wilson_at(wins, certificate_rounds, CONF);
    assert!(
        hi < games::CHSH_CLASSICAL_VALUE,
        "upper bound {hi} reaches the classical value"
    );
}

#[test]
fn chain_delivery_rate_matches_success_probability() {
    // End-to-end delivery over a lossy 3-hop chain: the single-draw
    // sampler must hit ∏ survival · success² exactly.
    let spec = ChainSpec::new(vec![HOP_VISIBILITY; 3], vec![0.9, 0.8, 0.85], swap()).unwrap();
    let mut rng = StdRng::seed_from_u64(1_200);
    let hits = (0..ROUNDS)
        .filter(|_| spec.sample_attempt(&mut rng))
        .count() as u64;
    assert_prob_in!(hits, ROUNDS, spec.success_probability(), conf = CONF);
}
