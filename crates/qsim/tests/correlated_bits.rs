//! The correlated-pair kernel battery: [`CorrelatedBits`] realizes the
//! target joint distribution (the empirical-coordination criterion), and
//! [`WernerPair::sample`] draws exactly the stream of the if/else CDF
//! walk it replaced.

use qmath::assert_prob_in;
use qsim::werner::{CorrelatedBits, WernerPair};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use runtime::SplitMix64;
use std::f64::consts::{FRAC_1_SQRT_2, FRAC_PI_4, FRAC_PI_8, PI};

const CONF: f64 = 0.999;

#[test]
fn cell_frequencies_match_the_target_distribution() {
    let n = 100_000u64;
    let f = FRAC_1_SQRT_2;
    for (i, c) in [-1.0, -f, -0.9 * f, -0.75 * f, 0.0, 0.5, 1.0]
        .into_iter()
        .enumerate()
    {
        let bits = CorrelatedBits::new(c);
        let mut rng = SplitMix64::new(0xC0DE + i as u64);
        let mut counts = [0u64; 4];
        for _ in 0..n {
            let (a, b) = bits.sample(&mut rng);
            counts[(usize::from(a) << 1) | usize::from(b)] += 1;
        }
        let (agree, differ) = ((1.0 + c) / 4.0, (1.0 - c) / 4.0);
        for (cell, expected) in [agree, differ, differ, agree].into_iter().enumerate() {
            assert_prob_in!(counts[cell], n, expected, conf = CONF);
        }
    }
}

/// The Werner kernel's sampler before it moved onto [`CorrelatedBits`],
/// verbatim: one `gen::<f64>()` draw walked through the CDF with
/// branches.
fn if_else_walk(pair: &WernerPair, theta_a: f64, theta_b: f64, rng: &mut SplitMix64) -> (u8, u8) {
    let e = pair.correlation(theta_a, theta_b);
    let agree = 0.25 * (1.0 + e);
    let u: f64 = rng.gen();
    if u < agree {
        (0, 0)
    } else if u < 0.5 {
        (0, 1)
    } else if u < 0.5 + 0.25 * (1.0 - e) {
        (1, 0)
    } else {
        (1, 1)
    }
}

#[test]
fn werner_stream_equals_the_if_else_walk() {
    // The four CHSH angle pairs on the ideal pair, then random (pair,
    // angles) configurations: 1000 configurations × 1000 draws.
    let chsh = [
        (0.0, FRAC_PI_8),
        (0.0, -FRAC_PI_8),
        (FRAC_PI_4, FRAC_PI_8),
        (FRAC_PI_4, -FRAC_PI_8),
    ];
    let mut params = StdRng::seed_from_u64(0x5EED_0004);
    let mut kernel_rng = SplitMix64::new(0xD1CE);
    let mut oracle_rng = kernel_rng;
    for config in 0..1000 {
        let (pair, ta, tb) = match chsh.get(config) {
            Some(&(ta, tb)) => (WernerPair::ideal(), ta, tb),
            None => {
                let pair =
                    WernerPair::with_dephasing(params.gen(), params.gen(), params.gen()).unwrap();
                (pair, params.gen::<f64>() * PI, params.gen::<f64>() * PI)
            }
        };
        for draw in 0..1000 {
            let got = pair.sample(ta, tb, &mut kernel_rng);
            let want = if_else_walk(&pair, ta, tb, &mut oracle_rng);
            assert_eq!(
                got, want,
                "config {config} draw {draw}: {pair:?} at ({ta}, {tb})"
            );
        }
    }
    assert_eq!(kernel_rng, oracle_rng, "one draw per sample");
}
