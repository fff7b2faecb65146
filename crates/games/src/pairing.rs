//! The pairing rule of the load-balancing protocol (§4.1), written once:
//! each round, a balancer pair's pre-shared randomness picks two distinct
//! candidate servers ([`candidates`]), and the pair's bits ([`PairRule`])
//! send each task to `s1` when its bit is set, else to `s0` ([`place`]).
//! The two tasks co-locate exactly when the bits agree.
//!
//! The flipped CHSH game (`a ⊕ b = ¬(x ∧ y)`) has two forms here:
//! [`PairRule::Quantum`] samples [`CorrelationBox::flipped_chsh`], and
//! [`werner_bits`] measures a (possibly dephased) Werner pair at the
//! paper's angles and negates Bob's bit. On a fresh pair both have the same
//! joint distribution but not the same bits per draw: the sampler orders
//! its cells 00, 01, 10, 11, so negating Bob's bit is not negating the
//! correlation. Merging the forms would change every draw of one form's
//! callers.

use crate::chsh::{alice_angle, bob_angle};
use crate::CorrelationBox;
use qsim::WernerPair;
use rand::{Rng, RngCore};

/// The classical always-split bits: first task to `s0`, second to `s1`.
pub const SPLIT: (bool, bool) = (false, true);

/// Two distinct candidate servers out of `n`, uniform over the `n(n − 1)`
/// ordered pairs. Each range draw is one `next_u64` through the widening
/// multiply `(u · n) >> 64`, the map of both `Rng::gen_range(0..n)` and
/// `runtime::SplitMix64::gen_range(n)`: a caller on either draws the same
/// bits as through those calls.
#[inline]
pub fn candidates<R: RngCore + ?Sized>(n: usize, rng: &mut R) -> (usize, usize) {
    debug_assert!(n >= 2, "need at least two servers");
    let below = |n: usize, rng: &mut R| ((u128::from(rng.next_u64()) * n as u128) >> 64) as usize;
    let s0 = below(n, rng);
    let mut s1 = below(n - 1, rng);
    if s1 >= s0 {
        s1 += 1;
    }
    (s0, s1)
}

/// Where a round's two tasks go: each to `s1` if its bit is set, else `s0`.
#[inline]
pub fn place<T: Copy>((s0, s1): (T, T), (a, b): (bool, bool)) -> (T, T) {
    (if a { s1 } else { s0 }, if b { s1 } else { s0 })
}

/// How a balancer pair turns its inputs into placement bits.
#[derive(Debug, Clone)]
pub enum PairRule {
    /// Classical, always split ([`SPLIT`]): wins CE, EC and EE, never
    /// co-locates CC.
    AlwaysSplit,
    /// Classical, match types (`a = x`, `b = y`): co-locates CC, splits
    /// CE and EC, collides EE.
    MatchTypes,
    /// Flipped CHSH on the box, P(same server) = (1 ± v/√2)/2 with `+`
    /// exactly for two type-C tasks; a round without a pair splits.
    Quantum {
        /// [`CorrelationBox::flipped_chsh`] at the pairs' visibility.
        chsh: CorrelationBox,
        /// Probability a fresh pair is available at decision time.
        availability: f64,
    },
}

impl PairRule {
    /// The quantum rule on pairs of visibility `visibility`, available
    /// with probability `availability`.
    ///
    /// # Panics
    /// Panics if either value is outside `[0, 1]`.
    pub fn quantum(visibility: f64, availability: f64) -> Self {
        assert!((0.0..=1.0).contains(&availability), "bad availability");
        assert!((0.0..=1.0).contains(&visibility), "bad visibility");
        PairRule::Quantum {
            chsh: CorrelationBox::flipped_chsh(visibility),
            availability,
        }
    }

    /// The pair's bits for inputs `(x, y)` (1 = type-C). The quantum rule
    /// draws availability first, then the box sample.
    #[inline]
    pub fn bits<R: RngCore + ?Sized>(&self, x: usize, y: usize, rng: &mut R) -> (bool, bool) {
        match self {
            PairRule::AlwaysSplit => SPLIT,
            PairRule::MatchTypes => (x == 1, y == 1),
            PairRule::Quantum { chsh, availability } => {
                if rng.gen::<f64>() < *availability {
                    chsh.sample(x, y, rng)
                } else {
                    SPLIT
                }
            }
        }
    }
}

/// One flipped-CHSH round on a Werner pair: both halves measured at the
/// paper's angles for inputs `(x, y)`, Bob's bit negated. One draw.
#[inline]
pub fn werner_bits<R: RngCore + ?Sized>(
    pair: &WernerPair,
    x: usize,
    y: usize,
    rng: &mut R,
) -> (bool, bool) {
    let (a, b) = pair.sample(alice_angle(x), bob_angle(y), rng);
    (a == 1, b == 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qmath::assert_prob_in;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use runtime::SplitMix64;

    const BIT_PAIRS: [(usize, usize); 4] = [(0, 0), (0, 1), (1, 0), (1, 1)];

    #[test]
    fn candidates_are_distinct_and_uniform_over_ordered_pairs() {
        let (n, trials) = (4, 120_000u64);
        let mut rng = StdRng::seed_from_u64(1);
        let mut counts = [[0u64; 4]; 4];
        for _ in 0..trials {
            let (s0, s1) = candidates(n, &mut rng);
            assert_ne!(s0, s1, "candidates must differ");
            counts[s0][s1] += 1;
        }
        for (s0, row) in counts.iter().enumerate() {
            for (s1, &count) in row.iter().enumerate().filter(|&(s1, _)| s1 != s0) {
                println!("({s0}, {s1}):");
                assert_prob_in!(count, trials, 1.0 / 12.0, conf = 0.999);
            }
        }
    }

    #[test]
    fn range_draws_match_both_rng_front_ends() {
        let bump = |s0: usize, s1: usize| (s0, s1 + usize::from(s1 >= s0));
        for (seed, n) in (0..200u64).zip([2usize, 3, 7, 100, 1 << 20].into_iter().cycle()) {
            let mut kernel = StdRng::seed_from_u64(seed);
            let mut front = kernel.clone();
            let want = bump(front.gen_range(0..n), front.gen_range(0..n - 1));
            assert_eq!(candidates(n, &mut kernel), want, "StdRng, n = {n}");

            let mut kernel = SplitMix64::new(seed);
            let mut front = kernel;
            let n32 = n as u32;
            let (s0, s1) = (front.gen_range(n32), front.gen_range(n32 - 1));
            let want = bump(s0 as usize, s1 as usize);
            assert_eq!(candidates(n, &mut kernel), want, "SplitMix64, n = {n}");
        }
    }

    #[test]
    fn werner_form_has_the_box_distribution_cell_by_cell() {
        // A generator stuck on one word: a word in the middle of a sampler
        // cell draws that cell, whose mass is the pair's joint probability.
        struct Fixed(u64);
        impl RngCore for Fixed {
            fn next_u32(&mut self) -> u32 {
                (self.0 >> 32) as u32
            }
            fn next_u64(&mut self) -> u64 {
                self.0
            }
            fn fill_bytes(&mut self, _: &mut [u8]) {
                unreachable!("one word per draw")
            }
        }
        for v in [1.0, 0.95, 0.5] {
            let pair = WernerPair::new(v).unwrap();
            let chsh = CorrelationBox::flipped_chsh(v);
            for (x, y) in BIT_PAIRS {
                let (mut law, mut below) = ([[0.0; 2]; 2], 0.0);
                for p in pair.joint_probs(alice_angle(x), bob_angle(y)) {
                    let mid = ((below + p / 2.0) * 2f64.powi(64)) as u64;
                    let (a, b) = werner_bits(&pair, x, y, &mut Fixed(mid));
                    law[usize::from(a)][usize::from(b)] += p;
                    below += p;
                }
                for (a, b) in BIT_PAIRS {
                    let q = chsh.probability(x, y, a == 1, b == 1);
                    let cell = format!("v = {v}, ({x}, {y}), ({a}, {b})");
                    assert!((law[a][b] - q).abs() < 1e-12, "{cell}");
                }
            }
        }
    }

    #[test]
    fn each_rule_co_locates_at_its_rate_per_input_pair() {
        let (v, trials) = (0.9, 20_000u64);
        let q = (1.0 + v * std::f64::consts::FRAC_1_SQRT_2) / 2.0;
        let quantum = PairRule::quantum(v, 1.0);
        let starved = PairRule::quantum(1.0, 0.0);
        let fresh = WernerPair::new(v).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        for (x, y) in BIT_PAIRS {
            let cc = (x, y) == (1, 1);
            let mut check = |rule: &str, want: f64, bits: &dyn Fn(&mut StdRng) -> (bool, bool)| {
                let same = (0..trials)
                    .filter(|_| {
                        let servers = candidates(8, &mut rng);
                        let (first, second) = place(servers, bits(&mut rng));
                        first == second
                    })
                    .count();
                println!("{rule} at ({x}, {y}):");
                assert_prob_in!(same, trials, want, conf = 0.999);
            };
            let (split, matched) = (PairRule::AlwaysSplit, PairRule::MatchTypes);
            check("always-split", 0.0, &|r| split.bits(x, y, r));
            let collide = if x == y { 1.0 } else { 0.0 };
            check("match-types", collide, &|r| matched.bits(x, y, r));
            let flipped = if cc { q } else { 1.0 - q };
            check("quantum", flipped, &|r| quantum.bits(x, y, r));
            check("werner", flipped, &|r| werner_bits(&fresh, x, y, r));
            check("availability 0", 0.0, &|r| starved.bits(x, y, r));
        }
    }
}
