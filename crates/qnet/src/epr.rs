//! The SPDC entangled-pair source.
//!
//! §3: "Bell pairs can be generated at rates of 10⁴ to 10⁷ pairs per
//! second depending on the experimental setup". SPDC emission is a
//! Poisson process (each pump photon splits with tiny probability), so
//! inter-emission gaps are exponential with mean `1/rate`.

use rand::Rng;

/// An entangled-photon-pair source.
#[derive(Debug, Clone, Copy)]
pub struct EprSource {
    rate_hz: f64,
    visibility: f64,
}

impl EprSource {
    /// A source emitting at `rate_hz` pairs/s with the given pair
    /// visibility (1.0 = perfect Bell pairs).
    ///
    /// # Panics
    /// Panics if `rate_hz <= 0` or `visibility ∉ [0, 1]`.
    pub fn new(rate_hz: f64, visibility: f64) -> Self {
        assert!(rate_hz > 0.0, "rate must be positive");
        assert!((0.0..=1.0).contains(&visibility), "bad visibility");
        EprSource {
            rate_hz,
            visibility,
        }
    }

    /// A representative room-temperature SPDC setup: 10⁵ pairs/s at
    /// visibility 0.95 (mid-range of the paper's §3 figures).
    pub fn typical_room_temperature() -> Self {
        EprSource::new(1e5, 0.95)
    }

    /// Emission rate in pairs/s.
    pub fn rate_hz(&self) -> f64 {
        self.rate_hz
    }

    /// Pair visibility.
    pub fn visibility(&self) -> f64 {
        self.visibility
    }

    /// Samples the (exponential) gap to the next emission, in integer
    /// nanoseconds. This is the primitive the batched emission plane
    /// accumulates: summing integer-ns gaps cannot drift the way the old
    /// f64 → `Duration` round-trip did (every `from_secs_f64` truncated
    /// sub-ns mass, biasing long runs slow relative to the analytic rate).
    /// Gaps round to nearest and clamp to ≥ 1 ns so event time always
    /// advances.
    pub fn sample_interval_ns<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        // Inverse-CDF sampling; guard the log against u = 0.
        let u: f64 = rng.gen::<f64>().max(1e-300);
        secs_to_ns(-u.ln() / self.rate_hz)
    }

    /// Whether an emission scheduled at the nominal rate survives a
    /// brownout at `rate_factor` × nominal. Thinning a Poisson process
    /// keeps each event independently with probability `rate_factor`,
    /// which yields exactly a Poisson process at the reduced rate — so a
    /// brownout needs no re-scheduling of pending emissions. Draws no
    /// randomness at `rate_factor ≥ 1`, so fault-free runs keep their
    /// exact RNG stream.
    pub fn brownout_keeps<R: Rng + ?Sized>(&self, rate_factor: f64, rng: &mut R) -> bool {
        debug_assert!(rate_factor >= 0.0, "negative rate factor");
        rate_factor >= 1.0 || rng.gen::<f64>() < rate_factor
    }
}

/// Converts a gap in seconds to integer nanoseconds (round-to-nearest,
/// clamped to ≥ 1 ns so simulated time strictly advances).
fn secs_to_ns(secs: f64) -> u64 {
    ((secs * 1e9).round() as u64).max(1)
}

/// The surviving pairs of a source whose pairs each survive the fibers
/// independently with probability `p`. Thinning a Poisson(`λ`) process
/// Bernoulli(`p`)-wise yields exactly a Poisson(`p·λ`) process, so a
/// whole inter-survivor block of emissions costs two draws — one gap
/// ([`Self::gap_ns`]) and one loss count ([`Self::lost_before`]) —
/// instead of one-plus-two per photon. The per-draw constants, `p·λ`,
/// `ln(1 − p)` and the no-loss cut, are computed once here.
#[derive(Debug, Clone, Copy)]
pub struct SurvivorProcess {
    /// The thinned rate `p·λ`, in survivors/s.
    rate_hz: f64,
    /// `ln(1 − p)`; `None` on lossless links, which draw no losses.
    ln_loss: Option<f64>,
    /// `1 − p` raised by a relative 1e-9. A loss draw above it counts no
    /// loss: `⌊ln u / ln(1 − p)⌋` is 0 for every `u > 1 − p`, and the
    /// margin lies far outside `ln`'s rounding error (under 1e-15
    /// relative), so skipping the log there changes no count.
    no_loss_above: f64,
}

impl SurvivorProcess {
    /// The survivors of `source` at pair survival probability `p`.
    ///
    /// # Panics
    /// Debug-asserts `p ∈ [0, 1]`.
    pub fn new(source: &EprSource, p: f64) -> Self {
        debug_assert!((0.0..=1.0).contains(&p), "bad survival probability {p}");
        SurvivorProcess {
            rate_hz: source.rate_hz * p,
            ln_loss: (p < 1.0).then(|| (1.0 - p).ln()),
            no_loss_above: (1.0 - p) * (1.0 + 1e-9),
        }
    }

    /// Samples the (exponential) gap to the next survivor, in integer
    /// nanoseconds (rounding as [`EprSource::sample_interval_ns`]).
    ///
    /// # Panics
    /// Debug-asserts `p > 0`: no pair survives otherwise.
    pub fn gap_ns<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        debug_assert!(self.rate_hz > 0.0, "no survivors at zero survival");
        let u: f64 = rng.gen::<f64>().max(1e-300);
        secs_to_ns(-u.ln() / self.rate_hz)
    }

    /// Number of *lost* pairs preceding the next survivor: geometric,
    /// sampled in one draw by inverting its CDF
    /// (`failures = ⌊ln u / ln(1 − p)⌋`). A draw above the no-loss cut
    /// returns 0 without the log (most draws on a short link). Draws
    /// nothing at `p = 1` — lossless links consume no loss randomness.
    pub fn lost_before<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let Some(ln_loss) = self.ln_loss else {
            return 0;
        };
        let u: f64 = rng.gen::<f64>().max(1e-300);
        if u > self.no_loss_above {
            return 0;
        }
        (u.ln() / ln_loss) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    #[test]
    fn sampled_intervals_have_right_mean() {
        let mut rng = StdRng::seed_from_u64(1);
        let s = EprSource::new(1e5, 1.0);
        let n = 20_000;
        let total: f64 = (0..n)
            .map(|_| s.sample_interval_ns(&mut rng) as f64 * 1e-9)
            .sum();
        let mean = total / n as f64;
        assert!((mean - 1e-5).abs() < 5e-7, "mean {mean}");
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn zero_rate_panics() {
        EprSource::new(0.0, 1.0);
    }

    #[test]
    fn integer_ns_accumulation_stays_on_rate() {
        // Regression for the f64 → Duration round-trip truncation: count
        // ~10⁶ emissions at 10⁵ pairs/s by accumulating integer-ns gaps
        // over a 10 s horizon, and require the count to sit inside the
        // Wilson interval of the per-ns emission probability. The old
        // truncating path biased every gap short by up to 1 ns, which at
        // ~10⁴ ns mean gaps drifts the count visibly over 10⁶ events.
        let s = EprSource::new(1e5, 1.0);
        let mut rng = StdRng::seed_from_u64(0xACC);
        let horizon_ns: u64 = 10_000_000_000; // 10 s ⇒ E[count] = 10⁶
        let mut t_ns = 0u64;
        let mut count = 0u64;
        loop {
            t_ns += s.sample_interval_ns(&mut rng);
            if t_ns > horizon_ns {
                break;
            }
            count += 1;
        }
        // Poisson(λT) ≈ Binomial(T_ns trials, rate·1e-9 per ns).
        qmath::assert_prob_in!(count, horizon_ns, 1e-4, conf = 0.999);
    }

    #[test]
    fn survivor_gaps_match_thinned_rate() {
        // Thinned process: survivors of p = 0.1 at 10⁶ pairs/s must arrive
        // at 10⁵/s on average.
        let s = SurvivorProcess::new(&EprSource::new(1e6, 1.0), 0.1);
        let mut rng = StdRng::seed_from_u64(7);
        let n = 20_000;
        let total_ns: u64 = (0..n).map(|_| s.gap_ns(&mut rng)).sum();
        let mean = total_ns as f64 / n as f64;
        assert!((mean - 1e4).abs() < 500.0, "mean survivor gap {mean} ns");
    }

    /// Yields one fixed word, so a test can choose the `u` a draw sees.
    struct Word(u64);

    impl RngCore for Word {
        fn next_u32(&mut self) -> u32 {
            (self.0 >> 32) as u32
        }
        fn next_u64(&mut self) -> u64 {
            self.0
        }
        fn fill_bytes(&mut self, _: &mut [u8]) {
            unreachable!("loss draws take one u64")
        }
    }

    #[test]
    fn no_loss_cut_returns_what_the_full_formula_returns() {
        // The cut may skip the log only where `⌊ln u / ln(1 − p)⌋` is 0:
        // check words on both sides of the cut and of `1 − p` itself (where
        // the count first reaches 1), then 10⁵ seeded draws.
        let source = EprSource::new(1e5, 1.0);
        let mut rng = StdRng::seed_from_u64(0xC07);
        for p in [1e-6, 0.1, 0.5, 0.912, 1.0 - 1e-6] {
            let s = SurvivorProcess::new(&source, p);
            let full = |word: u64| {
                let u: f64 = Word(word).gen::<f64>().max(1e-300);
                (u.ln() / (1.0 - p).ln()) as u64
            };
            // The word whose draw is the largest `u` not above `x`.
            let word_at = |x: f64| ((x * (1u64 << 53) as f64) as u64) << 11;
            let step = 1u64 << 11;
            let mut words = vec![0, u64::MAX];
            for centre in [word_at(s.no_loss_above), word_at(1.0 - p)] {
                words.extend((0..=4).map(|k| centre + k * step - 2 * step));
            }
            let (mut above, mut below) = (0, 0);
            for w in words {
                let u: f64 = Word(w).gen();
                above += u64::from(u > s.no_loss_above);
                below += u64::from(u <= s.no_loss_above);
                assert_eq!(s.lost_before(&mut Word(w)), full(w), "p {p}, word {w:#x}");
            }
            assert!(above > 0 && below > 0, "p {p}: words must straddle the cut");
            for _ in 0..100_000 {
                let w = rng.next_u64();
                assert_eq!(s.lost_before(&mut Word(w)), full(w), "p {p}, word {w:#x}");
            }
        }
    }

    #[test]
    fn geometric_skip_counts_losses_exactly() {
        // E[failures] = (1-p)/p; at p = 0.25 that is 3 lost per survivor.
        let source = EprSource::new(1e6, 1.0);
        let s = SurvivorProcess::new(&source, 0.25);
        let mut rng = StdRng::seed_from_u64(8);
        let n = 50_000u64;
        let total: u64 = (0..n).map(|_| s.lost_before(&mut rng)).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 3.0).abs() < 0.1, "mean losses {mean}");
        // Lossless links draw nothing and skip nothing.
        let mut probe = rng.clone();
        assert_eq!(SurvivorProcess::new(&source, 1.0).lost_before(&mut rng), 0);
        assert_eq!(
            rng.gen::<u64>(),
            probe.gen::<u64>(),
            "lossless skip drew randomness"
        );
    }
}
