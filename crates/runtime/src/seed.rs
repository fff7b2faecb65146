//! Deterministic seed-stream derivation.
//!
//! Every sweep point gets its own RNG seeded as a pure function of
//! `(master_seed, point_index)`, so results are bit-identical regardless
//! of worker count, chunking, or scheduling order. Derivation is
//! SplitMix64-style: golden-ratio increments pushed through the
//! variant-13 finalizer, the same construction the xoshiro authors
//! recommend for seeding and the one `bench::point_seed` already used.

/// The SplitMix64 finalizer (variant 13): a high-quality 64-bit mixer.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z ^= z >> 30;
    z = z.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z ^= z >> 27;
    z = z.wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

/// Seed for stream `index` of the family identified by `master`.
///
/// Statistically independent across both arguments: two sweeps with
/// different master seeds share no streams, and within a sweep each
/// point's stream is decorrelated from its neighbors'.
#[inline]
pub fn stream_seed(master: u64, index: u64) -> u64 {
    mix64(master ^ mix64(index.wrapping_mul(GOLDEN).wrapping_add(GOLDEN)))
}

/// Deterministic per-point seed from experiment coordinates.
///
/// This is the exact function the bench harness has always used
/// (`bench::point_seed` now delegates here), kept bit-for-bit stable so
/// published experiment tables remain reproducible.
pub fn point_seed(experiment: u64, i: u64, j: u64) -> u64 {
    let z = experiment
        .wrapping_mul(GOLDEN)
        .wrapping_add(i)
        .wrapping_mul(0xbf58_476d_1ce4_e5b9)
        .wrapping_add(j);
    mix64(z)
}

/// A SplitMix64 stream generator: golden-ratio counter pushed through
/// [`mix64`] on every draw.
///
/// This is the allocation-free core generator for hot simulation paths
/// where `StdRng` (ChaCha12) is overkill: three multiplies and a handful
/// of shifts per `u64`. The state is a plain counter, so a stream can be
/// snapshotted, stored in a flat `Vec<u64>`, and resumed — exactly what
/// a sharded simulator needs to keep per-entity sub-streams in
/// structure-of-arrays form. Streams for related entities should be
/// seeded via [`stream_seed`] so they stay decorrelated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Stream seeded at `seed`. Two streams with seeds from
    /// [`stream_seed`] under different indices never collide in practice.
    #[inline]
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Rebuild a stream from a raw snapshot taken with [`Self::raw`].
    #[inline]
    pub fn from_raw(state: u64) -> Self {
        SplitMix64 { state }
    }

    /// The raw counter state, for storage in flat arrays.
    #[inline]
    pub fn raw(&self) -> u64 {
        self.state
    }

    /// Next 64 uniform bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN);
        mix64(self.state)
    }

    /// Uniform double in `[0, 1)` from the top 53 bits of one draw.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)` via the widening-multiply map
    /// (Lemire). One draw, no rejection loop; the residual bias is
    /// `< n / 2^64`, far below Monte-Carlo noise for any simulator-scale
    /// `n`, and the fixed draw count per call is what keeps sharded
    /// stream consumption a pure function of the call sequence.
    #[inline]
    pub fn gen_range(&mut self, n: u32) -> u32 {
        debug_assert!(n > 0, "gen_range needs a non-empty range");
        ((self.next_u64() as u128 * n as u128) >> 64) as u32
    }
}

/// Lets generic samplers (`rand::Rng` bounds) draw from the stream. Every
/// method consumes whole [`SplitMix64::next_u64`] draws, so
/// `Rng::gen::<f64>()` equals [`SplitMix64::next_f64`].
impl rand::RngCore for SplitMix64 {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        (SplitMix64::next_u64(self) >> 32) as u32
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        SplitMix64::next_u64(self)
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let bytes = SplitMix64::next_u64(self).to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic() {
        assert_eq!(stream_seed(1, 2), stream_seed(1, 2));
        assert_eq!(point_seed(1, 2, 3), point_seed(1, 2, 3));
    }

    #[test]
    fn streams_are_distinct_across_indices_and_masters() {
        let mut seen = std::collections::HashSet::new();
        for master in 0..8u64 {
            for index in 0..64u64 {
                assert!(seen.insert(stream_seed(master, index)), "collision");
            }
        }
    }

    #[test]
    fn splitmix_stream_is_reproducible_and_snapshotable() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..16 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        // Snapshot/resume through the raw counter is lossless.
        let snap = a.raw();
        let tail: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let mut resumed = SplitMix64::from_raw(snap);
        let tail2: Vec<u64> = (0..8).map(|_| resumed.next_u64()).collect();
        assert_eq!(tail, tail2);
    }

    #[test]
    fn splitmix_ranges_and_floats_are_in_bounds() {
        let mut rng = SplitMix64::new(7);
        let mut seen_high = false;
        for _ in 0..4096 {
            let f = rng.next_f64();
            assert!((0.0..1.0).contains(&f));
            let r = rng.gen_range(10);
            assert!(r < 10);
            seen_high |= r >= 8;
        }
        assert!(seen_high, "range draws never reached the top decile");
    }

    #[test]
    fn splitmix_matches_the_stream_seed_construction() {
        // One draw from a stream seeded at s is mix64(s + GOLDEN): the
        // same SplitMix64 recipe stream_seed builds on. Frozen so the
        // shard engine's draws can never silently drift.
        let mut rng = SplitMix64::new(0);
        assert_eq!(rng.next_u64(), mix64(GOLDEN));
        assert_eq!(rng.next_u64(), mix64(GOLDEN.wrapping_mul(2)));
    }

    #[test]
    fn rng_core_draws_match_the_inherent_ones() {
        use rand::{Rng, RngCore};
        let mut inherent = SplitMix64::new(99);
        let mut generic = inherent;
        for _ in 0..64 {
            assert_eq!(RngCore::next_u64(&mut generic), inherent.next_u64());
            assert_eq!(generic.gen::<f64>(), inherent.next_f64());
            assert_eq!(
                RngCore::next_u32(&mut generic),
                (inherent.next_u64() >> 32) as u32
            );
        }
        let mut bytes = [0u8; 12];
        generic.fill_bytes(&mut bytes);
        let (lo, hi) = (
            inherent.next_u64().to_le_bytes(),
            inherent.next_u64().to_le_bytes(),
        );
        assert_eq!(bytes[..8], lo);
        assert_eq!(bytes[8..], hi[..4]);
        assert_eq!(generic, inherent);
    }

    #[test]
    fn point_seed_matches_the_historical_formula() {
        // Frozen reference values computed from the original
        // bench::point_seed implementation; changing these silently
        // re-seeds every published experiment table.
        fn reference(experiment: u64, i: u64, j: u64) -> u64 {
            let mut z = experiment
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(i)
                .wrapping_mul(0xbf58_476d_1ce4_e5b9)
                .wrapping_add(j);
            z ^= z >> 30;
            z = z.wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z ^= z >> 27;
            z = z.wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
        for e in [0u64, 1, 40, 99] {
            for i in 0..4 {
                for j in 0..4 {
                    assert_eq!(point_seed(e, i, j), reference(e, i, j));
                }
            }
        }
    }
}
