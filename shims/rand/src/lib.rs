//! Offline stand-in for the `rand` crate.
//!
//! The build environment has no registry access, so the workspace vendors
//! the *API subset it actually uses* behind the same paths (`rand::Rng`,
//! `rand::rngs::StdRng`, …). Generators are deterministic and seeded
//! explicitly everywhere in this workspace, so the only contract that
//! matters is "good statistical quality + stable streams", not
//! bit-compatibility with upstream `rand`'s ChaCha12-based `StdRng`.
//!
//! `StdRng` here is xoshiro256++ (Blackman–Vigna), seeded through
//! SplitMix64 exactly as the xoshiro reference code recommends. It passes
//! BigCrush and is more than adequate for the Monte-Carlo workloads in
//! this repository.

use std::ops::Range;

/// Core entropy source: the object-safe subset of upstream `RngCore`.
pub trait RngCore {
    fn next_u32(&mut self) -> u32;
    fn next_u64(&mut self) -> u64;
    fn fill_bytes(&mut self, dest: &mut [u8]);
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        (**self).fill_bytes(dest)
    }
}

impl<R: RngCore + ?Sized> RngCore for Box<R> {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        (**self).fill_bytes(dest)
    }
}

/// Types samplable uniformly from raw generator output (upstream's
/// `Standard` distribution).
pub trait Standard: Sized {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    /// Uniform in `[0, 1)` with 53 bits of precision.
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> f32 {
        (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

impl Standard for bool {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> bool {
        rng.next_u64() >> 63 != 0
    }
}

macro_rules! impl_standard_int {
    ($($t:ty => $next:ident),+ $(,)?) => {$(
        impl Standard for $t {
            fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> $t {
                rng.$next() as $t
            }
        }
    )+};
}
impl_standard_int!(
    u8 => next_u32, u16 => next_u32, u32 => next_u32, u64 => next_u64,
    usize => next_u64, i8 => next_u32, i16 => next_u32, i32 => next_u32,
    i64 => next_u64, isize => next_u64,
);

/// Half-open ranges samplable via `Rng::gen_range` (upstream's
/// `SampleRange`).
pub trait SampleRange<T> {
    fn sample_range<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! impl_sample_range_uint {
    ($($t:ty),+ $(,)?) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_range<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let span = (self.end - self.start) as u64;
                // Lemire-style widening multiply: bias < 2^-64 per draw,
                // immaterial for Monte-Carlo use.
                let hi = ((rng.next_u64() as u128 * span as u128) >> 64) as u64;
                self.start + hi as $t
            }
        }
    )+};
}
impl_sample_range_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_sample_range_int {
    ($($t:ty as $u:ty),+ $(,)?) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_range<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let span = (self.end as i128 - self.start as i128) as u64;
                let hi = ((rng.next_u64() as u128 * span as u128) >> 64) as u64;
                (self.start as i128 + hi as i128) as $t
            }
        }
    )+};
}
impl_sample_range_int!(i8 as u8, i16 as u16, i32 as u32, i64 as u64, isize as usize);

impl SampleRange<f64> for Range<f64> {
    fn sample_range<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "gen_range: empty range");
        self.start + f64::sample_standard(rng) * (self.end - self.start)
    }
}

impl SampleRange<f32> for Range<f32> {
    fn sample_range<R: RngCore + ?Sized>(self, rng: &mut R) -> f32 {
        assert!(self.start < self.end, "gen_range: empty range");
        self.start + f32::sample_standard(rng) * (self.end - self.start)
    }
}

/// Convenience sampling methods, blanket-implemented for every generator
/// (including `dyn RngCore` trait objects, as upstream does).
pub trait Rng: RngCore {
    fn gen<T: Standard>(&mut self) -> T {
        T::sample_standard(self)
    }

    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_range(self)
    }

    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool: p = {p} out of range");
        f64::sample_standard(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Explicitly seedable generators.
pub trait SeedableRng: Sized {
    type Seed: Default + AsMut<[u8]>;

    fn from_seed(seed: Self::Seed) -> Self;

    /// Derives a full seed from one `u64` via SplitMix64 (the xoshiro
    /// authors' recommended seeding procedure).
    fn seed_from_u64(mut state: u64) -> Self {
        let mut seed = Self::Seed::default();
        for chunk in seed.as_mut().chunks_mut(8) {
            let mut z = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            state = z;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            for (b, s) in chunk.iter_mut().zip(z.to_le_bytes()) {
                *b = s;
            }
        }
        Self::from_seed(seed)
    }
}

pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The workspace's standard generator: xoshiro256++.
    ///
    /// Not bit-compatible with upstream `rand::rngs::StdRng` (ChaCha12);
    /// every consumer in this workspace seeds explicitly and asserts
    /// statistics, not exact streams, so the swap is behavior-preserving.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl RngCore for StdRng {
        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }

        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }

        fn fill_bytes(&mut self, dest: &mut [u8]) {
            for chunk in dest.chunks_mut(8) {
                let v = self.next_u64().to_le_bytes();
                chunk.copy_from_slice(&v[..chunk.len()]);
            }
        }
    }

    impl SeedableRng for StdRng {
        type Seed = [u8; 32];

        fn from_seed(seed: [u8; 32]) -> Self {
            let mut s = [0u64; 4];
            for (i, chunk) in seed.chunks(8).enumerate() {
                s[i] = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
            }
            // An all-zero state is a fixed point of xoshiro; nudge it.
            if s == [0; 4] {
                s = [0x9e37_79b9_7f4a_7c15, 0xbf58_476d_1ce4_e5b9, 1, 2];
            }
            StdRng { s }
        }
    }

    /// Alias: this workspace never needs a distinct small generator.
    pub type SmallRng = StdRng;
}

pub mod seq {
    use super::{Rng, RngCore};

    /// Slice shuffling/choosing (upstream `rand::seq::SliceRandom`).
    pub trait SliceRandom {
        type Item;

        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R);
        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        /// Fisher–Yates.
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = rng.gen_range(0..i + 1);
                self.swap(i, j);
            }
        }

        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                Some(&self[rng.gen_range(0..self.len())])
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::{Rng, RngCore, SeedableRng};

    #[test]
    fn streams_are_deterministic_and_seed_sensitive() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        let mut c = StdRng::seed_from_u64(43);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn f64_is_uniform_unit_interval() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 100_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let u: f64 = rng.gen();
            assert!((0.0..1.0).contains(&u));
            sum += u;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn gen_range_hits_all_buckets() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut counts = [0usize; 7];
        for _ in 0..70_000 {
            counts[rng.gen_range(0..7usize)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!((c as f64 - 10_000.0).abs() < 1_000.0, "bucket {i}: {c}");
        }
    }

    #[test]
    fn gen_range_signed_and_float() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..1_000 {
            let v = rng.gen_range(-5i32..5);
            assert!((-5..5).contains(&v));
            let f = rng.gen_range(-2.5f64..2.5);
            assert!((-2.5..2.5).contains(&f));
        }
    }

    #[test]
    fn bool_is_fair() {
        let mut rng = StdRng::seed_from_u64(4);
        let heads = (0..50_000).filter(|_| rng.gen::<bool>()).count();
        assert!((heads as f64 - 25_000.0).abs() < 1_000.0, "heads {heads}");
    }

    #[test]
    fn works_through_dyn_rngcore() {
        let mut rng = StdRng::seed_from_u64(5);
        let dynref: &mut dyn RngCore = &mut rng;
        let x: f64 = dynref.gen();
        assert!((0.0..1.0).contains(&x));
        let k = dynref.gen_range(0..10usize);
        assert!(k < 10);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut v: Vec<usize> = (0..50).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert!(v.choose(&mut rng).is_some());
    }
}
