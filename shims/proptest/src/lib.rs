//! Offline stand-in for `proptest`.
//!
//! Implements the subset this workspace's property tests use — range /
//! tuple / `Just` / `prop_oneof!` / mapped strategies, fixed-length
//! `collection::vec`, `any::<bool>()`, and the `proptest!` test macro —
//! as plain deterministic random sampling. There is **no shrinking**: a
//! failing case panics with its case index and the generator seed is a
//! pure function of the test name, so failures reproduce exactly on
//! re-run. Property tests here are invariant checks over tolerances, so
//! shrinking is a debugging convenience, not a correctness requirement.

use rand::rngs::StdRng;

pub mod strategy {
    use super::StdRng;
    use rand::{Rng, RngCore};
    use std::marker::PhantomData;
    use std::ops::Range;

    /// A value generator. Object-safe (`sample` takes the concrete
    /// workspace generator) so `prop_oneof!` can mix strategy types.
    pub trait Strategy {
        type Value;

        fn sample(&self, rng: &mut StdRng) -> Self::Value;

        fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }

        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            Box::new(self)
        }
    }

    pub type BoxedStrategy<T> = Box<dyn Strategy<Value = T>>;

    impl<T> Strategy for Box<dyn Strategy<Value = T>> {
        type Value = T;
        fn sample(&self, rng: &mut StdRng) -> T {
            (**self).sample(rng)
        }
    }

    /// Helper with inferred value type, used by `prop_oneof!`.
    pub fn boxed<S: Strategy + 'static>(s: S) -> BoxedStrategy<S::Value> {
        Box::new(s)
    }

    /// Always yields a clone of the given value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn sample(&self, _rng: &mut StdRng) -> T {
            self.0.clone()
        }
    }

    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
        type Value = U;
        fn sample(&self, rng: &mut StdRng) -> U {
            (self.f)(self.inner.sample(rng))
        }
    }

    /// Uniform choice among boxed alternatives (`prop_oneof!`).
    pub struct Union<T> {
        options: Vec<BoxedStrategy<T>>,
    }

    impl<T> Union<T> {
        pub fn new(options: Vec<BoxedStrategy<T>>) -> Self {
            assert!(!options.is_empty(), "prop_oneof! needs at least one arm");
            Union { options }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn sample(&self, rng: &mut StdRng) -> T {
            let k = rng.gen_range(0..self.options.len());
            self.options[k].sample(rng)
        }
    }

    macro_rules! impl_strategy_for_range {
        ($($t:ty),+ $(,)?) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut StdRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
        )+};
    }
    impl_strategy_for_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

    macro_rules! impl_strategy_for_tuple {
        ($($s:ident . $idx:tt),+) => {
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn sample(&self, rng: &mut StdRng) -> Self::Value {
                    ($(self.$idx.sample(rng),)+)
                }
            }
        };
    }
    impl_strategy_for_tuple!(A.0);
    impl_strategy_for_tuple!(A.0, B.1);
    impl_strategy_for_tuple!(A.0, B.1, C.2);
    impl_strategy_for_tuple!(A.0, B.1, C.2, D.3);
    impl_strategy_for_tuple!(A.0, B.1, C.2, D.3, E.4);

    /// `any::<T>()` — the full domain of `T` (implemented for the types
    /// the workspace requests).
    pub struct Any<T>(PhantomData<T>);

    pub fn any<T>() -> Any<T>
    where
        Any<T>: Strategy,
    {
        Any(PhantomData)
    }

    impl Strategy for Any<bool> {
        type Value = bool;
        fn sample(&self, rng: &mut StdRng) -> bool {
            rng.gen()
        }
    }

    macro_rules! impl_any_int {
        ($($t:ty),+ $(,)?) => {$(
            impl Strategy for Any<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut StdRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )+};
    }
    impl_any_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);
}

pub mod collection {
    use super::strategy::Strategy;
    use super::StdRng;
    use rand::Rng;
    use std::ops::Range;

    /// Length specification for [`vec()`]: a fixed size or a half-open
    /// range of sizes (mirrors proptest's `SizeRange` conversions).
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // exclusive
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "collection::vec: empty size range");
            SizeRange {
                lo: r.start,
                hi: r.end,
            }
        }
    }

    /// Vector of independently sampled elements with sampled length.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut StdRng) -> Vec<S::Value> {
            let len = if self.size.hi - self.size.lo == 1 {
                self.size.lo
            } else {
                rng.gen_range(self.size.lo..self.size.hi)
            };
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

pub mod config {
    /// Per-block test configuration (`cases` is the only knob used here).
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        pub cases: u32,
    }

    impl ProptestConfig {
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 256 }
        }
    }
}

/// FNV-1a of the test name: a stable per-test seed so every run samples
/// the identical case sequence (failures reproduce without a seed file).
pub fn seed_for_test_name(name: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)*) => { assert!($cond, $($fmt)*) };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)*) => { assert_eq!($a, $b, $($fmt)*) };
}

#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![$($crate::strategy::boxed($arm)),+])
    };
}

#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@expand ($cfg) $($rest)*);
    };
    (@expand ($cfg:expr) $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let __config: $crate::config::ProptestConfig = $cfg;
            let __seed = $crate::seed_for_test_name(concat!(module_path!(), "::", stringify!($name)));
            let mut __rng = <::rand::rngs::StdRng as ::rand::SeedableRng>::seed_from_u64(__seed);
            for __case in 0..__config.cases {
                let _ = __case;
                let ($($arg,)+) = (
                    $($crate::strategy::Strategy::sample(&($strat), &mut __rng),)+
                );
                $body
            }
        }
    )*};
    ($($rest:tt)*) => {
        $crate::proptest!(@expand ($crate::config::ProptestConfig::default()) $($rest)*);
    };
}

pub mod prelude {
    pub use crate::collection;
    pub use crate::config::ProptestConfig;
    pub use crate::strategy::{any, Just, Strategy};
    pub use crate::{prop_assert, prop_assert_eq, prop_oneof, proptest};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_stay_in_bounds(x in 0u64..100, f in -1.0f64..1.0) {
            prop_assert!(x < 100);
            prop_assert!((-1.0..1.0).contains(&f));
        }

        #[test]
        fn vec_and_tuple_strategies_compose(
            vals in collection::vec(0.0f64..1.0, 7),
            pair in (0u8..4, 0u8..4).prop_map(|(a, b)| (a, b)))
        {
            prop_assert_eq!(vals.len(), 7);
            prop_assert!(vals.iter().all(|v| (0.0..1.0).contains(v)));
            prop_assert!(pair.0 < 4 && pair.1 < 4);
        }

        #[test]
        fn oneof_yields_every_arm_eventually(choice in prop_oneof![
            Just(0usize),
            Just(1usize),
            (2usize..4).prop_map(|v| v),
        ]) {
            prop_assert!(choice < 4);
        }

        #[test]
        fn any_bool_works(b in any::<bool>()) {
            prop_assert!(usize::from(b) <= 1);
        }
    }

    #[test]
    fn seeds_differ_per_test_name() {
        assert_ne!(
            crate::seed_for_test_name("a::one"),
            crate::seed_for_test_name("a::two")
        );
    }
}
