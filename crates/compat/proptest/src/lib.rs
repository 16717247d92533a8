//! Offline stand-in for the `proptest` crate.
//!
//! Provides the subset this workspace's property tests use: the
//! [`Strategy`](strategy::Strategy) trait with `prop_map`, range and tuple
//! strategies, [`collection::vec`], [`ProptestConfig`](test_runner::ProptestConfig)
//! and the [`proptest!`] macro. Unlike upstream there is no shrinking and no
//! persisted failure seeds: each case is seeded deterministically from the
//! test name and case index, so failures reproduce on every run.

#![forbid(unsafe_code)]

/// Re-export for macro-generated code; not part of the public API.
#[doc(hidden)]
pub mod __rng {
    pub use rand::rngs::StdRng;
    pub use rand::SeedableRng;
}

/// Deterministic per-case seed: FNV-1a of the test name, mixed with the
/// case index. Not part of the public API.
#[doc(hidden)]
pub fn __seed(test_name: &str, case: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in test_name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h ^ case.wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// Value-generation strategies.
pub mod strategy {
    use rand::rngs::StdRng;
    use rand::Rng;

    /// A recipe for generating random values of an output type.
    pub trait Strategy {
        /// The type of value this strategy produces.
        type Value;

        /// Draws one value from `rng`.
        fn generate(&self, rng: &mut StdRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }
    }

    /// Strategy returned by [`Strategy::prop_map`].
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;

        fn generate(&self, rng: &mut StdRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// Strategy that always yields a clone of the given value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;

        fn generate(&self, _rng: &mut StdRng) -> T {
            self.0.clone()
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut StdRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
            impl Strategy for core::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut StdRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
        )*};
    }

    impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

    macro_rules! impl_tuple_strategy {
        ($(($($s:ident / $idx:tt),+))*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn generate(&self, rng: &mut StdRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        )*};
    }

    impl_tuple_strategy! {
        (A / 0, B / 1)
        (A / 0, B / 1, C / 2)
        (A / 0, B / 1, C / 2, D / 3)
        (A / 0, B / 1, C / 2, D / 3, E / 4)
        (A / 0, B / 1, C / 2, D / 3, E / 4, F / 5)
    }
}

/// Strategies over collections.
pub mod collection {
    use super::strategy::Strategy;
    use rand::rngs::StdRng;
    use rand::Rng;

    /// Number of elements a collection strategy may produce.
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        min: usize,
        /// Exclusive upper bound.
        max: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { min: n, max: n + 1 }
        }
    }

    impl From<core::ops::Range<usize>> for SizeRange {
        fn from(r: core::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty collection size range");
            SizeRange { min: r.start, max: r.end }
        }
    }

    impl From<core::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: core::ops::RangeInclusive<usize>) -> Self {
            SizeRange { min: *r.start(), max: *r.end() + 1 }
        }
    }

    /// Strategy producing `Vec`s whose elements come from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }

    /// Strategy returned by [`vec`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut StdRng) -> Vec<S::Value> {
            let len = if self.size.max - self.size.min <= 1 {
                self.size.min
            } else {
                rng.gen_range(self.size.min..self.size.max)
            };
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Test-runner configuration.
pub mod test_runner {
    /// Controls how many random cases each property test runs.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of generated cases per test.
        pub cases: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 64 }
        }
    }

    impl ProptestConfig {
        /// Config running `cases` cases per test.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }
}

/// The usual imports: `use proptest::prelude::*;`.
pub mod prelude {
    pub use crate::collection;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
}

/// Asserts a condition inside a property test.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)+) => { assert!($cond, $($fmt)+) };
}

/// Asserts equality inside a property test.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => { assert_eq!($left, $right) };
    ($left:expr, $right:expr, $($fmt:tt)+) => { assert_eq!($left, $right, $($fmt)+) };
}

/// Asserts inequality inside a property test.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr) => { assert_ne!($left, $right) };
    ($left:expr, $right:expr, $($fmt:tt)+) => { assert_ne!($left, $right, $($fmt)+) };
}

/// Declares property tests: each `#[test] fn name(arg in strategy, ...)
/// { body }` becomes a test that runs the body over `cases` generated
/// inputs. As in upstream proptest, the `#[test]` attribute is written on
/// the function and passed through; the macro adds none of its own.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! {
            ($crate::test_runner::ProptestConfig::default()); $($rest)*
        }
    };
}

/// Recursive helper for [`proptest!`]; not part of the public API.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (($cfg:expr);) => {};
    (($cfg:expr); $(#[$meta:meta])* fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block $($rest:tt)*) => {
        $(#[$meta])*
        fn $name() {
            let __cfg: $crate::test_runner::ProptestConfig = $cfg;
            for __case in 0..__cfg.cases {
                let mut __rng = <$crate::__rng::StdRng as $crate::__rng::SeedableRng>::seed_from_u64(
                    $crate::__seed(stringify!($name), __case as u64),
                );
                $(
                    let $arg = $crate::strategy::Strategy::generate(&($strat), &mut __rng);
                )+
                $body
            }
        }
        $crate::__proptest_fns! { ($cfg); $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn ranges_stay_in_bounds(x in 0usize..10, y in -1.0f32..1.0) {
            prop_assert!(x < 10);
            prop_assert!((-1.0..1.0).contains(&y));
        }

        #[test]
        fn vec_sizes_respected(v in collection::vec(0u64..5, 3), w in collection::vec(0u64..5, 1..4)) {
            prop_assert_eq!(v.len(), 3);
            prop_assert!((1..4).contains(&w.len()));
        }

        #[test]
        fn tuples_and_prop_map(p in (0usize..4, 0usize..4).prop_map(|(a, b)| a * 10 + b)) {
            prop_assert!(p <= 33);
        }
    }

    #[test]
    fn cases_are_deterministic_across_runs() {
        use crate::__rng::{SeedableRng, StdRng};
        let strat = collection::vec(-1.0f32..1.0, 5);
        let mut r1 = StdRng::seed_from_u64(crate::__seed("t", 0));
        let mut r2 = StdRng::seed_from_u64(crate::__seed("t", 0));
        assert_eq!(strat.generate(&mut r1), strat.generate(&mut r2));
    }
}
