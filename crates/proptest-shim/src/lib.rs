//! Vendored, std-only property-testing shim.
//!
//! The build environment has no reachable crate registry, so this crate
//! re-implements the subset of the `proptest` API the workspace's test
//! suites use: the [`proptest!`] macro, [`Strategy`] with `prop_map`,
//! [`any`], range and tuple strategies, [`Just`], [`prop_oneof!`],
//! `collection::{vec, btree_set}`, `sample::Index`, and the
//! `prop_assert*` macros.
//!
//! Differences from the real crate, deliberately accepted:
//!
//! * **No shrinking** — a failing case reports the case number; re-running
//!   is fully deterministic (the per-case RNG is seeded from the test name
//!   and case index), so failures always reproduce exactly.
//! * **Fixed case count** — `ProptestConfig::with_cases(n)` and the
//!   `PROPTEST_CASES` environment variable are honored; the default is 64.

use std::marker::PhantomData;

pub mod test_runner {
    //! Deterministic per-test randomness.

    /// SplitMix64 step (seed expansion).
    #[inline]
    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// xoshiro256++ generator seeded from (test name, case index): the
    /// same test always replays the same cases, run-to-run and
    /// machine-to-machine.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        s: [u64; 4],
    }

    impl TestRng {
        /// RNG for one generated case of one named test.
        pub fn for_case(test_name: &str, case: u64) -> Self {
            // FNV-1a over the name, mixed with the case index.
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in test_name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100_0000_01b3);
            }
            let mut sm = h ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let mut s = [0u64; 4];
            for slot in &mut s {
                *slot = splitmix64(&mut sm);
            }
            TestRng { s }
        }

        /// Raw 64-bit draw.
        pub fn next_u64(&mut self) -> u64 {
            let result = self.s[0]
                .wrapping_add(self.s[3])
                .rotate_left(23)
                .wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }

        /// Uniform in `[0, n)`; `n` must be non-zero.
        pub fn below(&mut self, n: u64) -> u64 {
            debug_assert!(n > 0);
            ((self.next_u64() as u128 * n as u128) >> 64) as u64
        }

        /// Uniform float in `[0, 1)`.
        pub fn unit(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
        }
    }
}

use test_runner::TestRng;

/// Runner configuration (case count only).
#[derive(Debug, Clone, Copy)]
pub struct ProptestConfig {
    /// Generated cases per property.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

impl ProptestConfig {
    /// A config with an explicit case count.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// Final case count: `PROPTEST_CASES` env override, else the config value.
pub fn resolve_cases(configured: u32) -> u64 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(configured as u64)
        .max(1)
}

/// A generator of test-case values.
pub trait Strategy {
    /// The value type produced.
    type Value;

    /// Produce one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform generated values.
    fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Type-erase, for heterogeneous unions ([`prop_oneof!`]).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Box::new(self))
    }
}

/// Object-safe mirror of [`Strategy`] used behind the boxing.
trait DynStrategy<T> {
    fn dyn_generate(&self, rng: &mut TestRng) -> T;
}

impl<S: Strategy> DynStrategy<S::Value> for S {
    fn dyn_generate(&self, rng: &mut TestRng) -> S::Value {
        self.generate(rng)
    }
}

/// A type-erased strategy.
pub struct BoxedStrategy<T>(Box<dyn DynStrategy<T>>);

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        self.0.dyn_generate(rng)
    }
}

/// `prop_map` adapter.
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;
    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// Always produces a clone of the given value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Uniform choice among type-erased alternatives ([`prop_oneof!`]).
pub struct Union<T>(Vec<BoxedStrategy<T>>);

impl<T> Union<T> {
    /// Build from the alternatives; must be non-empty.
    pub fn new(alts: Vec<BoxedStrategy<T>>) -> Self {
        assert!(
            !alts.is_empty(),
            "prop_oneof! needs at least one alternative"
        );
        Union(alts)
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        let i = rng.below(self.0.len() as u64) as usize;
        self.0[i].generate(rng)
    }
}

/// Values with a canonical "any value of the type" strategy.
pub trait Arbitrary: Sized {
    /// Draw an arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

/// The canonical whole-type strategy for `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

/// Strategy returned by [`any`].
pub struct Any<T>(PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

macro_rules! arbitrary_uint {
    ($($ty:ty),*) => {$(
        impl Arbitrary for $ty {
            fn arbitrary(rng: &mut TestRng) -> $ty {
                rng.next_u64() as $ty
            }
        }
    )*};
}
arbitrary_uint!(u8, u16, u32, u64, usize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for i32 {
    fn arbitrary(rng: &mut TestRng) -> i32 {
        rng.next_u64() as i32
    }
}

impl Arbitrary for i64 {
    fn arbitrary(rng: &mut TestRng) -> i64 {
        rng.next_u64() as i64
    }
}

macro_rules! range_strategy_int {
    ($($ty:ty),*) => {$(
        impl Strategy for std::ops::Range<$ty> {
            type Value = $ty;
            fn generate(&self, rng: &mut TestRng) -> $ty {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end - self.start) as u64;
                self.start + rng.below(span) as $ty
            }
        }
        impl Strategy for std::ops::RangeInclusive<$ty> {
            type Value = $ty;
            fn generate(&self, rng: &mut TestRng) -> $ty {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi - lo) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $ty;
                }
                lo + rng.below(span + 1) as $ty
            }
        }
    )*};
}
range_strategy_int!(u8, u16, u32, u64, usize);

impl Strategy for std::ops::Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        let x = self.start + rng.unit() * (self.end - self.start);
        if x < self.end {
            x
        } else {
            self.start
        }
    }
}

macro_rules! tuple_strategy {
    ($(($($name:ident),+))*) => {$(
        #[allow(non_snake_case)]
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    )*};
}
tuple_strategy! {
    (A)
    (A, B)
    (A, B, C)
    (A, B, C, D)
    (A, B, C, D, E)
    (A, B, C, D, E, F)
}

pub mod collection {
    //! Collection strategies.

    use super::{Strategy, TestRng};
    use std::collections::BTreeSet;
    use std::ops::Range;

    /// A `Vec` of `elem` values with length drawn from `size`.
    pub fn vec<S: Strategy>(elem: S, size: Range<usize>) -> VecStrategy<S> {
        assert!(size.start < size.end, "empty size range");
        VecStrategy { elem, size }
    }

    /// Strategy returned by [`vec()`].
    pub struct VecStrategy<S> {
        elem: S,
        size: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.end - self.size.start) as u64;
            let len = self.size.start + rng.below(span) as usize;
            (0..len).map(|_| self.elem.generate(rng)).collect()
        }
    }

    /// A `BTreeSet` of `elem` values with size drawn from `size` (the
    /// element space must be large enough to reach the minimum size).
    pub fn btree_set<S>(elem: S, size: Range<usize>) -> BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        assert!(size.start < size.end, "empty size range");
        BTreeSetStrategy { elem, size }
    }

    /// Strategy returned by [`btree_set`].
    pub struct BTreeSetStrategy<S> {
        elem: S,
        size: Range<usize>,
    }

    impl<S> Strategy for BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        type Value = BTreeSet<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> BTreeSet<S::Value> {
            let span = (self.size.end - self.size.start) as u64;
            let target = self.size.start + rng.below(span) as usize;
            let mut set = BTreeSet::new();
            let mut attempts = 0usize;
            while set.len() < target.max(self.size.start) && attempts < 10_000 {
                set.insert(self.elem.generate(rng));
                attempts += 1;
            }
            set
        }
    }
}

pub mod sample {
    //! Index sampling (`any::<prop::sample::Index>()`).

    use super::{Arbitrary, TestRng};

    /// A deferred index: drawn once, resolved against any collection
    /// length via [`Index::index`].
    #[derive(Debug, Clone, Copy)]
    pub struct Index(u64);

    impl Index {
        /// Resolve against a collection of `len` items; `len` must be
        /// non-zero.
        pub fn index(&self, len: usize) -> usize {
            assert!(len > 0, "Index::index on empty collection");
            (self.0 % len as u64) as usize
        }
    }

    impl Arbitrary for Index {
        fn arbitrary(rng: &mut TestRng) -> Self {
            Index(rng.next_u64())
        }
    }
}

/// `prop::` paths as the real prelude exposes them.
pub mod prop {
    pub use crate::collection;
    pub use crate::sample;
}

pub mod prelude {
    //! Everything a property test file needs.

    pub use crate::{
        any, prop, prop_assert, prop_assert_eq, prop_oneof, proptest, Arbitrary, BoxedStrategy,
        Just, ProptestConfig, Strategy,
    };
}

/// Run each property with generated inputs. Matches the real macro's
/// surface for `fn name(arg in strategy, ...) { body }` items plus an
/// optional leading `#![proptest_config(...)]`.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items!{ ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items!{ ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    ( ($cfg:expr) ) => {};
    ( ($cfg:expr)
      $(#[$meta:meta])*
      fn $name:ident( $($arg:pat_param in $strat:expr),+ $(,)? ) $body:block
      $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __cfg: $crate::ProptestConfig = $cfg;
            let __cases = $crate::resolve_cases(__cfg.cases);
            for __case in 0..__cases {
                let mut __rng =
                    $crate::test_runner::TestRng::for_case(stringify!($name), __case);
                let ($($arg,)+) =
                    ( $($crate::Strategy::generate(&{ $strat }, &mut __rng),)+ );
                $body
            }
        }
        $crate::__proptest_items!{ ($cfg) $($rest)* }
    };
}

/// Uniform choice among strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($s:expr),+ $(,)?) => {
        $crate::Union::new(vec![ $($crate::Strategy::boxed($s)),+ ])
    };
}

/// Assert within a property (no shrinking: plain assert).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)+) => { assert!($cond, $($fmt)+) };
}

/// Assert equality within a property (no shrinking: plain assert_eq).
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)+) => { assert_eq!($a, $b, $($fmt)+) };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn ranges_respect_bounds(x in 10u32..20, y in 5u64..6, z in -1.0f64..1.0) {
            prop_assert!((10..20).contains(&x));
            prop_assert_eq!(y, 5);
            prop_assert!((-1.0..1.0).contains(&z));
        }

        #[test]
        fn vec_lengths_in_range(v in prop::collection::vec(0u8..255, 3..7)) {
            prop_assert!((3..7).contains(&v.len()));
        }

        #[test]
        fn btree_set_min_size(s in prop::collection::btree_set(0u64..1000, 2..10)) {
            prop_assert!(s.len() >= 2 && s.len() < 10);
        }

        #[test]
        fn oneof_and_map_compose(
            v in prop_oneof![
                (0u32..10).prop_map(|x| x * 2),
                Just(1u32),
            ],
        ) {
            prop_assert!(v == 1 || (v % 2 == 0 && v < 20));
        }

        #[test]
        fn index_resolves(ix in any::<prop::sample::Index>()) {
            prop_assert!(ix.index(7) < 7);
        }
    }

    #[test]
    fn deterministic_per_case() {
        use crate::test_runner::TestRng;
        let a: Vec<u64> = (0..5)
            .map(|c| TestRng::for_case("t", c).next_u64())
            .collect();
        let b: Vec<u64> = (0..5)
            .map(|c| TestRng::for_case("t", c).next_u64())
            .collect();
        assert_eq!(a, b);
    }
}
