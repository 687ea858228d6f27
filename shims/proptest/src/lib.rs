//! Offline shim for the subset of the `proptest` API this workspace uses.
//!
//! The build environment has no network access, so the property tests in
//! this workspace run against this vendored stand-in instead of the real
//! `proptest` crate. It implements:
//!
//! * the [`strategy::Strategy`] trait with `prop_map` / `prop_flat_map`,
//! * range, tuple, [`strategy::Just`] and [`collection::vec`] strategies,
//! * the [`prop_oneof!`] union combinator,
//! * the [`proptest!`] test macro with `#![proptest_config(..)]` support,
//! * `prop_assert!` / `prop_assert_eq!` / `prop_assert_ne!`.
//!
//! There is **no shrinking**: a failing case reports its case number —
//! whether the body returned a `prop_assert*` failure or panicked (an
//! `assert!`, an `unwrap`, a panic inside the code under test) — and the
//! per-case RNG is derived deterministically from that number, so
//! `PROPTEST_CASE=<n>` replays exactly that case and nothing else.

/// Test-runner configuration and deterministic per-case RNG.
pub mod test_runner {
    use rand::rngs::SmallRng;
    use rand::{Rng, SampleUniform, SeedableRng};
    use std::fmt;

    /// Shim of `proptest::test_runner::Config`: only `cases` is honoured.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of random cases each property runs.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// Config running `cases` random cases per property.
        #[must_use]
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 64 }
        }
    }

    /// Deterministic RNG handed to strategies while sampling one case.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        inner: SmallRng,
    }

    impl TestRng {
        /// RNG for case number `case`; the mapping is deterministic so a
        /// reported failing case number replays identically.
        #[must_use]
        pub fn for_case(case: u64) -> Self {
            TestRng { inner: SmallRng::seed_from_u64(0x5eed_0000_0000 ^ case) }
        }

        /// Uniform draw from `[lo, hi)`; panics when empty (like `rand`).
        pub fn gen_range<T: SampleUniform>(&mut self, range: std::ops::Range<T>) -> T {
            self.inner.gen_range(range)
        }

        /// Raw entropy.
        pub fn next_u64(&mut self) -> u64 {
            self.inner.next_u64()
        }
    }

    /// Failure raised by `prop_assert*` macros inside a property body.
    #[derive(Debug, Clone)]
    pub struct TestCaseError(String);

    impl TestCaseError {
        /// Build a failure with the given message.
        pub fn fail(msg: impl Into<String>) -> Self {
            TestCaseError(msg.into())
        }
    }

    impl fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str(&self.0)
        }
    }

    impl std::error::Error for TestCaseError {}

    /// The case numbers a property runs: `0..cases`, or exactly the one
    /// the environment's `PROPTEST_CASE=<n>` names (to replay a reported
    /// failure; anything that is not a number is ignored).
    #[must_use]
    pub fn cases(cases: u32) -> std::ops::Range<u64> {
        cases_for(std::env::var("PROPTEST_CASE").ok().as_deref(), cases)
    }

    pub(crate) fn cases_for(selected: Option<&str>, cases: u32) -> std::ops::Range<u64> {
        match selected.and_then(|n| n.trim().parse::<u64>().ok()) {
            Some(n) => n..n.saturating_add(1),
            None => 0..u64::from(cases),
        }
    }

    thread_local! {
        static PANICKED: std::cell::Cell<Option<u64>> = const { std::cell::Cell::new(None) };
    }

    /// The last case on this thread whose body unwound under an armed
    /// [`CaseGuard`].
    #[cfg(test)]
    pub(crate) fn panicked_case() -> Option<u64> {
        PANICKED.with(std::cell::Cell::get)
    }

    /// Armed around one case's body: if the body panics, the unwind names
    /// the case on standard error (a panic message cannot be amended).
    #[derive(Debug)]
    pub struct CaseGuard(u64);

    impl CaseGuard {
        /// Guard for case number `case`.
        #[must_use]
        pub fn arm(case: u64) -> Self {
            CaseGuard(case)
        }
    }

    impl Drop for CaseGuard {
        fn drop(&mut self) {
            if std::thread::panicking() {
                use std::io::Write as _;
                PANICKED.with(|c| c.set(Some(self.0)));
                // A failed write must not panic inside a drop.
                let _ = writeln!(
                    std::io::stderr(),
                    "proptest case #{0} panicked (replay with PROPTEST_CASE={0})",
                    self.0
                );
            }
        }
    }
}

/// Value-generation strategies.
pub mod strategy {
    use crate::test_runner::TestRng;
    use rand::SampleUniform;
    use std::ops::{Range, RangeInclusive};
    use std::rc::Rc;

    /// Shim of `proptest::strategy::Strategy`: a recipe for producing
    /// random values. Sampling is stateless given the RNG, so strategies
    /// are freely shareable.
    pub trait Strategy {
        /// The type of value this strategy produces.
        type Value;

        /// Draw one value.
        fn sample(&self, rng: &mut TestRng) -> Self::Value;

        /// Transform produced values with `f`.
        fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }

        /// Produce a dependent strategy from each value.
        fn prop_flat_map<S: Strategy, F: Fn(Self::Value) -> S>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
        {
            FlatMap { inner: self, f }
        }

        /// Type-erase into a [`BoxedStrategy`].
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy(Rc::new(move |rng| self.sample(rng)))
        }
    }

    /// Strategy always producing a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn sample(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// See [`Strategy::prop_map`].
    #[derive(Debug, Clone)]
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
        type Value = U;
        fn sample(&self, rng: &mut TestRng) -> U {
            (self.f)(self.inner.sample(rng))
        }
    }

    /// See [`Strategy::prop_flat_map`].
    #[derive(Debug, Clone)]
    pub struct FlatMap<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
        type Value = S2::Value;
        fn sample(&self, rng: &mut TestRng) -> S2::Value {
            (self.f)(self.inner.sample(rng)).sample(rng)
        }
    }

    /// Type-erased strategy (shim of `proptest::strategy::BoxedStrategy`).
    #[derive(Clone)]
    pub struct BoxedStrategy<T>(Rc<dyn Fn(&mut TestRng) -> T>);

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            (self.0)(rng)
        }
    }

    /// Uniform choice between alternative strategies (`prop_oneof!`).
    pub struct Union<T> {
        arms: Vec<BoxedStrategy<T>>,
    }

    impl<T> Union<T> {
        /// Union over the given (non-empty) alternatives.
        #[must_use]
        pub fn new(arms: Vec<BoxedStrategy<T>>) -> Self {
            assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
            Union { arms }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            let idx = rng.gen_range(0..self.arms.len());
            self.arms[idx].sample(rng)
        }
    }

    impl<T: SampleUniform> Strategy for Range<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            rng.gen_range(self.start..self.end)
        }
    }

    macro_rules! impl_inclusive_range {
        ($($t:ty),*) => {$(
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    rng.gen_range(lo..hi.saturating_add(1))
                }
            }
        )*};
    }

    impl_inclusive_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    macro_rules! impl_tuple_strategy {
        ($($name:ident),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                #[allow(non_snake_case)]
                fn sample(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.sample(rng),)+)
                }
            }
        };
    }

    impl_tuple_strategy!(A);
    impl_tuple_strategy!(A, B);
    impl_tuple_strategy!(A, B, C);
    impl_tuple_strategy!(A, B, C, D);
    impl_tuple_strategy!(A, B, C, D, E);
    impl_tuple_strategy!(A, B, C, D, E, F);
}

/// Collection strategies.
pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::Range;

    /// Strategy producing `Vec`s of values from `elem`, with length drawn
    /// from `len` (shim of `proptest::collection::vec`).
    pub fn vec<S: Strategy>(elem: S, len: Range<usize>) -> VecStrategy<S> {
        VecStrategy { elem, len }
    }

    /// See [`vec()`].
    pub struct VecStrategy<S> {
        elem: S,
        len: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = rng.gen_range(self.len.start..self.len.end);
            (0..n).map(|_| self.elem.sample(rng)).collect()
        }
    }
}

/// One-import surface matching `proptest::prelude::*`.
pub mod prelude {
    pub use crate::strategy::{BoxedStrategy, Just, Strategy, Union};
    pub use crate::test_runner::{ProptestConfig, TestCaseError, TestRng};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Shim of `proptest!`: expands each `fn name(pat in strategy, ..) { .. }`
/// into a test running `cases` deterministic random cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_tests!{ @cfg($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_tests!{ @cfg($crate::test_runner::ProptestConfig::default()) $($rest)* }
    };
}

#[macro_export]
#[doc(hidden)]
macro_rules! __proptest_tests {
    (@cfg($cfg:expr) $( $(#[$attr:meta])* fn $name:ident( $($arg:pat in $strat:expr),+ $(,)? ) $body:block )*) => {
        $(
            $(#[$attr])*
            fn $name() {
                let __config = $cfg;
                let __strategies = ($($strat,)+);
                for __case in $crate::test_runner::cases(__config.cases) {
                    let __guard = $crate::test_runner::CaseGuard::arm(__case);
                    let mut __rng = $crate::test_runner::TestRng::for_case(__case);
                    let ($($arg,)+) =
                        $crate::strategy::Strategy::sample(&__strategies, &mut __rng);
                    // A body without a `prop_assert*` has no early return.
                    #[allow(clippy::redundant_closure_call)]
                    let __result: ::core::result::Result<(), $crate::test_runner::TestCaseError> =
                        (|| {
                            { $body };
                            ::core::result::Result::Ok(())
                        })();
                    // The body did not unwind: the message below names the case.
                    ::core::mem::drop(__guard);
                    if let ::core::result::Result::Err(e) = __result {
                        panic!("proptest case #{__case} failed: {e}");
                    }
                }
            }
        )*
    };
}

/// Shim of `prop_oneof!`: uniform choice between the listed strategies.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($arm)),+
        ])
    };
}

/// Shim of `prop_assert!`: fail the current case if the condition is false.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                concat!("assertion failed: ", stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)+),
            ));
        }
    };
}

/// Shim of `prop_assert_eq!`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($lhs:expr, $rhs:expr $(,)?) => {{
        let (__l, __r) = (&$lhs, &$rhs);
        if !(*__l == *__r) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(concat!(
                "assertion failed: ",
                stringify!($lhs),
                " == ",
                stringify!($rhs),
            )));
        }
    }};
}

/// Shim of `prop_assert_ne!`.
#[macro_export]
macro_rules! prop_assert_ne {
    ($lhs:expr, $rhs:expr $(,)?) => {{
        let (__l, __r) = (&$lhs, &$rhs);
        if *__l == *__r {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(concat!(
                "assertion failed: ",
                stringify!($lhs),
                " != ",
                stringify!($rhs),
            )));
        }
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_stay_in_bounds(x in 3i64..9, y in 1usize..=4) {
            prop_assert!((3..9).contains(&x));
            prop_assert!((1..=4).contains(&y));
        }

        #[test]
        fn map_and_vec_compose(
            v in crate::collection::vec((0u32..5).prop_map(|x| x * 2), 0..6),
        ) {
            prop_assert!(v.len() < 6);
            prop_assert!(v.iter().all(|x| x % 2 == 0 && *x < 10));
        }

        #[test]
        fn oneof_picks_all_arms(x in prop_oneof![Just(1i32), Just(2i32), 5i32..8]) {
            prop_assert!(x == 1 || x == 2 || (5..8).contains(&x));
        }

        #[test]
        fn flat_map_sees_outer_value(pair in (1usize..5).prop_flat_map(|n| (Just(n), 0..n))) {
            let (n, k) = pair;
            prop_assert!(k < n);
        }
    }

    /// What case 3 of `panics_on_one_value` draws.
    fn drawn_by_case_three() -> u32 {
        crate::test_runner::TestRng::for_case(3).gen_range(0u32..1000)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        // Not a `#[test]` itself: `a_panicking_body_names_its_case` runs it.
        fn panics_on_one_value(x in 0u32..1000) {
            assert_ne!(x, drawn_by_case_three());
        }
    }

    /// A body that panics (not a `prop_assert*` failure) still names the
    /// case it was running: the guard records it on unwind.
    #[test]
    fn a_panicking_body_names_its_case() {
        assert!(std::panic::catch_unwind(panics_on_one_value).is_err());
        assert_eq!(crate::test_runner::panicked_case(), Some(3));
    }

    /// `PROPTEST_CASE=<n>` runs exactly case `n` — even past the configured
    /// count — and anything else runs them all.
    #[test]
    fn a_selected_case_runs_alone() {
        use crate::test_runner::cases_for;
        assert_eq!(cases_for(Some("7"), 64), 7..8);
        assert_eq!(cases_for(Some(" 100 "), 64), 100..101);
        assert_eq!(cases_for(None, 64), 0..64);
        assert_eq!(cases_for(Some("seven"), 64), 0..64);
        assert_eq!(cases_for(Some(""), 3), 0..3);
    }

    #[test]
    fn cases_are_deterministic() {
        use crate::strategy::Strategy;
        let s = (0u32..1000, 0u32..1000);
        let a: Vec<_> =
            (0..8).map(|c| s.sample(&mut crate::test_runner::TestRng::for_case(c))).collect();
        let b: Vec<_> =
            (0..8).map(|c| s.sample(&mut crate::test_runner::TestRng::for_case(c))).collect();
        assert_eq!(a, b);
    }
}
