//! Minimal in-workspace shim of `proptest`.
//!
//! Supports the subset the kairos property tests use: the [`proptest!`]
//! macro, range and collection strategies, `prop_map` / `prop_flat_map`
//! combinators, `prop_assert!` / `prop_assert_eq!` / `prop_assume!`, and
//! [`ProptestConfig::with_cases`].  Failing cases are reported with the
//! case's RNG seed; there is **no shrinking** — rerun with the printed seed
//! to reproduce.
//!
//! Two environment variables widen a run without a source edit.
//! `PROPTEST_CASES` sets the case count of every configuration, the
//! default's and [`ProptestConfig::with_cases`]'s alike (real proptest lets
//! an explicit count win; here one variable runs a whole binary deeper).
//! `PROPTEST_RNG_SEED` sets the base seed.  Both take a decimal or
//! `0x`-prefixed hexadecimal number.  Unset, every run draws the same
//! cases.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::{Range, RangeInclusive};

/// Outcome of one generated test case.
#[derive(Debug, Clone)]
pub enum TestCaseError {
    /// An assertion failed; the test fails.
    Fail(String),
    /// `prop_assume!` rejected the inputs; the case is skipped.
    Reject,
}

impl TestCaseError {
    /// Creates a failure with a message.
    pub fn fail(message: impl Into<String>) -> Self {
        TestCaseError::Fail(message.into())
    }

    /// Creates a rejection (assumption not met).
    pub fn reject() -> Self {
        TestCaseError::Reject
    }
}

/// Runner configuration.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases to run per test.
    pub cases: u32,
    /// Base RNG seed; case `i` uses `seed + i`.
    pub seed: u64,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self::with_cases(256)
    }
}

impl ProptestConfig {
    /// Configuration running the given number of cases, unless
    /// `PROPTEST_CASES` says otherwise.
    pub fn with_cases(cases: u32) -> Self {
        Self {
            cases: env_number("PROPTEST_CASES").map_or(cases, |n| {
                u32::try_from(n).unwrap_or_else(|_| panic!("PROPTEST_CASES={n} exceeds u32"))
            }),
            seed: env_number("PROPTEST_RNG_SEED").unwrap_or(0x9a1c_05f1),
        }
    }
}

/// The number an environment variable holds, if it is set.
///
/// # Panics
/// Panics when the variable is set to something that is not a number, so a
/// mistyped sweep does not quietly run the fixed cases.
fn env_number(name: &str) -> Option<u64> {
    let text = std::env::var(name).ok()?;
    Some(parse_number(&text).unwrap_or_else(|| panic!("{name}={text:?} is not a number")))
}

/// Parses a decimal or `0x`-prefixed hexadecimal `u64`; `_` separators are
/// allowed.
fn parse_number(text: &str) -> Option<u64> {
    let digits = text.trim().replace('_', "");
    match digits
        .strip_prefix("0x")
        .or_else(|| digits.strip_prefix("0X"))
    {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => digits.parse().ok(),
    }
}

/// Drives the generated test cases.
#[derive(Debug)]
pub struct TestRunner {
    config: ProptestConfig,
}

impl TestRunner {
    /// Creates a runner.
    pub fn new(config: ProptestConfig) -> Self {
        Self { config }
    }

    /// Runs `case` for every configured seed, panicking on the first failure.
    pub fn run<F>(&mut self, mut case: F)
    where
        F: FnMut(&mut StdRng) -> Result<(), TestCaseError>,
    {
        let mut rejected = 0u32;
        for i in 0..self.config.cases {
            let seed = self.config.seed.wrapping_add(u64::from(i));
            let mut rng = StdRng::seed_from_u64(seed);
            match case(&mut rng) {
                Ok(()) => {}
                Err(TestCaseError::Reject) => rejected += 1,
                Err(TestCaseError::Fail(message)) => {
                    panic!("proptest case failed (seed {seed}): {message}")
                }
            }
        }
        if rejected == self.config.cases && self.config.cases > 0 {
            panic!("proptest rejected every generated case; loosen prop_assume!");
        }
    }
}

/// A source of random values of one type.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut StdRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<R, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> R,
    {
        Map { inner: self, f }
    }

    /// Builds a dependent strategy from each generated value.
    fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S: Strategy,
        F: Fn(Self::Value) -> S,
    {
        FlatMap { inner: self, f }
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, R, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> R,
{
    type Value = R;

    fn generate(&self, rng: &mut StdRng) -> R {
        (self.f)(self.inner.generate(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S, S2, F> Strategy for FlatMap<S, F>
where
    S: Strategy,
    S2: Strategy,
    F: Fn(S::Value) -> S2,
{
    type Value = S2::Value;

    fn generate(&self, rng: &mut StdRng) -> S2::Value {
        (self.f)(self.inner.generate(rng)).generate(rng)
    }
}

/// Strategy producing one fixed value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut StdRng) -> T {
        self.0.clone()
    }
}

macro_rules! range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}

range_strategy!(u32, u64, usize, i64, f64);

macro_rules! tuple_strategy {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn generate(&self, rng: &mut StdRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}

tuple_strategy! {
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
    (A: 0, B: 1, C: 2, D: 3, E: 4)
    (A: 0, B: 1, C: 2, D: 3, E: 4, F: 5)
}

/// Collection sizes accepted by [`collection::vec`].
#[derive(Debug, Clone)]
pub struct SizeRange {
    min: usize,
    max_exclusive: usize,
}

impl From<usize> for SizeRange {
    fn from(exact: usize) -> Self {
        Self {
            min: exact,
            max_exclusive: exact + 1,
        }
    }
}

impl From<Range<usize>> for SizeRange {
    fn from(range: Range<usize>) -> Self {
        assert!(range.start < range.end, "empty size range");
        Self {
            min: range.start,
            max_exclusive: range.end,
        }
    }
}

impl From<RangeInclusive<usize>> for SizeRange {
    fn from(range: RangeInclusive<usize>) -> Self {
        Self {
            min: *range.start(),
            max_exclusive: range.end() + 1,
        }
    }
}

/// Collection strategies (`prop::collection`).
pub mod collection {
    use super::{SizeRange, Strategy};
    use rand::rngs::StdRng;
    use rand::Rng;

    /// Strategy for `Vec<T>` with element strategy `S` and a size range.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// Builds a `Vec` strategy; `size` may be an exact `usize` or a range.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut StdRng) -> Vec<S::Value> {
            let len = rng.gen_range(self.size.min..self.size.max_exclusive);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// The `prop` namespace (`prop::collection::vec` etc.).
pub mod prop {
    pub use crate::collection;
}

/// Everything the property tests import.
pub mod prelude {
    pub use crate::{
        prop, prop_assert, prop_assert_eq, prop_assume, proptest, Just, ProptestConfig, Strategy,
        TestCaseError,
    };
}

/// Defines property tests.  Mirrors proptest's surface syntax:
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(64))]
///     #[test]
///     fn my_property(x in 0u32..10, v in prop::collection::vec(0f64..1.0, 3)) {
///         prop_assert!(x < 10);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { ($config); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! { ($crate::ProptestConfig::default()); $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (($config:expr); $(#[$meta:meta])* fn $name:ident($($arg:ident in $strategy:expr),* $(,)?) $body:block $($rest:tt)*) => {
        $(#[$meta])*
        fn $name() {
            let mut runner = $crate::TestRunner::new($config);
            runner.run(|__rng| {
                $(let $arg = $crate::Strategy::generate(&($strategy), __rng);)*
                let mut __case = || -> ::std::result::Result<(), $crate::TestCaseError> {
                    $body
                    Ok(())
                };
                __case()
            });
        }
        $crate::__proptest_fns! { ($config); $($rest)* }
    };
    (($config:expr);) => {};
}

/// `prop_assert!(cond)` / `prop_assert!(cond, "format", args...)`.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(
                concat!("assertion failed: ", stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// `prop_assert_eq!(left, right)`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{:?}` != `{:?}`",
                l, r
            )));
        }
    }};
}

/// `prop_assume!(cond)` — skips the case when the assumption fails.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::reject());
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::TestRunner;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_stay_in_bounds(x in 3u32..10, y in 0.5f64..1.5, n in 1usize..=4) {
            prop_assert!((3..10).contains(&x));
            prop_assert!((0.5..1.5).contains(&y));
            prop_assert!((1..=4).contains(&n));
        }

        #[test]
        fn vec_strategy_respects_size(v in prop::collection::vec(0u32..100, 2..6)) {
            prop_assert!(v.len() >= 2 && v.len() < 6);
            prop_assert!(v.iter().all(|&x| x < 100));
        }

        #[test]
        fn flat_map_composes(m in (1usize..=3, 1usize..=3).prop_flat_map(|(r, c)| {
            prop::collection::vec(0f64..1.0, r * c).prop_map(move |data| (r, c, data))
        })) {
            let (r, c, data) = m;
            prop_assert_eq!(data.len(), r * c);
        }

        #[test]
        fn assume_skips_without_failing(x in 0u32..10) {
            prop_assume!(x % 2 == 0);
            prop_assert!(x % 2 == 0);
        }
    }

    #[test]
    fn numbers_parse_in_decimal_and_hex() {
        use crate::parse_number;
        assert_eq!(parse_number("768"), Some(768));
        assert_eq!(parse_number(" 0x9a1c_05f1 "), Some(0x9a1c_05f1));
        assert_eq!(parse_number("0XFF"), Some(255));
        assert_eq!(parse_number("12e3"), None);
        assert_eq!(parse_number(""), None);
    }

    #[test]
    #[should_panic(expected = "proptest case failed")]
    fn failures_panic_with_seed() {
        let mut runner = TestRunner::new(ProptestConfig::with_cases(4));
        runner.run(|_| Err(TestCaseError::fail("forced")));
    }
}
