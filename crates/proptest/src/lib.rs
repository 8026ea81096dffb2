//! Offline stand-in for the crates.io `proptest` crate.
//!
//! The build container has no network access to crates.io, so this
//! crate provides the exact surface `tests/proptests.rs` uses:
//!
//! * the [`proptest!`] macro (with the block-level
//!   `#![proptest_config(...)]` inner attribute),
//! * [`ProptestConfig::with_cases`],
//! * strategies: numeric ranges (`a..b`), [`any`], tuples of
//!   strategies, and [`collection::vec`],
//! * [`prop_assert!`] / [`prop_assert_eq!`].
//!
//! Inputs are drawn from a deterministic SplitMix64 stream seeded per
//! test from the test's name, so failures reproduce bit-for-bit. There
//! is no shrinking: a failing case reports the raw inputs via the
//! normal assert panic message. Swapping back to real proptest is a
//! one-line `Cargo.toml` change; the test source is already compatible.

#![forbid(unsafe_code)]
#![deny(unreachable_pub, clippy::dbg_macro, clippy::todo)]

/// Deterministic SplitMix64 (same algorithm as `logic::rng::SplitMix64`,
/// duplicated here so this stub stays dependency-free).
pub struct TestRng {
    state: u64,
}

impl TestRng {
    pub fn new(seed: u64) -> Self {
        TestRng { state: seed }
    }

    /// Seed derived from a test name via FNV-1a so each test gets an
    /// independent, stable stream.
    pub fn for_test(name: &str) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        TestRng::new(h)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in [0, n).
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        // Modulo bias is irrelevant at test-input quality.
        self.next_u64() % n
    }
}

/// A source of random values of one type — the stub's analogue of
/// `proptest::strategy::Strategy`.
pub trait Strategy {
    type Value;
    fn generate(&self, rng: &mut TestRng) -> Self::Value;
}

/// Strategy produced by [`any`].
pub struct Any<T>(std::marker::PhantomData<T>);

/// `any::<T>()` — arbitrary values of a primitive type.
pub fn any<T>() -> Any<T>
where
    Any<T>: Strategy,
{
    Any(std::marker::PhantomData)
}

macro_rules! any_uint {
    ($($t:ty),*) => {$(
        impl Strategy for Any<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                // Mix edge cases in: all-zeros / all-ones show up often
                // in real proptest via its bias machinery.
                match rng.below(16) {
                    0 => 0,
                    1 => <$t>::MAX,
                    _ => rng.next_u64() as $t,
                }
            }
        }
    )*};
}
any_uint!(u8, u16, u32, u64, usize);

impl Strategy for Any<bool> {
    type Value = bool;
    fn generate(&self, rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! range_float {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                self.start + (self.end - self.start) * rng.unit_f64() as $t
            }
        }
    )*};
}
range_float!(f32, f64);

macro_rules! range_uint {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let span = (self.end - self.start) as u64;
                self.start + rng.below(span) as $t
            }
        }
    )*};
}
range_uint!(u8, u16, u32, u64, usize);

macro_rules! tuple_strategy {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    };
}
tuple_strategy!(A: 0);
tuple_strategy!(A: 0, B: 1);
tuple_strategy!(A: 0, B: 1, C: 2);
tuple_strategy!(A: 0, B: 1, C: 2, D: 3);

pub mod collection {
    use super::{Strategy, TestRng};

    pub struct VecStrategy<S> {
        elem: S,
        len: std::ops::Range<usize>,
    }

    /// `prop::collection::vec(elem, len_range)`.
    pub fn vec<S: Strategy>(elem: S, len: std::ops::Range<usize>) -> VecStrategy<S> {
        VecStrategy { elem, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.len.clone().generate(rng);
            (0..n).map(|_| self.elem.generate(rng)).collect()
        }
    }
}

/// Block-level configuration, mirroring `proptest::test_runner::ProptestConfig`.
#[derive(Clone)]
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

/// `use proptest::prelude::*;` — everything the test grammar needs.
pub mod prelude {
    pub use crate::{any, prop_assert, prop_assert_eq, proptest, ProptestConfig, Strategy};

    /// `prop::collection::vec(...)` namespace.
    pub mod prop {
        pub use crate::collection;
    }
}

#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Mirrors `proptest::proptest!` for the grammar used in this repo:
/// an optional `#![proptest_config(expr)]` header followed by
/// `#[test] fn name(arg in strategy, ...) { body }` items with plain
/// identifier arguments.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@cfg ($cfg); $($rest)*);
    };
    (@cfg ($cfg:expr); $(
        #[test]
        fn $name:ident ( $($arg:ident in $strat:expr),+ $(,)? ) $body:block
    )*) => {
        $(
            #[test]
            fn $name() {
                let cfg: $crate::ProptestConfig = $cfg;
                let mut rng = $crate::TestRng::for_test(stringify!($name));
                for _case in 0..cfg.cases {
                    $(let $arg = $crate::Strategy::generate(&($strat), &mut rng);)+
                    $body
                }
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@cfg ($crate::ProptestConfig::default()); $($rest)*);
    };
}
