//! Boolean foundations for the VCGRA reproduction.
//!
//! This crate provides the substrate every CAD stage builds on:
//!
//! * [`aig`] — a structurally hashed And-Inverter Graph with *two classes of
//!   primary inputs*: **regular** inputs (data that changes every cycle) and
//!   **parameter** inputs (values that change infrequently, e.g. filter
//!   coefficients). The distinction is the heart of the parameterized
//!   configuration tool flow (Fig. 3 of the paper).
//! * [`tt`] — small truth tables (up to 6 variables) used for LUT contents.
//! * [`bdd`] — a reduced ordered BDD manager used to represent Boolean
//!   functions *of the parameters* (the entries of parameterized truth
//!   tables, TCON activation conditions, and the PPC bit functions).
//! * [`sim`] — 64-way bit-parallel simulation, and the exhaustive
//!   equivalence check built on it.
//! * [`opt`] — ABC-style cleanup passes (constant folding is built into
//!   construction; sweeping and balancing live here).
//! * [`rng`] — a deterministic SplitMix64 PRNG so that every tool in the
//!   workspace is reproducible bit-for-bit without the `rand` crate.
//! * [`fxhash`] — a fast FxHash-style hasher for the CAD-heavy hash maps
//!   (see the Rust Performance Book's hashing chapter).

#![forbid(unsafe_code)]
#![deny(unreachable_pub, clippy::dbg_macro, clippy::todo)]

pub mod aig;
pub mod bdd;
pub mod fxhash;
pub mod opt;
pub mod rng;
pub mod sim;
pub mod tt;

pub use aig::{Aig, InputKind, Lit};
pub use bdd::{Bdd, BddManager};
pub use rng::SplitMix64;
pub use tt::TruthTable;
