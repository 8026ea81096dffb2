//! FloPoCo-format floating point, both as software values and as gate-level
//! netlists.
//!
//! The paper's Processing Element is a floating-point multiply-accumulate in
//! the FloPoCo format with a **6-bit exponent and a 26-bit mantissa**
//! (Section IV), built without dedicated multipliers or adders. This crate
//! reproduces that operator twice:
//!
//! * in software — [`kernel`] holds the arithmetic, once: an [`FpKernel`]
//!   is a format with its shifts, masks and exponent range computed ahead,
//!   and multiplies and adds raw `u64` encodings, one at a time or a
//!   column of independent lanes per call (the form the serve path runs,
//!   vectorized on AVX-512 and AVX2 hosts).
//!   `format` holds the typed face of it ([`FpFormat`], [`FpValue`]):
//!   `FpValue::{mul, add}` check that the formats agree and delegate to
//!   the kernel, so the per-item interpreters, the VCGRA functional
//!   simulator and the column-major execute path all round through the
//!   same lines;
//! * as gates — [`gen`] emits the same operators as [`logic::Aig`]
//!   netlists (array multiplier, alignment shifter, leading-zero counter,
//!   rounding, exception logic), with the coefficient input annotated as a
//!   *parameter* so the parameterized tool flow can specialize it.
//!
//! The two follow the same algorithm step by step, and the netlist is the
//! oracle the kernel is tested against: exhaustively on a narrow format,
//! on tens of thousands of seeded draws on the paper's (6, 26) format and
//! on (8, 40), whose significand product no longer fits 64 bits.

// One `#[allow]`: the column tiers' dispatch in `kernel` (the workspace's
// only `unsafe`, which `tests/unsafe_scan.rs` enforces).
#![deny(unsafe_code)]
#![deny(unreachable_pub, clippy::dbg_macro, clippy::todo)]

mod format;
pub mod gates;
pub mod gen;
pub mod kernel;

pub use format::{FpClass, FpFormat, FpValue, NotIn};
pub use kernel::FpKernel;
