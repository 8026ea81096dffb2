//! Dynamic Circuit Specialization (DCS) — the paper's Fig. 3 tool flow.
//!
//! The generic stage turns a parameterized mapped design into two
//! artifacts:
//!
//! * the **Template Configuration (TC)**: the static `0`/`1` configuration
//!   bits (non-reconfigurable part of the problem), and
//! * the **Partial Parameterized Configuration (PPC)**: one *Boolean
//!   function of the parameters* per tunable configuration bit (TLUT
//!   truth-table bits, TCON switch selections, settings bits).
//!
//! The specialization stage is the **Specialized Configuration Generator
//! (SCG)**: on every parameter-value change it evaluates the PPC functions
//! — all of them in one bottom-up sweep of the BDD store, up to 64
//! settings to a machine word — and rewrites exactly the configuration
//! frames that contain changed bits (micro-reconfiguration:
//! read-modify-write through HWICAP or MiCAP).
//! [`timing`] prices that operation and reproduces the paper's ~251 ms
//! per-PE estimate.

#![forbid(unsafe_code)]
#![deny(unreachable_pub, clippy::dbg_macro, clippy::todo)]

mod ppc;
mod scg;
pub mod timing;

pub use ppc::{BitAddr, ConfigKind, ParamConfig};
pub use scg::{PairDiff, Scg, SpecializedBits, LANES};
pub use timing::{
    paper_pe_reconfig, paper_pe_stats, pe_reconfig_estimate, ReconfigInterface, ReconfigReport,
};
