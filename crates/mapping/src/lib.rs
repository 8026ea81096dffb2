//! Technology mapping for parameterized FPGA configurations.
//!
//! Two flows share one engine, exactly as in the paper's methodology
//! (Section III):
//!
//! * **conventional mapping** ([`map_conventional`]) treats every primary
//!   input as a regular signal and produces plain K-LUTs — the baseline
//!   column of Table I;
//! * **parameterized mapping** ([`map_parameterized`]) is our TCONMAP \[4\]:
//!   it computes, for every cut, a *parameterized truth table* whose
//!   2^k entries are Boolean functions of the parameter inputs (ROBDDs).
//!   A cut with ≤ K regular leaves is a **TLUT** candidate; a node whose
//!   function collapses — for *every* parameter assignment — to one of its
//!   leaves or to a constant is a **TCON** (tunable connection) and is
//!   implemented on the FPGA's physical routing switches instead of a LUT.
//!
//! The mapped design ([`design::MappedDesign`]) can be *specialized* for a
//! concrete parameter assignment (the job of the SCG in the `dcs` crate) and
//! simulated, which is how every mapping is verified against the source
//! netlist — the equivalence checker itself lives in the `verify` crate
//! (`Verifier::verify_equivalence`), which this crate's tests call as a
//! dev-dependency.

#![forbid(unsafe_code)]
#![deny(unreachable_pub, clippy::dbg_macro, clippy::todo)]

pub mod design;
mod mapper;

pub use design::{MapStats, MappedDesign, MappedNode, Source, SpecializedDesign, Tcon, Tlut};
pub use mapper::{
    map_conventional, map_parameterized, map_parameterized_with_effort, MapEffort, MapOptions,
};
