//! Umbrella crate for the VCGRA reproduction workspace.
//!
//! This crate re-exports the public API of every member crate so that the
//! examples and integration tests can address the whole system through one
//! dependency. See the repository `README.md` for the architecture
//! overview, the crate map, and the per-experiment index (the `xbench`
//! binaries reproduce the paper's Tables I/II and figures).

#![forbid(unsafe_code)]
#![deny(unreachable_pub)]

pub use dcs;
pub use fabric;
pub use logic;
pub use mapping;
pub use par;
pub use retina;
pub use runtime;
pub use shard;
pub use softfloat;
pub use trace;
pub use vcgra;
pub use verify;
