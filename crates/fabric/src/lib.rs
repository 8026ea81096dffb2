//! Island-style FPGA fabric model — the physical substrate of the paper's
//! experiments (the "4LUT sanitized architecture from VPR").
//!
//! The fabric is a square array of single-BLE logic blocks (one 4-input
//! LUT + flip-flop each) surrounded by an I/O ring, with unit-length
//! routing wires in horizontal/vertical channels, Wilton switch blocks
//! (Fs = 3) and connection blocks with configurable input/output
//! flexibility (Fc).
//!
//! * [`arch`] — architecture parameters and geometry;
//! * [`rrg`] — the routing-resource graph the TROUTE router works on;
//! * [`frames`] — configuration-frame addressing used by the DCS crate to
//!   model micro-reconfiguration (read-modify-write of frames).

#![forbid(unsafe_code)]
#![deny(unreachable_pub, clippy::dbg_macro, clippy::todo)]

pub mod arch;
pub mod frames;
pub mod rrg;

pub use arch::{FabricArch, Site};
pub use rrg::{CutPressure, NodeKind, NodeState, RouteGraph};
