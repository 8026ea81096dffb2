//! TPLACE and TROUTE: place & route for (parameterized) FPGA designs.
//!
//! This crate reproduces the role of the TPaR CAD tools \[11\] used in the
//! paper's evaluation:
//!
//! * `netlist` — [`extract`] flattens a mapped design into placeable
//!   blocks and routing nets. A TCON becomes a **tunable net**: a net
//!   with *several candidate sources* whose alternatives are mutually
//!   exclusive across parameter values, so they may share physical wires — exactly how
//!   TROUTE maps tunable connections onto the FPGA's switch blocks;
//! * `tplace` — [`place`], simulated-annealing placement with
//!   half-perimeter wirelength cost (and a best-of-seeds variant);
//! * [`troute`] — PathFinder-style negotiated-congestion routing on the
//!   fabric's routing-resource graph, with A* directed expansion, and
//!   [`troute::terminals`], the one lift of nets into that graph's node
//!   space: the router, the warm-start audit and the verifier's route
//!   pass all read it;
//! * `incr` — the incremental router core: in-place occupancy/history,
//!   dirty-net worklist, per-net A* bounding boxes with staged expansion,
//!   and one canonical wave order routed on one thread and one scratch (a
//!   routing run reads no thread count). A run that does not route leaves
//!   by one of three exits: cancelled, a net unroutable on the whole
//!   fabric, or the give-up (iteration limit or massive stalled overuse).
//!   Its diagnostics are trace spans; it prints nothing;
//! * `warm` — [`WidthSearch`], the minimum-channel-width search (doubling +
//!   binary) whose probes are warm-started from the previous width's
//!   routing trees and whose cold `W−1` certificate routes beside the
//!   binary phase when a second thread is free;
//! * `engine` — the [`ParEngine`] facade owning every knob;
//!   [`ParEngine::run`] produces the WL/CW columns of Table I.
//!
//! The crate returns results and checks none: a caller proves a routing
//! result with the `verify` crate's route-tree pass over
//! [`troute::terminals`], which is why `verify` is only a dev-dependency.

#![forbid(unsafe_code)]
#![deny(unreachable_pub, clippy::dbg_macro, clippy::todo)]

mod engine;
mod incr;
mod netlist;
mod tplace;
pub mod troute;
mod warm;

pub use engine::{EngineOptions, ParEngine, ParReport};
pub use netlist::{extract, Block, BlockKind, Net, ParNetlist};
pub use tplace::{place, Placement};
pub use troute::RouteResult;
pub use warm::{
    channel_width_estimate, channel_width_lower_bound, WidthCertificate, WidthProbe, WidthSearch,
};
