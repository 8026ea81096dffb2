//! The paper's primary contribution: a fully parameterized Virtual
//! Coarse-Grained Reconfigurable Array (VCGRA).
//!
//! A VCGRA (Fig. 1 of the paper) is a grid of coarse Processing Elements
//! (PEs) connected by Virtual Switch Blocks (VSBs) and Virtual Connection
//! Blocks (VCBs), realized *on top of* a fine-grained FPGA. Every
//! configurable part of the overlay — the PE function (a floating-point
//! MAC with its coefficient), the intra-PE connections between BLE groups
//! (Fig. 4) and the inter-PE network — is expressed with *parameter*
//! inputs, so the parameterized tool flow maps it onto TLUTs, TCONs and
//! configuration memory instead of functional FPGA resources.
//!
//! Modules:
//!
//! * `pe` — the Processing Element ([`VirtualPe`]): gate-level netlist
//!   generator (MAC datapath + virtual intra-connect) and the value-level
//!   functional model, plus the settings-register layout;
//! * `grid` — the VCGRA architecture ([`VcgraArch`]: grid geometry,
//!   component and settings-register inventory — the quantities of
//!   Table II);
//! * [`app`] — application graphs: dataflow of PE operations (filter
//!   kernels from the retinal pipeline map here);
//! * [`flow`] — the fast VCGRA tool flow of Fig. 2: synthesis to a PE
//!   netlist, placement on the grid, routing through the virtual network
//!   (a mapping holds no settings: each PE's come from its graph node,
//!   `AppGraph::pe_settings`);
//! * [`sim`] — functional simulation of an application (streams samples
//!   through the PEs using the bit-exact FloPoCo model), and the flat
//!   `ExecPlan` an application is lowered to for streaming,
//!   which runs a chunk of items as `u64` columns, one op over a whole
//!   column at a time, and overwrites each item with its outputs;
//! * [`render`] — DOT/ASCII renderings of the grid and the PE (Figs. 1/4).

#![forbid(unsafe_code)]
#![deny(unreachable_pub, clippy::dbg_macro, clippy::todo)]

pub mod app;
pub mod flow;
mod grid;
mod pe;
pub mod render;
pub mod sim;

pub use grid::{GridResources, VcgraArch};
pub use pe::{PeMode, PeSettings, VirtualPe, VirtualPeConfig};
