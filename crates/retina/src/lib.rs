//! Retinal vessel segmentation (the paper's Fig. 5 HPC application).
//!
//! The pipeline follows the paper exactly: from an RGB fundus image the
//! green channel is retained; preprocessing (histogram equalization, optic
//! disc removal, outer region removal) runs in software; the filtering
//! stages — Gaussian denoise (5×5 / 9×9), a bank of steerable matched
//! filters (seven orientations, 16×16, after Chaudhuri et al. \[12\]) and a
//! texture/thickness filter — are the *hardware modules*: convolutions
//! the caller injects into [`run_pipeline`]. `filters::convolve_f32` is
//! the software reference; the VCGRA runtime serves the same stages on
//! the overlay (`runtime::kernels::convolve_served`). This crate cannot
//! name the runtime, which builds its `retina_stage` workloads from it.
//!
//! Clinical fundus datasets are not redistributable, so [`synth`]
//! generates synthetic fundus images (field-of-view disc, optic disc blob,
//! branching vessel trees) with exact ground truth, which lets the
//! pipeline be scored quantitatively.

#![forbid(unsafe_code)]
#![deny(unreachable_pub, clippy::dbg_macro, clippy::todo)]

pub mod filters;
mod image;
pub mod pipeline;
pub mod synth;

pub use image::Image;
pub use pipeline::{run_pipeline, Metrics, PipelineConfig, PipelineResult};
pub use synth::{synth_fundus, SynthConfig};
