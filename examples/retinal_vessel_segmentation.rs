//! The paper's HPC application (Fig. 5): retinal vessel segmentation with
//! the filter stages executed as VCGRA hardware modules.
//!
//! ```text
//! cargo run --release --example retinal_vessel_segmentation [out_dir]
//! ```
//!
//! Generates a synthetic fundus image (clinical data is not
//! redistributable — see README.md), runs preprocessing in software and
//! the denoise / matched-filter / texture stages through the bit-exact
//! FloPoCo MAC model, writes every stage as a PGM image and reports
//! segmentation quality plus the reconfiguration economics of Section V.

use retina::pipeline::{run_pipeline, Engine, Metrics, PipelineConfig};
use retina::synth::{synth_fundus, SynthConfig};

fn main() {
    let out_dir = std::env::args().nth(1).unwrap_or_else(|| "out".to_string());
    std::fs::create_dir_all(&out_dir).expect("create output dir");

    let (img, truth) = synth_fundus(
        &SynthConfig {
            size: 128,
            ..Default::default()
        },
        7,
    );
    let cfg = PipelineConfig {
        engine: Engine::Vcgra,
        ..Default::default()
    };
    let t0 = std::time::Instant::now();
    let res = run_pipeline(&img, &cfg);
    let elapsed = t0.elapsed();

    let m = Metrics::evaluate(&res.segmented, &truth);
    println!("pipeline (VCGRA engine, FloPoCo 6/26) in {elapsed:?}");
    println!(
        "  stages: denoise {:?}, matched filters {:?}, texture {:?}",
        res.stage_times[0], res.stage_times[1], res.stage_times[2]
    );
    println!(
        "  segmentation: precision {:.3}, recall {:.3}, F1 {:.3}, accuracy {:.3}",
        m.precision(),
        m.recall(),
        m.f1(),
        m.accuracy()
    );

    // Reconfiguration economics: each kernel's coefficients are parameters;
    // loading a new kernel onto a PE costs one micro-reconfiguration, at
    // the paper's per-PE estimate over HWICAP.
    let per_pe_ms = dcs::paper_pe_reconfig(dcs::ReconfigInterface::Hwicap).as_secs_f64() * 1e3;
    let batch = 1000usize;
    println!(
        "  kernels loaded: {} ({} coefficients) — at {per_pe_ms:.3} ms/PE per change and \
         {batch} images per batch: {:.3} ms amortized per image",
        res.kernels_loaded,
        res.coefficients_programmed,
        res.kernels_loaded as f64 * per_pe_ms / batch as f64
    );

    for (name, image) in [
        ("stage0_green.pgm", &img.g),
        ("stage1_preprocessed.pgm", &res.preprocessed),
        ("stage2_denoised.pgm", &res.denoised),
        ("stage3_response.pgm", &res.response),
        ("stage4_textured.pgm", &res.textured),
        ("stage5_segmented.pgm", &res.segmented),
        ("ground_truth.pgm", &truth),
    ] {
        let path = format!("{out_dir}/{name}");
        std::fs::write(&path, image.to_pgm()).expect("write PGM");
        println!("  wrote {path}");
    }
}
