//! The paper's HPC application (Fig. 5): retinal vessel segmentation with
//! the filter stages served by the VCGRA runtime.
//!
//! ```text
//! cargo run --release --example retinal_vessel_segmentation [out_dir]
//! ```
//!
//! Generates a synthetic fundus image (clinical data is not
//! redistributable — see README.md), runs preprocessing in software and
//! the filter stages through `runtime::kernels::convolve_served` (one
//! tenant per kernel size, one swap per kernel row), checks it against
//! the `f32` pipeline, writes every stage as a PGM image and reports
//! quality plus Section V's reconfiguration cost from the ledger.

use retina::filters::convolve_f32;
use retina::pipeline::{run_pipeline, Metrics, PipelineConfig};
use retina::synth::{synth_fundus, SynthConfig};
use runtime::{kernels, Runtime, RuntimeConfig};
use softfloat::FpFormat;
use std::time::{Duration, Instant};

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
    let cfg = PipelineConfig::default();
    let mut rt = Runtime::new(RuntimeConfig::default());
    // Each served convolution, timed in call order: the denoise, one per
    // matched-filter orientation, then the texture filter.
    let mut conv_times = Vec::new();
    let t0 = Instant::now();
    let res = run_pipeline(&img, &cfg, |image, k| {
        let t = Instant::now();
        let out = kernels::convolve_served(&mut rt, FpFormat::PAPER, image, k)
            .expect("served convolution");
        conv_times.push(t.elapsed());
        out
    });
    let elapsed = t0.elapsed();
    assert_eq!(
        conv_times.len(),
        cfg.orientations + 2,
        "one call per kernel"
    );
    let reference = run_pipeline(&img, &cfg, convolve_f32);
    let pixels = res.segmented.data.len();
    let agree = (0..pixels)
        .filter(|&i| res.segmented.data[i] == reference.segmented.data[i])
        .count() as f64
        / pixels as f64;
    assert!(agree >= 0.98, "{:.1} % of pixels agree", agree * 100.0);

    let m = Metrics::evaluate(&res.segmented, &truth);
    println!(
        "pipeline (served, FloPoCo 6/26) in {elapsed:?}: {:.1} % of pixels as the f32 pipeline",
        agree * 100.0
    );
    println!(
        "  stages: denoise {:?}, matched filters {:?}, texture {:?}",
        conv_times[0],
        conv_times[1..=cfg.orientations].iter().sum::<Duration>(),
        conv_times[cfg.orientations + 1]
    );
    println!(
        "  segmentation: precision {:.3}, recall {:.3}, F1 {:.3}, accuracy {:.3}",
        m.precision(),
        m.recall(),
        m.f1(),
        m.accuracy()
    );

    // Section V from the ledger: the image cost its admissions and one
    // swap per kernel row. A batch streamed through each row configuration
    // before the next swap pays them once. Swaps are priced on the
    // runtime's (4,6) pricer PE, not on the (6,26) PE the tenants compute in.
    let l = rt.ledger();
    println!(
        "  one image: {} cold compiles, {:.3} s admission port time; {} swaps, {} frames, \
         {:.3} s swap port time (priced on the (4,6) pricer PE)",
        l.cold_compiles,
        l.admission_port_time.as_secs_f64(),
        l.swaps,
        l.swap_frames,
        l.swap_port_time.as_secs_f64()
    );
    for batch in [1, 10, 1000] {
        println!(
            "  batch of {batch:>4}: {:.3} ms modeled port time per image",
            l.total_port_time().as_secs_f64() * 1e3 / batch as f64
        );
    }

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
