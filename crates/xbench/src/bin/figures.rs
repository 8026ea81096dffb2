//! Regenerates the paper's **figures** as machine-readable artifacts in
//! `out/`:
//!
//! * Fig. 1 — `fig1_grid.dot`: a VCGRA fragment (PEs, VSBs, settings
//!   registers);
//! * Fig. 4 — `fig4_pe.dot`: the fully parameterized PE (settings
//!   register, BLE groups, TCON ring);
//! * Fig. 5 — `fig5_*.pgm`: every stage of the vessel-segmentation
//!   pipeline on a synthetic fundus image, plus an ASCII grid of a mapped
//!   kernel (Fig. 1's usage view).
//!
//! Usage: `cargo run -p xbench --release --bin figures [out_dir] [--smoke]`
//! (`--smoke` renders the pipeline on a smaller synthetic fundus so CI
//! can run the binary end-to-end in seconds)

use retina::filters::convolve_f32;
use retina::pipeline::{run_pipeline, Metrics, PipelineConfig};
use retina::synth::{synth_fundus, SynthConfig};
use softfloat::FpFormat;
use vcgra::app::AppGraph;
use vcgra::render;
use vcgra::VcgraArch;

fn main() {
    let args = xbench::FIGURES.parse();
    let smoke = args.has("--smoke");
    let out_dir = args.positional().unwrap_or("out").to_string();
    std::fs::create_dir_all(&out_dir).expect("create output dir");
    let path = |name: &str| format!("{out_dir}/{name}");

    // Fig. 1: grid schematic.
    let arch = VcgraArch::paper_4x4();
    std::fs::write(path("fig1_grid.dot"), render::grid_dot(&arch)).unwrap();
    println!("wrote {}", path("fig1_grid.dot"));

    // Fig. 4: PE schematic.
    std::fs::write(path("fig4_pe.dot"), render::pe_dot()).unwrap();
    println!("wrote {}", path("fig4_pe.dot"));

    // Fig. 1 (usage view): a mapped kernel on the grid, as ASCII.
    let app = AppGraph::dot_product(FpFormat::PAPER, &[0.25, 0.5, 0.25, 0.125, 0.0625]);
    let mapping = vcgra::flow::map_app(&app, arch, 3).expect("mappable");
    let ascii = render::grid_ascii(&mapping, &app);
    std::fs::write(path("fig1_mapped.txt"), &ascii).unwrap();
    println!("wrote {}\n{ascii}", path("fig1_mapped.txt"));

    // Fig. 5: pipeline stages on a synthetic fundus image.
    let size = if smoke { 64 } else { 128 };
    let (img, truth) = synth_fundus(
        &SynthConfig {
            size,
            ..Default::default()
        },
        2026,
    );
    let res = run_pipeline(&img, &PipelineConfig::default(), convolve_f32);
    let stages: [(&str, &retina::Image); 6] = [
        ("fig5_0_green.pgm", &img.g),
        ("fig5_1_preprocessed.pgm", &res.preprocessed),
        ("fig5_2_denoised.pgm", &res.denoised),
        ("fig5_3_matched_response.pgm", &res.response),
        ("fig5_4_textured.pgm", &res.textured),
        ("fig5_5_segmented.pgm", &res.segmented),
    ];
    for (name, image) in stages {
        std::fs::write(path(name), image.to_pgm()).unwrap();
        println!("wrote {}", path(name));
    }
    std::fs::write(path("fig5_truth.pgm"), truth.to_pgm()).unwrap();
    let m = Metrics::evaluate(&res.segmented, &truth);
    println!(
        "\nFig. 5 pipeline on synthetic fundus: precision {:.3}, recall {:.3}, F1 {:.3}, accuracy {:.3}",
        m.precision(),
        m.recall(),
        m.f1(),
        m.accuracy()
    );
}
