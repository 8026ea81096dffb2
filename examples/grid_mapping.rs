//! Mapping an application onto the 4×4 VCGRA grid (the paper's Fig. 1/2
//! usage): synthesis to a PE netlist, placement, virtual routing, settings
//! generation, functional verification and the Table II accounting.
//!
//! ```text
//! cargo run --release --example grid_mapping
//! ```

use softfloat::{FpFormat, FpValue};
use vcgra::app::AppGraph;
use vcgra::flow::map_app;
use vcgra::{render, VcgraArch};

fn main() {
    let fmt = FpFormat::PAPER;
    // A 5-tap smoothing kernel as a dataflow of MUL and ADD PEs.
    let coeffs = [0.0625, 0.25, 0.375, 0.25, 0.0625];
    let app = AppGraph::dot_product(fmt, &coeffs);
    println!(
        "application: {} PE operations, dataflow depth {}",
        app.pe_demand(),
        app.depth()
    );

    let arch = VcgraArch::paper_4x4();
    let t0 = std::time::Instant::now();
    let mapping = map_app(&app, arch, 42).expect("fits the 4x4 grid");
    println!(
        "mapped in {:?}: virtual wirelength {} channel segments",
        t0.elapsed(),
        mapping.virtual_wirelength
    );
    println!("{}", render::grid_ascii(&mapping, &app));

    // Settings registers (Table II: 25 words for the 4x4 grid).
    let words = mapping.settings_words();
    println!(
        "settings registers: {} x 32-bit ({} PE + {} VSB)",
        words.len(),
        arch.pe_count(),
        arch.vsb_count()
    );

    // Execute the mapped application and check it against direct dataflow
    // evaluation and against plain f64 arithmetic.
    let samples = [0.5f64, 1.0, 2.0, 1.0, 0.5];
    let inputs: Vec<FpValue> = samples.iter().map(|&x| FpValue::from_f64(x, fmt)).collect();
    let direct = vcgra::sim::run_dataflow(&app, &inputs);
    let mapped = vcgra::sim::run_mapped(&mapping, &app, &inputs);
    assert_eq!(direct[0].bits, mapped[0].bits, "mapped == direct");
    let expect: f64 = coeffs.iter().zip(&samples).map(|(c, x)| c * x).sum();
    println!(
        "filter({samples:?}) = {} (f64 reference {expect}, mapped result bit-exact \
         with the dataflow model)",
        mapped[0].to_f64()
    );

    // Table II, in place.
    let conv = arch.resources(false);
    let par = arch.resources(true);
    println!(
        "\nTable II: inter-network components {} -> {}, settings registers {} -> {}",
        conv.inter_network_components_on_luts,
        par.inter_network_components_on_luts,
        conv.settings_registers_on_ffs,
        par.settings_registers_on_ffs
    );
}
