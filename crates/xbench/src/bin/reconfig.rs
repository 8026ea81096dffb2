//! Regenerates the **Section V reconfiguration-overhead analysis**.
//!
//! The paper estimates 251 ms to micro-reconfigure one PE (526 TLUTs +
//! 568 TCONs through HWICAP) and argues the cost is negligible when a
//! coefficient change covers a 1000-image batch. This binary reproduces
//! the estimate from our own mapped PE, measures the SCG's
//! Boolean-function evaluation time per change — with one setting and
//! with 64 settings to a sweep — reports PPC memory, and prices the
//! same change on faster interfaces (\[6\], \[16\]).
//!
//! Usage: `cargo run -p xbench --release --bin reconfig [--smoke]`
//! (`--smoke` maps the PE in a reduced (5,10) format: same pipeline, a
//! fraction of the mapping time, trends intact)

use dcs::{pe_reconfig_estimate, ParamConfig, ReconfigInterface, Scg};
use logic::SplitMix64;
use softfloat::FpFormat;
use std::hint::black_box;
use xbench::{build_pe_aig_with, map_pe, print_header, print_row};

fn main() {
    let args = xbench::RECONFIG.parse();
    let smoke = args.has("--smoke");
    let trace_path = xbench::init_trace(&args);
    let fmt = if smoke {
        FpFormat::new(5, 10)
    } else {
        FpFormat::PAPER
    };
    println!(
        "Building and mapping the parameterized PE (format ({}, {})) ...",
        fmt.we, fmt.wf
    );
    let aig = build_pe_aig_with(fmt, true);
    let design = map_pe(&aig, true);
    let stats = design.stats();
    println!(
        "PE: {} LUTs ({} TLUTs), {} TCONs, {} tunable constants",
        stats.luts, stats.tluts, stats.tcons, stats.tunable_constants
    );

    // --- the paper's own population, through our timing model ---
    let paper_stats = dcs::paper_pe_stats();

    print_header("Section V — reconfiguration overhead per PE");
    let t_paper = pe_reconfig_estimate(&paper_stats, ReconfigInterface::Hwicap);
    print_row(
        "HWICAP, paper's PE population",
        "251 ms",
        &format!("{:.1} ms", t_paper.as_secs_f64() * 1e3),
    );
    for iface in [
        ReconfigInterface::Hwicap,
        ReconfigInterface::Micap,
        ReconfigInterface::IcapDma,
    ] {
        let t = pe_reconfig_estimate(&stats, iface);
        print_row(
            &format!("{}, our PE population", iface.name()),
            "-",
            &format!("{:.1} ms", t.as_secs_f64() * 1e3),
        );
    }

    // --- SCG measurement on the real PPC ---
    println!("\nExtracting TC/PPC and measuring the SCG ...");
    let cfg = ParamConfig::extract(&design);
    println!(
        "TC: {} static bits; PPC: {} tunable bits over {} frames; PPC memory: {} BDD nodes",
        cfg.template_bits(),
        cfg.ppc_bits(),
        cfg.tunable_frames(),
        cfg.ppc_memory_nodes(&design)
    );
    let scg = Scg::new(&design, &cfg);
    let mut rng = SplitMix64::new(7);
    let n_params = design.param_names.len();
    let draws: Vec<Vec<bool>> = (0..dcs::LANES)
        .map(|_| (0..n_params).map(|_| rng.coin()).collect())
        .collect();
    // One setting to a sweep: what a lone change pays.
    let t0 = std::time::Instant::now();
    let mut bits_total = 0usize;
    for d in &draws {
        bits_total += black_box(scg.specialize(d)).values.len();
    }
    let per_change_1 = t0.elapsed().as_secs_f64() / draws.len() as f64;
    // 64 settings to a sweep: what a swap over many PEs pays per setting.
    const SWEEPS: usize = 16;
    let refs: Vec<&[bool]> = draws.iter().map(Vec::as_slice).collect();
    let t0 = std::time::Instant::now();
    for _ in 0..SWEEPS {
        black_box(scg.specialize_lanes(&scg.pack_lanes(black_box(&refs))));
    }
    let per_change_64 = t0.elapsed().as_secs_f64() / (SWEEPS * draws.len()) as f64;
    print_row(
        "SCG eval / change, 1 per sweep",
        "(embedded CPU)",
        &format!("{:.2} us host", per_change_1 * 1e6),
    );
    print_row(
        "SCG eval / change, 64 per sweep",
        "(embedded CPU)",
        &format!("{:.2} us host", per_change_64 * 1e6),
    );
    print_row(
        "PPC bits evaluated / change",
        "-",
        &(bits_total / draws.len()).to_string(),
    );

    // --- coefficient-change working set and amortization ---
    // The pair sweep the runtime's pricer runs: old and new as two lanes.
    let change =
        dcs::timing::specialization_report(&scg, &draws[0], &draws[1], ReconfigInterface::Hwicap);
    let (dirty, port) = (change.frames, change.port_time);
    print_row(
        "frames dirtied by a coefficient change",
        "-",
        &dirty.to_string(),
    );
    print_row(
        "port time for that change (HWICAP)",
        "-",
        &format!("{:.1} ms", port.as_secs_f64() * 1e3),
    );
    let per_image = t_paper.as_secs_f64() * 1e3 / 1000.0;
    print_row(
        "amortized over 1000 images",
        "0.251 ms/image",
        &format!("{per_image:.3} ms/image"),
    );
    xbench::finish_trace(trace_path.as_deref());
}
