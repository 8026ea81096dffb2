//! Benchmark harness: regenerates every table and figure of the paper.
//!
//! Binaries (run with `cargo run -p xbench --release --bin <name>`):
//!
//! | binary        | artefact reproduced                                    |
//! |---------------|--------------------------------------------------------|
//! | `table1`      | Table I — PE resource utilization and PaR results      |
//! | `table2`      | Table II — 4×4 VCGRA grid resources                    |
//! | `reconfig`    | §V reconfiguration-overhead estimate (251 ms per PE)   |
//! | `compile_time`| §II compile-time claim (VCGRA flow vs gate-level flow) |
//! | `figures`     | Figs. 1/4 (DOT renders), Fig. 5 (pipeline stage PGMs)  |
//! | `ablations`   | design-choice sweeps (hops, cut budget, precision)     |
//! | `pricer_table`| the runtime's pricing PPC, mapped offline ([`pricer_table`]) |
//!
//! `figures`, `reconfig`, `compile_time` and `ablations` accept `--smoke`
//! (reduced formats/grids/volumes) so CI can run all of them end-to-end
//! in seconds. `table1` also takes `--verify`, which re-proves its
//! artifacts through `vcgra-verify` and reports the audit overhead
//! alongside the benchmark figures; it is where the route trees
//! `ParEngine::run` returns are linted, since the engine checks nothing
//! itself. The other `vcgra-verify` passes run elsewhere:
//! `runtime/tests/verify_state.rs` lints the kernel library's
//! configurations and soaks the scheduler, verifying after every
//! operation.
//!
//! The drivers print what they measure and write no record of their
//! own: the machine-readable result is the repo benchmark's
//! (`bench/out/RESULT.json`), and `--trace <path>` ([`init_trace`])
//! writes any driver's spans as a Chrome trace.
//!
//! The crate times nothing for a gate: host time per layer is the repo
//! benchmark's (`bench/run.sh trace <workload>`), which also measures the
//! serving tiers; `examples/quickstart.rs` and
//! `examples/sharded_serving.rs` demonstrate them.

#![forbid(unsafe_code)]
#![deny(unreachable_pub, clippy::dbg_macro, clippy::todo)]

use fabric::{FabricArch, RouteGraph};
use logic::aig::Aig;
use mapping::{MapOptions, MappedDesign};
use par::{ParEngine, ParNetlist, Placement, RouteResult};
use softfloat::FpFormat;
use vcgra::{VirtualPe, VirtualPeConfig};

/// True when `--smoke` appears on the command line.
pub fn smoke_mode() -> bool {
    std::env::args().any(|a| a == "--smoke")
}

/// Parses `--trace <path>` and, when present, arms the global span
/// recorder. Every driver calls this first thing in `main`, so
/// instrumentation across the whole compile + serve stack records into
/// one timeline. Pair with [`finish_trace`] before exit.
pub fn init_trace() -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    let path = args
        .iter()
        .position(|a| a == "--trace")
        .map(|i| args.get(i + 1).expect("--trace needs a path").clone());
    if path.is_some() {
        trace::configure(trace::TraceConfig::On);
    }
    path
}

/// Drains the recorder into a Chrome trace-event JSON file (load it at
/// `ui.perfetto.dev` or `chrome://tracing`). No-op when [`init_trace`]
/// found no `--trace` flag.
pub fn finish_trace(path: Option<&str>) {
    if let Some(path) = path {
        let events = trace::write_chrome_trace(path).expect("write trace file");
        println!("wrote {path} ({events} trace events)");
    }
}

/// The PE the runtime prices parameter swaps on: (4,6) at two hops, whose
/// PPC store a swap sweeps in ≈ 2 µs (the (6,26) PE's holds 62 483 nodes).
pub const PRICER_PE: VirtualPeConfig = VirtualPeConfig {
    format: FpFormat { we: 4, wf: 6 },
    hops: 2,
};

/// The runtime's pricing table (`crates/runtime/src/pricer/table.rs`) for
/// `pe`, as Rust source: the PE swept, mapped parameterized and its PPC
/// extracted — the paper's offline generic stage — and the store
/// compacted to what the PPC's roots reach, in PPC order. It holds what
/// [`dcs::Scg::from_parts`] reads and nothing else, as `static` arrays and
/// `const` counts: the store's nodes ([`logic::BddManager::nodes`]), one
/// root per PPC bit, each root's frame index, the frames, the parameter
/// count, and the PE's format and hops.
pub fn pricer_table(pe: VirtualPeConfig) -> String {
    use std::fmt::Write;
    let design = map_pe(&build_pe_aig_with(pe.format, true), true);
    let config = dcs::ParamConfig::extract(&design);
    let mut bdd = logic::BddManager::from_nodes(&design.bdd.nodes());
    let mut roots: Vec<logic::Bdd> = config.ppc.iter().map(|&(_, f, _)| f).collect();
    bdd.compact(roots.iter_mut());
    let nodes = bdd.nodes();

    /// Writes `items` as a `static` array of elements of type `ty`, as
    /// many to a line as fit in 100 columns.
    fn array(out: &mut String, doc: &str, name: &str, ty: &str, items: &[String]) {
        let len = items.len();
        writeln!(
            out,
            "\n/// {doc}\npub(super) static {name}: [{ty}; {len}] = ["
        )
        .unwrap();
        let mut line = String::new();
        for item in items {
            if !line.is_empty() && line.len() + item.len() + 2 > 100 {
                writeln!(out, "{}", line.trim_end()).unwrap();
                line.clear();
            }
            write!(line, "{item}, ").unwrap();
        }
        writeln!(out, "{}\n];", line.trim_end()).unwrap();
    }
    let numbers = |xs: &[u32]| xs.iter().map(u32::to_string).collect::<Vec<_>>();

    let (we, wf, hops) = (pe.format.we, pe.format.wf, pe.hops);
    let mut out = format!(
        "//! The runtime's pricing PE, mapped offline: the ({we},{wf}) virtual PE at\n\
         //! {hops} hops, swept, mapped parameterized and its PPC extracted, with the\n\
         //! store compacted to what the PPC's roots reach ({} nodes, {} PPC bits).\n\
         //!\n\
         //! Written by `cargo run -p xbench --release --bin pricer_table >\n\
         //! crates/runtime/src/pricer/table.rs`; `xbench`'s `pricer_table` test\n\
         //! maps the PE again and fails if this file differs. Do not edit.\n\
         \n\
         /// Exponent width of the pricing PE's format.\n\
         pub(super) const WE: u32 = {we};\n\
         /// Fraction width of the pricing PE's format.\n\
         pub(super) const WF: u32 = {wf};\n\
         /// Virtual switch hops per word-level connection.\n\
         pub(super) const HOPS: usize = {hops};\n\
         /// Parameters (BDD variables) one assignment sets.\n\
         pub(super) const PARAMS: usize = {};\n",
        nodes.len() + 1,
        roots.len(),
        config.param_names.len(),
    );
    array(
        &mut out,
        "The distinct frames holding a tunable bit, ascending.",
        "FRAMES",
        "u32",
        &numbers(config.frames()),
    );
    array(
        &mut out,
        "The store's internal nodes, children first: variable, `lo`, `hi` (raw handles).",
        "NODES",
        "[u32; 3]",
        &nodes
            .iter()
            .map(|[v, lo, hi]| format!("[{v},{lo},{hi}]"))
            .collect::<Vec<_>>(),
    );
    array(
        &mut out,
        "Per PPC bit, the raw handle of its function.",
        "ROOTS",
        "u32",
        &numbers(&roots.iter().map(|r| r.raw()).collect::<Vec<_>>()),
    );
    array(
        &mut out,
        "Per PPC bit, the index of its frame in `FRAMES`.",
        "ROOT_FRAME",
        "u32",
        &numbers(config.ppc_frame()),
    );
    out
}

/// A compact row printer for paper-vs-measured tables.
pub fn print_row(label: &str, paper: &str, measured: &str) {
    println!("  {label:<34} {paper:>16} {measured:>18}");
}

/// Header for paper-vs-measured tables.
pub fn print_header(title: &str) {
    println!("\n=== {title} ===");
    print_row("quantity", "paper", "measured");
    println!("  {}", "-".repeat(70));
}

/// Builds the PE netlist (virtual PE, two hops) for one flow — in the
/// paper's (6,26), or in the reduced format of the smoke modes, whose
/// trends match the paper-scale PE at a fraction of the mapping cost.
pub fn build_pe_aig_with(format: FpFormat, parameterized: bool) -> Aig {
    let pe = VirtualPe::build(VirtualPeConfig { format, hops: 2 }, parameterized);
    logic::opt::sweep(&pe.aig)
}

/// Maps the PE with the flow matching its annotation.
pub fn map_pe(aig: &Aig, parameterized: bool) -> MappedDesign {
    if parameterized {
        mapping::map_parameterized(aig, MapOptions::default())
    } else {
        mapping::map_conventional(aig, MapOptions::default())
    }
}

/// Routes at `start` tracks, doubling the width after every failure up to
/// the engine's `max_width` — for a driver that wants *a* routed result,
/// not the minimum width. The congestion estimate its caller starts from
/// is a heuristic, so an undershoot is escalated away rather than fatal.
/// The width that routed is the returned graph's.
pub fn route_doubling(
    engine: &ParEngine,
    netlist: &ParNetlist,
    placement: &Placement,
    arch: FabricArch,
    start: usize,
) -> (RouteGraph, RouteResult) {
    let max_width = engine.opts.max_width;
    let mut width = start;
    loop {
        let graph = RouteGraph::build(arch, width);
        match engine.route(netlist, placement, &graph) {
            Ok(routed) => return (graph, routed),
            Err(e) => {
                assert!(width < max_width, "unroutable even at width {width}: {e:?}");
                width = (width * 2).min(max_width);
            }
        }
    }
}

/// Prints a width search's probe table — one row per router run, then
/// where the search's wall-clock went: hopeless widths ground to the
/// iteration limit, less what ran on a thread of its own meanwhile.
pub fn print_probe_table(probes: &[par::WidthProbe], search_seconds: f64) {
    for p in probes {
        println!(
            "  width {:>3}: {:<4} {:>8.2}s  {:>2} iters {:>7} rip-ups {:>5} warm nets{}{}",
            p.width,
            if p.success { "ok" } else { "FAIL" },
            p.seconds,
            p.iterations,
            p.ripups,
            p.warm_nets,
            if p.confirm { "  [cold confirm]" } else { "" },
            if p.overlapped { " [beside search]" } else { "" },
        );
    }
    // (`fold`, not `sum`: an empty `f64` sum is −0.0 and prints as such.)
    let failed = probes.iter().filter(|p| !p.success);
    let failed_s = failed.clone().fold(0.0, |s, p| s + p.seconds);
    let beside_s = failed
        .filter(|p| p.overlapped)
        .fold(0.0, |s, p| s + p.seconds);
    println!(
        "  failed probes: {failed_s:.2} of {search_seconds:.2} s \
         ({beside_s:.2} s of them beside the search)"
    );
}

/// Percentage reduction helper.
pub fn reduction(before: usize, after: usize) -> f64 {
    if before == 0 {
        0.0
    } else {
        100.0 * (1.0 - after as f64 / before as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduction_math() {
        assert!((reduction(100, 70) - 30.0).abs() < 1e-9);
        assert_eq!(reduction(0, 10), 0.0);
    }

    #[test]
    fn pe_builders_differ_only_in_annotation() {
        let conv = build_pe_aig_with(FpFormat::PAPER, false);
        let par = build_pe_aig_with(FpFormat::PAPER, true);
        assert_eq!(conv.num_inputs(), par.num_inputs());
        assert!(par.num_inputs_of(logic::aig::InputKind::Param) > 0);
        assert_eq!(conv.num_inputs_of(logic::aig::InputKind::Param), 0);
    }
}
