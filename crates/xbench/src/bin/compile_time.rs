//! Regenerates the **Section II compile-time claim**: the VCGRA tool flow
//! (PE-granularity synthesis, placement, routing) is orders of magnitude
//! faster than the standard gate-level FPGA flow, because the higher
//! abstraction level shrinks the problem size.
//!
//! Both flows compile the same application: a 5-tap filter kernel.
//! * VCGRA flow: dataflow synthesis → PE placement → virtual routing →
//!   settings generation (the whole Fig. 2 right-hand side).
//! * FPGA flow: gate-level netlist generation → logic optimization →
//!   technology mapping → placement → routing at a fixed generous channel
//!   width (the `par-engine`; the full min-width search would only widen
//!   the gap).
//!
//! Usage: `cargo run -p xbench --release --bin compile_time [--smoke] [--check]
//!         [--threads-sweep 1,2,4,8]`
//! (`--smoke` runs the gate-level flow on a reduced (5,10) PE — the gap
//! shrinks with the netlist but stays orders of magnitude. `--check`
//! turns the run into a regression gate: it exits non-zero when the
//! gate-level route exceeds a generous wall-time threshold, so CI fails
//! fast if the router hot path regresses. `--threads-sweep` runs the
//! minimum-width search of the gate-level netlist at each listed thread
//! count, prints its probe table and asserts the whole search `==` the
//! first count's — a route itself reads no thread count.)

use par::{EngineOptions, ParEngine};
use softfloat::FpFormat;
use vcgra::app::AppGraph;
use vcgra::flow::map_app;
use vcgra::VcgraArch;
use xbench::{print_header, print_row};

/// `--check` threshold for the gate-level route of the smoke PE (seconds).
/// The gated route (graph build included) measures ≈ 0.13 s in release on
/// a 2-core host, so the margin is ≈ 75×: the gate catches a hang or an
/// algorithmic blow-up, not a 2× slowdown. It stays this wide because CI
/// runners are shared.
const CHECK_ROUTE_SECONDS: f64 = 10.0;

fn main() {
    let args = xbench::COMPILE_TIME.parse();
    let smoke = args.has("--smoke");
    let trace_path = xbench::init_trace(&args);
    let check = args.has("--check");
    let sweep: Vec<usize> = args
        .value("--threads-sweep")
        .map(|v| {
            v.split(',')
                .map(|t| t.trim().parse())
                .collect::<Result<_, _>>()
                .unwrap_or_else(|_| {
                    xbench::COMPILE_TIME
                        .refuse(&format!("`--threads-sweep {v}` is not a list of counts"))
                })
        })
        .unwrap_or_default();
    let gate_fmt = if smoke {
        FpFormat::new(5, 10)
    } else {
        FpFormat::PAPER
    };
    let coeffs = [0.0625, 0.25, 0.375, 0.25, 0.0625]; // 5-tap binomial
    let arch = VcgraArch::paper_4x4();

    // --- VCGRA tool flow ---
    let t0 = std::time::Instant::now();
    let app = AppGraph::dot_product(FpFormat::PAPER, &coeffs);
    let mapping = map_app(&app, arch, 42).expect("fits the 4x4 grid");
    let t_vcgra = t0.elapsed();
    println!(
        "VCGRA flow: {} PEs placed, virtual WL {}, settings words {}",
        app.pe_demand(),
        mapping.virtual_wirelength,
        mapping.settings_words().len()
    );
    println!(
        "  peak memory after the VCGRA flow: {}",
        xbench::peak_memory()
    );

    // --- standard FPGA flow on the same function (gate level) ---
    let t1 = std::time::Instant::now();
    let aig = xbench::build_pe_aig_with(gate_fmt, false); // one PE's worth of gates
    let t_synth = t1.elapsed();
    let t2 = std::time::Instant::now();
    let design = xbench::map_pe(&aig, false);
    let t_map = t2.elapsed();
    let t3 = std::time::Instant::now();
    let netlist = par::extract(&design);
    let fabric = fabric::FabricArch::sized_for(netlist.logic_count(), netlist.io_count());
    let engine = ParEngine::new(EngineOptions::default());
    let placement = engine.place(&netlist, fabric);
    let t_place = t3.elapsed();
    // Route once at a generous width — the compile-time claim is about
    // one compile, not the min-width characterization sweep. The
    // congestion estimate is a heuristic, so escalate (and keep the
    // retries in the measured time) rather than die if it undershoots.
    let t4 = std::time::Instant::now();
    let start = (par::channel_width_estimate(&netlist, &placement, fabric) + 4)
        .max(EngineOptions::default().min_width);
    let (graph, routed) = xbench::route_doubling(&engine, &netlist, &placement, fabric, start);
    let width = graph.width;
    let t_route = t4.elapsed();
    let t_fpga = t_synth + t_map + t_place + t_route;
    println!(
        "FPGA flow (one PE): synth {t_synth:?} + map {t_map:?} + place {t_place:?} \
         + route {t_route:?} (width {width}, {} iters, {} rip-ups, WL {}, {} waves)",
        routed.iterations, routed.ripups, routed.wirelength, routed.waves
    );
    println!(
        "  peak memory after the FPGA flow: {}",
        xbench::peak_memory()
    );

    print_header("Section II — compile time, same application");
    print_row(
        "VCGRA flow (synth+place+route+settings)",
        "seconds",
        &format!("{:.3} ms", t_vcgra.as_secs_f64() * 1e3),
    );
    print_row(
        "FPGA flow (synth+map+place+route, 1 PE)",
        "tens of minutes",
        &format!("{:.1} ms", t_fpga.as_secs_f64() * 1e3),
    );
    let ratio = t_fpga.as_secs_f64() / t_vcgra.as_secs_f64().max(1e-9);
    print_row(
        "speedup of the VCGRA flow",
        "orders of magnitude",
        &format!("{ratio:.0}x"),
    );
    println!(
        "\n(the FPGA column covers a single PE; a full application instantiates\n\
         {} of them plus interconnect, widening the gap accordingly)",
        app.pe_demand()
    );

    // --- optional width-search sweep over thread counts: with two or
    // more, the cold W−1 certificate routes beside the binary phase, and
    // nothing but the wall clock may show it ---
    if !sweep.is_empty() {
        println!("\nwidth search sweep ({} nets):", netlist.nets.len());
        let mut first: Option<par::WidthSearch> = None;
        for &threads in &sweep {
            let eng = ParEngine::new(EngineOptions {
                threads,
                ..Default::default()
            });
            let t = std::time::Instant::now();
            let s = eng
                .min_channel_width(&netlist, &placement, fabric)
                .expect("routable in sweep");
            let secs = t.elapsed().as_secs_f64();
            println!(
                "  threads {threads:>2}: {secs:>7.3}s  minimum {} ({}), {} probes",
                s.min_width,
                s.certificate.name(),
                s.probes.len()
            );
            xbench::print_probe_table(&s.probes);
            let Some(f) = &first else {
                first = Some(s);
                continue;
            };
            assert!(
                s == *f,
                "thread count {threads} changed the width search — determinism broken"
            );
        }
    }

    if check {
        let secs = t_route.as_secs_f64();
        if secs > CHECK_ROUTE_SECONDS {
            eprintln!(
                "CHECK FAILED: gate-level route took {secs:.2}s \
                 (threshold {CHECK_ROUTE_SECONDS}s) — router hot path regressed"
            );
            std::process::exit(1);
        }
        println!("check passed: gate-level route {secs:.2}s <= {CHECK_ROUTE_SECONDS}s threshold");
    }
    xbench::finish_trace(trace_path.as_deref());
}
