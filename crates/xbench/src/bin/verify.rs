//! Standalone **`vcgra-verify`** driver: runs every verification pass
//! against freshly produced artifacts of every kind the toolchain emits.
//!
//! 1. **config** — maps every kernel in the runtime library onto its
//!    minimal overlay region and lints the resulting `VcgraMapping`
//!    (placement injectivity, route connectivity, channel capacity,
//!    settings/mode/coefficient agreement);
//! 2. **equiv** — maps the FP-MAC virtual PE with both flows and proves
//!    each mapped design equivalent to its source AIG over random
//!    parameter draws;
//! 3. **routes** — places and routes the conventional PE and lints the
//!    route trees (connectivity, stranded nodes, wire exclusivity, ids
//!    and tracks in range);
//! 4. **sched** — drives a runtime churn scenario (queueing, streaming,
//!    resubmission, release) with `verify_on_admit` gating every
//!    operation, then re-proves the final scheduler state.
//!
//! Exits non-zero if any pass reports a violation. `--smoke` uses the
//! reduced (5,10) PE so CI can run it per push; the full run audits the
//! paper-scale (6,26) PE.
//!
//! Usage: `cargo run -p xbench --release --bin verify [--smoke]`

use par::{EngineOptions, ParEngine};
use runtime::{kernels, Runtime, RuntimeConfig, StreamRequest};
use softfloat::{FpFormat, FpValue};
use vcgra::VcgraArch;
use verify::Verifier;
use xbench::{build_pe_aig_with, map_pe};

/// Region with the same shape the runtime's admission layer would lease.
fn minimal_region(demand: usize) -> VcgraArch {
    VcgraArch::new(demand.div_ceil(4).max(2), 4, 2)
}

fn config_pass(fmt: FpFormat, reports: &mut Vec<verify::VerifyReport>) {
    println!("\n-- pass: config (overlay mappings of the kernel library) --");
    let v = Verifier::new();
    for w in kernels::library(fmt) {
        let region = minimal_region(w.graph.pe_demand());
        let mapping = vcgra::flow::map_app(&w.graph, region, 1)
            .unwrap_or_else(|e| panic!("{} unmappable on its minimal region: {e}", w.name));
        let r = v.verify_config(&w.graph, &mapping);
        println!("  {:<22} {}", w.name, r.summary());
        reports.push(r);
    }
}

fn equiv_pass(fmt: FpFormat, smoke: bool, reports: &mut Vec<verify::VerifyReport>) {
    println!("\n-- pass: equiv (PE mapped designs vs source AIG) --");
    let v = Verifier::new();
    let draws = if smoke { 4 } else { 2 };
    for parameterized in [false, true] {
        let aig = build_pe_aig_with(fmt, parameterized);
        let design = map_pe(&aig, parameterized);
        let r = v.verify_equivalence(&aig, &design, draws, 0x5EED);
        println!(
            "  {:<22} {}",
            if parameterized {
                "parameterized"
            } else {
                "conventional"
            },
            r.summary()
        );
        reports.push(r);
    }
}

fn routes_pass(fmt: FpFormat, reports: &mut Vec<verify::VerifyReport>) {
    println!("\n-- pass: routes (conventional PE) --");
    let design = map_pe(&build_pe_aig_with(fmt, false), false);
    let nl = par::extract(&design);
    let arch = fabric::arch::FabricArch::sized_for(nl.logic_count(), nl.io_count());
    let engine = ParEngine::new(EngineOptions::default());
    let placement = engine.place(&nl, arch);

    // One routable width is enough: the lint is about the trees, not the
    // minimum.
    let start = par::channel_width_estimate(&nl, &placement, arch).max(4);
    let (graph, routed) = xbench::route_doubling(&engine, &nl, &placement, arch, start);
    println!(
        "  fabric {0}x{0}, channel width {1}",
        arch.size, graph.width
    );

    let nets = par::troute::terminals(&nl, &placement, &graph);
    let r = Verifier::new().verify_routes(&graph, &nets, &routed.trees);
    println!("  route lint              {}", r.summary());
    reports.push(r);
}

fn sched_pass(fmt: FpFormat, reports: &mut Vec<verify::VerifyReport>) {
    println!("\n-- pass: sched (runtime churn under verify_on_admit) --");
    let cfg = RuntimeConfig {
        grids: vec![VcgraArch::new(6, 4, 2), VcgraArch::new(8, 4, 2)],
        verify_on_admit: true,
        ..RuntimeConfig::default()
    };
    let mut rt = Runtime::new(cfg);
    let mut rng = logic::SplitMix64::new(0xA0D1);
    let mut live = Vec::new();
    for (i, taps) in [3usize, 5, 8, 3, 12, 4].iter().enumerate() {
        let adm = rt
            .submit(
                format!("k{i}"),
                kernels::fir_seeded(fmt, *taps, i as u64 + 1).graph,
            )
            .expect("gated submit");
        if let runtime::Admission::Admitted(a) = adm {
            live.push(a.tenant);
        }
    }
    for &t in &live {
        let n = rt.tenant(t).expect("live").graph.num_inputs;
        let inputs: Vec<Vec<FpValue>> = (0..8)
            .map(|_| {
                (0..n)
                    .map(|_| FpValue::from_f64((rng.unit_f64() - 0.5) * 8.0, fmt))
                    .collect()
            })
            .collect();
        rt.run(vec![StreamRequest { tenant: t, inputs }])
            .expect("gated stream");
    }
    rt.resubmit(live[0], kernels::fir_seeded(fmt, 6, 99).graph)
        .expect("gated resubmit");
    // Defragment in the idle window so the timeline pass below sees
    // lane-local compaction replays, not just port phases.
    rt.compact_background().expect("gated compaction");
    for &t in &live {
        rt.release(t).expect("gated release");
    }
    let r = rt.verify();
    println!("  churn scenario          {}", r.summary());
    reports.push(r);
    let t = rt.verify_timeline();
    println!("  churn time axis         {}", t.summary());
    reports.push(t);
}

fn main() {
    let smoke = xbench::smoke_mode();
    let trace_path = xbench::init_trace();
    let fmt = if smoke {
        FpFormat::new(5, 10)
    } else {
        FpFormat::PAPER
    };
    println!(
        "=== vcgra-verify sweep ({} mode, FloPoCo ({},{})) ===",
        if smoke { "smoke" } else { "full" },
        fmt.we,
        fmt.wf
    );

    let mut reports = Vec::new();
    config_pass(fmt, &mut reports);
    equiv_pass(fmt, smoke, &mut reports);
    routes_pass(fmt, &mut reports);
    sched_pass(fmt, &mut reports);

    let violations: usize = reports.iter().map(|r| r.violations.len()).sum();
    let overhead: f64 = reports.iter().map(|r| r.seconds).sum();
    let checked: usize = reports.iter().map(|r| r.checked).sum();
    println!(
        "\n{} passes, {checked} objects checked, {violations} violations, \
         {overhead:.3} s total verification time",
        reports.len()
    );
    if violations > 0 {
        for r in reports.iter().filter(|r| !r.ok()) {
            eprintln!("FAILED {}", r.summary());
            for v in &r.violations {
                eprintln!("  [{}] {v}", v.code());
            }
        }
        std::process::exit(1);
    }
    xbench::finish_trace(trace_path.as_deref());
    println!("verify OK: every invariant proven on every artifact kind.");
}
