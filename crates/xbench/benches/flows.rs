//! Criterion micro-benchmarks of the CAD flows: technology mapping,
//! SCG specialization throughput, placement and routing on a mid-size
//! parameterized design.

use criterion::{criterion_group, criterion_main, Criterion};
use logic::aig::{Aig, InputKind};
use mapping::{map_conventional, map_parameterized, MapOptions};
use softfloat::gen::build_mac_pe;
use softfloat::FpFormat;
use std::hint::black_box;

/// Mid-size MAC (5,8): large enough to be representative, small enough to
/// iterate in a bench.
fn mac_aig() -> Aig {
    logic::opt::sweep(&build_mac_pe(FpFormat::new(5, 8), InputKind::Param))
}

fn bench_mapping(c: &mut Criterion) {
    let aig = mac_aig();
    let mut g = c.benchmark_group("mapping");
    g.sample_size(10);
    g.bench_function("conventional_mac_5_8", |b| {
        b.iter(|| black_box(map_conventional(&aig, MapOptions::default())))
    });
    g.bench_function("parameterized_mac_5_8", |b| {
        b.iter(|| black_box(map_parameterized(&aig, MapOptions::default())))
    });
    g.finish();
}

fn bench_scg(c: &mut Criterion) {
    let aig = mac_aig();
    let design = map_parameterized(&aig, MapOptions::default());
    let cfg = dcs::ParamConfig::extract(&design);
    let scg = dcs::Scg::new(&design, &cfg);
    let n = design.param_names.len();
    let mut rng = logic::SplitMix64::new(1);
    let params: Vec<Vec<bool>> = (0..64)
        .map(|_| (0..n).map(|_| rng.coin()).collect())
        .collect();
    let mut i = 0;
    c.bench_function("scg_specialize_mac_5_8", |b| {
        b.iter(|| {
            i = (i + 1) % params.len();
            black_box(scg.specialize(&params[i]))
        })
    });
}

fn bench_par(c: &mut Criterion) {
    let aig = mac_aig();
    let design = map_parameterized(&aig, MapOptions::default());
    let netlist = par::extract(&design);
    let arch = fabric::FabricArch::sized_for(netlist.logic_count(), netlist.io_count());
    let mut g = c.benchmark_group("par");
    g.sample_size(10);
    g.bench_function("tplace_mac_5_8", |b| {
        b.iter(|| black_box(par::place(&netlist, arch, 7)))
    });
    let placement = par::place(&netlist, arch, 7);
    let graph = fabric::RouteGraph::build(arch, 14);
    let engine = par::ParEngine::new(par::EngineOptions::default());
    g.bench_function("troute_mac_5_8_w14", |b| {
        b.iter(|| black_box(engine.route(&netlist, &placement, &graph).expect("routable")))
    });
    // The engine's full width search (warm-started binary probes); the
    // printed router stats come from the probe log it returns.
    g.bench_function("engine_min_width_mac_5_8", |b| {
        b.iter(|| {
            let s = engine
                .min_channel_width(&netlist, &placement, arch)
                .expect("routable");
            black_box((s.min_width, s.result.wirelength, s.probes.len()))
        })
    });
    g.finish();
}

/// The VCGRA compile a cold admission waits for, on the paper's 5-tap
/// example and on the shapes the runtime compiles: a 12-tap FIR on its
/// minimal 6×4 region (23 nodes, the size of the `app_churn` workload's
/// mean structure) and a 32-tap dot product filling a 16×4 region
/// (63 nodes on 64 PEs).
fn bench_vcgra_flow(c: &mut Criterion) {
    let taps = |n: usize| -> Vec<f64> { (0..n).map(|i| 0.0625 * (i + 1) as f64).collect() };
    for (name, taps, arch) in [
        ("vcgra_flow_5tap_4x4", taps(5), vcgra::VcgraArch::paper_4x4()),
        ("vcgra_flow_fir12_6x4", taps(12), vcgra::VcgraArch::new(6, 4, 2)),
        ("vcgra_flow_dot32_16x4", taps(32), vcgra::VcgraArch::new(16, 4, 2)),
    ] {
        let app = vcgra::app::AppGraph::dot_product(FpFormat::PAPER, &taps);
        c.bench_function(name, |b| {
            b.iter(|| black_box(vcgra::flow::map_app(&app, arch, 42).expect("fits")))
        });
    }
}

criterion_group!(benches, bench_mapping, bench_scg, bench_par, bench_vcgra_flow);
criterion_main!(benches);
