//! Direct probes: a layer's public call timed alone, outside every
//! workload window. Each probe is run by the traced run of the workloads
//! that exercise the call (the map is in `bench/README.md`).

use std::hint::black_box;
use std::time::Instant;

use logic::aig::Aig;
use logic::BddManager;
use runtime::{GridPool, Runtime, RuntimeConfig, StreamRequest};
use shard::{RouteKey, Router, ShardServer};
use softfloat::FpValue;
use vcgra::{VcgraArch, VirtualPe, VirtualPeConfig};

use crate::plan::{self, ShardPlan, FORMAT};
use crate::report::Metrics;
use crate::rng::Rng;
use crate::stats::{median, quantile};

/// Times `f` `reps` times; the durations in nanoseconds.
fn sample_ns(reps: usize, mut f: impl FnMut()) -> Vec<f64> {
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64
        })
        .collect()
}

/// `logic`: a seeded BDD and/xor/ite kernel, and one 64-pattern
/// simulation of the swept PE.
pub fn logic_kernels(m: &mut Metrics, seed: u64, pe: &Aig) {
    // Per round, three sums of eight random 5-literal cubes over 16
    // variables, combined by xor and by ite. Sixteen variables keep every
    // function small; the manager still grows to about two million nodes,
    // so the unique table and the operation caches are exercised.
    const VARS: usize = 16;
    const ROUNDS: usize = 1_000;
    const CUBES: usize = 8;
    let mut rng = Rng::fork(seed, "probe.bdd");
    let mut mgr = BddManager::new();
    let mut ops = 0usize;
    let mut sum_of_cubes = |mgr: &mut BddManager| {
        let mut acc = mgr.constant(false);
        for _ in 0..CUBES {
            let mut cube = mgr.constant(true);
            for _ in 0..5 {
                let v = rng.index(VARS) as u32;
                let lit = if rng.next_u64() & 1 == 1 {
                    mgr.var(v)
                } else {
                    mgr.nvar(v)
                };
                cube = mgr.and(cube, lit);
            }
            acc = mgr.or(acc, cube);
        }
        acc
    };
    let t = Instant::now();
    for _ in 0..ROUNDS {
        let (a, b, c) = (
            sum_of_cubes(&mut mgr),
            sum_of_cubes(&mut mgr),
            sum_of_cubes(&mut mgr),
        );
        black_box((mgr.xor(a, b), mgr.ite(c, a, b)));
        ops += 3 * CUBES * 6 + 2;
    }
    let secs = t.elapsed().as_secs_f64();
    m.set("logic.bdd_kernel_ops_per_s", ops as f64 / secs);
    m.set("logic.bdd_kernel_nodes", mgr.num_nodes() as f64);

    let words: Vec<u64> = (0..pe.num_inputs()).map(|_| rng.next_u64()).collect();
    let sims = sample_ns(50, || {
        black_box(logic::sim::simulate_u64(pe, black_box(&words)));
    });
    m.set("logic.sim64_us", median(&sims) / 1e3);
}

/// `softfloat`: generating the PE netlist.
pub fn pe_build(m: &mut Metrics, cfg: VirtualPeConfig) {
    let builds = sample_ns(7, || {
        black_box(VirtualPe::build(cfg, true));
    });
    m.set("softfloat.pe_build_ms", median(&builds) / 1e6);
}

/// `softfloat`: one fused multiply-add, the scalar floor of the execute
/// path. Returns nanoseconds per `mac`.
pub fn mac(m: &mut Metrics) -> f64 {
    const N: usize = 200_000;
    let mut rng = Rng::new(0x006d_6163);
    let xs = plan::values(&mut rng, 64);
    let cs = plan::coeffs(&mut rng, 64);
    let runs = sample_ns(5, || {
        let mut acc = FpValue::zero(FORMAT);
        for i in 0..N {
            // A short dependent chain, reset so the value stays finite.
            acc = xs[i % 64].mac(
                cs[(i / 64) % 64],
                if i % 8 == 0 {
                    FpValue::zero(FORMAT)
                } else {
                    acc
                },
            );
        }
        black_box(acc);
    });
    let ns = median(&runs) / N as f64;
    m.set("softfloat.mac_ns", ns);
    ns
}

/// `trace`: the cost of one span with recording off and on.
pub fn span_cost(m: &mut Metrics) {
    const OFF: usize = 1_000_000;
    const ON: usize = 50_000;
    let off = sample_ns(5, || {
        for i in 0..OFF {
            let mut s = trace::span("bench.probe.span");
            s.arg("i", i);
        }
    });
    m.set("trace.span_off_ns", median(&off) / OFF as f64);
    trace::configure(trace::TraceConfig::On);
    let on = sample_ns(1, || {
        for i in 0..ON {
            let mut s = trace::span("bench.probe.span");
            s.arg("i", i);
        }
    });
    trace::configure(trace::TraceConfig::Off);
    drop(trace::take_events());
    m.set("trace.span_on_ns", on[0] / ON as f64);
}

/// `vcgra`: `flow::map_app` alone on one churn graph, on the region the
/// runtime compiles it for, under a `bench.vcgra.map_app` span. The traced
/// `app_churn` replay calls this after every visit, so that each cold
/// `submit` has the compile it contains measured beside it, moments apart.
pub fn map_app_once(graph: &vcgra::app::AppGraph, visit: u64) {
    let cfg = crate::churn::runtime_config();
    let (cols, capacity) = (cfg.grids[0].cols, cfg.grids[0].channel_capacity);
    let region = VcgraArch::new(
        GridPool::rows_needed(graph.pe_demand(), cols),
        cols,
        capacity,
    );
    let _s = crate::spans::span("bench.vcgra.map_app", visit);
    let mapped = vcgra::flow::map_app(graph, region, cfg.place_seed);
    assert!(black_box(mapped).is_ok(), "churn pool graph does not map");
}

/// `vcgra`: the execute loops alone, single thread, over the stream
/// tenants' own mappings and inputs. Returns `run_mapped` ns per item and
/// the mean PE operations per item.
pub fn execute(m: &mut Metrics, state: &crate::stream::State) -> (f64, f64) {
    let mut mapped_ns = 0.0;
    let mut dataflow_ns = 0.0;
    let mut items = 0usize;
    let mut ops = 0usize;
    for (&id, inputs) in state.tenants.iter().zip(&state.plan.inputs) {
        let tenant = state.rt.tenant(id).expect("stream tenant is live");
        let t = Instant::now();
        for x in inputs {
            black_box(vcgra::sim::run_mapped(&tenant.mapping, &tenant.graph, x));
        }
        mapped_ns += t.elapsed().as_nanos() as f64;
        let t = Instant::now();
        for x in inputs {
            black_box(vcgra::sim::run_dataflow(&tenant.graph, x));
        }
        dataflow_ns += t.elapsed().as_nanos() as f64;
        items += inputs.len();
        ops += inputs.len() * tenant.graph.pe_demand();
    }
    let per_item = mapped_ns / items as f64;
    let ops_per_item = ops as f64 / items as f64;
    m.set("vcgra.run_mapped_ns_per_item", per_item);
    m.set("vcgra.run_dataflow_ns_per_item", dataflow_ns / items as f64);
    m.set("vcgra.ops_per_item", ops_per_item);
    (per_item, ops_per_item)
}

/// `retina`: the matched-filter tenant (49 PEs, the slowest band) run
/// alone through `Runtime::run`.
pub fn slowest_band(m: &mut Metrics, state: &mut crate::stream::State, failed: &mut u64) {
    let last = state.tenants.len() - 1;
    let tenant = state.tenants[last];
    let mut rates = Vec::new();
    for _ in 0..5 {
        let inputs = state.plan.inputs[last].clone();
        let n = inputs.len();
        let t = Instant::now();
        let ran = state.rt.run(vec![StreamRequest { tenant, inputs }]);
        rates.push(n as f64 / t.elapsed().as_secs_f64());
        *failed += u64::from(ran.is_err());
    }
    m.set("retina.stage_items_per_s", median(&rates));
}

/// `runtime`: a one-item `run` of the smallest stream tenant.
pub fn run_call_overhead(m: &mut Metrics, state: &mut crate::stream::State) {
    let tenant = state.tenants[0];
    let item = state.plan.inputs[0][0].clone();
    let calls = sample_ns(300, || {
        black_box(
            state
                .rt
                .run(vec![StreamRequest {
                    tenant,
                    inputs: vec![item.clone()],
                }])
                .is_ok(),
        );
    });
    m.set("runtime.run_call_overhead_us", median(&calls) / 1e3);
}

/// `runtime`: the lazy build of the pricing model, as the first swap of a
/// fresh runtime against its second.
pub fn pricer_build(m: &mut Metrics) {
    let mut rng = Rng::new(0x7072_6963);
    let graph = plan::Shape::Fir(5).build(&mut rng);
    let mut rt = Runtime::new(RuntimeConfig::default());
    let tenant = rt.submit("probe", graph).expect("FIR-5 admits").tenant();
    let mut swap = |rt: &mut Runtime| {
        let coeffs = plan::coeffs(&mut rng, 5);
        let t = Instant::now();
        rt.swap_params(tenant, &coeffs)
            .expect("swap of a live tenant");
        t.elapsed().as_secs_f64() * 1e3
    };
    let first = swap(&mut rt);
    let second = swap(&mut rt);
    m.set("runtime.pricer_build_ms", first - second);
}

/// `runtime`: the hit path alone. One structure is compiled once, then
/// admitted, run for one item and released again and again.
pub fn warm_admission(m: &mut Metrics, plan: &ShardPlan, cfg: RuntimeConfig) {
    let mut rt = Runtime::new(cfg);
    let graph = &plan.graphs[0];
    let item = plan.inputs[0][0].clone();
    let (mut submit, mut run, mut release) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..2001 {
        let g = graph.clone();
        let t = Instant::now();
        let tenant = rt
            .submit("probe", g)
            .expect("hot structure admits")
            .tenant();
        let submit_ns = t.elapsed().as_nanos() as f64;
        let t = Instant::now();
        black_box(
            rt.run(vec![StreamRequest {
                tenant,
                inputs: vec![item.clone()],
            }])
            .is_ok(),
        );
        let run_ns = t.elapsed().as_nanos() as f64;
        let t = Instant::now();
        rt.release(tenant).expect("release of a live tenant");
        let release_ns = t.elapsed().as_nanos() as f64;
        // The first admission is the cold compile.
        if i > 0 {
            submit.push(submit_ns);
            run.push(run_ns);
            release.push(release_ns);
        }
    }
    m.set("runtime.warm_submit_p50_us", median(&submit) / 1e3);
    m.set("runtime.warm_submit_p99_us", quantile(&submit, 0.99) / 1e3);
    m.set("runtime.run_call_overhead_us", median(&run) / 1e3);
    m.set("runtime.release_p50_us", median(&release) / 1e3);
}

/// `shard`: the routing decision alone (`RouteKey::of` + `Router::route`).
pub fn route(m: &mut Metrics, plan: &ShardPlan) {
    let router = Router::new(2, 8);
    let passes = sample_ns(20, || {
        for g in &plan.graphs {
            black_box(router.route(RouteKey::of(black_box(g))));
        }
    });
    m.set("shard.route_ns", median(&passes) / plan.graphs.len() as f64);
}

/// `shard`: one `stats()` ticket through an idle server.
pub fn roundtrip(m: &mut Metrics, sizes: &crate::shardmix::Sizes) {
    let mut server = ShardServer::start(crate::shardmix::shard_config(sizes));
    let trips = sample_ns(2000, || {
        black_box(server.stats(0).expect("idle queue accepts").wait());
    });
    drop(server.shutdown());
    m.set("shard.roundtrip_us", median(&trips) / 1e3);
}
