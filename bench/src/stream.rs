//! `serve_stream`: per-item execution, and nothing else.
//!
//! Seven long-lived tenants on dedicated bands; one `Runtime::run` call in
//! flight carrying 4096 items per tenant. Admission happens seven times,
//! in set-up; every tenth call is preceded by a parameter swap of every
//! tenant, the paper's "reconfigure cheaply, replay often" loop. The
//! per-item execute path (`run_mapped` behind the engine's band workers)
//! does nearly all the work.

use std::time::Instant;

use runtime::{Runtime, RuntimeConfig, StreamRequest, TenantId};
use softfloat::FpValue;
use vcgra::VcgraArch;

use crate::plan::{self, Fnv, StreamPlan, STREAM_ITEMS, STREAM_SWAP_EVERY};
use crate::report::Outcome;
use crate::rng::Rng;
use crate::spans::{self, span};
use crate::stats::{median, quantile};
use crate::{probes, Args, Prefix, Window};

/// Frozen sizes of the workload.
#[derive(Debug, Clone)]
pub struct Sizes {
    /// Items per tenant per `run` call.
    pub items: usize,
    /// Calls whose modeled swap port time and output bits are folded into
    /// `port_s` and the fingerprint (twenty swap rounds).
    pub prefix: usize,
    /// One call in this many is compared against the interpreter ...
    pub sample_every: usize,
    /// ... on this many seeded items per tenant.
    pub sample_items: usize,
    /// Tail quantile of `window.op_tail_ms`: the untraced third of the
    /// window holds about 470 calls, fewer than ten per segment, so it is
    /// taken over the whole third, where p90 has 47 samples beyond it.
    pub tail: f64,
}

impl Default for Sizes {
    fn default() -> Self {
        Sizes {
            items: STREAM_ITEMS,
            prefix: 200,
            sample_every: 64,
            sample_items: 64,
            tail: 0.9,
        }
    }
}

/// Three 16x4 grids, so that each of the seven tenants (41 rows in all)
/// has a band of its own; defaults otherwise (4 engine workers).
pub fn runtime_config() -> RuntimeConfig {
    RuntimeConfig {
        grids: vec![VcgraArch::new(16, 4, 2); 3],
        ..RuntimeConfig::default()
    }
}

pub struct State {
    pub plan: StreamPlan,
    pub rt: Runtime,
    pub tenants: Vec<TenantId>,
    /// Coefficients each tenant currently runs under.
    pub graphs: Vec<vcgra::app::AppGraph>,
}

/// Admits the seven tenants and swaps each once, so that the lazily built
/// pricing model exists before the window opens.
pub fn setup(seed: u64, sizes: &Sizes, out: &mut Outcome) -> State {
    setup_on(seed, sizes, runtime_config(), out)
}

pub fn setup_on(seed: u64, sizes: &Sizes, config: RuntimeConfig, out: &mut Outcome) -> State {
    let plan = plan::stream_plan(seed, sizes.items);
    let mut rt = Runtime::new(config);
    let mut tenants = Vec::new();
    for (name, graph) in plan.names.iter().zip(&plan.graphs) {
        out.attempted += 1;
        match rt.submit(name.clone(), graph.clone()) {
            Ok(a) if !a.is_queued() => tenants.push(a.tenant()),
            Ok(_) => out.fail(format!("{name}: admission queued")),
            Err(e) => out.fail(format!("{name}: submit: {e}")),
        }
    }
    let graphs = plan.graphs.clone();
    let mut state = State {
        plan,
        rt,
        tenants,
        graphs,
    };
    swap_all(&mut state, 0, 0, out);
    state
}

/// Swaps every tenant to coefficient set `set`.
fn swap_all(state: &mut State, set: usize, call: u64, out: &mut Outcome) {
    let set = set % state.plan.swaps.len();
    for (i, &tenant) in state.tenants.iter().enumerate() {
        let coeffs = &state.plan.swaps[set][i];
        out.attempted += 1;
        let swapped = {
            let _s = span("bench.runtime.swap_params", call);
            state.rt.swap_params(tenant, coeffs)
        };
        match swapped {
            Ok(_) => state.graphs[i] = state.graphs[i].with_coeffs(coeffs),
            Err(e) => out.fail(format!("call {call}: swap of tenant {i}: {e}")),
        }
    }
}

/// Sampled outputs of one call: per tenant, `(item, output)` pairs and the
/// graph (with the coefficients of that moment) that produced them.
pub struct Sample {
    call: usize,
    graphs: Vec<vcgra::app::AppGraph>,
    picks: Vec<Vec<(usize, Vec<FpValue>)>>,
}

pub fn replay(
    state: &mut State,
    seconds: f64,
    sizes: &Sizes,
    out: &mut Outcome,
) -> (Window, Prefix, u64, Vec<Sample>) {
    let mut window = Window::open(seconds);
    let mut fingerprint = Fnv::new();
    let mut samples = Vec::new();
    let mut picker = Rng::fork(state.plan.hash, "stream.sample");
    let port_before = state.rt.ledger().total_port_time().as_secs_f64();
    let mut prefix = Prefix::default();
    let mut call = 0usize;
    while !window.expired() || call < sizes.prefix {
        let _call = span("bench.stream.call", call as u64);
        if call % STREAM_SWAP_EVERY == 0 {
            swap_all(state, 1 + call / STREAM_SWAP_EVERY, call as u64, out);
        }
        let requests: Vec<StreamRequest> = state
            .tenants
            .iter()
            .zip(&state.plan.inputs)
            .map(|(&tenant, inputs)| StreamRequest {
                tenant,
                inputs: inputs.clone(),
            })
            .collect();
        out.attempted += 1;
        let t0 = Instant::now();
        let ran = {
            let _s = span("bench.runtime.run", call as u64);
            state.rt.run(requests)
        };
        window.record(t0);
        call += 1;
        match ran {
            Ok(runs) if runs.len() == state.tenants.len() => {
                // Runs come back in band order; put them in tenant order.
                let by_tenant: Vec<&runtime::TenantRun> = state
                    .tenants
                    .iter()
                    .filter_map(|t| runs.iter().find(|r| r.tenant == *t))
                    .collect();
                if call <= sizes.prefix {
                    for r in &by_tenant {
                        fingerprint.write_outputs(&r.outputs);
                    }
                }
                if (call - 1) % sizes.sample_every == 0 {
                    let picks = by_tenant
                        .iter()
                        .map(|r| {
                            (0..sizes.sample_items.min(r.outputs.len()))
                                .map(|_| {
                                    let item = picker.index(r.outputs.len());
                                    (item, r.outputs[item].clone())
                                })
                                .collect()
                        })
                        .collect();
                    samples.push(Sample {
                        call: call - 1,
                        graphs: state.graphs.clone(),
                        picks,
                    });
                }
            }
            Ok(runs) => out.fail(format!("call {}: {} runs returned", call - 1, runs.len())),
            Err(e) => out.fail(format!("call {}: run: {e}", call - 1)),
        }
        if call == sizes.prefix {
            prefix = Prefix::now(state.rt.ledger().total_port_time().as_secs_f64() - port_before);
        }
    }
    (window, prefix, fingerprint.finish(), samples)
}

fn check_samples(plan: &StreamPlan, samples: &[Sample], out: &mut Outcome) {
    for s in samples {
        let same = s.picks.iter().enumerate().all(|(t, picks)| {
            picks.iter().all(|(item, got)| {
                plan::interpreter_agrees(&s.graphs[t], &plan.inputs[t][*item], got)
            })
        });
        out.check(same, || {
            format!("call {}: outputs differ from the interpreter", s.call)
        });
    }
}

pub fn check_state(state: &State, out: &mut Outcome) -> f64 {
    let ledger = state.rt.ledger();
    out.check(ledger.context_switches == 0, || {
        format!(
            "serve_stream bands must be dedicated: {} context switches",
            ledger.context_switches
        )
    });
    // The two 3x3 retina kernels share one structure, so one of the seven
    // admissions may be a hit; none happens after set-up.
    out.check(ledger.cold_compiles + ledger.warm_admissions == 7, || {
        "serve_stream admits exactly its seven tenants, in set-up".to_string()
    });
    out.check_runtime(&state.rt)
}

pub fn run(args: &Args, sizes: &Sizes) -> Outcome {
    if args.trace {
        return run_traced(args, sizes);
    }
    let mut out = Outcome::default();
    let mut setup_out = Outcome::default();
    let (mut state, first_setup) = crate::timed(|| setup(args.seed, sizes, &mut setup_out));
    let (window, prefix, fingerprint, samples) = replay(&mut state, args.seconds, sizes, &mut out);
    check_samples(&state.plan, &samples, &mut out);
    check_state(&state, &mut out);

    window.report(&mut out, sizes.tail, prefix);
    let setup_s = crate::setup_seconds(
        first_setup,
        || setup(args.seed, sizes, &mut setup_out),
        drop,
    );
    out.absorb(setup_out);
    out.metrics.set("setup_s", setup_s);
    out.fact("plan_hash", format!("{:016x}", state.plan.hash));
    out.fact("fingerprint", format!("{fingerprint:016x}"));
    out.fact("items_per_call", state.tenants.len() * sizes.items);
    out
}

fn run_traced(args: &Args, sizes: &Sizes) -> Outcome {
    let mut out = Outcome::default();
    let third = args.seconds / 3.0;
    let short = Sizes {
        prefix: 0,
        ..sizes.clone()
    };

    let mut state = setup(args.seed, sizes, &mut out);
    let (plain, ..) = replay(&mut state, third, &short, &mut out);
    let mut state = setup(args.seed, sizes, &mut out);
    trace::configure(trace::TraceConfig::On);
    let (traced, _, _, samples) = replay(&mut state, third, &short, &mut out);
    let times = spans::finish("serve_stream");
    check_samples(&state.plan, &samples, &mut out);
    let sched_us = check_state(&state, &mut out);

    let ledger = *state.rt.ledger();
    let cache = state.rt.cache_stats();
    let items = (state.tenants.len() * sizes.items) as f64;
    let m = &mut out.metrics;
    m.set("trace.overhead_pct", traced.overhead_pct(&plain));
    m.set("window.op_tail_ms", plain.tail_ms(sizes.tail));
    probes::span_cost(m);
    let mac_ns = probes::mac(m);
    // vcgra: the execute loop alone, single thread, per tenant.
    let (mapped_ns, ops_per_item) = probes::execute(m, &state);
    m.set("vcgra.exec_efficiency", ops_per_item * mac_ns / mapped_ns);
    // retina: the 49-PE matched filter alone sets each call's time.
    probes::slowest_band(m, &mut state, &mut out.failed);
    // runtime
    let run_ns = times.durations("bench.runtime.run");
    m.set("runtime.run_ns_per_item", median(run_ns) / items);
    probes::run_call_overhead(m, &mut state);
    let swaps = times.durations("bench.runtime.swap_params");
    m.set("runtime.swap_p50_us", median(swaps) / 1e3);
    m.set("runtime.swap_p95_us", quantile(swaps, 0.95) / 1e3);
    probes::pricer_build(m);
    m.set_runtime_counters(&[ledger], cache.hit_rate(), cache.evictions);
    m.set("verify.sched_us", sched_us);
    let call_s = times.total_seconds("bench.stream.call");
    m.set(
        "trace.span_residual_pct",
        100.0 * times.own_seconds("bench.stream.call") / call_s,
    );
    out.metrics.set("verify.violations", out.failed as f64);
    out
}
