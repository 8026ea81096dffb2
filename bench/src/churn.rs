//! `app_churn`: cold admission, every time.
//!
//! One client visits a pool of 64 graph structures round-robin against a
//! runtime whose configuration cache holds 32, so every admission is a
//! miss, an insert and an eviction. `vcgra::flow::map_app`, pricing, the
//! signature and the cache write path do nearly all the work; execution
//! (16 items) and the shard tier do almost none.

use std::time::Instant;

use runtime::{Runtime, RuntimeConfig, StreamRequest};
use softfloat::FpValue;
use vcgra::VcgraArch;

use crate::plan::{self, ChurnPlan, Fnv, CHURN_ITEMS};
use crate::report::{only_run, Outcome};
use crate::spans::{self, span};
use crate::stats::{median, quantile};
use crate::{probes, Args, Prefix, Window};

/// Frozen sizes of the workload.
#[derive(Debug, Clone)]
pub struct Sizes {
    /// Visits whose modeled port time and output bits are folded into
    /// `port_s` and the fingerprint: a fixed count, so both repeat exactly
    /// for one seed however many visits the window holds. Not a multiple
    /// of the pool size, so that the figure depends on the seeded order.
    pub prefix: usize,
    /// One visit in this many is compared against the interpreter.
    pub sample_every: usize,
    /// Tail quantile of `window.op_tail_ms`: a 10 s window holds about 8 000
    /// visits, so p99 has eighty samples beyond it.
    pub tail: f64,
}

impl Default for Sizes {
    fn default() -> Self {
        Sizes {
            prefix: 1000,
            sample_every: 64,
            tail: 0.99,
        }
    }
}

/// Two 16x4 grids (any pool shape fits a dedicated band), one engine
/// worker, defaults otherwise: cache capacity 32 against a pool of 64.
pub fn runtime_config() -> RuntimeConfig {
    RuntimeConfig {
        grids: vec![VcgraArch::new(16, 4, 2), VcgraArch::new(16, 4, 2)],
        workers: 1,
        ..RuntimeConfig::default()
    }
}

pub struct State {
    pub plan: ChurnPlan,
    pub rt: Runtime,
}

/// Synthesizes the plan and visits every structure of the pool once, so
/// that the window opens on a full cache: from its first visit on, every
/// admission is a miss, an insert *and* an eviction.
pub fn setup(seed: u64, out: &mut Outcome) -> State {
    let mut state = State {
        plan: plan::churn_plan(seed),
        rt: Runtime::new(runtime_config()),
    };
    let mut scratch = Window::open(0.0);
    for v in 0..state.plan.shapes.len() {
        visit(&mut state, v, &mut scratch, out);
    }
    state
}

/// Outputs of one sampled visit, checked after the window.
pub struct Sample {
    pub visit: usize,
    pub outputs: Vec<Vec<FpValue>>,
}

/// One visit: submit -> run 16 items -> release. Returns the outputs.
fn visit(
    state: &mut State,
    v: usize,
    window: &mut Window,
    out: &mut Outcome,
) -> Option<Vec<Vec<FpValue>>> {
    let slot = v % state.plan.visits.len();
    let graph = state.plan.visits[slot].clone();
    let inputs = state.plan.inputs[state.plan.visit_shape[slot]].clone();
    out.attempted += 1;
    let visit_span = span("bench.churn.visit", v as u64);
    let t0 = Instant::now();
    let admitted = {
        let _s = span("bench.runtime.submit", v as u64);
        state.rt.submit("churn", graph)
    };
    let tenant = match admitted {
        Ok(a) if !a.is_queued() => a.tenant(),
        Ok(a) => {
            out.fail(format!("visit {v}: admission queued"));
            let _ = state.rt.release(a.tenant());
            return None;
        }
        Err(e) => {
            out.fail(format!("visit {v}: submit: {e}"));
            return None;
        }
    };
    let ran = {
        let _s = span("bench.runtime.run", v as u64);
        state.rt.run(vec![StreamRequest { tenant, inputs }])
    };
    window.record(t0);
    let released = {
        let _s = span("bench.runtime.release", v as u64);
        state.rt.release(tenant)
    };
    if let Err(e) = released {
        out.fail(format!("visit {v}: release: {e}"));
        return None;
    }
    drop(visit_span);
    if trace::is_enabled() {
        probes::map_app_once(&state.plan.visits[slot], v as u64);
    }
    only_run(ran)
        .map_err(|e| out.fail(format!("visit {v}: run: {e}")))
        .ok()
}

/// Replays the plan until `seconds` have passed and at least
/// `sizes.prefix` visits are done. Returns the window, the prefix figures
/// (port seconds charged by the first `prefix` visits), the fingerprint of
/// those visits' outputs, and the sampled outputs.
pub fn replay(
    state: &mut State,
    seconds: f64,
    sizes: &Sizes,
    out: &mut Outcome,
) -> (Window, Prefix, u64, Vec<Sample>) {
    let mut window = Window::open(seconds);
    let mut fingerprint = Fnv::new();
    let port_before = state.rt.ledger().total_port_time().as_secs_f64();
    let mut prefix = Prefix::default();
    let mut samples = Vec::new();
    let mut v = 0usize;
    while !window.expired() || v < sizes.prefix {
        let outputs = visit(state, v, &mut window, out);
        v += 1;
        if let Some(outputs) = outputs {
            if v <= sizes.prefix {
                fingerprint.write_outputs(&outputs);
            }
            if (v - 1) % sizes.sample_every == 0 {
                samples.push(Sample {
                    visit: v - 1,
                    outputs,
                });
            }
        }
        if v == sizes.prefix {
            prefix = Prefix::now(state.rt.ledger().total_port_time().as_secs_f64() - port_before);
        }
    }
    (window, prefix, fingerprint.finish(), samples)
}

/// Sampled visits against `vcgra::sim::run_dataflow`, bit for bit.
pub fn check_samples(plan: &ChurnPlan, samples: &[Sample], out: &mut Outcome) {
    for s in samples {
        let slot = s.visit % plan.visits.len();
        let graph = &plan.visits[slot];
        let inputs = &plan.inputs[plan.visit_shape[slot]];
        let same = plan::interpreter_agrees_on(graph, inputs, &s.outputs);
        out.check(same, || {
            format!("visit {}: outputs differ from the interpreter", s.visit)
        });
    }
}

/// Validity of the workload, and the runtime's own invariants.
pub fn check_state(state: &State, out: &mut Outcome) -> f64 {
    let cache = state.rt.cache_stats();
    out.check(cache.hits == 0, || {
        format!("app_churn must never hit the cache: {} hits", cache.hits)
    });
    out.check(state.rt.ledger().context_switches == 0, || {
        "app_churn time-shared a band".to_string()
    });
    out.check_runtime(&state.rt)
}

pub fn run(args: &Args, sizes: &Sizes) -> Outcome {
    if args.trace {
        return run_traced(args, sizes);
    }
    let mut out = Outcome::default();
    let mut setup_out = Outcome::default();
    let (mut state, first_setup) = crate::timed(|| setup(args.seed, &mut setup_out));
    let (window, prefix, fingerprint, samples) = replay(&mut state, args.seconds, sizes, &mut out);
    check_samples(&state.plan, &samples, &mut out);
    check_state(&state, &mut out);

    window.report(&mut out, sizes.tail, prefix);
    let setup_s = crate::setup_seconds(first_setup, || setup(args.seed, &mut setup_out), drop);
    out.absorb(setup_out);
    out.metrics.set("setup_s", setup_s);
    out.fact("plan_hash", format!("{:016x}", state.plan.hash));
    out.fact("fingerprint", format!("{fingerprint:016x}"));
    out.fact("evictions", state.rt.cache_stats().evictions);
    out
}

/// The traced run: a third of the window untraced, a third traced on a
/// fresh runtime, then the direct probes of the layers this workload
/// exercises.
fn run_traced(args: &Args, sizes: &Sizes) -> Outcome {
    let mut out = Outcome::default();
    let third = args.seconds / 3.0;
    let short = Sizes {
        prefix: 0,
        ..sizes.clone()
    };

    let mut state = setup(args.seed, &mut out);
    let (plain, ..) = replay(&mut state, third, &short, &mut out);
    let mut state = setup(args.seed, &mut out);
    trace::configure(trace::TraceConfig::On);
    let (traced, _, _, samples) = replay(&mut state, third, &short, &mut out);
    let times = spans::finish("app_churn");
    check_samples(&state.plan, &samples, &mut out);
    let sched_us = check_state(&state, &mut out);

    let ledger = *state.rt.ledger();
    let cache = state.rt.cache_stats();
    let m = &mut out.metrics;
    m.set("trace.overhead_pct", traced.overhead_pct(&plain));
    m.set("window.op_tail_ms", plain.tail_ms(sizes.tail));
    probes::span_cost(m);
    // vcgra: the compile alone, measured after each visit on its graph.
    let compiles = times.durations("bench.vcgra.map_app");
    m.set("vcgra.map_app_p50_ms", median(compiles) / 1e6);
    m.set("vcgra.map_app_p99_ms", quantile(compiles, 0.99) / 1e6);
    // runtime: what admission adds around the compile, visit by visit.
    let submits = times.durations("bench.runtime.submit");
    let around: Vec<f64> = submits
        .iter()
        .zip(compiles)
        .map(|(s, c)| (s - c) / 1e6)
        .collect();
    m.set("runtime.cold_submit_p50_ms", median(submits) / 1e6);
    m.set("runtime.admit_overhead_ms", median(&around));
    m.set(
        "runtime.release_p50_us",
        median(times.durations("bench.runtime.release")) / 1e3,
    );
    let run_ns = times.durations("bench.runtime.run");
    m.set(
        "runtime.run_ns_per_item",
        median(run_ns) / CHURN_ITEMS as f64,
    );
    m.set_runtime_counters(&[ledger], cache.hit_rate(), cache.evictions);
    probes::mac(m);
    m.set("verify.sched_us", sched_us);
    // Span self times under the visit: the share of a visit spent in each
    // call, and what the spans leave unexplained.
    let visit_s = times.total_seconds("bench.churn.visit");
    m.set(
        "trace.span_residual_pct",
        100.0 * times.own_seconds("bench.churn.visit") / visit_s,
    );
    out.metrics.set("verify.violations", out.failed as f64);
    out
}
