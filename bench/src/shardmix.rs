//! `shard_mixed`: the serving tier under warm, pipelined traffic.
//!
//! Tenant lifecycles (submit -> run 64 -> swap -> run 64 -> release) flow
//! through a 2-shard `ShardServer`, two in flight, collected in dispatch
//! order. Structures are Zipf(1.0) over a 12-structure hot set, with a
//! small share drawn uniformly from a cold pool that overflows both
//! shards' caches. The same `runtime` layer as `app_churn`, used the other
//! way: the cache *hit* path, 64-item runs where per-call overhead
//! dominates, plus routing, spill, bounded queues and pricing.
//!
//! Closed loop, because callers hold tickets and routing determinism
//! depends on in-order collection. Two lifecycles of five operations are
//! fewer than the queue depth of 64, so a `Reject::QueueFull` is a counted
//! failure (the dispatch is retried, to keep the order).

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use runtime::{
    Admission, Admitted, RuntimeConfig, RuntimeError, StreamRequest, SwapReport, TenantRun,
};
use shard::{Reject, ShardConfig, ShardServer, ShardStats, ShardTenant, Ticket};
use softfloat::FpValue;
use vcgra::VcgraArch;

use crate::plan::{self, Fnv, Lifecycle, ShardPlan};
use crate::report::{only_run, Outcome};
use crate::spans::{self, span};
use crate::{probes, Args, Prefix, Window};

/// Frozen sizes of the workload.
#[derive(Debug, Clone)]
pub struct Sizes {
    pub shards: usize,
    /// Lifecycles in flight: as many as shards, so that with the generator
    /// blocked on a reply at most two threads are busy on a two-core host.
    /// With eight in flight (three busy threads) identical runs spread
    /// `op_ms` by 20 to 30 % whenever a neighbour took a core; with two,
    /// by 5 %.
    pub in_flight: usize,
    /// Lifecycles whose modeled port time and output bits are folded into
    /// `port_s` and the fingerprint.
    pub prefix: usize,
    /// One lifecycle in this many is compared against the interpreter.
    pub sample_every: usize,
    /// Tail quantile of `window.op_tail_ms`: a 10 s window holds twenty
    /// thousand lifecycles, so p99 has two hundred samples beyond it.
    pub tail: f64,
    /// The window's configuration-cache hit share must stay in this band:
    /// below it the workload has turned into `app_churn`, above it the
    /// cold path is no longer exercised.
    pub warm_band: (f64, f64),
}

impl Default for Sizes {
    fn default() -> Self {
        Sizes {
            shards: 2,
            in_flight: 2,
            prefix: 2048,
            sample_every: 64,
            tail: 0.99,
            warm_band: (0.90, 0.97),
        }
    }
}

/// Two shards; per shard two 16x4 grids (every family shape fits a
/// dedicated band) and one engine worker; defaults otherwise (queue depth
/// 64, spill margin 8, cache capacity 32).
pub fn shard_config(sizes: &Sizes) -> ShardConfig {
    ShardConfig {
        shards: sizes.shards,
        runtime: RuntimeConfig {
            grids: vec![VcgraArch::new(16, 4, 2), VcgraArch::new(16, 4, 2)],
            workers: 1,
            ..RuntimeConfig::default()
        },
        ..ShardConfig::default()
    }
}

pub struct State {
    pub plan: ShardPlan,
    pub server: ShardServer,
    /// Per-shard stats after priming: the window's figures are deltas.
    pub base: Vec<ShardStats>,
}

type Reply<T> = Ticket<Result<T, RuntimeError>>;

/// The five tickets of one lifecycle.
struct Flight {
    index: usize,
    t0: Instant,
    admit: Reply<Admission>,
    run1: Reply<Vec<TenantRun>>,
    swap: Reply<SwapReport>,
    run2: Reply<Vec<TenantRun>>,
    release: Reply<Vec<Admitted>>,
}

/// Retries a dispatch the shard refused. Every refusal is a failed
/// operation: the workload is sized so that none occurs.
fn dispatch<T>(out: &mut Outcome, mut op: impl FnMut() -> Result<T, Reject>) -> T {
    loop {
        match op() {
            Ok(t) => return t,
            Err(e) => {
                out.attempted += 1;
                out.fail(format!("dispatch refused: {e}"));
                std::thread::sleep(Duration::from_micros(50));
            }
        }
    }
}

fn launch(
    server: &mut ShardServer,
    plan: &ShardPlan,
    l: &Lifecycle,
    index: usize,
    out: &mut Outcome,
) -> Flight {
    let base = &plan.graphs[l.shape];
    let inputs = &plan.inputs[l.shape];
    let _s = span("bench.shard.dispatch", index as u64);
    let t0 = Instant::now();
    let (at, _pick, admit): (ShardTenant, _, _) = dispatch(out, || {
        server.submit("lifecycle", base.with_coeffs(&l.coeffs))
    });
    let stream = || {
        vec![StreamRequest {
            tenant: at.tenant,
            inputs: inputs.clone(),
        }]
    };
    let run1 = dispatch(out, || server.run(at.shard, stream()));
    let swap = dispatch(out, || server.swap_params(at, l.swap.clone()));
    let run2 = dispatch(out, || server.run(at.shard, stream()));
    let release = dispatch(out, || server.release(at));
    Flight {
        index,
        t0,
        admit,
        run1,
        swap,
        run2,
        release,
    }
}

/// Waits for a lifecycle's five replies, in order. Returns the outputs of
/// its two runs.
fn collect(f: Flight, window: &mut Window, out: &mut Outcome) -> Option<[Vec<Vec<FpValue>>; 2]> {
    let _s = span("bench.shard.collect", f.index as u64);
    let admit = f.admit.wait();
    let run1 = f.run1.wait();
    let swap = f.swap.wait();
    let run2 = f.run2.wait();
    let release = f.release.wait();
    window.record(f.t0);
    out.attempted += 1;
    let i = f.index;
    let outputs = |r: Result<Vec<TenantRun>, RuntimeError>, what: &str| {
        only_run(r).map_err(|e| format!("lifecycle {i}: {what}: {e}"))
    };
    let failure = match (admit, swap, release) {
        (Err(e), ..) => Some(format!("lifecycle {i}: submit: {e}")),
        (Ok(a), ..) if a.is_queued() => Some(format!("lifecycle {i}: admission queued")),
        (_, Err(e), _) => Some(format!("lifecycle {i}: swap: {e}")),
        (.., Err(e)) => Some(format!("lifecycle {i}: release: {e}")),
        _ => None,
    };
    let (o1, o2) = (outputs(run1, "first run"), outputs(run2, "second run"));
    match (failure, o1, o2) {
        (None, Ok(a), Ok(b)) => Some([a, b]),
        (f, a, b) => {
            let why = f.or(a.err()).or(b.err()).unwrap_or_default();
            out.fail(why);
            None
        }
    }
}

/// Starts the server and primes it: one full lifecycle per hot structure,
/// so that the window opens on warm caches and built pricing models.
pub fn setup(seed: u64, sizes: &Sizes, out: &mut Outcome) -> State {
    let plan = plan::shard_plan(seed);
    let mut server = ShardServer::start(shard_config(sizes));
    let mut scratch = Window::open(0.0);
    for (i, l) in plan.priming.iter().enumerate() {
        let flight = launch(&mut server, &plan, l, i, out);
        collect(flight, &mut scratch, out);
    }
    let base = server
        .drain(false)
        .expect("drain without verification cannot fail");
    State { plan, server, base }
}

/// Outputs of one sampled lifecycle, checked after the window.
pub struct Sample {
    index: usize,
    outputs: [Vec<Vec<FpValue>>; 2],
}

fn port_seconds(stats: &[ShardStats]) -> f64 {
    stats
        .iter()
        .map(|s| s.ledger.total_port_time().as_secs_f64())
        .sum()
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
    let mut flights: VecDeque<Flight> = VecDeque::with_capacity(sizes.in_flight);
    let mut prefix = Prefix::default();
    let mut next = 0usize;
    let mut settle = |flight: Flight, window: &mut Window, out: &mut Outcome| {
        let index = flight.index;
        if let Some(outputs) = collect(flight, window, out) {
            if index < sizes.prefix {
                fingerprint.write_outputs(&outputs[0]);
                fingerprint.write_outputs(&outputs[1]);
            }
            if index % sizes.sample_every == 0 {
                samples.push(Sample { index, outputs });
            }
        }
    };
    while !window.expired() || next < sizes.prefix {
        if next == sizes.prefix && sizes.prefix > 0 {
            // Everything dispatched so far, and nothing else, is in the
            // ledgers once the queues are empty.
            while let Some(f) = flights.pop_front() {
                settle(f, &mut window, out);
            }
            let stats = state
                .server
                .drain(false)
                .expect("drain without verification cannot fail");
            prefix = Prefix::now(port_seconds(&stats) - port_seconds(&state.base));
        }
        if flights.len() == sizes.in_flight {
            let f = flights.pop_front().expect("in-flight queue is full");
            settle(f, &mut window, out);
        }
        let l = &state.plan.cycle[next % state.plan.cycle.len()];
        flights.push_back(launch(&mut state.server, &state.plan, l, next, out));
        next += 1;
    }
    while let Some(f) = flights.pop_front() {
        settle(f, &mut window, out);
    }
    (window, prefix, fingerprint.finish(), samples)
}

fn check_samples(plan: &ShardPlan, samples: &[Sample], out: &mut Outcome) {
    for s in samples {
        let l = &plan.cycle[s.index % plan.cycle.len()];
        let inputs = &plan.inputs[l.shape];
        let same = [&l.coeffs, &l.swap]
            .into_iter()
            .zip(&s.outputs)
            .all(|(coeffs, outputs)| {
                let graph = plan.graphs[l.shape].with_coeffs(coeffs);
                plan::interpreter_agrees_on(&graph, inputs, outputs)
            });
        out.check(same, || {
            format!("lifecycle {}: outputs differ from the interpreter", s.index)
        });
    }
}

/// What the tier did during the window, from a verifying drain and the
/// shutdown reports. Consumes the server.
pub struct Closing {
    warm_hit_ratio: f64,
    evictions: u64,
    load_imbalance: f64,
    drain_verify_ms: f64,
    stats: Vec<ShardStats>,
    registry_rows: Vec<(String, trace::HistogramSnapshot)>,
    spills: u64,
    rejects: u64,
}

pub fn close(state: State, sizes: &Sizes, out: &mut Outcome) -> Closing {
    let State {
        mut server, base, ..
    } = state;
    let t = Instant::now();
    let drained = server.drain(true);
    let drain_verify_ms = t.elapsed().as_secs_f64() * 1e3;
    let stats = match drained {
        Ok(s) => s,
        Err(e) => {
            out.check(false, || e.to_string());
            server
                .drain(false)
                .expect("drain without verification cannot fail")
        }
    };
    let delta = |f: fn(&ShardStats) -> u64| -> u64 {
        stats
            .iter()
            .zip(&base)
            .map(|(now, then)| f(now) - f(then))
            .sum()
    };
    let hits = delta(|s| s.cache.hits);
    let misses = delta(|s| s.cache.misses);
    let warm_hit_ratio = hits as f64 / (hits + misses).max(1) as f64;
    out.check(
        (sizes.warm_band.0..=sizes.warm_band.1).contains(&warm_hit_ratio),
        || {
            format!(
                "warm hit ratio {warm_hit_ratio:.4} left the band {:?}",
                sizes.warm_band
            )
        },
    );
    out.check(
        stats
            .iter()
            .all(|s| s.ledger.context_switches == 0 && s.ledger.queued == 0),
        || "a shard time-shared a band or queued an admission".to_string(),
    );
    let processed: Vec<f64> = stats
        .iter()
        .zip(&base)
        .map(|(now, then)| (now.processed - then.processed) as f64)
        .collect();
    let mean = processed.iter().sum::<f64>() / processed.len() as f64;
    let registry_rows = server.metrics().histograms();
    let spills = server.metrics().counter_value("shard.spill");
    let rejects = server.metrics().counter_value("shard.reject");
    for f in server.shutdown() {
        out.check(f.verify.ok(), || {
            format!("shard {} closing verify: {}", f.shard, f.verify.summary())
        });
    }
    Closing {
        warm_hit_ratio,
        evictions: delta(|s| s.cache.evictions),
        load_imbalance: processed.iter().copied().fold(0.0, f64::max) / mean.max(1.0),
        drain_verify_ms,
        stats,
        registry_rows,
        spills,
        rejects,
    }
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
    let plan_hash = state.plan.hash;
    let closing = close(state, sizes, &mut out);

    window.report(&mut out, sizes.tail, prefix);
    let setup_s = crate::setup_seconds(
        first_setup,
        || setup(args.seed, sizes, &mut setup_out),
        |s: State| drop(s.server.shutdown()),
    );
    out.absorb(setup_out);
    out.metrics.set("setup_s", setup_s);
    out.fact("plan_hash", format!("{plan_hash:016x}"));
    out.fact("fingerprint", format!("{fingerprint:016x}"));
    out.fact("warm_hit_ratio", format!("{:.4}", closing.warm_hit_ratio));
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
    drop(state.server.shutdown());
    let mut state = setup(args.seed, sizes, &mut out);
    trace::configure(trace::TraceConfig::On);
    let t = Instant::now();
    let (traced, _, _, samples) = replay(&mut state, third, &short, &mut out);
    let wall_s = t.elapsed().as_secs_f64();
    let times = spans::finish("shard_mixed");
    check_samples(&state.plan, &samples, &mut out);
    let plan = state.plan.clone();
    // A short window sees a lower hit share (the cold pool is still
    // filling the caches); only the full run holds the band.
    let relaxed = Sizes {
        warm_band: (0.0, 1.0),
        ..sizes.clone()
    };
    let closing = close(state, &relaxed, &mut out);

    let m = &mut out.metrics;
    m.set("trace.overhead_pct", traced.overhead_pct(&plain));
    m.set("window.op_tail_ms", plain.tail_ms(sizes.tail));
    probes::span_cost(m);
    probes::mac(m);
    // shard
    probes::route(m, &plan);
    probes::roundtrip(m, sizes);
    let hist = |name: &str| {
        closing
            .registry_rows
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h.clone())
    };
    let us = |ns: u64| ns as f64 / 1e3;
    if let (Some(wait), Some(admit), Some(exec)) = (
        hist("shard.queue_wait_ns"),
        hist("shard.admit_ns"),
        hist("shard.execute_ns"),
    ) {
        m.set("shard.queue_wait_p50_us", us(wait.p50()));
        m.set("shard.queue_wait_p99_us", us(wait.p99()));
        m.set("shard.admit_p50_us", us(admit.p50()));
        m.set("shard.execute_p50_us", us(exec.p50()));
        m.set(
            "shard.busy_share",
            (admit.sum + exec.sum) as f64 / 1e9 / (sizes.shards as f64 * wall_s),
        );
    }
    m.set("shard.spills", closing.spills as f64);
    m.set("shard.rejects", closing.rejects as f64);
    m.set("shard.warm_hit_ratio", closing.warm_hit_ratio);
    m.set("shard.load_imbalance", closing.load_imbalance);
    m.set("shard.drain_verify_ms", closing.drain_verify_ms);
    // The dispatcher's own share: time in dispatch calls against time
    // blocked collecting replies.
    let dispatch_s = times.total_seconds("bench.shard.dispatch");
    let collect_s = times.total_seconds("bench.shard.collect");
    m.set(
        "trace.span_residual_pct",
        100.0 * (wall_s - dispatch_s - collect_s).max(0.0) / wall_s,
    );
    // runtime, on the hit path: direct probes on one runtime of the same
    // configuration, and the ledgers of the shards.
    probes::warm_admission(m, &plan, shard_config(sizes).runtime);
    let ledgers: Vec<runtime::Ledger> = closing.stats.iter().map(|s| s.ledger).collect();
    m.set_runtime_counters(&ledgers, closing.warm_hit_ratio, closing.evictions);
    out.metrics.set("verify.violations", out.failed as f64);
    out
}
