//! Seeded, deterministic load generation for the serving tier.
//!
//! The generator splits planning from driving. [`synthesize`] expands a
//! [`LoadSpec`] into a complete [`LoadPlan`] — every graph, coefficient
//! vector, and input stream — using only a `SplitMix64` stream, with no
//! wall-clock input anywhere; [`run`] then drives the plan through a
//! [`ShardServer`]. Because routing depends only on the caller's own
//! submit/collect order (see [`crate::Router`]) and each shard serves
//! its queue FIFO, two runs of one plan produce **identical per-shard
//! admission orders** and a **bit-identical output fingerprint** — the
//! fingerprint is also invariant across shard counts and worker counts,
//! since the engine's mapped execution is bit-exact with the reference
//! dataflow interpreter regardless of where a tenant lands.
//!
//! The admission orders are the dispatcher's record: [`run`] lists each
//! job under its shard as it dispatches it. That is the worker's order
//! because a shard serves its queue FIFO, a `Runtime` numbers submissions
//! in arrival order (refused ones too: `submit` takes the id before any
//! check), and [`run`] asserts every job's tenant id is the predicted one
//! — a worker that reordered admissions would fail it.
//!
//! Wave structure: wave 0 is a **priming wave** (one tenant per library
//! structure, paying the cold compiles); waves 1.. are the warm traffic.
//! Each tenant's lifecycle is admit → stream → parameter swap → stream →
//! release — the paper's "reconfigure cheaply, replay often" loop.
//! Backpressure ([`Reject::QueueFull`]) is handled by retrying the same
//! dispatch after a short sleep; a retry never changes the dispatch
//! order, so it is invisible to the fingerprint. The [`LoadReport`]
//! carries every tenant's outputs by job name beside the fingerprint, for
//! bit-by-bit comparison across shard counts. Nothing here reads a
//! clock: the shard tier's host time is the repo benchmark's
//! `shard_mixed` workload.

use std::collections::BTreeMap;
use std::time::Duration;

use logic::SplitMix64;
use runtime::kernels::{fir_seeded, library};
use runtime::StreamRequest;
use softfloat::{FpFormat, FpValue};
use vcgra::app::AppGraph;

use crate::route::Fnv;
use crate::server::{DrainError, Reject, ShardServer, ShardStats, ShardTenant, Ticket};

/// What workload to synthesize.
#[derive(Debug, Clone)]
pub struct LoadSpec {
    /// RNG seed; everything in the plan derives from it.
    pub seed: u64,
    /// Waves after the priming wave.
    pub waves: usize,
    /// Tenants admitted per wave after priming.
    pub tenants_per_wave: usize,
    /// Input vectors streamed per tenant *per phase* (each tenant streams
    /// twice: before and after its parameter swap).
    pub items_per_tenant: usize,
}

impl Default for LoadSpec {
    fn default() -> Self {
        LoadSpec {
            seed: 0x5eed_cafe,
            waves: 3,
            tenants_per_wave: 8,
            items_per_tenant: 32,
        }
    }
}

/// One tenant's full scripted lifecycle.
#[derive(Debug, Clone)]
pub struct LoadJob {
    /// Unique name (and admission-order entry): `w<wave>.t<idx>.<kernel>`.
    pub name: String,
    /// The application graph (structure + initial coefficients).
    pub graph: AppGraph,
    /// Coefficients for the mid-life parameter swap (one per
    /// coefficient-bearing node; empty if the kernel has none).
    pub swap_coeffs: Vec<FpValue>,
    /// Input vectors streamed in each phase.
    pub inputs: Vec<Vec<FpValue>>,
}

/// A fully synthesized workload: `waves[0]` is the priming wave.
#[derive(Debug, Clone)]
pub struct LoadPlan {
    /// Jobs per wave, in dispatch order.
    pub waves: Vec<Vec<LoadJob>>,
}

impl LoadPlan {
    /// Total tenants across all waves (priming included).
    pub fn tenants(&self) -> usize {
        self.waves.iter().map(Vec::len).sum()
    }
}

/// One tenant's retained outputs: phase-1 and phase-2 output vectors,
/// one per input vector.
pub(crate) type JobOutputs = [Vec<Vec<FpValue>>; 2];

/// What a plan's run produced.
#[derive(Debug)]
pub struct LoadReport {
    /// Items executed after the priming wave.
    pub total_items: u64,
    /// FNV-1a over every output bit in plan order — equal across runs,
    /// shard counts, worker counts, and machines for one (seed, format).
    pub fingerprint: u64,
    /// hits / (hits + misses) over all shards.
    pub warm_hit_rate: f64,
    /// Admissions diverted off their affine shard during the run: the
    /// server's `shard.spill` counter's change (deterministic: spilling
    /// reads only the caller's own outstanding-ticket counts).
    pub spills: u64,
    /// Final per-shard stats from the closing drain.
    pub shard_stats: Vec<ShardStats>,
    /// Per shard, job names in dispatch order, which is the worker's
    /// admission order (see the module doc): the determinism witness.
    pub admission_orders: Vec<Vec<String>>,
    /// Every tenant's outputs by job name.
    pub outputs: BTreeMap<String, JobOutputs>,
}

fn fp_stream(rng: &mut SplitMix64, n: usize, format: FpFormat) -> Vec<FpValue> {
    (0..n)
        .map(|_| FpValue::from_f64(rng.unit_f64() * 4.0 - 2.0, format))
        .collect()
}

/// Expands a spec into a complete plan. Pure function of (format, spec):
/// no wall clock, no host state.
pub fn synthesize(format: FpFormat, spec: &LoadSpec) -> LoadPlan {
    let mut rng = SplitMix64::new(spec.seed);
    let lib = library(format);
    let mut waves = Vec::with_capacity(spec.waves + 1);
    // Priming wave: one tenant per library structure, so the later waves
    // run against warm caches on every affine shard.
    let priming = lib
        .iter()
        .enumerate()
        .map(|(i, w)| {
            let coeffs = w.graph.coeff_nodes().len();
            LoadJob {
                name: format!("w0.t{i}.{}", w.name),
                graph: w.graph.clone(),
                swap_coeffs: fp_stream(&mut rng, coeffs, format),
                inputs: (0..spec.items_per_tenant)
                    .map(|_| fp_stream(&mut rng, w.graph.num_inputs, format))
                    .collect(),
            }
        })
        .collect();
    waves.push(priming);
    for w in 1..=spec.waves {
        let mut jobs = Vec::with_capacity(spec.tenants_per_wave);
        for t in 0..spec.tenants_per_wave {
            // Mostly warm traffic (library structures under fresh
            // coefficients), salted with ~1-in-8 novel FIR structures so
            // the cold path stays exercised mid-run.
            let (kernel_name, graph) = if rng.below(8) == 0 {
                let taps = 3 + rng.index(4);
                let w = fir_seeded(format, taps, rng.next_u64());
                (w.name, w.graph)
            } else {
                let w = &lib[rng.index(lib.len())];
                let coeffs = w.graph.coeff_nodes().len();
                let fresh = fp_stream(&mut rng, coeffs, format);
                (w.name.clone(), w.graph.with_coeffs(&fresh))
            };
            let coeffs = graph.coeff_nodes().len();
            jobs.push(LoadJob {
                name: format!("w{w}.t{t}.{kernel_name}"),
                swap_coeffs: fp_stream(&mut rng, coeffs, format),
                inputs: (0..spec.items_per_tenant)
                    .map(|_| fp_stream(&mut rng, graph.num_inputs, format))
                    .collect(),
                graph,
            });
        }
        waves.push(jobs);
    }
    LoadPlan { waves }
}

/// Retries a dispatch until the shard accepts it, absorbing
/// [`Reject::QueueFull`] backpressure with a short sleep. The retry
/// targets the same dispatch (rejection has no side effects), so
/// backpressure never perturbs dispatch order.
fn with_backpressure<T>(mut dispatch: impl FnMut() -> Result<T, Reject>) -> T {
    loop {
        match dispatch() {
            Ok(t) => return t,
            Err(Reject::QueueFull { .. }) => std::thread::sleep(Duration::from_micros(50)),
        }
    }
}

fn digest_outputs(fp: &mut Fnv, outputs: &[Vec<FpValue>]) {
    fp.write(outputs.len() as u64);
    for vector in outputs {
        fp.write(vector.len() as u64);
        for v in vector {
            fp.write(v.bits);
        }
    }
}

/// Everything in flight for one job: the five tickets of its scripted
/// lifecycle, dispatched back-to-back (FIFO per shard serializes them
/// in order, so a tenant's release always precedes the next tenant's
/// admission *on that shard* — at most one resident tenant per shard,
/// which means placement never waits on capacity, while different
/// shards pipeline different jobs concurrently).
struct InFlight {
    at: ShardTenant,
    admit: Ticket<Result<runtime::Admission, runtime::RuntimeError>>,
    run1: Ticket<Result<Vec<runtime::TenantRun>, runtime::RuntimeError>>,
    swap: Ticket<Result<runtime::SwapReport, runtime::RuntimeError>>,
    run2: Ticket<Result<Vec<runtime::TenantRun>, runtime::RuntimeError>>,
    release: Ticket<Result<Vec<runtime::Admitted>, runtime::RuntimeError>>,
}

/// Drives a plan through a server: per wave, every job's full lifecycle
/// (admit → stream → swap → stream → release) is dispatched without
/// waiting — the server names the tenant at dispatch time — and the
/// replies are collected once the wave is fully in flight. Then every
/// shard is verified. Returns the aggregated report;
/// fails on the first invariant violation a wave-boundary verification
/// finds.
pub fn run(server: &mut ShardServer, plan: &LoadPlan) -> Result<LoadReport, DrainError> {
    let mut fp = Fnv::new();
    let mut total_items = 0u64;
    let spills_before = server.metrics().counter_value("shard.spill");
    let mut admission_orders = vec![Vec::new(); server.shards()];
    let mut outputs: BTreeMap<String, JobOutputs> = BTreeMap::new();

    for (w, jobs) in plan.waves.iter().enumerate() {
        // Dispatch every job's full lifecycle in plan order. Only the
        // admission tickets carry routing load, and they stay open until
        // the collection loop below, so the router sees load build up
        // job-by-job within the wave and fall back to zero at the
        // boundary — a pure function of this dispatch order.
        let mut flights = Vec::with_capacity(jobs.len());
        for job in jobs {
            let (at, _, admit) =
                with_backpressure(|| server.submit(job.name.clone(), job.graph.clone()));
            admission_orders[at.shard].push(job.name.clone());
            let run1 = with_backpressure(|| {
                server.run(
                    at.shard,
                    vec![StreamRequest {
                        tenant: at.tenant,
                        inputs: job.inputs.clone(),
                    }],
                )
            });
            let swap = with_backpressure(|| server.swap_params(at, job.swap_coeffs.clone()));
            let run2 = with_backpressure(|| {
                server.run(
                    at.shard,
                    vec![StreamRequest {
                        tenant: at.tenant,
                        inputs: job.inputs.clone(),
                    }],
                )
            });
            let release = with_backpressure(|| server.release(at));
            flights.push(InFlight {
                at,
                admit,
                run1,
                swap,
                run2,
                release,
            });
        }

        // Collect in plan order (not completion order), so the digest is
        // shard-count-invariant. Collecting the release replies doubles
        // as the wave's completion barrier: replies are FIFO with the
        // work.
        for (job, flight) in jobs.iter().zip(flights) {
            let admission = flight.admit.wait().expect("admission failed");
            assert_eq!(
                admission.tenant(),
                flight.at.tenant,
                "tenant-id prediction broke: shard runtimes must assign ids in arrival order"
            );
            let out1 = flight
                .run1
                .wait()
                .expect("phase-1 run failed")
                .pop()
                .expect("one tenant per run")
                .outputs;
            flight.swap.wait().expect("parameter swap failed");
            let out2 = flight
                .run2
                .wait()
                .expect("phase-2 run failed")
                .pop()
                .expect("one tenant per run")
                .outputs;
            flight.release.wait().expect("release failed");
            if w > 0 {
                total_items += (out1.len() + out2.len()) as u64;
            }
            digest_outputs(&mut fp, &out1);
            digest_outputs(&mut fp, &out2);
            outputs.insert(job.name.clone(), [out1, out2]);
        }

        // Wave boundary: prove every shard's scheduler invariants before
        // the next wave starts.
        server.drain(true)?;
    }

    let shard_stats = server.drain(true)?;
    let warm_hits: u64 = shard_stats.iter().map(|s| s.cache.hits).sum();
    let cold_misses: u64 = shard_stats.iter().map(|s| s.cache.misses).sum();
    Ok(LoadReport {
        total_items,
        fingerprint: fp.finish(),
        warm_hit_rate: warm_hits as f64 / ((warm_hits + cold_misses) as f64).max(1.0),
        spills: server.metrics().counter_value("shard.spill") - spills_before,
        shard_stats,
        admission_orders,
        outputs,
    })
}
