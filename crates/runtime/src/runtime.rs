//! The runtime orchestrator: admission, specialization, streaming.
//!
//! Lifecycle of an application:
//!
//! 1. **submit** — the scheduler leases a grid region, by the pool's one
//!    ordered policy. Placement is **cache-aware**: among the grids that
//!    could host a dedicated band, the runtime prefers one whose (region,
//!    structure) key is already warm in the configuration cache, so a
//!    mixed-width pool does not recompile one structure once per grid
//!    width. If no grid has a contiguous band but one has enough
//!    *fragmented* free rows, the scheduler **compacts** — slides that
//!    grid's bands down and replays the displaced tenants' configurations
//!    onto the translated bands (charged to the ledger as reconfiguration
//!    time, one `Replay` interval per moved band, tagged with its first
//!    tenant). A tenant's lease is read from the pool
//!    ([`GridPool::lease`]), so a moved band moves every lease on it.
//!    If compaction cannot help, the tenant **time-shares** the
//!    least-crowded band tall enough (the pool's `band_tenants` lists who
//!    is on it). If no band is tall enough either, the request enters the
//!    FIFO **admission queue** and `submit` returns
//!    [`Admission::Queued`] instead of an error.
//!    Once a region is leased, the configuration cache is consulted with
//!    the (region, structure) key: a **miss** runs the full `map_app`
//!    compile and caches the result; a **hit** skips it. Either way the
//!    tenant holds the cache's `Arc` of the compile, shared with every
//!    tenant of its key and never copied: a mapping is placement and
//!    routes, and each PE's settings come from the tenant's own graph
//!    (`AppGraph::pe_settings`);
//! 2. **swap_params** — a parameter-only change never recompiles: the
//!    pricer evaluates the PE's PPC functions and prices exactly the
//!    dirty frames (micro-reconfiguration fast path); a new structure is
//!    a new tenant (`release`, then `submit`);
//! 3. **run** — batched streams execute on the engine's workers, in
//!    place: each request's input vectors come back holding their
//!    outputs, bit-exact with `run_dataflow`. `run` walks each band's
//!    slots once and books every swap-in: a slot pays a context switch
//!    when the configuration loaded before it is another tenant's — the
//!    previous slot's, or for the first slot the band's resident
//!    ([`crate::BandInfo::resident`]: whoever ran or was admitted there
//!    last, until it leaves);
//! 4. **release** — frees the region and **drains the queue**: waiting
//!    tenants admit in strict FIFO order until the head no longer fits.
//!
//! Queue discipline: admission order is strict FIFO. While the queue is
//! non-empty every new submission joins the tail — a late small tenant
//! never jumps an early large one (head-of-line blocking is the price of
//! a deterministic, starvation-free order). [`Runtime::release`] returns
//! the admissions the drain produced; [`Runtime::run`] drains too, before
//! it executes. Capacity is freed only by a release (or a compile that
//! fails and surrenders its lease), and compaction happens only at
//! admission, when the ordered policy reaches it.
//!
//! The [`Ledger`] accumulates the reconfiguration side of the paper's
//! Section V argument: modeled configuration-port time anchored on the
//! 251 ms-per-PE estimate — including the replay cost of every compaction
//! move. It holds no host time: compile, admission and execution latency
//! are the trace's `compile`, `request` and `execute` spans.
//!
//! The ledger's flat sum is complemented by a modeled **time axis**
//! ([`crate::timeline`]): the one call that charges a phase to the ledger
//! also schedules it as an interval on its band's lane (host→fabric
//! phases serialized on the one configuration port, grid-local replays
//! overlapping freely), yielding [`Ledger::modeled_makespan`] — what the
//! reconfiguration story actually costs when one band's reconfiguration
//! overlaps other bands' — and [`Ledger::overlap_saved`], the gap to the
//! serialized sum.
//!
//! No operation verifies itself: the sched and timeline passes run when a
//! caller asks ([`Runtime::verify_all`]), over the plain-data snapshots.
//!
//! This file holds the [`Runtime`] itself, [`Runtime::run`] and the read
//! accessors; its other operations live beside it, one file per seam the
//! verifier names: admission, parameter swaps, accounting and snapshots.

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use softfloat::FpValue;
use vcgra::app::AppGraph;
use vcgra::flow::VcgraMapping;
use vcgra::sim::{ExecPlan, ItemError};

use crate::admission::Pending;
use crate::cache::{CacheStats, ConfigCache, ConfigKey};
use crate::engine::{self, Job};
use crate::pool::{GridPool, Lease, TenantId};
use crate::pricer;
use crate::timeline::{Lane, Phase, Timeline};

pub use crate::admission::{Admission, Admitted, Queued};
pub use crate::config::{RuntimeConfig, RuntimeError};
pub use crate::ledger::Ledger;

/// Compiled configurations the runtime's cache keeps.
const CACHE_CAPACITY: usize = 32;

/// Threads the host runs at once (`std::thread::available_parallelism`,
/// 1 if it cannot tell), read on the first call of the process.
fn host_threads() -> usize {
    static HOST: OnceLock<usize> = OnceLock::new();
    *HOST.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// One admitted application: what nothing else in the runtime knows.
/// Its lease is the pool's ([`GridPool::lease`]), its cache key is derived
/// ([`Tenant::config_key`]), and its switches and relocations are the
/// ledger's and the time axis's.
pub struct Tenant {
    /// Tenant id.
    pub id: TenantId,
    /// Display name.
    pub name: String,
    /// Current graph (parameters included): the one source of its PEs'
    /// settings.
    pub graph: AppGraph,
    /// Placement and routes: the configuration cache's compile for this
    /// tenant's key, shared with every tenant of that key.
    pub mapping: Arc<VcgraMapping>,
}

impl Tenant {
    /// The cache key this tenant's configuration lives under — tenants
    /// with equal keys share one cached compile. The compile's region and
    /// the graph's structure are the key, and a swap changes neither.
    pub fn config_key(&self) -> ConfigKey {
        ConfigKey::new(self.mapping.arch, &self.graph)
    }
}

/// One tenant's streaming request.
#[derive(Debug, Clone)]
pub struct StreamRequest {
    /// Target tenant.
    pub tenant: TenantId,
    /// Input vectors (each `graph.num_inputs` long, in the graph's
    /// format). [`Runtime::run`] serves them in place: they come back as
    /// [`TenantRun::outputs`], overwritten.
    pub inputs: Vec<Vec<FpValue>>,
}

/// Per-request result of one [`Runtime::run`]. A call's replies come in
/// tenant-id order, and one tenant's in the order of its requests: the
/// requests `[b, a, b]` for tenants `a < b` are answered `[a, b, b]`.
#[derive(Debug, Clone)]
pub struct TenantRun {
    /// The tenant.
    pub tenant: TenantId,
    /// One output vector per input vector, in order: the request's own
    /// `inputs`, each overwritten with its outputs, so each vector's
    /// capacity is at least the graph's input arity. Its length is the
    /// number of items the request streamed.
    pub outputs: Vec<Vec<FpValue>>,
    /// Context switches charged to this request: 1 when its slot swapped
    /// its configuration in, else 0. Its modeled port time is the
    /// tenant's `Switch` interval on the time axis, summed in
    /// [`Ledger::switch_port_time`].
    pub context_switches: usize,
}

/// The multi-tenant overlay runtime.
pub struct Runtime {
    pub(crate) cfg: RuntimeConfig,
    pub(crate) pool: GridPool,
    pub(crate) cache: ConfigCache,
    pub(crate) tenants: BTreeMap<TenantId, Tenant>,
    pub(crate) next_id: TenantId,
    /// The pool-wide accounting, mutated in place.
    pub(crate) ledger: Ledger,
    /// FIFO admission queue: submissions the pool could not place yet.
    pub(crate) queue: VecDeque<Pending>,
    /// Queued tenants that were dropped during a drain (placement failed
    /// terminally), with the error that killed them.
    pub(crate) queue_failures: Vec<(TenantId, RuntimeError)>,
    /// The modeled time axis: every charge scheduled as an
    /// interval on its band's lane (see [`crate::timeline`]), fed by
    /// `Runtime::charge` alone.
    pub(crate) timeline: Timeline,
}

impl Runtime {
    /// Builds a runtime over the configured grid pool.
    pub fn new(cfg: RuntimeConfig) -> Self {
        let pool = GridPool::new(cfg.grids.clone());
        let cache = ConfigCache::new(CACHE_CAPACITY);
        Runtime {
            cfg,
            pool,
            cache,
            tenants: BTreeMap::new(),
            next_id: 0,
            ledger: Ledger::default(),
            queue: VecDeque::new(),
            queue_failures: Vec::new(),
            timeline: Timeline::new(),
        }
    }

    /// Looks a *placed* tenant up, distinguishing "waiting in the queue"
    /// from "never heard of it".
    pub(crate) fn live(&self, tenant: TenantId) -> Result<&Tenant, RuntimeError> {
        match self.tenants.get(&tenant) {
            Some(t) => Ok(t),
            None if self.queue.iter().any(|p| p.tenant == tenant) => {
                Err(RuntimeError::Waiting(tenant))
            }
            None => Err(RuntimeError::UnknownTenant(tenant)),
        }
    }

    /// Streams batched inputs through every requested tenant: each job
    /// is lowered to an [`ExecPlan`] and its items are spread over the
    /// engine workers — [`RuntimeConfig::workers`] of them at most, and
    /// no more than the host's available parallelism — which overwrite
    /// each request's input vectors with their outputs; every slot that
    /// swaps a configuration into its band is charged a context switch.
    /// Drains the admission queue first (the drain's admissions are
    /// visible in the ledger and via [`Runtime::tenant`]).
    ///
    /// The replies are sorted by tenant id, stably: one [`TenantRun`] per
    /// request, in tenant-id order, and one tenant's in the order of its
    /// requests — not in the order of `requests`. Modeled time is charged
    /// in that order too.
    ///
    /// A refused call changes nothing but what that drain did: no band,
    /// resident, ledger counter or interval moves. Its error is, in this
    /// order of precedence: the first request (in request order) whose
    /// tenant is not live ([`RuntimeError::UnknownTenant`],
    /// [`RuntimeError::Waiting`]) or whose graph does not lower (the error
    /// `submit` gives that graph); otherwise the first item, in request
    /// and item order, that does not hold one value per external input
    /// ([`RuntimeError::BadInputArity`]) or holds a value not in the
    /// graph's format ([`RuntimeError::BadValue`]). So a tenant
    /// fault in a later request is reported before an item fault in an
    /// earlier one; which error a call gets does not depend on the worker
    /// count.
    pub fn run(&mut self, requests: Vec<StreamRequest>) -> Result<Vec<TenantRun>, RuntimeError> {
        self.drain_queue();
        // Lower every request before any worker starts, so that a graph
        // that went bad after admission is an error here and never a
        // panic on an engine thread.
        // The engine checks the items themselves as it reads them. Jobs
        // stay in request order — the order a bad item is reported in —
        // and each band lists its jobs.
        let mut jobs = Vec::with_capacity(requests.len());
        let mut by_band: BTreeMap<(usize, usize), Vec<usize>> = BTreeMap::new();
        for req in requests {
            let t = self.live(req.tenant)?;
            let plan = ExecPlan::lower(&t.graph)
                .map_err(|e| RuntimeError::malformed(t.graph.format, e))?;
            by_band
                .entry(self.lane(req.tenant))
                .or_default()
                .push(jobs.len());
            jobs.push(Job {
                tenant: req.tenant,
                plan,
                items: req.inputs,
            });
        }
        // Each band's slots, walked once. A slot swaps its configuration
        // in when the one loaded before it is another tenant's: slot k's
        // predecessor is slot k−1's, slot 0's is the band's resident — or
        // nobody's, once the resident has left. The last slot's stays,
        // once the call has run.
        let mut switches: Vec<Option<Duration>> = vec![None; jobs.len()];
        let mut residents = Vec::with_capacity(by_band.len());
        for ((grid, row0), mut band) in by_band {
            // Jobs follow the band's slot order.
            let slots = self.pool.band_tenants(grid, row0);
            band.sort_by_key(|&j| slots.iter().position(|&t| t == jobs[j].tenant));
            let region_pes = self.lease(jobs[band[0]].tenant).pe_count();
            let switch_cost = pricer::full_config_cost(region_pes);
            let mut loaded = self.pool.resident(grid, row0);
            for &j in &band {
                switches[j] = (loaded != Some(jobs[j].tenant)).then_some(switch_cost);
                loaded = Some(jobs[j].tenant);
            }
            residents.push((grid, row0, jobs[band[band.len() - 1]].tenant));
        }
        // More threads than the host runs at once would only take turns.
        let threads = self.cfg.workers.min(host_threads());
        engine::execute(&mut jobs, threads).map_err(|(j, _, e)| {
            let graph = &self.tenants[&jobs[j].tenant].graph;
            match e {
                ItemError::Arity { got, .. } => RuntimeError::BadInputArity {
                    expected: graph.num_inputs,
                    got,
                },
                ItemError::Value { why, .. } => RuntimeError::BadValue {
                    format: graph.format,
                    why,
                },
            }
        })?;
        for (grid, row0, last) in residents {
            self.pool.set_resident(grid, row0, last);
        }
        let mut done: Vec<_> = jobs.into_iter().zip(switches).collect();
        done.sort_by_key(|(job, _)| job.tenant);
        let mut runs = Vec::with_capacity(done.len());
        for (job, switch) in done {
            self.ledger.items += job.items.len();
            self.ledger.context_switches += usize::from(switch.is_some());
            // The swap-in context switch is a grid-local replay of the
            // tenant's resident image.
            if let Some(cost) = switch {
                let mut request_span = trace::span("request");
                request_span.arg("tenant", job.tenant);
                request_span.arg("op", "switch");
                self.charge_reconfig_overlap(
                    self.lane(job.tenant),
                    Phase::Switch,
                    Some(job.tenant),
                    cost,
                );
            }
            runs.push(TenantRun {
                tenant: job.tenant,
                outputs: job.items,
                context_switches: usize::from(switch.is_some()),
            });
        }
        Ok(runs)
    }

    /// A placed tenant's lease, read from the band that lists it.
    pub(crate) fn lease(&self, tenant: TenantId) -> Lease {
        self.pool
            .lease(tenant)
            .expect("every placed tenant is on a band")
    }

    /// The time-axis lane of a placed tenant's band.
    pub(crate) fn lane(&self, tenant: TenantId) -> Lane {
        let lease = self.lease(tenant);
        (lease.grid, lease.row0)
    }

    /// Books a lane-local reconfiguration — a context switch's swap-in or
    /// a compaction replay — under a `reconfig_overlap` span: the band is
    /// rewritten from an image the grid holds while the port and every
    /// other band carry on, the overlap the time axis models. Both kinds
    /// carry the same span arguments.
    pub(crate) fn charge_reconfig_overlap(
        &mut self,
        lane: Lane,
        phase: Phase,
        tenant: Option<TenantId>,
        dur: Duration,
    ) {
        let mut span = trace::span("reconfig_overlap");
        span.arg("phase", phase.name());
        if let Some(tenant) = tenant {
            span.arg("tenant", tenant);
        }
        span.arg("grid", lane.0);
        span.arg("row0", lane.1);
        span.arg("port_ns", dur.as_nanos() as u64);
        let start = self.charge(lane, phase, tenant, dur);
        span.arg("modeled_start_ns", start.as_nanos() as u64);
    }

    /// Read access to one tenant.
    pub fn tenant(&self, id: TenantId) -> Option<&Tenant> {
        self.tenants.get(&id)
    }

    /// All live tenants in id order.
    pub fn tenants(&self) -> impl Iterator<Item = &Tenant> {
        self.tenants.values()
    }

    /// Tenants waiting in the admission queue, head first.
    pub fn queued_tenants(&self) -> Vec<TenantId> {
        self.queue.iter().map(|p| p.tenant).collect()
    }

    /// Depth of the admission queue.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Queued tenants dropped during drains, with the terminal error.
    pub fn queue_failures(&self) -> &[(TenantId, RuntimeError)] {
        &self.queue_failures
    }

    /// Configuration-cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// The pool-wide ledger.
    pub fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    /// Read access to the scheduler's band state (for reporting and
    /// invariant checks).
    pub fn pool(&self) -> &GridPool {
        &self.pool
    }

    /// Read access to the modeled time axis.
    pub fn timeline(&self) -> &Timeline {
        &self.timeline
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels;
    use softfloat::FpFormat;
    use vcgra::app::AppSource;
    use vcgra::sim::run_dataflow;

    const F: FpFormat = FpFormat::PAPER;

    #[test]
    fn a_graph_that_does_not_lower_is_an_error_not_a_worker_panic() {
        // `submit` refuses a graph that cannot lower, so from outside the
        // crate no tenant can hold one. `run` still lowers before any
        // engine thread starts: a tenant whose graph went bad after
        // admission fails the whole call with the error `submit` gives
        // that graph, not a panic, and the other tenants are served
        // afterwards.
        type Edit = fn(&mut Tenant);
        let edits: [(&str, Edit); 3] = [
            ("external", |t| t.graph.nodes[0].a = AppSource::External(7)),
            ("forward", |t| t.graph.nodes[2].b = AppSource::Node(2)),
            ("format", |t| {
                t.graph.nodes[1].coeff = Some(FpValue::from_f64(2.0, FpFormat::new(5, 10)))
            }),
        ];
        let mut rt = Runtime::new(RuntimeConfig::default());
        let good = kernels::fir(F, &[0.5, 0.25]).graph;
        let good_id = rt.submit("good", good.clone()).unwrap().tenant();
        let item = vec![FpValue::from_f64(1.5, F), FpValue::from_f64(-2.0, F)];
        for (name, edit) in edits {
            let bad = rt
                .submit(name, AppGraph::dot_product(F, &[1.0, 2.0]))
                .unwrap()
                .tenant();
            edit(rt.tenants.get_mut(&bad).expect("just admitted"));
            let graph = rt.tenants[&bad].graph.clone();
            let refused = rt.ledger().refused;
            let err = rt
                .run(vec![
                    StreamRequest {
                        tenant: good_id,
                        inputs: vec![item.clone()],
                    },
                    StreamRequest {
                        tenant: bad,
                        inputs: vec![item.clone()],
                    },
                ])
                .unwrap_err();
            assert_eq!(
                rt.ledger().refused,
                refused,
                "{name}: runs are not refusals"
            );
            assert_eq!(err, rt.submit(name, graph).unwrap_err(), "{name}");
            rt.release(bad).unwrap();
        }
        assert_eq!(rt.ledger().items, 0, "a refused call streams nothing");
        let runs = rt.run(vec![StreamRequest {
            tenant: good_id,
            inputs: vec![item.clone()],
        }]);
        assert_eq!(
            runs.unwrap()[0].outputs[0][0].bits,
            run_dataflow(&good, &item)[0].bits
        );
    }
}
