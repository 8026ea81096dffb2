//! The runtime orchestrator: admission, specialization, streaming.
//!
//! Lifecycle of an application:
//!
//! 1. **submit** — the scheduler leases a grid region. Placement is
//!    **cache-aware**: among the grids that could host a dedicated band,
//!    the runtime prefers one whose (region, structure) key is already
//!    warm in the configuration cache, so a mixed-width pool does not
//!    recompile one structure once per grid width. If no grid has a
//!    contiguous band but one has enough *fragmented* free rows, the
//!    scheduler **compacts** — slides that grid's bands down and replays
//!    the displaced tenants' configurations onto the translated bands
//!    (charged to the ledger as reconfiguration time; each moved lease's
//!    `epoch` advances). If even compaction cannot help and no band is
//!    shareable, the request enters the FIFO **admission queue** and
//!    `submit` returns [`Admission::Queued`] instead of an error.
//!    Once a region is leased, the configuration cache is consulted with
//!    the (region, structure) key: a **miss** runs the full `map_app`
//!    compile and caches the result; a **hit** clones the cached
//!    placement and only rewrites the settings with the tenant's own
//!    parameters (host-side fast path);
//! 2. **swap_params / set_counter** — parameter-only changes never
//!    recompile: the pricer evaluates the PE's PPC functions and prices
//!    exactly the dirty frames (micro-reconfiguration fast path);
//! 3. **resubmit** — the structural decision point: same structure routes
//!    to the swap path, a changed structure releases the lease and
//!    recompiles (or queues, when the pool is full);
//! 4. **run** — batched streams execute bands-in-parallel through the
//!    engine; every item is bit-exact with `run_dataflow`;
//! 5. **release** — frees the region and **drains the queue**: waiting
//!    tenants admit in strict FIFO order until the head no longer fits.
//!
//! Queue discipline: admission order is strict FIFO. While the queue is
//! non-empty every new submission joins the tail — a late small tenant
//! never jumps an early large one (head-of-line blocking is the price of
//! a deterministic, starvation-free order). [`Runtime::release`] returns
//! the admissions the drain produced; [`Runtime::run`] also drains before
//! executing so capacity freed out-of-band is never left idle.
//!
//! The [`Ledger`] accumulates both sides of the paper's Section V
//! argument: measured host compile/execution time, and modeled
//! configuration-port time anchored on the 251 ms-per-PE estimate —
//! including the replay cost of every compaction move.
//!
//! Since PR 10 the ledger's flat sum is complemented by a modeled **time
//! axis** ([`crate::timeline`]): every charged phase is also scheduled
//! as an interval on its band's lane (host→fabric phases serialized on
//! the one configuration port, grid-local replays overlapping freely),
//! yielding [`Ledger::modeled_makespan`] — what the reconfiguration
//! story actually costs when one band's reconfiguration overlaps other
//! bands' execution — and [`Ledger::overlap_saved`], the gap to the
//! serialized sum. [`Runtime::compact_background`] uses the axis to
//! schedule compaction into idle port windows between waves instead of
//! charging it synchronously against an admission.

use std::collections::{BTreeMap, VecDeque};
use std::time::Duration;

use dcs::ReconfigInterface;
use softfloat::{FpFormat, FpValue};
use vcgra::app::AppGraph;
use vcgra::flow::{FlowError, VcgraMapping};
use vcgra::sim::ExecPlan;
use vcgra::{PeSettings, VcgraArch};

use crate::cache::{CacheStats, CachedConfig, ConfigCache, ConfigKey};
use crate::engine::{run_bands, BandWork, Job, TenantRun};
use crate::pool::{GridPool, Lease, PoolError, Relocation, TenantId};
use crate::pricer::{PeChange, SettingsPricer, SwapReport};
use crate::timeline::{Phase, Timeline};

/// Runtime construction parameters.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// The grid pool (one overlay generation: equal channel capacity).
    pub grids: Vec<VcgraArch>,
    /// Configurations kept in the cache.
    pub cache_capacity: usize,
    /// Threads streaming execution may use, the caller's included.
    pub workers: usize,
    /// Items in one unit of streaming work handed to a worker.
    pub batch_size: usize,
    /// Configuration interface priced by the ledger.
    pub iface: ReconfigInterface,
    /// Floating-point format of the pricing PE (reduced by default so the
    /// lazy pricer build stays sub-second).
    pub pricer_format: FpFormat,
    /// Placement seed for cold compiles.
    pub place_seed: u64,
    /// Queue oversubscribed submissions (FIFO, drained on release)
    /// instead of erroring with [`PoolError::Oversubscribed`].
    pub queue: bool,
    /// Compact fragmented grids (relocate bands) to admit tenants whose
    /// row demand fits the free rows but not any contiguous run.
    pub compact: bool,
    /// Cache-aware placement: among feasible grids, prefer one whose
    /// (region, structure) key is already warm in the configuration
    /// cache over plain first-fit.
    pub cache_aware: bool,
    /// Time-multiplex big-enough existing bands when no dedicated band
    /// can be carved (even by compaction). Off, the runtime prefers
    /// queueing latency over per-context-switch reconfiguration cost.
    pub time_share: bool,
    /// Run the scheduler-state verifier after every mutating operation
    /// (`submit`/`resubmit`/`run`/`release`) and fail the operation with
    /// [`RuntimeError::Invariant`] if any invariant is violated. Off by
    /// default; the serve driver's `--verify` mode turns it on.
    pub verify_on_admit: bool,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            grids: vec![VcgraArch::new(8, 4, 2), VcgraArch::new(8, 4, 2)],
            cache_capacity: 32,
            workers: 4,
            batch_size: 64,
            iface: ReconfigInterface::Hwicap,
            pricer_format: FpFormat::new(4, 6),
            place_seed: 42,
            queue: true,
            compact: true,
            cache_aware: true,
            time_share: true,
            verify_on_admit: false,
        }
    }
}

/// Everything that can go wrong at the runtime surface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuntimeError {
    /// The scheduler could not place the application.
    Pool(PoolError),
    /// The compile failed (unroutable on the leased region, an operand
    /// naming a node the graph does not have), or the graph is empty and
    /// was refused before any lease was taken.
    Flow(FlowError),
    /// Unknown tenant id.
    UnknownTenant(TenantId),
    /// The tenant is waiting in the admission queue — it has no lease
    /// yet, so it cannot run, swap, or resubmit structurally.
    Waiting(TenantId),
    /// Parameter vector does not match the graph's coefficient slots.
    BadParamArity {
        /// Coefficient-bearing nodes in the graph.
        expected: usize,
        /// Values supplied.
        got: usize,
    },
    /// Stream input arity does not match the graph.
    BadInputArity {
        /// External inputs the graph declares.
        expected: usize,
        /// Values supplied per vector.
        got: usize,
    },
    /// A stream input or a swapped-in coefficient is not in the graph's
    /// floating-point format.
    BadFormat {
        /// Format of the tenant's graph.
        expected: FpFormat,
        /// Format of the first offending value.
        got: FpFormat,
    },
    /// Node index outside the tenant's graph.
    NodeOutOfRange {
        /// Index supplied.
        node: usize,
        /// Nodes in the graph.
        nodes: usize,
    },
    /// The scheduler-state verifier found a broken invariant
    /// (`RuntimeConfig::verify_on_admit`). The string lists every
    /// violation the sched pass reported.
    Invariant(String),
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::Pool(e) => write!(f, "placement failed: {e}"),
            RuntimeError::Flow(e) => write!(f, "compile failed: {e}"),
            RuntimeError::UnknownTenant(t) => write!(f, "unknown tenant {t}"),
            RuntimeError::Waiting(t) => {
                write!(f, "tenant {t} is queued for admission and has no lease yet")
            }
            RuntimeError::BadParamArity { expected, got } => {
                write!(f, "parameter vector has {got} values, graph has {expected} slots")
            }
            RuntimeError::BadInputArity { expected, got } => {
                write!(f, "input vector has {got} values, graph has {expected} inputs")
            }
            RuntimeError::BadFormat { expected, got } => write!(
                f,
                "value in format ({}, {}), graph computes in ({}, {})",
                got.we, got.wf, expected.we, expected.wf
            ),
            RuntimeError::NodeOutOfRange { node, nodes } => {
                write!(f, "node {node} out of range, graph has {nodes} nodes")
            }
            RuntimeError::Invariant(detail) => {
                write!(f, "scheduler invariant violated: {detail}")
            }
        }
    }
}

impl std::error::Error for RuntimeError {}

impl From<PoolError> for RuntimeError {
    fn from(e: PoolError) -> Self {
        RuntimeError::Pool(e)
    }
}

impl From<FlowError> for RuntimeError {
    fn from(e: FlowError) -> Self {
        RuntimeError::Flow(e)
    }
}

/// Result of one `submit`: the application was either placed immediately
/// or joined the FIFO admission queue.
#[derive(Debug, Clone)]
pub enum Admission {
    /// A region was leased and the configuration is loaded.
    Admitted(Admitted),
    /// The pool is full; the application waits in the admission queue
    /// and will be placed by a future `release`/`drain_queue`.
    Queued(Queued),
}

impl Admission {
    /// The tenant id, placed or queued.
    pub fn tenant(&self) -> TenantId {
        match self {
            Admission::Admitted(a) => a.tenant,
            Admission::Queued(q) => q.tenant,
        }
    }

    /// True when the submission went to the queue.
    pub fn is_queued(&self) -> bool {
        matches!(self, Admission::Queued(_))
    }

    /// The placement report, if the application was placed immediately.
    pub fn admitted(self) -> Option<Admitted> {
        match self {
            Admission::Admitted(a) => Some(a),
            Admission::Queued(_) => None,
        }
    }

    /// Unwraps the placement report; panics with `msg` if queued.
    pub fn expect_admitted(self, msg: &str) -> Admitted {
        match self {
            Admission::Admitted(a) => a,
            Admission::Queued(q) => panic!("{msg}: tenant {} was queued", q.tenant),
        }
    }
}

/// Report of one *placed* admission.
#[derive(Debug, Clone)]
pub struct Admitted {
    /// Assigned tenant id.
    pub tenant: TenantId,
    /// Leased region.
    pub lease: Lease,
    /// True when the configuration cache already held the structure.
    pub cache_hit: bool,
    /// Bands the scheduler relocated (compaction) to place this tenant.
    pub relocations: usize,
    /// Measured host time of the whole admission (compile or specialize).
    pub admit_time: Duration,
    /// Measured host time of `map_app` (zero on a cache hit).
    pub compile_time: Duration,
    /// Modeled port time to configure the tenant's PEs from scratch.
    pub config_port_time: Duration,
}

/// A submission parked in the admission queue.
#[derive(Debug, Clone)]
pub struct Queued {
    /// Assigned tenant id (stable across the wait).
    pub tenant: TenantId,
    /// Position in the queue at enqueue time (0 = head).
    pub position: usize,
}

/// What `resubmit` decided to do.
#[derive(Debug, Clone)]
pub enum Refresh {
    /// Structure unchanged: served by the micro-reconfiguration fast path.
    Swapped(SwapReport),
    /// Structure changed: full recompile (possibly relocated).
    Recompiled(Admitted),
    /// Structure changed and the pool is full: the tenant surrendered its
    /// lease and joined the admission queue with the new graph.
    Queued(Queued),
}

/// Per-tenant accumulated accounting.
#[derive(Debug, Clone, Copy, Default)]
pub struct TenantStats {
    /// Input vectors processed.
    pub items: usize,
    /// Streaming batches processed.
    pub batches: usize,
    /// Measured host execution time.
    pub exec_time: Duration,
    /// Parameter swaps served from the fast path.
    pub swaps: usize,
    /// Frames rewritten by those swaps.
    pub swap_frames: usize,
    /// Modeled port time of those swaps.
    pub swap_port_time: Duration,
    /// Context switches charged while time-multiplexed.
    pub context_switches: usize,
    /// Modeled port time of those switches.
    pub switch_port_time: Duration,
    /// Times this tenant's band was relocated by compaction.
    pub relocations: usize,
}

/// One admitted application.
pub struct Tenant {
    /// Tenant id.
    pub id: TenantId,
    /// Display name.
    pub name: String,
    /// Current graph (parameters included).
    pub graph: AppGraph,
    /// Placed configuration, settings in sync with `graph`.
    pub mapping: VcgraMapping,
    /// Leased region (its `epoch` counts compaction moves).
    pub lease: Lease,
    key: ConfigKey,
    /// Accumulated accounting.
    pub stats: TenantStats,
    /// Memoized structural signature for the sched verifier, derived once
    /// at admission. Sound to reuse for the tenant's lifetime: every
    /// mutating path either preserves `same_structure` (parameter swaps,
    /// counters — the signature ignores coefficient *values*) or retires
    /// this `Tenant` and admits a fresh one (structural resubmit), and
    /// compaction moves bands without touching the compiled region shape.
    sig: verify::sched::StructureSig,
}

impl Tenant {
    /// The cache key this tenant's configuration lives under — tenants
    /// with equal keys share one cached compile.
    pub fn config_key(&self) -> &ConfigKey {
        &self.key
    }
}

/// Pool-wide accounting: measured host cost vs modeled port cost.
///
/// This struct is a *view*: every counter lives in the runtime's
/// [`trace::Registry`] (metric names `runtime.*`, durations as `*_ns`
/// nanosecond counters), and the runtime materializes this struct from
/// the registry after each mutating operation. The public shape is
/// unchanged; [`Runtime::metrics`] exposes the registry itself, which
/// additionally carries the admission/execute latency histograms.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ledger {
    /// Admissions that compiled.
    pub cold_compiles: usize,
    /// Admissions served from the configuration cache.
    pub warm_admissions: usize,
    /// Host time in `map_app`.
    pub host_compile_time: Duration,
    /// Host time of all admissions (compile + specialize).
    pub host_admit_time: Duration,
    /// Modeled port time of initial configurations.
    pub admission_port_time: Duration,
    /// Submissions that entered the admission queue.
    pub queued: usize,
    /// Queued submissions later placed by a drain.
    pub queue_admitted: usize,
    /// Queued submissions dropped because placement failed terminally
    /// (too big for any grid, or the compile failed).
    pub queue_dropped: usize,
    /// Queued submissions cancelled by `release` before being placed
    /// (`queued == queue_admitted + queue_dropped + queue_cancelled +`
    /// the current queue depth, always).
    pub queue_cancelled: usize,
    /// Structural signatures derived at admission (the memo fills).
    pub sig_derivations: usize,
    /// Host time spent deriving those signatures.
    pub sig_derive_time: Duration,
    /// Compaction events (each may relocate several bands).
    pub compactions: usize,
    /// Bands relocated across all compactions.
    pub relocated_bands: usize,
    /// Modeled port time replaying relocated bands' configurations.
    pub compaction_port_time: Duration,
    /// Parameter swaps.
    pub swaps: usize,
    /// Frames rewritten by swaps.
    pub swap_frames: usize,
    /// Modeled port time of swaps.
    pub swap_port_time: Duration,
    /// Host time evaluating PPC functions during swaps.
    pub swap_eval_time: Duration,
    /// Context switches across all shared bands.
    pub context_switches: usize,
    /// Modeled port time of context switches.
    pub switch_port_time: Duration,
    /// Input vectors executed.
    pub items: usize,
    /// Measured host execution time (summed over parallel bands).
    pub exec_time: Duration,
    /// Modeled makespan of the time axis: when the last scheduled
    /// phase ends, with reconfiguration of one band overlapped against
    /// other bands' execution (see [`crate::timeline`]). Always at most
    /// `total_port_time() + exec_time`-shaped serialized story; on
    /// overlapping workloads strictly less than [`Ledger::total_port_time`].
    pub modeled_makespan: Duration,
    /// Time the overlap model saves over the fully serialized story
    /// (`charged + execute` laid end to end minus the makespan).
    /// Monotone nondecreasing.
    pub overlap_saved: Duration,
    /// The paper's per-PE full-reconfiguration unit on the priced
    /// interface (251 ms on HWICAP) — the ledger's anchor constant.
    pub paper_pe_unit: Duration,
}

impl Ledger {
    /// Total modeled configuration-port time (admissions + swaps +
    /// context switches + compaction replays) — the "reconfiguration
    /// cost" side of Section V. This is the *flat sum*: every charge
    /// laid end to end. [`Ledger::modeled_makespan`] is what the same
    /// charges cost on the scheduled time axis.
    pub fn total_port_time(&self) -> Duration {
        self.admission_port_time
            + self.swap_port_time
            + self.switch_port_time
            + self.compaction_port_time
    }
}

/// One tenant's streaming request.
#[derive(Debug, Clone)]
pub struct StreamRequest {
    /// Target tenant.
    pub tenant: TenantId,
    /// Input vectors (each `graph.num_inputs` long).
    pub inputs: Vec<Vec<FpValue>>,
}

/// `map_app`'s refusal of a graph with no nodes, given at the door: a
/// zero-PE demand has no band to lease (the pool asserts on it) and would
/// sit in the queue until a drain reached that assert. `submit` and
/// `resubmit` call this before they touch the pool, the queue or the
/// tenant's current lease.
fn refuse_empty(graph: &AppGraph) -> Result<(), RuntimeError> {
    if graph.nodes.is_empty() {
        return Err(FlowError::EmptyGraph.into());
    }
    Ok(())
}

/// A submission waiting in the admission queue.
struct Pending {
    tenant: TenantId,
    name: String,
    graph: AppGraph,
}

/// Registry-backed cells behind the [`Ledger`] view: one counter handle
/// per field, recorded lock-free and materialized by
/// [`LedgerCells::view`]. Durations are nanosecond counters (`*_ns`).
struct LedgerCells {
    cold_compiles: trace::Counter,
    warm_admissions: trace::Counter,
    host_compile_ns: trace::Counter,
    host_admit_ns: trace::Counter,
    admission_port_ns: trace::Counter,
    queued: trace::Counter,
    queue_admitted: trace::Counter,
    queue_dropped: trace::Counter,
    queue_cancelled: trace::Counter,
    sig_derivations: trace::Counter,
    sig_derive_ns: trace::Counter,
    compactions: trace::Counter,
    relocated_bands: trace::Counter,
    compaction_port_ns: trace::Counter,
    swaps: trace::Counter,
    swap_frames: trace::Counter,
    swap_port_ns: trace::Counter,
    swap_eval_ns: trace::Counter,
    context_switches: trace::Counter,
    switch_port_ns: trace::Counter,
    items: trace::Counter,
    exec_ns: trace::Counter,
    /// Modeled makespan of the time axis (a gauge: it is a level, not a
    /// flow — it can only be *read* as "the current end of the axis").
    makespan_ns: trace::Gauge,
    /// Overlap savings vs the serialized story (monotone, so a counter:
    /// `sync_ledger` adds the delta since the last sync).
    overlap_saved_ns: trace::Counter,
}

impl LedgerCells {
    fn new(reg: &trace::Registry) -> Self {
        LedgerCells {
            cold_compiles: reg.counter("runtime.cold_compiles"),
            warm_admissions: reg.counter("runtime.warm_admissions"),
            host_compile_ns: reg.counter("runtime.host_compile_ns"),
            host_admit_ns: reg.counter("runtime.host_admit_ns"),
            admission_port_ns: reg.counter("runtime.admission_port_ns"),
            queued: reg.counter("runtime.queued"),
            queue_admitted: reg.counter("runtime.queue_admitted"),
            queue_dropped: reg.counter("runtime.queue_dropped"),
            queue_cancelled: reg.counter("runtime.queue_cancelled"),
            sig_derivations: reg.counter("runtime.sig_derivations"),
            sig_derive_ns: reg.counter("runtime.sig_derive_ns"),
            compactions: reg.counter("runtime.compactions"),
            relocated_bands: reg.counter("runtime.relocated_bands"),
            compaction_port_ns: reg.counter("runtime.compaction_port_ns"),
            swaps: reg.counter("runtime.swaps"),
            swap_frames: reg.counter("runtime.swap_frames"),
            swap_port_ns: reg.counter("runtime.swap_port_ns"),
            swap_eval_ns: reg.counter("runtime.swap_eval_ns"),
            context_switches: reg.counter("runtime.context_switches"),
            switch_port_ns: reg.counter("runtime.switch_port_ns"),
            items: reg.counter("runtime.items"),
            exec_ns: reg.counter("runtime.exec_ns"),
            makespan_ns: reg.gauge("runtime.makespan_ns"),
            overlap_saved_ns: reg.counter("runtime.overlap_saved_ns"),
        }
    }

    /// Materialize the [`Ledger`] view from the registry counters.
    fn view(&self, paper_pe_unit: Duration) -> Ledger {
        fn ns(c: &trace::Counter) -> Duration {
            Duration::from_nanos(c.get())
        }
        Ledger {
            cold_compiles: self.cold_compiles.get() as usize,
            warm_admissions: self.warm_admissions.get() as usize,
            host_compile_time: ns(&self.host_compile_ns),
            host_admit_time: ns(&self.host_admit_ns),
            admission_port_time: ns(&self.admission_port_ns),
            queued: self.queued.get() as usize,
            queue_admitted: self.queue_admitted.get() as usize,
            queue_dropped: self.queue_dropped.get() as usize,
            queue_cancelled: self.queue_cancelled.get() as usize,
            sig_derivations: self.sig_derivations.get() as usize,
            sig_derive_time: ns(&self.sig_derive_ns),
            compactions: self.compactions.get() as usize,
            relocated_bands: self.relocated_bands.get() as usize,
            compaction_port_time: ns(&self.compaction_port_ns),
            swaps: self.swaps.get() as usize,
            swap_frames: self.swap_frames.get() as usize,
            swap_port_time: ns(&self.swap_port_ns),
            swap_eval_time: ns(&self.swap_eval_ns),
            context_switches: self.context_switches.get() as usize,
            switch_port_time: ns(&self.switch_port_ns),
            items: self.items.get() as usize,
            exec_time: ns(&self.exec_ns),
            modeled_makespan: Duration::from_nanos(self.makespan_ns.get().max(0) as u64),
            overlap_saved: ns(&self.overlap_saved_ns),
            paper_pe_unit,
        }
    }
}

/// The multi-tenant overlay runtime.
pub struct Runtime {
    cfg: RuntimeConfig,
    pool: GridPool,
    cache: ConfigCache,
    pricer: SettingsPricer,
    tenants: BTreeMap<TenantId, Tenant>,
    next_id: TenantId,
    /// Source of truth for the [`Ledger`] view plus the admission and
    /// execute latency histograms (`runtime.admit_ns`,
    /// `runtime.execute_ns`).
    metrics: trace::Registry,
    /// Counter handles into `metrics`, one per ledger field.
    cells: LedgerCells,
    /// Per-admission host-latency histogram (`runtime.admit_ns`).
    admit_hist: trace::Histogram,
    /// Per-tenant-run host-latency histogram (`runtime.execute_ns`).
    exec_hist: trace::Histogram,
    /// Cached [`Ledger`] view, refreshed after every mutating operation
    /// so `ledger()` can keep returning a reference.
    ledger: Ledger,
    /// FIFO admission queue: submissions the pool could not place yet.
    queue: VecDeque<Pending>,
    /// Queued tenants that were dropped during a drain (placement failed
    /// terminally), with the error that killed them.
    queue_failures: Vec<(TenantId, RuntimeError)>,
    /// Which tenant's configuration is loaded in each band
    /// (`(grid, row0)` → tenant): a shared band whose resident differs
    /// from the next run's first job pays a swap-in context switch.
    resident: BTreeMap<(usize, usize), TenantId>,
    /// The modeled time axis: every charged phase scheduled as an
    /// interval on its band's lane (see [`crate::timeline`]). Source of
    /// the `runtime.makespan_ns` gauge and `runtime.overlap_saved_ns`
    /// counter published by [`Runtime::sync_ledger`].
    timeline: Timeline,
    /// Snapshot tenant rows served from the memoized [`Tenant::sig`]
    /// instead of a fresh `StructureSig` derivation (a `Cell` because
    /// [`Runtime::snapshot`] takes `&self`).
    sig_memo_hits: std::cell::Cell<usize>,
}

impl Runtime {
    /// Builds a runtime over the configured grid pool.
    pub fn new(cfg: RuntimeConfig) -> Self {
        let pool = GridPool::new(cfg.grids.clone());
        let cache = ConfigCache::new(cfg.cache_capacity);
        let pricer = SettingsPricer::new(cfg.pricer_format, cfg.iface);
        let metrics = trace::Registry::new();
        let cells = LedgerCells::new(&metrics);
        let admit_hist = metrics.histogram("runtime.admit_ns");
        let exec_hist = metrics.histogram("runtime.execute_ns");
        let ledger = cells.view(dcs::paper_pe_reconfig(cfg.iface));
        Runtime {
            cfg,
            pool,
            cache,
            pricer,
            tenants: BTreeMap::new(),
            next_id: 0,
            metrics,
            cells,
            admit_hist,
            exec_hist,
            ledger,
            queue: VecDeque::new(),
            queue_failures: Vec::new(),
            resident: BTreeMap::new(),
            timeline: Timeline::new(),
            sig_memo_hits: std::cell::Cell::new(0),
        }
    }

    /// Admits an application: lease a region (cache-aware, compacting if
    /// needed), then compile or specialize. When the pool is full and the
    /// queue is enabled the submission parks in the FIFO queue instead of
    /// failing — it will be placed by a future [`Runtime::release`] or
    /// [`Runtime::drain_queue`] under the same tenant id.
    ///
    /// A refused submission (too big for any grid, an empty graph, a
    /// failed compile) still consumes its tenant id — the shard tier
    /// names a tenant by its dispatch count — and leaves the pool, the
    /// queue and the ledger as they were (a compaction done to place a
    /// graph that then fails to compile stays, and stays charged).
    pub fn submit(
        &mut self,
        name: impl Into<String>,
        graph: AppGraph,
    ) -> Result<Admission, RuntimeError> {
        let id = self.next_id;
        self.next_id += 1;
        refuse_empty(&graph)?;
        let name = name.into();
        // Strict FIFO: while earlier submissions wait, later ones join
        // the tail even if they would fit — no queue jumping. A graph
        // that could never fit any grid is still rejected synchronously;
        // queueing it would only defer the TooBig to a silent drop.
        if self.cfg.queue && !self.queue.is_empty() {
            self.pool.fits_any_grid(graph.pe_demand())?;
            let queued = self.enqueue(id, name, graph);
            self.enforce_invariants()?;
            return Ok(Admission::Queued(queued));
        }
        let admission = match self.place_and_admit(id, &name, &graph) {
            Ok(adm) => Admission::Admitted(adm),
            Err(RuntimeError::Pool(PoolError::Oversubscribed { .. })) if self.cfg.queue => {
                Admission::Queued(self.enqueue(id, name, graph))
            }
            Err(e) => return Err(e),
        };
        self.enforce_invariants()?;
        Ok(admission)
    }

    fn enqueue(&mut self, tenant: TenantId, name: String, graph: AppGraph) -> Queued {
        let position = self.queue.len();
        self.queue.push_back(Pending { tenant, name, graph });
        self.cells.queued.inc();
        self.sync_ledger();
        trace::instant("runtime.queued", vec![("tenant", tenant.into()), ("position", position.into())]);
        Queued { tenant, position }
    }

    /// Refresh the cached [`Ledger`] view from the registry counters,
    /// first publishing the time axis's derived metrics (the makespan
    /// gauge, the monotone overlap-savings counter). Called at the end
    /// of every mutating operation.
    fn sync_ledger(&mut self) {
        self.cells.makespan_ns.set(self.timeline.makespan().as_nanos() as i64);
        // `overlap_saved` is monotone over scheduling (each phase extends
        // the makespan by at most its own duration), so the counter only
        // ever needs the delta since the last sync.
        let saved = self.timeline.overlap_saved().as_nanos() as u64;
        let prev = self.cells.overlap_saved_ns.get();
        debug_assert!(saved >= prev, "overlap_saved regressed: {saved} < {prev}");
        self.cells.overlap_saved_ns.add(saved.saturating_sub(prev));
        // Charge conservation: the axis schedules exactly the durations
        // the ledger charges — nothing double-counted (a compaction
        // charged at admission is scheduled once, by the same call),
        // nothing dropped. The timeline verify pass re-proves this from
        // plain data; here it guards every mutating operation in tests.
        debug_assert_eq!(
            self.timeline.charged().as_nanos() as u64,
            self.cells.admission_port_ns.get()
                + self.cells.swap_port_ns.get()
                + self.cells.switch_port_ns.get()
                + self.cells.compaction_port_ns.get(),
            "timeline charged durations must reconcile with the ledger's port counters"
        );
        self.ledger = self.cells.view(self.ledger.paper_pe_unit);
    }

    /// Drains the admission queue: places waiting tenants in strict FIFO
    /// order until the head no longer fits (head-of-line blocking keeps
    /// the order deterministic). A head whose placement fails terminally
    /// (too big, compile error) is dropped and recorded in
    /// [`Runtime::queue_failures`]. Returns the admissions produced.
    ///
    /// `release` and `run` call this automatically; it is public so
    /// callers that free capacity out-of-band can drain explicitly.
    pub fn drain_queue(&mut self) -> Vec<Admitted> {
        let mut admitted = Vec::new();
        while let Some(front) = self.queue.pop_front() {
            match self.place_and_admit(front.tenant, &front.name, &front.graph) {
                Ok(adm) => {
                    self.cells.queue_admitted.inc();
                    admitted.push(adm);
                }
                Err(RuntimeError::Pool(PoolError::Oversubscribed { .. })) => {
                    // Still blocked: the head keeps its place.
                    self.queue.push_front(front);
                    break;
                }
                Err(e) => {
                    self.cells.queue_dropped.inc();
                    self.queue_failures.push((front.tenant, e));
                }
            }
        }
        self.sync_ledger();
        admitted
    }

    /// Leases a region and loads the configuration. Never queues — the
    /// caller decides what an `Oversubscribed` error means. `name` and
    /// `graph` are only cloned once placement has succeeded.
    fn place_and_admit(
        &mut self,
        id: TenantId,
        name: &str,
        graph: &AppGraph,
    ) -> Result<Admitted, RuntimeError> {
        // Per-request span tree: request > admission > {placement, cache,
        // compile, pricing, sig}; compaction opens its own child inside
        // apply_relocations. `serve --trace` renders admissions as these
        // nested slices.
        let mut request_span = trace::span("request");
        request_span.arg("tenant", id);
        request_span.arg("op", "admit");
        let admission_span = trace::span("admission");
        let demand = graph.pe_demand();
        let channel_capacity = self.pool.channel_capacity();

        // Cache-aware placement: among grids that can host a dedicated
        // band right now, prefer one whose region shape already has this
        // structure compiled — a warm hit there skips `map_app` entirely.
        // With no candidate, fall through to compaction / time-sharing.
        let placement_span = trace::span("placement");
        let candidates = self.pool.dedicated_candidates(demand);
        let (lease, relocations) = if !candidates.is_empty() {
            let pick = if self.cfg.cache_aware {
                let archs = self.pool.grid_archs();
                candidates
                    .iter()
                    .copied()
                    .find(|&gi| {
                        let region = VcgraArch::new(
                            GridPool::rows_needed(demand, archs[gi].cols),
                            archs[gi].cols,
                            channel_capacity,
                        );
                        self.cache.contains(&ConfigKey::new(region, graph))
                    })
                    .unwrap_or(candidates[0])
            } else {
                candidates[0]
            };
            let lease = self
                .pool
                .allocate_on(pick, id, demand)
                .expect("candidate grid has a free band");
            (lease, Vec::new())
        } else {
            self.pool.allocate_with(id, demand, self.cfg.compact, self.cfg.time_share)?
        };
        drop(placement_span);
        self.apply_relocations(&relocations);

        // Compile against the *minimal* region for this demand, not the
        // leased band (a time-shared band can be taller than needed): the
        // cache key must depend only on (grid width, structure), so a
        // tenant re-admitted onto a roomier band still hits.
        let region = VcgraArch::new(
            GridPool::rows_needed(demand, lease.cols),
            lease.cols,
            channel_capacity,
        );
        let key = ConfigKey::new(region, graph);

        let t0 = std::time::Instant::now();
        let mut cache_span = trace::span("cache");
        let lookup = self.cache.get(&key);
        cache_span.arg("hit", lookup.is_some());
        drop(cache_span);
        let (mapping, cache_hit, compile_time) = match lookup {
            Some(cached) => {
                let mut mapping = cached.mapping.clone();
                Self::write_settings(&mut mapping, graph);
                (mapping, true, Duration::ZERO)
            }
            None => {
                let compile_span = trace::span("compile");
                let mapping = match vcgra::flow::map_app(graph, region, self.cfg.place_seed) {
                    Ok(m) => m,
                    Err(e) => {
                        // The lease is surrendered; any compaction the
                        // placement performed stays (already charged).
                        self.pool.release(id);
                        return Err(e.into());
                    }
                };
                drop(compile_span);
                let compile_time = mapping.compile_time;
                let cached = self.cache.insert(
                    key.clone(),
                    CachedConfig { mapping, compile_time },
                );
                (cached.mapping.clone(), false, compile_time)
            }
        };
        let admit_time = t0.elapsed();

        let mut pricing_span = trace::span("pricing");
        let config_port_time = self.pricer.full_config_cost(demand);
        pricing_span.arg("port_ns", config_port_time.as_nanos() as u64);
        drop(pricing_span);
        if cache_hit {
            self.cells.warm_admissions.inc();
        } else {
            self.cells.cold_compiles.inc();
            self.cells.host_compile_ns.add(compile_time.as_nanos() as u64);
        }
        self.cells.host_admit_ns.add(admit_time.as_nanos() as u64);
        self.cells.admission_port_ns.add(config_port_time.as_nanos() as u64);
        // The initial configuration streams host→fabric: an exclusive
        // slot on the configuration port, serialized behind whatever the
        // port is already streaming, overlapping other bands' execution.
        self.timeline.schedule(
            (lease.grid, lease.row0),
            Phase::Admission,
            Some(id),
            config_port_time,
        );
        self.admit_hist.record_duration(admit_time);

        // Derive the verifier's structural signature once, here, instead
        // of per snapshot: under `verify_on_admit` every mutating
        // operation snapshots every live tenant, so an O(graph) signature
        // per tenant per operation turns the audit quadratic. The ledger
        // keeps the measured derivation cost so drivers can report the
        // audit seconds the memo saves.
        let t_sig = std::time::Instant::now();
        let sig_span = trace::span("sig");
        let sig = verify::sched::StructureSig::of(
            mapping.arch.rows,
            mapping.arch.cols,
            channel_capacity,
            graph,
        );
        drop(sig_span);
        self.cells.sig_derivations.inc();
        self.cells.sig_derive_ns.add(t_sig.elapsed().as_nanos() as u64);

        // Admission writes the tenant's configuration into the region, so
        // it becomes the band's resident.
        self.resident.insert((lease.grid, lease.row0), id);
        self.tenants.insert(
            id,
            Tenant {
                id,
                name: name.to_string(),
                graph: graph.clone(),
                mapping,
                lease,
                key,
                stats: TenantStats::default(),
                sig,
            },
        );
        self.sync_ledger();
        drop(admission_span);
        request_span.arg("cache_hit", cache_hit);
        request_span.arg("admit_ns", admit_time.as_nanos() as u64);
        Ok(Admitted {
            tenant: id,
            lease,
            cache_hit,
            relocations: relocations.len(),
            admit_time,
            compile_time,
            config_port_time,
        })
    }

    /// Applies a compaction's band moves to the runtime's view: leases
    /// translate to their new rows (epoch advances), the resident map
    /// follows, and the ledger charges one full-region configuration
    /// replay per moved band — relocating a band means streaming its
    /// (cached) configuration back through the port at the new offset.
    fn apply_relocations(&mut self, relocations: &[Relocation]) {
        if relocations.is_empty() {
            return;
        }
        let mut compaction_span = trace::span("compaction");
        compaction_span.arg("bands", relocations.len());
        self.cells.compactions.inc();
        let archs = self.pool.grid_archs();
        for r in relocations {
            self.cells.relocated_bands.inc();
            let replay = self.pricer.full_config_cost(r.rows * archs[r.grid].cols);
            self.cells.compaction_port_ns.add(replay.as_nanos() as u64);
            // The replay re-emits a grid-resident image at the new row
            // offset: it occupies the moved band's lane but neither the
            // host→fabric port nor any other band — the overlap window
            // the `reconfig_overlap` span makes visible under the
            // enclosing request.
            let mut overlap_span = trace::span("reconfig_overlap");
            overlap_span.arg("grid", r.grid);
            overlap_span.arg("rows", r.rows);
            overlap_span.arg("replay_ns", replay.as_nanos() as u64);
            let start = self.timeline.relocate(
                (r.grid, r.old_row0),
                (r.grid, r.new_row0),
                r.tenants.first().copied(),
                replay,
            );
            overlap_span.arg("modeled_start_ns", start.as_nanos() as u64);
            drop(overlap_span);
            if let Some(res) = self.resident.remove(&(r.grid, r.old_row0)) {
                self.resident.insert((r.grid, r.new_row0), res);
            }
            for &t in &r.tenants {
                if let Some(tenant) = self.tenants.get_mut(&t) {
                    tenant.lease = tenant.lease.translated(r.new_row0);
                    tenant.stats.relocations += 1;
                }
            }
        }
        self.sync_ledger();
    }

    /// Writes a graph's parameters into a mapping's settings (the
    /// host-side half of a specialization).
    fn write_settings(mapping: &mut VcgraMapping, graph: &AppGraph) {
        let zero = FpValue::zero(graph.format);
        let cols = mapping.arch.cols;
        for (i, node) in graph.nodes.iter().enumerate() {
            let (r, c) = mapping.place[i];
            let slot = mapping.pe_settings[r * cols + c]
                .as_mut()
                .expect("placed node has settings");
            slot.coeff = node.coeff.unwrap_or(zero);
        }
    }

    /// Looks a *placed* tenant up, distinguishing "waiting in the queue"
    /// from "never heard of it".
    fn live(&self, tenant: TenantId) -> Result<&Tenant, RuntimeError> {
        match self.tenants.get(&tenant) {
            Some(t) => Ok(t),
            None if self.queue.iter().any(|p| p.tenant == tenant) => {
                Err(RuntimeError::Waiting(tenant))
            }
            None => Err(RuntimeError::UnknownTenant(tenant)),
        }
    }

    /// Parameter-only change: new coefficients for the tenant's
    /// coefficient-bearing nodes, served by the micro-reconfiguration
    /// fast path (no recompile, dirty frames only).
    pub fn swap_params(
        &mut self,
        tenant: TenantId,
        coeffs: &[FpValue],
    ) -> Result<SwapReport, RuntimeError> {
        let t = self.live(tenant)?;
        let slots = t.graph.coeff_nodes();
        if slots.len() != coeffs.len() {
            return Err(RuntimeError::BadParamArity { expected: slots.len(), got: coeffs.len() });
        }
        if let Some(c) = coeffs.iter().find(|c| c.format != t.graph.format) {
            return Err(RuntimeError::BadFormat { expected: t.graph.format, got: c.format });
        }
        let new_graph = t.graph.with_coeffs(coeffs);
        let changes: Vec<PeChange> = slots
            .iter()
            .zip(coeffs)
            .map(|(&node, &c)| {
                let (r, col) = t.mapping.place[node];
                let old = t.mapping.pe_settings[r * t.mapping.arch.cols + col]
                    .expect("placed node has settings");
                let new = PeSettings { coeff: c, ..old };
                PeChange { cell: (t.lease.row0 + r, col), old, new }
            })
            .collect();
        self.apply_changes(tenant, new_graph, changes)
    }

    /// Parameter-only change of one node's iteration counter (the other
    /// settings-register content the paper's applications retune).
    pub fn set_counter(
        &mut self,
        tenant: TenantId,
        node: usize,
        counter: u32,
    ) -> Result<SwapReport, RuntimeError> {
        let t = self.live(tenant)?;
        if node >= t.graph.nodes.len() {
            return Err(RuntimeError::NodeOutOfRange { node, nodes: t.graph.nodes.len() });
        }
        let (r, col) = t.mapping.place[node];
        let old = t.mapping.pe_settings[r * t.mapping.arch.cols + col]
            .expect("placed node has settings");
        let new = PeSettings { counter, ..old };
        let change = PeChange { cell: (t.lease.row0 + r, col), old, new };
        let graph = t.graph.clone();
        self.apply_changes(tenant, graph, vec![change])
    }

    fn apply_changes(
        &mut self,
        tenant: TenantId,
        new_graph: AppGraph,
        changes: Vec<PeChange>,
    ) -> Result<SwapReport, RuntimeError> {
        let mut request_span = trace::span("request");
        request_span.arg("tenant", tenant);
        request_span.arg("op", "swap");
        let grid_arch = self.pool.grid_archs()[self.tenants[&tenant].lease.grid];
        let mut pricing_span = trace::span("pricing");
        let report = self.pricer.price_swap((grid_arch.rows, grid_arch.cols), &changes);
        pricing_span.arg("frames", report.frames());
        drop(pricing_span);
        let t = self.tenants.get_mut(&tenant).expect("caller verified the tenant is live");
        let cols = t.mapping.arch.cols;
        for ch in &changes {
            let (r, c) = (ch.cell.0 - t.lease.row0, ch.cell.1);
            t.mapping.pe_settings[r * cols + c] = Some(ch.new);
        }
        t.graph = new_graph;
        t.stats.swaps += 1;
        t.stats.swap_frames += report.frames();
        t.stats.swap_port_time += report.port_time;
        let lane = (t.lease.grid, t.lease.row0);
        self.cells.swaps.inc();
        self.cells.swap_frames.add(report.frames() as u64);
        self.cells.swap_port_ns.add(report.port_time.as_nanos() as u64);
        self.cells.swap_eval_ns.add(report.eval_time.as_nanos() as u64);
        // Dirty frames stream host→fabric like an admission does: the
        // swap takes a (short) exclusive slot on the configuration port.
        self.timeline.schedule(lane, Phase::Swap, Some(tenant), report.port_time);
        self.sync_ledger();
        Ok(report)
    }

    /// The structural decision point: a graph with the same structure as
    /// the tenant's current one takes the swap fast path; anything else
    /// releases the lease and recompiles (the tenant id survives). A
    /// still-queued tenant simply has its pending graph replaced.
    ///
    /// The refresh re-places *in place*: the tenant's freed rows are
    /// offered to its own recompile before the queue is drained (an
    /// in-place refresh would otherwise deadlock behind its own queue
    /// entry). If the new graph no longer fits, the tenant joins the
    /// queue tail ([`Refresh::Queued`]); if the recompile itself fails
    /// (too big / unroutable) the tenant is evicted — the old lease was
    /// already surrendered.
    pub fn resubmit(
        &mut self,
        tenant: TenantId,
        graph: AppGraph,
    ) -> Result<Refresh, RuntimeError> {
        refuse_empty(&graph)?;
        if !self.tenants.contains_key(&tenant) {
            // Queued tenant: replace the pending graph, keep the slot.
            if let Some(pos) = self.queue.iter().position(|p| p.tenant == tenant) {
                self.pool.fits_any_grid(graph.pe_demand())?;
                self.queue[pos].graph = graph;
                return Ok(Refresh::Queued(Queued { tenant, position: pos }));
            }
            return Err(RuntimeError::UnknownTenant(tenant));
        }
        let t = &self.tenants[&tenant];
        if t.graph.same_structure(&graph) {
            let coeffs = graph.coeff_values();
            return Ok(Refresh::Swapped(self.swap_params(tenant, &coeffs)?));
        }
        // Structural change: recompile under the same id.
        let name = t.name.clone();
        let stats = t.stats;
        self.pool.release(tenant);
        self.tenants.remove(&tenant);
        self.resident.retain(|_, &mut r| r != tenant);
        let refresh = match self.place_and_admit(tenant, &name, &graph) {
            Ok(admission) => {
                self.tenants
                    .get_mut(&tenant)
                    .expect("place_and_admit inserted the tenant")
                    .stats = stats;
                Refresh::Recompiled(admission)
            }
            Err(RuntimeError::Pool(PoolError::Oversubscribed { .. })) if self.cfg.queue => {
                Refresh::Queued(self.enqueue(tenant, name, graph))
            }
            Err(e) => {
                // The tenant is evicted but its rows are free now — the
                // queue must still get them.
                self.drain_queue();
                return Err(e);
            }
        };
        // A smaller replacement region may have freed rows for waiters.
        self.drain_queue();
        self.enforce_invariants()?;
        Ok(refresh)
    }

    /// Streams batched inputs through every requested tenant: each job
    /// is lowered to an [`ExecPlan`] and its items are spread over the
    /// engine workers; shared bands are charged their context switches.
    /// Drains the admission queue first, so capacity freed since the last
    /// call is never left idle (the drain's admissions are visible in the
    /// ledger and via [`Runtime::tenant`]).
    pub fn run(&mut self, requests: Vec<StreamRequest>) -> Result<Vec<TenantRun>, RuntimeError> {
        self.drain_queue();
        // Validate and lower every request before any worker starts, so
        // that a bad request or a broken mapping is an error here and
        // never a panic on an engine thread — and never a value whose
        // bits the columns would read in the wrong format. Jobs are
        // grouped by band.
        let mut by_band: BTreeMap<(usize, usize), Vec<Job>> = BTreeMap::new();
        for req in requests {
            let t = self.live(req.tenant)?;
            for item in &req.inputs {
                if item.len() != t.graph.num_inputs {
                    return Err(RuntimeError::BadInputArity {
                        expected: t.graph.num_inputs,
                        got: item.len(),
                    });
                }
                if let Some(v) = item.iter().find(|v| v.format != t.graph.format) {
                    return Err(RuntimeError::BadFormat { expected: t.graph.format, got: v.format });
                }
            }
            let plan = ExecPlan::lower(&t.mapping, &t.graph).map_err(|e| {
                RuntimeError::Invariant(format!("tenant {}: mapping does not lower: {e}", req.tenant))
            })?;
            by_band.entry((t.lease.grid, t.lease.row0)).or_default().push(Job {
                tenant: req.tenant,
                epoch: t.lease.epoch,
                plan,
                inputs: req.inputs,
            });
        }
        let mut next_resident: Vec<((usize, usize), TenantId)> = Vec::with_capacity(by_band.len());
        let mut bands: Vec<BandWork> = Vec::with_capacity(by_band.len());
        for ((grid, row0), mut jobs) in by_band {
            // Jobs follow the band's slot order.
            let slots = self.pool.band_tenants(grid, row0);
            jobs.sort_by_key(|j| slots.iter().position(|&t| t == j.tenant));
            let shared = slots.len() > 1;
            let region_pes = self.tenants[&jobs[0].tenant].lease.pe_count();
            // The first job pays a swap-in when another tenant's
            // configuration is resident, and the last job's
            // configuration stays resident.
            let swap_in_first = self
                .resident
                .get(&(grid, row0))
                .is_some_and(|&r| r != jobs[0].tenant);
            next_resident.push(((grid, row0), jobs.last().expect("band group is non-empty").tenant));
            bands.push(BandWork {
                shared,
                swap_in_first,
                switch_cost: self.pricer.full_config_cost(region_pes),
                jobs,
            });
        }
        let runs = run_bands(bands, self.cfg.workers, self.cfg.batch_size);
        self.resident.extend(next_resident);

        for run in &runs {
            let tenant = self
                .tenants
                .get_mut(&run.tenant)
                .expect("runs only cover tenants validated live above");
            let lane = (tenant.lease.grid, tenant.lease.row0);
            let stats = &mut tenant.stats;
            stats.items += run.items;
            stats.batches += run.batches;
            stats.exec_time += run.exec_time;
            stats.context_switches += run.context_switches;
            stats.switch_port_time += run.switch_port_time;
            self.cells.items.add(run.items as u64);
            self.cells.exec_ns.add(run.exec_time.as_nanos() as u64);
            self.cells.context_switches.add(run.context_switches as u64);
            self.cells.switch_port_ns.add(run.switch_port_time.as_nanos() as u64);
            // Onto the time axis: the swap-in context switch (a
            // grid-local replay of the tenant's resident image — it does
            // not touch the host→fabric port) followed by the measured
            // execution, both occupying only this band's lane. Other
            // bands' reconfigurations overlap this window freely — the
            // makespan vs summed-port-time gap the axis exists to model.
            if run.context_switches > 0 {
                self.timeline.schedule(lane, Phase::Switch, Some(run.tenant), run.switch_port_time);
            }
            self.timeline.schedule(lane, Phase::Execute, Some(run.tenant), run.exec_time);
            self.exec_hist.record_duration(run.exec_time);
        }
        self.sync_ledger();
        self.enforce_invariants()?;
        Ok(runs)
    }

    /// Releases a tenant's region (or cancels its queued admission), then
    /// drains the admission queue in FIFO order. Returns the admissions
    /// the freed capacity produced.
    pub fn release(&mut self, tenant: TenantId) -> Result<Vec<Admitted>, RuntimeError> {
        if let Some(pos) = self.queue.iter().position(|p| p.tenant == tenant) {
            self.queue.remove(pos);
            self.cells.queue_cancelled.inc();
            self.sync_ledger();
            // Cancelling the head may unblock everyone behind it.
            let admitted = self.drain_queue();
            self.enforce_invariants()?;
            return Ok(admitted);
        }
        self.tenants
            .remove(&tenant)
            .ok_or(RuntimeError::UnknownTenant(tenant))?;
        self.pool.release(tenant);
        self.resident.retain(|_, &mut r| r != tenant);
        let admitted = self.drain_queue();
        self.enforce_invariants()?;
        Ok(admitted)
    }

    /// Compacts every grid in the background, **between waves**: slides
    /// each grid's bands down to row 0 and schedules the displaced
    /// bands' configuration replays into the time axis's idle windows —
    /// each replay is a grid-local re-emit that overlaps the port and
    /// every other band, so between-wave compaction costs modeled port
    /// *charge* but (on an otherwise busy axis) little to no modeled
    /// *makespan*. Contrast with synchronous compaction at admission,
    /// where the newcomer's port stream queues behind nothing but still
    /// pays the placement wait.
    ///
    /// Returns the number of bands relocated. A defragmented pool means
    /// the next oversized admission carves a contiguous band without
    /// triggering its own relocations.
    pub fn compact_background(&mut self) -> Result<usize, RuntimeError> {
        let mut request_span = trace::span("request");
        request_span.arg("op", "compact_background");
        let mut moved = 0;
        for grid in 0..self.pool.grid_archs().len() {
            let relocations = self.pool.compact_grid(grid);
            moved += relocations.len();
            self.apply_relocations(&relocations);
        }
        request_span.arg("bands", moved);
        self.sync_ledger();
        self.enforce_invariants()?;
        Ok(moved)
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

    /// The metrics registry backing the ledger: `runtime.*` counters plus
    /// the `runtime.admit_ns` / `runtime.execute_ns` latency histograms.
    pub fn metrics(&self) -> &trace::Registry {
        &self.metrics
    }

    /// Snapshot tenant rows served from the memoized structural signature
    /// (one per live tenant per [`Runtime::snapshot`]).
    pub fn sig_memo_hits(&self) -> usize {
        self.sig_memo_hits.get()
    }

    /// Estimated audit host-seconds the signature memo saved: every memo
    /// hit would otherwise have paid one derivation, priced at the
    /// measured mean cost of the derivations actually performed at
    /// admission.
    pub fn sig_seconds_saved(&self) -> f64 {
        if self.ledger.sig_derivations == 0 {
            return 0.0;
        }
        let mean = self.ledger.sig_derive_time.as_secs_f64() / self.ledger.sig_derivations as f64;
        mean * self.sig_memo_hits.get() as f64
    }

    /// Fraction of pool rows currently leased.
    pub fn utilization(&self) -> f64 {
        self.pool.utilization()
    }

    /// Read access to the scheduler's band state (for reporting and
    /// invariant checks).
    pub fn pool(&self) -> &GridPool {
        &self.pool
    }

    /// The runtime's configuration.
    pub fn config(&self) -> &RuntimeConfig {
        &self.cfg
    }

    /// Exports the whole scheduler state as a plain-data snapshot for the
    /// `verify` crate's sched pass: grids, bands, leases, the admission
    /// queue, the resident map, the queue-flow ledger counters, and every
    /// cache entry. Tenant snapshots carry both the runtime's own cache-key
    /// fingerprint and an independently derived structural signature so
    /// the pass can prove key soundness without trusting `ConfigKey`.
    pub fn snapshot(&self) -> verify::SchedSnapshot {
        use verify::sched::{BandSnap, CacheEntrySnap, GridSnap, LedgerSnap, StructureSig, TenantSnap};
        let archs = self.pool.grid_archs();
        let cap = self.pool.channel_capacity();
        verify::SchedSnapshot {
            grids: archs
                .iter()
                .enumerate()
                .map(|(g, a)| GridSnap { rows: a.rows, cols: a.cols, free_rows: self.pool.free_rows(g) })
                .collect(),
            bands: self
                .pool
                .bands()
                .into_iter()
                .map(|b| BandSnap { grid: b.grid, row0: b.row0, rows: b.rows, tenants: b.tenants })
                .collect(),
            tenants: self
                .tenants
                .values()
                .map(|t| TenantSnap {
                    id: t.id,
                    grid: t.lease.grid,
                    row0: t.lease.row0,
                    rows: t.lease.rows,
                    cols: t.lease.cols,
                    shared: t.lease.shared,
                    demand: t.graph.pe_demand(),
                    region: (t.mapping.arch.rows, t.mapping.arch.cols),
                    placed_nodes: t.mapping.place.len(),
                    key_id: t.key.fingerprint(),
                    sig: {
                        // Served from the admission-time memo; a fresh
                        // derivation here would make every audited
                        // operation O(tenants × graph).
                        self.sig_memo_hits.set(self.sig_memo_hits.get() + 1);
                        debug_assert_eq!(
                            t.sig,
                            StructureSig::of(
                                t.mapping.arch.rows,
                                t.mapping.arch.cols,
                                cap,
                                &t.graph
                            ),
                            "memoized StructureSig went stale for tenant {}",
                            t.id
                        );
                        t.sig.clone()
                    },
                })
                .collect(),
            queue: self.queue.iter().map(|p| p.tenant).collect(),
            resident: self.resident.iter().map(|(&(g, r), &t)| (g, r, t)).collect(),
            ledger: LedgerSnap {
                // Read the registry cells, not the cached view: the view is
                // refreshed at the end of each mutating call, so mid-call
                // snapshots (invariant enforcement) would otherwise see
                // stale queue-flow counts.
                queued: self.cells.queued.get(),
                queue_admitted: self.cells.queue_admitted.get(),
                queue_dropped: self.cells.queue_dropped.get(),
                queue_cancelled: self.cells.queue_cancelled.get(),
            },
            cache: self
                .cache
                .entries()
                .map(|(k, cfg)| CacheEntrySnap {
                    key_id: k.fingerprint(),
                    region: k.region(),
                    mapping_region: (cfg.mapping.arch.rows, cfg.mapping.arch.cols),
                    key_nodes: k.node_count(),
                    placed_nodes: cfg.mapping.place.len(),
                })
                .collect(),
        }
    }

    /// Read access to the modeled time axis.
    pub fn timeline(&self) -> &Timeline {
        &self.timeline
    }

    /// Exports the time axis as a plain-data snapshot for the `verify`
    /// crate's timeline pass, carrying the ledger's summed port time so
    /// the pass can prove charge conservation without trusting either
    /// side.
    pub fn timeline_snapshot(&self) -> verify::TimelineSnapshot {
        verify::TimelineSnapshot {
            intervals: self
                .timeline
                .intervals()
                .iter()
                .map(|iv| verify::timeline::PhaseSnap {
                    lane: iv.lane,
                    phase: iv.phase.name(),
                    uses_port: iv.phase.uses_port(),
                    charged: iv.phase.charged(),
                    tenant: iv.tenant,
                    start_ns: iv.start.as_nanos() as u64,
                    dur_ns: iv.dur.as_nanos() as u64,
                })
                .collect(),
            makespan_ns: self.timeline.makespan().as_nanos() as u64,
            // Read the registry cells, not the cached view: mid-call
            // snapshots (invariant enforcement) must see the counters as
            // charged so far, like the sched snapshot does.
            ledger_port_ns: self.cells.admission_port_ns.get()
                + self.cells.swap_port_ns.get()
                + self.cells.switch_port_ns.get()
                + self.cells.compaction_port_ns.get(),
        }
    }

    /// Runs the scheduler-state verifier over [`Runtime::snapshot`].
    pub fn verify(&self) -> verify::VerifyReport {
        verify::Verifier::new().verify_sched(&self.snapshot())
    }

    /// Runs the timeline checker over [`Runtime::timeline_snapshot`]:
    /// port exclusivity, lane exclusivity, charge conservation.
    pub fn verify_timeline(&self) -> verify::VerifyReport {
        verify::Verifier::new().verify_timeline(&self.timeline_snapshot())
    }

    /// With `verify_on_admit` set, fails the enclosing operation when the
    /// sched pass or the timeline pass finds a violated invariant.
    fn enforce_invariants(&self) -> Result<(), RuntimeError> {
        if !self.cfg.verify_on_admit {
            return Ok(());
        }
        let mut violations = self.verify().violations;
        violations.extend(self.verify_timeline().violations);
        if violations.is_empty() {
            Ok(())
        } else {
            let details: Vec<String> =
                violations.iter().map(|v| format!("[{}] {v}", v.code())).collect();
            Err(RuntimeError::Invariant(details.join("; ")))
        }
    }
}
