//! The sharded front-end: N worker threads, each owning one [`Runtime`],
//! fed by bounded FIFO queues with explicit backpressure.
//!
//! Request flow: the caller holds a [`ShardServer`] (`&mut self` — one
//! dispatcher, the classic single-ingress front-end). Each operation is
//! routed (admissions by [`RouteKey`] affinity, tenant-addressed
//! operations to the tenant's home shard), wrapped in a typed request,
//! and `try_send`-ed into the target shard's **bounded** queue. A full
//! queue returns [`Reject::QueueFull`] immediately — the caller decides
//! whether to retry, shed, or redirect; the server never silently drops
//! accepted work. On success the caller gets a [`Ticket`]: a one-shot
//! receiver for that operation's typed reply. Admission tickets double
//! as the router's load signal — each open one counts one unit of
//! outstanding work against its shard, decremented exactly once at
//! [`Ticket::wait`] or drop.
//!
//! Workers drain their queue in strict FIFO order, so *per-shard
//! admission order equals dispatch order* — the property the seeded
//! load generator's determinism test pins down from the dispatcher's
//! side. Each worker records queue-wait / admit / execute latencies into
//! the tier's shared histograms and keeps no per-admission state.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use runtime::{
    Admission, Admitted, CacheStats, Ledger, Runtime, RuntimeConfig, RuntimeError, StreamRequest,
    SwapReport, TenantId, TenantRun,
};
use softfloat::FpValue;
use vcgra::app::AppGraph;

use crate::route::{RouteKey, RoutePick, Router};

/// Serving-tier construction parameters.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Number of shards (= worker threads = independent `Runtime`s).
    pub shards: usize,
    /// Per-shard runtime template (each shard gets its own clone, i.e.
    /// its own grid pool and configuration cache).
    pub runtime: RuntimeConfig,
    /// Bounded queue depth per shard; a full queue rejects with
    /// [`Reject::QueueFull`].
    pub queue_depth: usize,
    /// Router spill margin: divert from the affine shard when its
    /// outstanding load runs ahead of the least-loaded shard by at least
    /// this many tickets. `u64::MAX` disables spilling (pure affinity).
    pub spill_margin: u64,
}

impl ShardConfig {
    /// A config with `shards` shards and defaults everywhere else.
    pub fn new(shards: usize) -> Self {
        ShardConfig {
            shards,
            ..ShardConfig::default()
        }
    }
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            shards: 2,
            runtime: RuntimeConfig::default(),
            queue_depth: 64,
            spill_margin: 8,
        }
    }
}

/// Backpressure: why a dispatch was refused. The request was **not**
/// enqueued; retrying later (or shedding) is the caller's decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reject {
    /// The target shard's bounded queue is at capacity.
    QueueFull {
        /// The shard whose queue was full.
        shard: usize,
        /// The queue's (fixed) capacity.
        capacity: usize,
    },
}

impl fmt::Display for Reject {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Reject::QueueFull { shard, capacity } => {
                write!(
                    f,
                    "shard {shard} queue full ({capacity} requests outstanding)"
                )
            }
        }
    }
}

impl std::error::Error for Reject {}

/// A tenant's address in the tier: which shard owns it, and its id
/// *within that shard's runtime* (tenant ids are per-shard, not global).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ShardTenant {
    /// Owning shard.
    pub shard: usize,
    /// Tenant id inside that shard's `Runtime`.
    pub tenant: TenantId,
}

/// One-shot receiver for a dispatched operation's reply. An *admission*
/// ticket additionally counts one unit of outstanding load against its
/// shard until it settles — exactly once, at [`Ticket::wait`] or drop —
/// which is what makes the router's load signal a pure function of the
/// caller's own submit/collect order. Tickets for the other operations
/// carry no load (they follow an admission the router already charged).
#[derive(Debug)]
pub struct Ticket<T> {
    rx: Receiver<T>,
    /// The load unit this ticket holds, taken when it settles.
    load: Option<Arc<AtomicU64>>,
}

impl<T> Ticket<T> {
    /// Blocks until the worker replies, releasing the outstanding-load
    /// unit this ticket held.
    ///
    /// # Panics
    /// If the shard worker exited without replying (a worker panic —
    /// the tier's invariant is that accepted work is always answered).
    pub fn wait(mut self) -> T {
        let v = self
            .rx
            .recv()
            .expect("shard worker exited without replying");
        self.settle();
        v
    }

    fn settle(&mut self) {
        if let Some(load) = self.load.take() {
            load.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

impl<T> Drop for Ticket<T> {
    fn drop(&mut self) {
        self.settle();
    }
}

/// Point-in-time view of one shard (via [`ShardServer::stats`] or
/// [`ShardServer::drain`]). Because replies are FIFO with the work, a
/// stats reply proves every earlier request on that shard completed.
/// Four `Copy` fields and nothing per admission, so `Copy` itself.
#[derive(Debug, Clone, Copy)]
pub struct ShardStats {
    /// The shard.
    pub shard: usize,
    /// The shard runtime's cost ledger.
    pub ledger: Ledger,
    /// The shard's configuration-cache counters.
    pub cache: CacheStats,
    /// Requests this worker has processed, this stats request included.
    pub processed: u64,
}

/// A shard's final state, returned by [`ShardServer::shutdown`]: the
/// closing verification. Its counters are a [`ShardServer::drain`]'s to
/// read before the shutdown.
#[derive(Debug)]
pub struct ShardFinal {
    /// The shard.
    pub shard: usize,
    /// Closing scheduler-state verification of the shard's runtime.
    pub verify: verify::VerifyReport,
}

/// Why a drain failed. Accepted work still completed — drain only
/// reports, it never cancels.
#[derive(Debug)]
pub enum DrainError {
    /// A shard's scheduler-state verification found a violation.
    Invariant {
        /// The offending shard.
        shard: usize,
        /// The failing report (violations are non-empty).
        report: verify::VerifyReport,
    },
}

impl fmt::Display for DrainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DrainError::Invariant { shard, report } => {
                write!(f, "shard {shard} failed verification: {}", report.summary())
            }
        }
    }
}

impl std::error::Error for DrainError {}

/// Typed operations a worker serves. Every variant carries its own
/// reply channel, so callers get back exactly the type the underlying
/// `Runtime` method returns — no downcasting, no stringly results.
enum Op {
    Admit {
        name: String,
        graph: AppGraph,
        reply: Sender<Result<Admission, RuntimeError>>,
    },
    Swap {
        tenant: TenantId,
        coeffs: Vec<FpValue>,
        reply: Sender<Result<SwapReport, RuntimeError>>,
    },
    Run {
        requests: Vec<StreamRequest>,
        reply: Sender<Result<Vec<TenantRun>, RuntimeError>>,
    },
    Release {
        tenant: TenantId,
        reply: Sender<Result<Vec<Admitted>, RuntimeError>>,
    },
    /// A stats snapshot, which is also a drain's one request per shard:
    /// given a `verify` channel, the worker verifies its runtime and sends
    /// the report there before it replies with the stats.
    Stats {
        verify: Option<Sender<verify::VerifyReport>>,
        reply: Sender<ShardStats>,
    },
    /// Blocks the worker: it says so on `held`, then waits until the test
    /// drops the sender of `release`.
    #[cfg(test)]
    Hold {
        held: Sender<()>,
        release: Receiver<()>,
    },
}

impl Op {
    fn kind(&self) -> &'static str {
        match self {
            Op::Admit { .. } => "admit",
            Op::Swap { .. } => "swap",
            Op::Run { .. } => "run",
            Op::Release { .. } => "release",
            Op::Stats { .. } => "stats",
            #[cfg(test)]
            Op::Hold { .. } => "hold",
        }
    }
}

struct Request {
    id: u64,
    enqueued: Instant,
    op: Op,
}

/// The serving tier: router + bounded queues + worker threads.
pub struct ShardServer {
    router: Router,
    queues: Vec<SyncSender<Request>>,
    workers: Vec<JoinHandle<ShardFinal>>,
    registry: Arc<trace::Registry>,
    queue_depth: usize,
    next_id: u64,
    /// Admissions dispatched per shard. Because each shard serves its
    /// queue FIFO and its `Runtime` assigns tenant ids in arrival order
    /// starting at 0, the k-th admission dispatched to a shard is tenant
    /// k — so [`ShardServer::submit`] can name the tenant at dispatch
    /// time, before the worker replies, and callers can pipeline a
    /// tenant's whole lifecycle without a round-trip per step.
    submitted: Vec<u64>,
    spilled: trace::Counter,
    rejected: trace::Counter,
}

impl ShardServer {
    /// Starts `cfg.shards` workers, each owning a fresh `Runtime` built
    /// from the config's runtime template. Each runtime is built here,
    /// before its worker starts, so a template `Runtime::new` refuses (no
    /// grids, mixed channel capacities) panics in the caller, not in a
    /// worker.
    pub fn start(cfg: ShardConfig) -> Self {
        assert!(cfg.shards > 0, "serving tier needs at least one shard");
        assert!(cfg.queue_depth > 0, "queue depth must be positive");
        let registry = Arc::new(trace::Registry::new());
        let mut queues = Vec::with_capacity(cfg.shards);
        let mut workers = Vec::with_capacity(cfg.shards);
        for shard in 0..cfg.shards {
            let (tx, rx) = std::sync::mpsc::sync_channel::<Request>(cfg.queue_depth);
            let rt = Runtime::new(cfg.runtime.clone());
            let reg = Arc::clone(&registry);
            let handle = std::thread::Builder::new()
                .name(format!("shard-{shard}"))
                .spawn(move || worker_loop(shard, rx, rt, &reg))
                .expect("spawn shard worker");
            queues.push(tx);
            workers.push(handle);
        }
        ShardServer {
            router: Router::new(cfg.shards, cfg.spill_margin),
            queues,
            workers,
            spilled: registry.counter("shard.spill"),
            rejected: registry.counter("shard.reject"),
            registry,
            queue_depth: cfg.queue_depth,
            next_id: 0,
            submitted: vec![0; cfg.shards],
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.queues.len()
    }

    /// The tier's metrics registry: the `shard.spill` and `shard.reject`
    /// counters, and the `shard.queue_wait_ns` / `shard.admit_ns` /
    /// `shard.execute_ns` histograms the workers record into.
    pub fn metrics(&self) -> &trace::Registry {
        &self.registry
    }

    /// Routes and dispatches an admission. Returns the tenant's address
    /// (shard + the tenant id the shard's runtime will assign — known at
    /// dispatch time, see [`ShardServer::submit`]'s field note on
    /// `submitted`), why the shard was chosen, and a ticket for the
    /// admission report — or [`Reject::QueueFull`] if the chosen shard's
    /// queue is at capacity (nothing was enqueued and no spill counted;
    /// the route decision itself has no side effect on load, so an
    /// immediate retry targets the same shard).
    #[allow(clippy::type_complexity)]
    pub fn submit(
        &mut self,
        name: impl Into<String>,
        graph: AppGraph,
    ) -> Result<
        (
            ShardTenant,
            RoutePick,
            Ticket<Result<Admission, RuntimeError>>,
        ),
        Reject,
    > {
        let key = RouteKey::of(&graph);
        let (shard, pick) = self.router.route(key);
        let mut span = trace::span("shard.route");
        span.arg("key", key.hash());
        span.arg("shard", shard as u64);
        span.arg("spilled", matches!(pick, RoutePick::Spilled { .. }));
        let ticket = self.dispatch(shard, OnFull::Refuse, |reply| Op::Admit {
            name: name.into(),
            graph,
            reply,
        })?;
        // Counted once accepted: a refused spill is a `shard.reject`.
        if let RoutePick::Spilled { from } = pick {
            self.spilled.inc();
            trace::instant("shard.spill", || {
                vec![
                    ("from", (from as u64).into()),
                    ("to", (shard as u64).into()),
                ]
            });
        }
        let tenant = self.submitted[shard];
        self.submitted[shard] += 1;
        Ok((ShardTenant { shard, tenant }, pick, ticket))
    }

    /// Dispatches a parameter swap to the tenant's home shard.
    pub fn swap_params(
        &mut self,
        at: ShardTenant,
        coeffs: Vec<FpValue>,
    ) -> Result<Ticket<Result<SwapReport, RuntimeError>>, Reject> {
        self.dispatch(at.shard, OnFull::Refuse, |reply| Op::Swap {
            tenant: at.tenant,
            coeffs,
            reply,
        })
    }

    /// Dispatches a streaming run to one shard. The requests' tenant ids
    /// are per-shard — they must all belong to `shard`.
    #[allow(clippy::type_complexity)]
    pub fn run(
        &mut self,
        shard: usize,
        requests: Vec<StreamRequest>,
    ) -> Result<Ticket<Result<Vec<TenantRun>, RuntimeError>>, Reject> {
        self.dispatch(shard, OnFull::Refuse, |reply| Op::Run { requests, reply })
    }

    /// Dispatches a release of one tenant (or cancellation of its queued
    /// admission) to its home shard.
    #[allow(clippy::type_complexity)]
    pub fn release(
        &mut self,
        at: ShardTenant,
    ) -> Result<Ticket<Result<Vec<Admitted>, RuntimeError>>, Reject> {
        self.dispatch(at.shard, OnFull::Refuse, |reply| Op::Release {
            tenant: at.tenant,
            reply,
        })
    }

    /// Dispatches a stats snapshot request to one shard.
    pub fn stats(&mut self, shard: usize) -> Result<Ticket<ShardStats>, Reject> {
        self.dispatch(shard, OnFull::Refuse, |reply| Op::Stats {
            verify: None,
            reply,
        })
    }

    /// Waits until every shard has served everything dispatched before
    /// this call (replies are FIFO with the work, so one synchronous
    /// round-trip per shard is a completion barrier). With `verify`, each
    /// shard runs the scheduler-state checker in the same request, and
    /// the drain fails on the first [`verify::Violation`] — the check the
    /// soak runs every wave. Either way a drain is one request per shard.
    /// A drain waits for queue space, so it is never rejected.
    pub fn drain(&mut self, verify: bool) -> Result<Vec<ShardStats>, DrainError> {
        let mut out = Vec::with_capacity(self.shards());
        for shard in 0..self.shards() {
            let (report_tx, report_rx) = channel();
            let stats = self
                .dispatch(shard, OnFull::Wait, |reply| Op::Stats {
                    verify: verify.then_some(report_tx),
                    reply,
                })
                .expect("a waiting dispatch is never refused")
                .wait();
            // A requested report was sent before the stats.
            if let Some(report) = report_rx.try_recv().ok().filter(|r| !r.ok()) {
                return Err(DrainError::Invariant { shard, report });
            }
            out.push(stats);
        }
        Ok(out)
    }

    /// Graceful shutdown: closes every queue, joins every worker, and
    /// returns each shard's closing verification of its runtime. Work
    /// already accepted completes first.
    pub fn shutdown(self) -> Vec<ShardFinal> {
        let ShardServer {
            queues, workers, ..
        } = self;
        drop(queues);
        workers
            .into_iter()
            .map(|w| w.join().expect("shard worker panicked"))
            .collect()
    }

    /// The one dispatch path: makes the reply channel, builds the op
    /// around its sender and enqueues it on `shard`. A full queue refuses
    /// it without side effects, or, `OnFull::Wait`, is waited on. Request
    /// ids advance only on acceptance, so a rejected-then-retried
    /// operation keeps one id. An admission's ticket charges one unit of
    /// outstanding load to `shard` until it settles; any other op's
    /// carries none (the admission already charged its shard).
    fn dispatch<T>(
        &mut self,
        shard: usize,
        on_full: OnFull,
        op: impl FnOnce(Sender<T>) -> Op,
    ) -> Result<Ticket<T>, Reject> {
        let (reply, rx) = channel();
        let op = op(reply);
        let (kind, admits) = (op.kind(), matches!(op, Op::Admit { .. }));
        let req = Request {
            id: self.next_id,
            enqueued: Instant::now(),
            op,
        };
        let sent = match on_full {
            OnFull::Refuse => self.queues[shard].try_send(req),
            OnFull::Wait => self.queues[shard]
                .send(req)
                .map_err(|e| TrySendError::Disconnected(e.0)),
        };
        match sent {
            Ok(()) => self.next_id += 1,
            Err(TrySendError::Full(_)) => {
                self.rejected.inc();
                trace::instant("shard.reject", || {
                    vec![("shard", (shard as u64).into()), ("op", kind.into())]
                });
                return Err(Reject::QueueFull {
                    shard,
                    capacity: self.queue_depth,
                });
            }
            Err(TrySendError::Disconnected(_)) => {
                panic!("shard {shard} worker exited while the server was live")
            }
        }
        let load = admits.then(|| {
            let load = self.router.load_cell(shard);
            load.fetch_add(1, Ordering::SeqCst);
            load
        });
        Ok(Ticket { rx, load })
    }
}

/// What a dispatch does when its shard's queue is full.
#[derive(Clone, Copy)]
enum OnFull {
    /// Refuse with [`Reject::QueueFull`]: every caller-facing dispatch.
    Refuse,
    /// Wait for space: a drain, which is never refused.
    Wait,
}

/// One shard's worker: owns the runtime, serves its queue FIFO, records
/// latency into the shared registry, and verifies its runtime one last
/// time when the server closes the queue.
fn worker_loop(
    shard: usize,
    rx: Receiver<Request>,
    mut rt: Runtime,
    registry: &trace::Registry,
) -> ShardFinal {
    let queue_wait = registry.histogram("shard.queue_wait_ns");
    let admit_ns = registry.histogram("shard.admit_ns");
    let execute_ns = registry.histogram("shard.execute_ns");
    let mut processed = 0u64;
    while let Ok(req) = rx.recv() {
        let wait = req.enqueued.elapsed();
        queue_wait.record_duration(wait);
        trace::instant("shard.queue_wait", || {
            vec![
                ("shard", (shard as u64).into()),
                ("id", req.id.into()),
                ("wait_ns", (wait.as_nanos() as u64).into()),
            ]
        });
        let mut span = trace::span("shard.serve");
        span.arg("shard", shard as u64);
        span.arg("id", req.id);
        span.arg("op", req.op.kind());
        match req.op {
            Op::Admit { name, graph, reply } => {
                let t0 = Instant::now();
                let result = rt.submit(name, graph);
                admit_ns.record_duration(t0.elapsed());
                let _ = reply.send(result);
            }
            Op::Swap {
                tenant,
                coeffs,
                reply,
            } => {
                let t0 = Instant::now();
                let result = rt.swap_params(tenant, &coeffs);
                admit_ns.record_duration(t0.elapsed());
                let _ = reply.send(result);
            }
            Op::Run { requests, reply } => {
                let t0 = Instant::now();
                let result = rt.run(requests);
                execute_ns.record_duration(t0.elapsed());
                let _ = reply.send(result);
            }
            Op::Release { tenant, reply } => {
                let _ = reply.send(rt.release(tenant));
            }
            Op::Stats { verify, reply } => {
                if let Some(verify) = verify {
                    let _ = verify.send(rt.verify_all());
                }
                let _ = reply.send(ShardStats {
                    shard,
                    ledger: *rt.ledger(),
                    cache: rt.cache_stats(),
                    processed: processed + 1,
                });
            }
            #[cfg(test)]
            Op::Hold { held, release } => {
                let _ = held.send(());
                let _ = release.recv();
            }
        }
        processed += 1;
    }
    // Queue closed: graceful shutdown. Verify the runtime one last time
    // so every shard's invariants are proven at the moment it stops.
    ShardFinal {
        shard,
        verify: rt.verify_all(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RouteKey;
    use softfloat::FpFormat;

    const F: FpFormat = FpFormat::PAPER;

    /// Blocks `shard`'s worker, idle queue behind it, until the returned
    /// sender is dropped.
    fn hold(server: &mut ShardServer, shard: usize) -> Sender<()> {
        let (release, on_release) = channel();
        server
            .dispatch(shard, OnFull::Refuse, |held| Op::Hold {
                held,
                release: on_release,
            })
            .expect("idle queue")
            .wait();
        release
    }

    /// A drain behind a full queue waits for space: it is never a reject.
    #[test]
    fn a_drain_waits_for_a_full_queue() {
        let mut server = ShardServer::start(ShardConfig {
            queue_depth: 1,
            ..ShardConfig::new(1)
        });
        let hold = hold(&mut server, 0);
        let queued = server.stats(0).expect("the one free slot");
        assert!(server.stats(0).is_err(), "the queue is full");
        let rejects = server.metrics().counter_value("shard.reject");
        let releaser = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(50));
            drop(hold);
        });
        let drained = server.drain(false).expect("nothing to verify");
        releaser.join().expect("the releasing thread");
        assert_eq!(
            server.metrics().counter_value("shard.reject"),
            rejects,
            "the drain was not refused"
        );
        // Hold, the queued stats, then the drain's.
        assert_eq!(queued.wait().processed, 2, "the queued op was served");
        assert_eq!(drained[0].processed, 3);
        server.shutdown();
    }

    /// A refused admission is a reject only: it is not counted as a spill.
    #[test]
    fn a_spill_the_full_queue_refuses_is_counted_as_a_reject_only() {
        let mut server = ShardServer::start(ShardConfig {
            queue_depth: 1,
            spill_margin: 1,
            ..ShardConfig::new(2)
        });
        // Dot products of growing length until one is affine to the other
        // shard: the one-tap product's `busy` shard is held, and the other
        // structure's `home` holds an open admission ticket.
        let graph = |n: usize| AppGraph::dot_product(F, &vec![0.5; n]);
        let affine = |n: usize| RouteKey::of(&graph(n)).shard(2);
        let taps = (2..)
            .find(|&n| affine(n) != affine(1))
            .expect("both shards");
        let (busy, home) = (affine(1), affine(taps));

        let (at, _, ticket) = server.submit("busy", graph(1)).expect("idle tier");
        ticket.wait().expect("admit");
        // The busy worker waits on a hold while a 2^18-item run takes the
        // one slot of its queue.
        let hold = hold(&mut server, busy);
        let inputs = vec![vec![FpValue::from_f64(0.75, F)]; 1 << 18];
        let run = server
            .run(
                busy,
                vec![StreamRequest {
                    tenant: at.tenant,
                    inputs,
                }],
            )
            .expect("idle queue");
        let (_, pick, held) = server.submit("held", graph(taps)).expect("idle queue");
        assert_eq!(pick, RoutePick::Affinity);

        // `home` runs one ticket ahead, so the structure spills to the full
        // busy shard, which refuses it.
        let refused = server.submit("spilled", graph(taps));
        assert_eq!(
            refused.err(),
            Some(Reject::QueueFull {
                shard: busy,
                capacity: 1
            })
        );
        let spills = |server: &ShardServer| server.metrics().counter_value("shard.spill");
        assert_eq!(spills(&server), 0, "a refused spill is not a spill");
        assert!(server.metrics().counter_value("shard.reject") >= 1);

        // Retried until the busy shard takes it: one spill, however many tries.
        drop(hold);
        let (at, pick, ticket) = loop {
            match server.submit("spilled", graph(taps)) {
                Ok(accepted) => break accepted,
                Err(Reject::QueueFull { .. }) => {
                    std::thread::sleep(std::time::Duration::from_micros(50))
                }
            }
        };
        assert_eq!((at.shard, pick), (busy, RoutePick::Spilled { from: home }));
        assert_eq!(spills(&server), 1);

        assert_eq!(run.wait().expect("run")[0].outputs.len(), 1 << 18);
        held.wait().expect("admit");
        ticket.wait().expect("admit");
        for fin in server.shutdown() {
            assert!(fin.verify.ok());
        }
    }
}
