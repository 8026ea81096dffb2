//! `vcgra-shard` — a sharded, cache-affine serving tier over
//! [`runtime`](../runtime/index.html).
//!
//! PR 5 measured warm admission ~270× cheaper than a cold compile: the
//! paper's economics (configuration is expensive to produce, cheap to
//! replay) only pay off at scale if many tenants are served
//! *concurrently*. `runtime::Runtime` is a single-threaded library driven
//! by one synchronous `submit` loop; this crate is the front-end that
//! turns it into a service:
//!
//! * [`ShardServer`] owns **N independent `Runtime` pools on
//!   worker threads** (one shard = one grid pool + one configuration
//!   cache + one FIFO request queue). Shards share nothing, so shard
//!   throughput scales with worker threads and every per-shard invariant
//!   the `verify` crate proves keeps holding verbatim.
//! * [`Router`] is the **admission router**: requests are routed
//!   by *cache affinity* — [`RouteKey`] hashes the graph's
//!   *structure* (the same coefficients-excluded identity the runtime's
//!   `ConfigKey` caches under), so structurally identical tenants land on
//!   the shard whose cache already holds their compile. When the affine
//!   shard's load runs ahead of the least-loaded shard by more than a
//!   configured margin, the request **spills** to the least-loaded shard
//!   (rebalancing costs at most one extra cold compile; stickiness keeps
//!   the warm-hit rate high). The load signal is the caller's own
//!   outstanding-ticket count, so routing is a pure function of the
//!   caller's submit/collect order — deterministic, never a wall clock.
//! * Per-shard queues are **bounded**: when a shard's queue is full,
//!   dispatch returns [`Reject::QueueFull`] to the caller —
//!   explicit backpressure, never a silent drop. Accepted work is never
//!   discarded; [`ShardServer::drain`] waits for every queue to
//!   empty (one request per shard, optionally re-proving its scheduler
//!   invariants) and returns each shard's ledger, cache counters and
//!   request count;
//!   [`ShardServer::shutdown`] joins the workers and returns
//!   each shard's closing verification.
//! * [`loadgen`] is a **seeded, deterministic load generator**: the whole
//!   workload (structures, coefficients, input streams, operation order)
//!   is synthesized up front from a `SplitMix64` seed with no wall-clock
//!   input, so two runs at one seed produce identical per-shard admission
//!   orders and a bit-identical output fingerprint — across shard counts,
//!   worker counts, and machines (`tests/bit_exact.rs` runs the matrix).
//!   The repo benchmark's `shard_mixed` workload (`bench/`) measures the
//!   tier's throughput and latency.
//!
//! Observability: the server's shared [`trace::Registry`] carries what
//! the repo benchmark reads — the `shard.spill`/`shard.reject` counters
//! (a spill counts once accepted, a refused one is a reject only; the
//! load generator reads its spills there) and the tier-wide
//! `shard.queue_wait_ns` / `shard.admit_ns` / `shard.execute_ns` latency
//! histograms; the span recorder sees a `shard.route` span per routing
//! decision (with its shard and whether it spilled) and a `shard.serve`
//! span per request on the worker (one per shard for a drain).
//!
//! Serving model in one table:
//!
//! | concern        | mechanism                                          |
//! |----------------|----------------------------------------------------|
//! | routing key    | structure hash (coefficients excluded), mod shards |
//! | load balancing | spill to least-loaded when imbalance ≥ margin      |
//! | backpressure   | bounded queue, `Reject::QueueFull` to the caller   |
//! | ordering       | FIFO per shard (admission order = dispatch order)  |
//! | drain          | barrier on empty queues + per-shard sched verify   |

#![forbid(unsafe_code)]
#![deny(unreachable_pub, clippy::dbg_macro, clippy::todo)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod loadgen;
mod route;
mod server;

pub use loadgen::{synthesize, LoadJob, LoadPlan, LoadReport, LoadSpec};
pub use route::{RouteKey, RoutePick, Router};
pub use server::{
    DrainError, Reject, ShardConfig, ShardFinal, ShardServer, ShardStats, ShardTenant, Ticket,
};
