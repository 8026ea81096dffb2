//! `vcgra-runtime` — a multi-tenant overlay runtime for the fully
//! parameterized VCGRA.
//!
//! The paper's value proposition is that a parameterized overlay turns an
//! application change into millisecond-scale **micro-reconfiguration**
//! instead of a full place-and-route. This crate is the layer that
//! *serves* that proposition: concurrent applications submit dataflow
//! graphs, the runtime compiles each structure **once**, and every
//! subsequent parameter-only change (new filter coefficients) is a
//! settings rewrite priced at exactly its dirty configuration frames.
//! Its public operations are the four a serving caller dispatches:
//! `submit`, `swap_params`, `run` and `release`.
//!
//! Architecture (each piece has its own module):
//!
//! * `cache` (private) — the **specialized-configuration cache**, keyed by
//!   *(region architecture, graph structure)* with coefficient values
//!   excluded, LRU-evicted. Hits skip `map_app` entirely; misses compile
//!   and populate. An entry is placement and routes, with no coefficient
//!   in it, so every tenant of its key holds the same `Arc`.
//! * `pricer` (private) — micro-reconfiguration pricing via the real DCS
//!   path: the (4,6) PE's PPC, mapped offline and checked in as a table
//!   (`xbench`'s `pricer_table` writes it), rebuilt into one `dcs::Scg`
//!   per process on the first swap and shared by every runtime and shard,
//!   evaluates PPC Boolean functions — every changed PE of a swap as two
//!   lanes of one bottom-up sweep — and diffs dirty datapath frames,
//!   while `fabric::frames::FrameModel::for_grid` addresses the overlay's
//!   settings-register plane (column stripes share frames). Costs are
//!   anchored on the paper's 251 ms-per-PE HWICAP estimate; each swap's
//!   price is a [`SwapReport`].
//! * [`pool`] — the **grid-pool scheduler**: tenants lease full-width row
//!   bands through one allocator, [`GridPool::allocate`], whose ordered
//!   policy is the whole admission policy. A grid with a free run of the
//!   needed rows gets a dedicated band — placement is **cache-aware**:
//!   among such grids the runtime prefers one whose region shape is
//!   already warm in the configuration cache, so a mixed-width pool
//!   compiles each structure once, not once per width. When the free rows
//!   are fragmented, **band compaction** slides bands down (reported as
//!   [`pool::Relocation`]s, replayed and charged by the runtime, each a
//!   `Replay` interval on the time axis); a tenant's lease is whatever
//!   band lists it ([`GridPool::lease`]); when the rows are not there,
//!   admission time-multiplexes the least-crowded band tall enough, and each
//!   context switch is charged a full-region reconfig; when no band is
//!   tall enough either, the runtime parks the submission in a FIFO
//!   **admission queue** drained on release. None of these steps is an
//!   option.
//! * `engine` (private) — **batched streaming execution**, and nothing
//!   else: every job's graph is lowered once per `run` call to a
//!   flat `vcgra::sim::ExecPlan` and cut into units of 64 items, which
//!   the worker threads — no more than the host runs at once — take off
//!   one lock in order, in grabs of consecutive units that shrink from a
//!   share of what is left to single units; a unit runs
//!   lane-major and in place, its items checked while they become the
//!   lanes of `u64` columns, each op of the plan sweeping a column in one
//!   `softfloat::FpKernel` call, and each item's vector overwritten with
//!   its outputs. The engine reports only the first item it could not
//!   read; it times nothing, and knows no band, slot or switch.
//!   The plan is bit-exact with the per-item reference
//!   `vcgra::sim::run_dataflow` in FloPoCo arithmetic, and a value in
//!   another format, or with bits above its format's width, is refused,
//!   never read as other bits.
//! * [`kernels`] — the workload library (FIR, separable 2-D stencil,
//!   tiled matrix–vector, tree reduction, vessel-segmentation stages) and
//!   [`kernels::convolve_served`], which runs the retina pipeline's
//!   convolutions on a runtime, one parameter swap per kernel row.
//! * `runtime` — [`Runtime`], the orchestrator tying it together.
//!   [`Runtime::run`] is the one place a swap-in is decided and booked: it
//!   walks each band's slots once, and a slot is charged a context switch
//!   when the configuration loaded before it is another tenant's — the previous
//!   slot's, or for the first slot the band's [`BandInfo::resident`],
//!   which is nobody's once that tenant has left (its successor pays a
//!   swap-in too). Beside it is the
//!   [`Ledger`] that accumulates counts and modeled configuration-port
//!   time: plain state the runtime mutates in place, and the one owner
//!   of the modeled totals, written by the one call that also schedules
//!   each charge on the time axis. It holds no host time — the host
//!   latency of an admission, a swap or a run is the trace span around
//!   it. A
//!   graph that is malformed or that no region can be compiled for is a
//!   typed [`RuntimeError::Flow`], never a panic: a graph `run` could not
//!   lower (`AppGraph::validate`) is refused by `submit` before a lease
//!   or a queue slot is taken and counted in
//!   [`Ledger::refused`]; a compile that fails surrenders its lease.
//! * [`timeline`] — the modeled **time axis**, a pure scheduler: every
//!   charge scheduled as an interval on its band's lane, host→fabric
//!   phases serialized on the one configuration port, grid-local replays
//!   (context switches, compaction) overlapping everything else.
//!   Execution has no interval, so the axis is a function of the
//!   operation sequence alone — the same on any host, at any worker
//!   count. It keeps lane cursors, the port cursor and a bounded window
//!   of recent intervals ([`timeline::WINDOW`]), and no total: the
//!   totals are the [`Ledger`]'s — [`Ledger::modeled_makespan`], where
//!   the last interval ends and below the serialized `total_port_time()`
//!   whenever some phase overlaps another, and the monotone
//!   [`Ledger::overlap_saved`].
//!
//! Fast path vs. recompile, in one table:
//!
//! | change                              | path                           |
//! |-------------------------------------|--------------------------------|
//! | new coefficients, same structure    | cache hit → dirty-frame swap   |
//! | same structure, new tenant          | cache hit → shared compile     |
//! | new structure / region shape        | full `map_app` compile, cached |
//!
//! `examples/quickstart.rs` is the smallest driver; the repo benchmark
//! (`bench/`) measures the serve and compile paths; the integration tests
//! pin the runtime's outputs bit-for-bit to `vcgra::sim::run_dataflow`.
//!
//! **Verification.** [`Runtime::snapshot`] exports the whole
//! scheduler state as plain data for the `verify` crate's sched pass
//! (lease/band disjointness, queue/ledger reconciliation, cache-key
//! soundness), and
//! [`Runtime::timeline_snapshot`] exports the time axis's window for the
//! timeline pass (port exclusivity and lane exclusivity, re-proved by a
//! sort and sweep against the cursors that scheduled it).
//! [`Runtime::verify_all`] runs both. Verification is the caller's: no
//! operation runs a pass or keeps anything derived for one, so a
//! tenant's structural signature is derived per snapshot.

#![forbid(unsafe_code)]
#![deny(unreachable_pub, clippy::dbg_macro, clippy::todo)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod admission;
mod cache;
mod config;
mod engine;
pub mod kernels;
mod ledger;
mod params;
pub mod pool;
mod pricer;
mod runtime;
mod snapshot;
pub mod timeline;

pub use cache::{CacheStats, ConfigKey};
pub use kernels::Workload;
pub use pool::{BandInfo, GridPool, Lease, PoolError, Relocation, TenantId};
pub use pricer::SwapReport;
pub use runtime::{
    Admission, Admitted, Ledger, Queued, Runtime, RuntimeConfig, RuntimeError, StreamRequest,
    Tenant, TenantRun,
};
pub use timeline::{Interval, Phase, Timeline};
