//! `vcgra-trace` — zero-dependency observability for the VCGRA stack.
//!
//! Three layers, each usable on its own:
//!
//! - [`span()`] / [`Span`]: a global span recorder. Off by default and
//!   costing one branch per call site when off; when enabled with
//!   [`configure`]`(`[`TraceConfig::On`]`)`, nested spans with typed
//!   attributes are buffered and serialized as Chrome trace-event JSON
//!   by [`write_chrome_trace`] (loadable in Perfetto or
//!   `chrome://tracing`). Each `xbench` driver whose run opens spans
//!   exposes it as `--trace <path>`.
//! - [`Registry`]: named [`Counter`]s and log-linear-bucket
//!   [`Histogram`]s with p50/p99/max readout. The shard tier keeps
//!   one: its queue-wait, admit and execute histograms and its spill and
//!   reject counters. (The runtime keeps no registry: the host latency
//!   of an admission, a swap or a run is the trace span around it, and
//!   the `Ledger` holds the modeled port time and the counts.)
//! - [`json`]: a minimal JSON parser so the trace round-trip tests can
//!   consume this crate's output without any external dependency.
//!
//! Recording only observes — enabling tracing never changes computed
//! results (the par determinism suite proves routed trees are
//! bit-identical with tracing on and off).

#![forbid(unsafe_code)]
#![deny(unreachable_pub, clippy::dbg_macro, clippy::todo)]

mod chrome;
pub mod json;
pub mod metrics;
pub mod span;

pub use chrome::{to_chrome_json, write_chrome_trace};
pub use metrics::{Counter, Histogram, HistogramSnapshot, Registry};
pub use span::{
    configure, instant, is_enabled, span, take_events, AttrValue, Phase, Span, TraceConfig,
    TraceEvent,
};
