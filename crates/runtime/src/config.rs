//! Construction parameters and the runtime's error type.

use softfloat::FpFormat;
use vcgra::flow::FlowError;
use vcgra::VcgraArch;

use crate::pool::{PoolError, TenantId};

/// Runtime construction parameters.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// The grid pool (one overlay generation: equal channel capacity).
    pub grids: Vec<VcgraArch>,
    /// Threads streaming execution may use, the caller's included.
    pub workers: usize,
    /// Placement seed for cold compiles.
    pub place_seed: u64,
    /// Run the sched and timeline passes after every operation that
    /// changes scheduler state or the time axis — `submit` (placed or
    /// queued), `swap_params`, `run`, `release` (of a live tenant or a
    /// queued one) and the queue drain `run` and `release` make — and
    /// fail it with [`RuntimeError::Invariant`] if any invariant is
    /// violated (the operation's effects stay). Off by default.
    pub verify_on_admit: bool,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            grids: vec![VcgraArch::new(8, 4, 2), VcgraArch::new(8, 4, 2)],
            workers: 4,
            place_seed: 42,
            verify_on_admit: false,
        }
    }
}

/// Everything that can go wrong at the runtime surface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuntimeError {
    /// The scheduler could not place the application.
    Pool(PoolError),
    /// The graph is malformed (`FlowError::Graph`: refused at the door,
    /// before a lease or a queue slot is taken, and counted in
    /// `Ledger::refused`), or its compile failed on the leased region.
    Flow(FlowError),
    /// Unknown tenant id.
    UnknownTenant(TenantId),
    /// The tenant is waiting in the admission queue — it has no lease
    /// yet, so it cannot run or swap.
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
    /// A stream input, a swapped-in coefficient or a coefficient of a
    /// submitted graph is not in the graph's floating-point format (the
    /// last is refused at the door like any other malformed graph, and
    /// counted in `Ledger::refused`).
    BadFormat {
        /// Format of the tenant's graph.
        expected: FpFormat,
        /// Format of the first offending value.
        got: FpFormat,
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
                write!(
                    f,
                    "parameter vector has {got} values, graph has {expected} slots"
                )
            }
            RuntimeError::BadInputArity { expected, got } => {
                write!(
                    f,
                    "input vector has {got} values, graph has {expected} inputs"
                )
            }
            RuntimeError::BadFormat { expected, got } => write!(
                f,
                "value in format ({}, {}), graph computes in ({}, {})",
                got.we, got.wf, expected.we, expected.wf
            ),
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
