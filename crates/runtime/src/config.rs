//! Construction parameters and the runtime's error type.

use softfloat::{FpFormat, NotIn};
use vcgra::app::GraphError;
use vcgra::flow::FlowError;
use vcgra::VcgraArch;

use crate::pool::{PoolError, TenantId};

/// Runtime construction parameters. None of them is a check: the sched
/// and timeline passes run when a caller asks (`Runtime::verify_all`).
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// The grid pool (one overlay generation: equal channel capacity).
    pub grids: Vec<VcgraArch>,
    /// The most threads one `run` call may stream on, the caller's
    /// included. A call takes fewer when it has fewer 64-item units, or
    /// when the host's available parallelism is lower: threads beyond the
    /// host's cores would only take turns.
    pub workers: usize,
    /// Placement seed for cold compiles.
    pub place_seed: u64,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            grids: vec![VcgraArch::new(8, 4, 2), VcgraArch::new(8, 4, 2)],
            workers: 4,
            place_seed: 42,
        }
    }
}

/// Everything that can go wrong at the runtime surface. Each is a fault
/// of the call or of what it asks for; a broken scheduler invariant is
/// not among them — the verifier reports those to whoever runs it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuntimeError {
    /// The scheduler could not place the application.
    Pool(PoolError),
    /// The graph is malformed (`FlowError::Graph`: refused at the door,
    /// before a lease or a queue slot is taken, and counted in
    /// `Ledger::refused`; or a placed tenant's graph `run` cannot lower),
    /// or its compile failed on the leased region.
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
    /// submitted or lowered graph is not a value of the graph's format
    /// (`FpValue::bits_in`). A submitted one is refused at the door like
    /// any other malformed graph, and counted in `Ledger::refused`.
    BadValue {
        /// Format of the tenant's graph.
        format: FpFormat,
        /// Why the first offending value is not in it.
        why: NotIn,
    },
}

impl RuntimeError {
    /// What a malformed graph in `format` is called, at `submit` and at
    /// `run` alike: a coefficient not in the format is the
    /// [`RuntimeError::BadValue`] `swap_params` gives, and every other
    /// fault is `Flow(FlowError::Graph(_))`.
    pub(crate) fn malformed(format: FpFormat, e: GraphError) -> Self {
        match e {
            GraphError::CoeffFormat { why, .. } => RuntimeError::BadValue { format, why },
            e => RuntimeError::Flow(e.into()),
        }
    }
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::Pool(e) => write!(f, "placement failed: {e}"),
            RuntimeError::Flow(FlowError::Graph(e)) => write!(f, "malformed graph: {e}"),
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
            RuntimeError::BadValue { format, why } => write!(
                f,
                "graph computes in format ({}, {}) and got {why}",
                format.we, format.wf
            ),
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
