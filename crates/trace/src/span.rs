//! The span recorder: nested begin/end spans with typed attributes,
//! collected into a global buffer and serialized by
//! [`crate::write_chrome_trace`].
//!
//! Design constraints, in priority order:
//!
//! 1. **Cheap when disabled.** Every instrumentation site in a hot path
//!    (the router's wave loop, the mapper's cut enumeration) pays exactly
//!    one relaxed atomic load and one branch when tracing is off. No
//!    allocation, no lock, no timestamp.
//! 2. **Deterministic results.** Recording only *observes*: a span guard
//!    never feeds anything back into the computation it wraps, so
//!    enabling tracing cannot perturb routed results (the par
//!    determinism suite proves this bit-for-bit).
//! 3. **Thread-safe.** Spans opened on scoped worker threads land in the
//!    same buffer under their own thread id; begin/end pairs stay
//!    balanced per thread because guards drop in LIFO order.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Whether the global recorder accepts events.
///
/// `Off` is the default; every `span()` call then costs one relaxed
/// atomic load and one branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceConfig {
    #[default]
    Off,
    On,
}

/// A typed attribute value attached to a span or an instant.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    U64(u64),
    I64(i64),
    F64(f64),
    Bool(bool),
    Str(String),
}

impl From<u64> for AttrValue {
    fn from(v: u64) -> Self {
        AttrValue::U64(v)
    }
}
impl From<usize> for AttrValue {
    fn from(v: usize) -> Self {
        AttrValue::U64(v as u64)
    }
}
impl From<u32> for AttrValue {
    fn from(v: u32) -> Self {
        AttrValue::U64(u64::from(v))
    }
}
impl From<i64> for AttrValue {
    fn from(v: i64) -> Self {
        AttrValue::I64(v)
    }
}
impl From<f64> for AttrValue {
    fn from(v: f64) -> Self {
        AttrValue::F64(v)
    }
}
impl From<bool> for AttrValue {
    fn from(v: bool) -> Self {
        AttrValue::Bool(v)
    }
}
impl From<&str> for AttrValue {
    fn from(v: &str) -> Self {
        AttrValue::Str(v.to_string())
    }
}
impl From<String> for AttrValue {
    fn from(v: String) -> Self {
        AttrValue::Str(v)
    }
}

/// Chrome trace-event phase of a recorded event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Span begin (`"B"`).
    Begin,
    /// Span end (`"E"`).
    End,
    /// Point event (`"i"`).
    Instant,
}

impl Phase {
    pub fn as_str(self) -> &'static str {
        match self {
            Phase::Begin => "B",
            Phase::End => "E",
            Phase::Instant => "i",
        }
    }
}

/// One recorded event. Timestamps are nanoseconds since the recorder's
/// epoch (the first `configure(On)` of the process).
#[derive(Debug, Clone)]
pub struct TraceEvent {
    pub name: &'static str,
    pub phase: Phase,
    pub ts_ns: u64,
    pub tid: u64,
    pub args: Vec<(&'static str, AttrValue)>,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static EVENTS: Mutex<Vec<TraceEvent>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

/// Turn the global recorder on or off. Events recorded so far are kept
/// either way; drain them with [`take_events`].
pub fn configure(cfg: TraceConfig) {
    if cfg == TraceConfig::On {
        EPOCH.get_or_init(Instant::now);
    }
    ENABLED.store(cfg == TraceConfig::On, Ordering::Relaxed);
}

/// The one-branch fast path every instrumentation site starts with.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Drain and return every event recorded so far (in global record order).
pub fn take_events() -> Vec<TraceEvent> {
    std::mem::take(&mut *EVENTS.lock().expect("trace buffer poisoned"))
}

fn now_ns() -> u64 {
    // Saturates to the epoch if configure(On) was never called (events
    // are only recorded when armed, so this branch is never hot).
    EPOCH.get().map_or(0, |e| e.elapsed().as_nanos() as u64)
}

fn record(ev: TraceEvent) {
    EVENTS.lock().expect("trace buffer poisoned").push(ev);
}

/// RAII guard for one span: emits a `Begin` event on creation and the
/// matching `End` on drop. Attributes added with [`Span::arg`] ride on
/// the end event (Chrome/Perfetto merge begin- and end-args onto the
/// rendered slice), so values computed *inside* the span — net counts,
/// rip-ups, hit/miss — can still be attached.
#[must_use = "a span measures the scope it is alive for; dropping it immediately records nothing"]
pub struct Span {
    name: &'static str,
    armed: bool,
    end_args: Vec<(&'static str, AttrValue)>,
}

impl Span {
    /// Attach an attribute to this span (no-op when tracing is off).
    pub fn arg(&mut self, key: &'static str, value: impl Into<AttrValue>) {
        if self.armed {
            self.end_args.push((key, value.into()));
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.armed {
            record(TraceEvent {
                name: self.name,
                phase: Phase::End,
                ts_ns: now_ns(),
                tid: TID.with(|t| *t),
                args: std::mem::take(&mut self.end_args),
            });
        }
    }
}

/// Open a span. When tracing is off this is one atomic load, one branch,
/// and no allocation.
#[inline]
pub fn span(name: &'static str) -> Span {
    if !is_enabled() {
        return Span {
            name,
            armed: false,
            end_args: Vec::new(),
        };
    }
    record(TraceEvent {
        name,
        phase: Phase::Begin,
        ts_ns: now_ns(),
        tid: TID.with(|t| *t),
        args: Vec::new(),
    });
    Span {
        name,
        armed: true,
        end_args: Vec::new(),
    }
}

/// Record a point event with attributes. `args` runs only when tracing
/// is on, so a disabled instant builds and allocates nothing.
#[inline]
pub fn instant(name: &'static str, args: impl FnOnce() -> Vec<(&'static str, AttrValue)>) {
    if !is_enabled() {
        return;
    }
    record(TraceEvent {
        name,
        phase: Phase::Instant,
        ts_ns: now_ns(),
        tid: TID.with(|t| *t),
        args: args(),
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    // All span tests share the process-global recorder, so they run in
    // one #[test] body to avoid cross-talk under the parallel harness.
    #[test]
    fn spans_record_balanced_pairs_and_disabled_records_nothing() {
        configure(TraceConfig::Off);
        let _ = take_events();
        {
            let mut s = span("dead");
            s.arg("k", 1u64);
        }
        instant("dead", || {
            unreachable!("a disabled instant evaluates no args")
        });
        assert!(
            take_events().is_empty(),
            "disabled tracing must record nothing"
        );

        configure(TraceConfig::On);
        {
            let mut outer = span("outer");
            outer.arg("nets", 3usize);
            {
                let _inner = span("inner");
            }
            instant("point", || vec![("k", 7u64.into())]);
        }
        configure(TraceConfig::Off);
        let evs = take_events();
        let names: Vec<_> = evs.iter().map(|e| (e.name, e.phase)).collect();
        assert_eq!(
            names,
            vec![
                ("outer", Phase::Begin),
                ("inner", Phase::Begin),
                ("inner", Phase::End),
                ("point", Phase::Instant),
                ("outer", Phase::End),
            ]
        );
        // An armed instant carries what its closure built; end args carry
        // the value added mid-span.
        assert_eq!(evs[3].args, vec![("k", AttrValue::U64(7))]);
        assert_eq!(evs[4].args, vec![("nets", AttrValue::U64(3))]);
        // Same thread throughout; timestamps never run backwards.
        for w in evs.windows(2) {
            assert_eq!(w[0].tid, w[1].tid);
            assert!(w[0].ts_ns <= w[1].ts_ns);
        }
    }
}
