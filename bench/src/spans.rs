//! The benchmark's own spans, recorded through the public `vcgra-trace`
//! API around each call into a layer, and the self-time accounting over
//! them. Only `bench.*` spans are read back: spans inside the program may
//! move in later changes, these may not.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

use trace::{Phase, TraceEvent};

static NEXT_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Guard of one `bench.<layer>.<call>` span.
#[must_use = "a span measures the scope it is alive for"]
pub struct BenchSpan {
    inner: Option<trace::Span>,
}

/// Opens a span named `bench.<layer>.<call>`, carrying its id, the id of
/// the enclosing bench span, and the request (visit, call or lifecycle
/// index) it belongs to. With tracing off this is one atomic load.
pub fn span(name: &'static str, request: u64) -> BenchSpan {
    if !trace::is_enabled() {
        return BenchSpan { inner: None };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = OPEN.with(|o| {
        let mut o = o.borrow_mut();
        let parent = o.last().copied().unwrap_or(0);
        o.push(id);
        parent
    });
    let mut inner = trace::span(name);
    inner.arg("id", id);
    inner.arg("parent", parent);
    inner.arg("request", request);
    BenchSpan { inner: Some(inner) }
}

impl Drop for BenchSpan {
    fn drop(&mut self) {
        if self.inner.is_some() {
            OPEN.with(|o| {
                o.borrow_mut().pop();
            });
        }
    }
}

/// Durations of every closed `bench.*` span, by name, in nanoseconds.
#[derive(Debug, Default)]
pub struct SpanTimes {
    /// Whole duration of each instance.
    pub total: BTreeMap<&'static str, Vec<f64>>,
    /// Duration minus the part covered by child `bench.*` spans.
    pub own: BTreeMap<&'static str, Vec<f64>>,
}

impl SpanTimes {
    /// Reads `bench.*` begin/end pairs out of a recorded event stream.
    pub fn of(events: &[TraceEvent]) -> Self {
        // (name, begin, time covered by children), one stack per thread.
        let mut stacks: BTreeMap<u64, Vec<(&'static str, u64, u64)>> = BTreeMap::new();
        let mut out = SpanTimes::default();
        for e in events.iter().filter(|e| e.name.starts_with("bench.")) {
            let stack = stacks.entry(e.tid).or_default();
            match e.phase {
                Phase::Begin => stack.push((e.name, e.ts_ns, 0)),
                Phase::End => {
                    let (name, begin, children) =
                        stack.pop().expect("bench span ended without a begin");
                    assert_eq!(name, e.name, "bench spans close in LIFO order");
                    let dur = e.ts_ns.saturating_sub(begin);
                    out.total.entry(name).or_default().push(dur as f64);
                    out.own
                        .entry(name)
                        .or_default()
                        .push(dur.saturating_sub(children) as f64);
                    if let Some(parent) = stack.last_mut() {
                        parent.2 += dur;
                    }
                }
                _ => {}
            }
        }
        out
    }

    /// Summed self time of a span name, in seconds.
    pub fn own_seconds(&self, name: &str) -> f64 {
        self.own
            .get(name)
            .map_or(0.0, |v| v.iter().sum::<f64>() / 1e9)
    }

    /// Summed duration of a span name, in seconds.
    pub fn total_seconds(&self, name: &str) -> f64 {
        self.total
            .get(name)
            .map_or(0.0, |v| v.iter().sum::<f64>() / 1e9)
    }

    /// Per-instance durations of a span name, in nanoseconds.
    pub fn durations(&self, name: &str) -> &[f64] {
        self.total.get(name).map_or(&[], Vec::as_slice)
    }
}

/// Stops recording, writes the benchmark's spans as a Chrome trace to
/// `bench/out/TRACE_<workload>.json`, and returns the span times. What the
/// program recorded inside them is dropped: on `shard_mixed` it is fifty
/// times the volume, and no figure here may depend on it.
pub fn finish(workload: &str) -> SpanTimes {
    trace::configure(trace::TraceConfig::Off);
    let mut events = trace::take_events();
    events.retain(|e| e.name.starts_with("bench."));
    let times = SpanTimes::of(&events);
    let dir = crate::out_dir();
    let path = dir.join(format!("TRACE_{workload}.json"));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, trace::to_chrome_json(&events)));
    match written {
        Ok(()) => eprintln!("wrote {} ({} events)", path.display(), events.len()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
    times
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &'static str, phase: Phase, ts_ns: u64) -> TraceEvent {
        TraceEvent {
            name,
            phase,
            ts_ns,
            tid: 1,
            args: Vec::new(),
        }
    }

    #[test]
    fn self_time_is_duration_minus_bench_children() {
        let events = vec![
            ev("bench.flow.param", Phase::Begin, 0),
            ev("bench.logic.sweep", Phase::Begin, 10),
            ev("mapping.cut", Phase::Begin, 12), // program span: ignored
            ev("mapping.cut", Phase::End, 18),
            ev("bench.logic.sweep", Phase::End, 30),
            ev("bench.par.place", Phase::Begin, 30),
            ev("bench.par.place", Phase::End, 90),
            ev("bench.flow.param", Phase::End, 100),
        ];
        let t = SpanTimes::of(&events);
        assert_eq!(t.durations("bench.logic.sweep"), &[20.0]);
        assert_eq!(t.own["bench.flow.param"], vec![20.0]);
        assert_eq!(t.total["bench.flow.param"], vec![100.0]);
        let own: f64 = t.own.values().flatten().sum();
        assert_eq!(own, 100.0, "self times add up to the root's duration");
        assert_eq!(t.own_seconds("bench.nothing"), 0.0);
    }
}
