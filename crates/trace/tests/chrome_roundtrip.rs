//! Round-trip test for the Chrome trace-event writer: spans recorded
//! from several threads serialize to valid trace-event JSON with
//! balanced, LIFO-matched begin/end pairs and non-decreasing
//! timestamps per thread — the properties Perfetto and
//! `chrome://tracing` rely on to build slices.

use std::collections::HashMap;

use trace::json::JsonValue;
use trace::{configure, span, take_events, write_chrome_trace, TraceConfig};

// One #[test] body: the recorder is process-global, and the default
// harness runs sibling tests on concurrent threads.
#[test]
fn multithreaded_spans_round_trip_through_chrome_json() {
    configure(TraceConfig::On);
    let _ = take_events(); // isolate from any earlier recording

    std::thread::scope(|scope| {
        for worker in 0..4 {
            scope.spawn(move || {
                for i in 0..8 {
                    let mut outer = span("request");
                    outer.arg("worker", worker as u64);
                    {
                        let mut inner = span("par.wave");
                        inner.arg("nets", i as u64);
                        let _leaf = span("probe");
                    }
                }
            });
        }
    });
    {
        let mut main_span = span("serve");
        main_span.arg("note", "main-thread span with a \"quoted\" string");
    }
    configure(TraceConfig::Off);

    let path = std::env::temp_dir().join(format!("vcgra_trace_rt_{}.json", std::process::id()));
    let n = write_chrome_trace(&path).expect("trace file written");
    assert_eq!(n, 4 * 8 * 3 * 2 + 2, "every begin/end pair must be written");

    let text = std::fs::read_to_string(&path).expect("trace file readable");
    std::fs::remove_file(&path).ok();
    let doc = trace::json::parse(&text).expect("writer output must be valid JSON");

    let events = doc
        .get("traceEvents")
        .and_then(JsonValue::as_arr)
        .expect("top-level traceEvents array");
    assert_eq!(events.len(), n);

    // Per-thread begin/end stacks and timestamp monotonicity.
    let mut stacks: HashMap<u64, Vec<String>> = HashMap::new();
    let mut last_ts: HashMap<u64, f64> = HashMap::new();
    for ev in events {
        let name = ev
            .get("name")
            .and_then(JsonValue::as_str)
            .expect("name")
            .to_string();
        let ph = ev.get("ph").and_then(JsonValue::as_str).expect("ph");
        let ts = ev.get("ts").and_then(JsonValue::as_f64).expect("ts");
        let tid = ev.get("tid").and_then(JsonValue::as_f64).expect("tid") as u64;
        ev.get("pid").and_then(JsonValue::as_f64).expect("pid");

        let prev = last_ts.insert(tid, ts).unwrap_or(0.0);
        assert!(
            ts >= prev,
            "timestamps must be non-decreasing per thread ({prev} -> {ts})"
        );

        match ph {
            "B" => stacks.entry(tid).or_default().push(name),
            "E" => {
                let open = stacks.entry(tid).or_default().pop().unwrap_or_else(|| {
                    panic!("E event for {name:?} on tid {tid} with no open span")
                });
                assert_eq!(open, name, "begin/end pairs must match LIFO per thread");
            }
            other => panic!("unexpected phase {other:?} in span-only trace"),
        }
    }
    for (tid, stack) in &stacks {
        assert!(
            stack.is_empty(),
            "tid {tid} left unbalanced spans open: {stack:?}"
        );
    }

    // The span args survived the round trip.
    let serve_end = events
        .iter()
        .find(|e| {
            e.get("name").and_then(JsonValue::as_str) == Some("serve")
                && e.get("ph").and_then(JsonValue::as_str) == Some("E")
        })
        .expect("serve end event present");
    assert_eq!(
        serve_end
            .get("args")
            .and_then(|a| a.get("note"))
            .and_then(JsonValue::as_str),
        Some("main-thread span with a \"quoted\" string"),
    );
}
