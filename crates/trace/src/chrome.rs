//! Chrome trace-event serialization: turns the recorder's event buffer
//! into the JSON Array Format that `chrome://tracing` and
//! [Perfetto](https://ui.perfetto.dev) load directly.
//!
//! Format reference: the "Trace Event Format" document — each event is
//! an object with `name`, `ph` (phase), `ts` (microseconds, fractional
//! allowed), `pid`, `tid`, and optional `args`. Begin/end args are
//! merged onto the rendered slice by the viewer.

use std::fmt::Write as _;
use std::io;
use std::path::Path;

use crate::span::{take_events, AttrValue, Phase, TraceEvent};

/// Serialize events to a Chrome trace-event JSON document (an object
/// with a `traceEvents` array, the variant both viewers accept).
pub fn to_chrome_json(events: &[TraceEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 96 + 64);
    out.push_str("{\"traceEvents\":[\n");
    let pid = std::process::id();
    for (i, ev) in events.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let _ = write!(
            out,
            "{{\"name\":{},\"ph\":\"{}\",\"ts\":{:.3},\"pid\":{},\"tid\":{}",
            escape(ev.name),
            ev.phase.as_str(),
            ev.ts_ns as f64 / 1_000.0,
            pid,
            ev.tid
        );
        if ev.phase == Phase::Instant {
            // Thread-scoped instants; required by the format.
            out.push_str(",\"s\":\"t\"");
        }
        if !ev.args.is_empty() {
            out.push_str(",\"args\":{");
            for (j, (k, v)) in ev.args.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{}:{}", escape(k), render_attr(v));
            }
            out.push('}');
        }
        out.push('}');
    }
    out.push_str("\n]}\n");
    out
}

fn render_attr(v: &AttrValue) -> String {
    match v {
        AttrValue::U64(n) => n.to_string(),
        AttrValue::I64(n) => n.to_string(),
        AttrValue::F64(x) if x.is_finite() => {
            let mut s = format!("{x}");
            if !s.contains('.') && !s.contains('e') {
                s.push_str(".0");
            }
            s
        }
        AttrValue::F64(_) => "null".to_string(),
        AttrValue::Bool(b) => b.to_string(),
        AttrValue::Str(s) => escape(s),
    }
}

/// JSON string literal with the required escapes.
pub(crate) fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Drain the global recorder and write its events to `path` as Chrome
/// trace-event JSON. Returns the number of events written.
pub fn write_chrome_trace(path: impl AsRef<Path>) -> io::Result<usize> {
    let events = take_events();
    if let Some(dir) = path.as_ref().parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    std::fs::write(path, to_chrome_json(&events))?;
    Ok(events.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_and_renders_events() {
        let evs = vec![TraceEvent {
            name: "a\"b",
            phase: Phase::Begin,
            ts_ns: 1_500,
            tid: 3,
            args: vec![
                ("n", AttrValue::U64(7)),
                ("s", AttrValue::Str("x\ny".into())),
            ],
        }];
        let doc = to_chrome_json(&evs);
        assert!(doc.contains("\"name\":\"a\\\"b\""));
        assert!(doc.contains("\"ts\":1.500"));
        assert!(doc.contains("\"args\":{\"n\":7,\"s\":\"x\\ny\"}"));
        crate::json::parse(&doc).expect("writer output must be valid JSON");
    }
}
