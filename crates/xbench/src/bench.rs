//! Shared schema for the machine-readable `BENCH_*.json` records.
//!
//! Every driver that writes a benchmark record builds it through
//! [`BenchRecord`], so all records carry the same provenance header:
//!
//! ```json
//! {
//!   "schema_version": 1,
//!   "bench": "table1",
//!   "provenance": {"git_rev": "…", "host": "…", "profile": "release", "threads": 8},
//!   …driver fields…
//! }
//! ```

use std::io;
use std::path::Path;

/// Version of the record envelope. Bump when the provenance header or
/// the envelope shape changes.
pub const SCHEMA_VERSION: u64 = 1;

/// One field value in a benchmark record.
pub enum Field {
    U64(u64),
    F64(f64),
    Bool(bool),
    Str(String),
    /// Pre-rendered JSON spliced in verbatim — for nested objects and
    /// arrays the driver formats itself (flows, sweeps).
    Raw(String),
}

impl From<u64> for Field {
    fn from(v: u64) -> Self {
        Field::U64(v)
    }
}
impl From<usize> for Field {
    fn from(v: usize) -> Self {
        Field::U64(v as u64)
    }
}
impl From<f64> for Field {
    fn from(v: f64) -> Self {
        Field::F64(v)
    }
}
impl From<bool> for Field {
    fn from(v: bool) -> Self {
        Field::Bool(v)
    }
}
impl From<&str> for Field {
    fn from(v: &str) -> Self {
        Field::Str(v.to_string())
    }
}
impl From<String> for Field {
    fn from(v: String) -> Self {
        Field::Str(v)
    }
}

/// A provenance-stamped benchmark record under construction. Fields
/// render in insertion order after the envelope header.
pub struct BenchRecord {
    bench: String,
    fields: Vec<(String, Field)>,
}

impl BenchRecord {
    pub fn new(bench: &str) -> Self {
        BenchRecord { bench: bench.to_string(), fields: Vec::new() }
    }

    /// Appends one field (chainable).
    pub fn field(mut self, name: &str, value: impl Into<Field>) -> Self {
        self.fields.push((name.to_string(), value.into()));
        self
    }

    /// Appends a pre-rendered JSON subtree (chainable).
    pub fn raw(mut self, name: &str, json: impl Into<String>) -> Self {
        self.fields.push((name.to_string(), Field::Raw(json.into())));
        self
    }

    /// Renders the record, envelope first.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&format!("  \"schema_version\": {SCHEMA_VERSION},\n"));
        s.push_str(&format!("  \"bench\": \"{}\",\n", escape(&self.bench)));
        s.push_str(&format!(
            "  \"provenance\": {{\"git_rev\": \"{}\", \"host\": \"{}\", \"profile\": \"{}\", \"threads\": {}}}",
            escape(&git_rev()),
            escape(&hostname()),
            profile(),
            threads(),
        ));
        for (name, value) in &self.fields {
            s.push_str(",\n");
            s.push_str(&format!("  \"{}\": {}", escape(name), render(value)));
        }
        s.push_str("\n}\n");
        s
    }

    /// Writes the record, creating parent directories.
    pub fn write(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let path = path.as_ref();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.to_json())
    }
}

fn render(f: &Field) -> String {
    match f {
        Field::U64(v) => v.to_string(),
        Field::F64(v) if v.is_finite() => format!("{v:.6}"),
        Field::F64(_) => "null".to_string(),
        Field::Bool(v) => v.to_string(),
        Field::Str(v) => format!("\"{}\"", escape(v)),
        Field::Raw(v) => v.clone(),
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Short git revision: `GITHUB_SHA` when CI provides it, else the
/// working tree's `git rev-parse`, else `"unknown"` (no git, no repo).
fn git_rev() -> String {
    if let Ok(sha) = std::env::var("GITHUB_SHA") {
        if sha.len() >= 7 {
            return sha[..7].to_string();
        }
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn hostname() -> String {
    std::env::var("HOSTNAME")
        .ok()
        .or_else(|| {
            std::fs::read_to_string("/etc/hostname").ok().map(|s| s.trim().to_string())
        })
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

fn threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_envelope_parses_and_carries_provenance() {
        let rec = BenchRecord::new("demo")
            .field("items", 42u64)
            .field("rate", 0.5)
            .field("ok", true)
            .field("label", "a\"b")
            .raw("nested", "{\"x\": 1}");
        let json = rec.to_json();
        let v = trace::json::parse(&json).expect("record must be valid JSON");
        assert_eq!(v.get("schema_version").and_then(|s| s.as_f64()), Some(SCHEMA_VERSION as f64));
        assert_eq!(v.get("bench").and_then(|s| s.as_str()), Some("demo"));
        let prov = v.get("provenance").expect("provenance header");
        for key in ["git_rev", "host", "profile", "threads"] {
            assert!(prov.get(key).is_some(), "provenance must carry {key}");
        }
        assert_eq!(v.get("items").and_then(|s| s.as_f64()), Some(42.0));
        assert_eq!(v.get("label").and_then(|s| s.as_str()), Some("a\"b"));
        assert_eq!(
            v.get("nested").and_then(|n| n.get("x")).and_then(|x| x.as_f64()),
            Some(1.0)
        );
    }
}
