//! Metric declarations (read from `BENCHMARK.json`, the one place that
//! names them) and the result line every run ends with.

use std::collections::BTreeMap;

use trace::json::{self, JsonValue};

/// `BENCHMARK.json` as committed at the root of the repository.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One declared metric.
#[derive(Debug, Clone)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the baseline by which the metric may worsen; end-to-end
    /// metrics only.
    pub bound: Option<f64>,
}

/// The declarations of `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct Spec {
    pub run_seconds: f64,
    pub workloads: Vec<(String, String)>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

fn text(v: &JsonValue, key: &str) -> String {
    v.get(key)
        .and_then(JsonValue::as_str)
        .unwrap_or_else(|| panic!("BENCHMARK.json: {key}"))
        .to_string()
}

fn metric_list(root: &JsonValue, key: &str) -> Vec<MetricSpec> {
    root.get(key)
        .and_then(JsonValue::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json: {key}"))
        .iter()
        .map(|m| MetricSpec {
            name: text(m, "name"),
            unit: text(m, "unit"),
            higher_is_better: text(m, "better") == "higher",
            bound: m.get("bound").and_then(JsonValue::as_f64),
        })
        .collect()
}

impl Spec {
    pub fn load() -> Spec {
        let root = json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        Spec {
            run_seconds: root
                .get("run_seconds")
                .and_then(JsonValue::as_f64)
                .expect("run_seconds"),
            workloads: root
                .get("workloads")
                .and_then(JsonValue::as_arr)
                .expect("workloads")
                .iter()
                .map(|w| (text(w, "name"), text(w, "why")))
                .collect(),
            end_to_end: metric_list(&root, "end_to_end"),
            per_layer: metric_list(&root, "per_layer"),
        }
    }

    pub fn metrics(&self, traced: bool) -> &[MetricSpec] {
        if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}

/// Metric values of one run, by name.
#[derive(Debug, Clone, Default)]
pub struct Metrics(pub BTreeMap<String, f64>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(
            value.is_finite(),
            "metric {name} is not a finite number: {value}"
        );
        let prev = self.0.insert(name.to_string(), value);
        assert!(prev.is_none(), "metric {name} set twice");
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

impl Metrics {
    /// The `runtime` layer's counters, summed over the given ledgers
    /// (one per runtime; one per shard on `shard_mixed`).
    pub fn set_runtime_counters(
        &mut self,
        ledgers: &[runtime::Ledger],
        hit_ratio: f64,
        evictions: u64,
    ) {
        let secs = |f: fn(&runtime::Ledger) -> std::time::Duration| -> f64 {
            ledgers.iter().map(|l| f(l).as_secs_f64()).sum()
        };
        let count =
            |f: fn(&runtime::Ledger) -> usize| -> f64 { ledgers.iter().map(|l| f(l) as f64).sum() };
        self.set("runtime.cache_hit_ratio", hit_ratio);
        self.set("runtime.cache_evictions", evictions as f64);
        self.set("runtime.admission_port_s", secs(|l| l.admission_port_time));
        self.set("runtime.swap_port_s", secs(|l| l.swap_port_time));
        self.set("runtime.switch_port_s", secs(|l| l.switch_port_time));
        self.set("runtime.swap_frames", count(|l| l.swap_frames));
        self.set("runtime.context_switches", count(|l| l.context_switches));
        self.set("runtime.makespan_s", secs(|l| l.modeled_makespan));
        self.set("runtime.overlap_saved_s", secs(|l| l.overlap_saved));
    }
}

/// The outputs of a `run` that must have produced exactly one tenant's run.
pub fn only_run(
    ran: Result<Vec<runtime::TenantRun>, runtime::RuntimeError>,
) -> Result<Vec<Vec<softfloat::FpValue>>, String> {
    match ran {
        Ok(mut runs) if runs.len() == 1 => Ok(runs.remove(0).outputs),
        Ok(runs) => Err(format!("{} runs returned", runs.len())),
        Err(e) => Err(e.to_string()),
    }
}

/// What one run of one workload produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted, and how many of them failed: any `Err`, any
    /// `Reject`, any verifier violation, any output that differs from the
    /// reference interpreter, any broken validity condition of the
    /// workload, any mismatch with a committed expectation.
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// Facts that must repeat exactly for one seed (plan hash, output
    /// fingerprint) and counts worth recording beside them.
    pub facts: BTreeMap<String, String>,
    /// One line per failed check, for the reader of stderr.
    pub failures: Vec<String>,
}

impl Outcome {
    /// Counts one checked condition; a false one is a failed operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Records a failed operation that was already counted as attempted.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            eprintln!("FAILED: {what}");
        }
        self.failures.push(what);
    }

    /// Adds the operations counted by another outcome (a set-up's).
    pub fn absorb(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
    }

    /// Runs the scheduler-state and time-axis verifiers on a runtime's live
    /// state; a violation is a failed operation. Returns the host time of
    /// the scheduler pass in microseconds.
    pub fn check_runtime(&mut self, rt: &runtime::Runtime) -> f64 {
        let t = std::time::Instant::now();
        let sched = rt.verify();
        let sched_us = t.elapsed().as_secs_f64() * 1e6;
        let timeline = rt.verify_timeline();
        self.check(sched.ok(), || format!("sched: {}", sched.summary()));
        self.check(timeline.ok(), || {
            format!("timeline: {}", timeline.summary())
        });
        sched_us
    }

    pub fn fact(&mut self, name: &str, value: impl ToString) {
        self.facts.insert(name.to_string(), value.to_string());
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The metrics object of the result line: every declared metric of the
    /// mode, in declaration order. A per-layer metric the workload did not
    /// measure reads 0: that layer did no such work in this workload. An
    /// end-to-end metric must have been measured.
    pub fn metrics_json(&self, specs: &[MetricSpec], traced: bool) -> String {
        let fields: Vec<String> = specs
            .iter()
            .map(|m| {
                let value = match self.metrics.get(&m.name) {
                    Some(v) => v,
                    None if traced => 0.0,
                    None => panic!("end-to-end metric {} was not measured", m.name),
                };
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    number(value),
                    m.unit
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }

    /// The one-line JSON object a run prints last.
    pub fn result_line(&self, specs: &[MetricSpec], traced: bool) -> String {
        for name in self.metrics.0.keys() {
            assert!(
                specs.iter().any(|m| &m.name == name),
                "metric {name} is not declared in BENCHMARK.json"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            self.metrics_json(specs, traced)
        )
    }
}

/// A JSON number with every digit the measurement has.
pub fn number(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v}")
    }
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        let mut chars = s.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.len() <= 64
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn benchmark_json_meets_the_contract() {
        let spec = Spec::load();
        assert!((1.0..=60.0).contains(&spec.run_seconds));
        assert!((2..=8).contains(&spec.workloads.len()));
        assert!((1..=16).contains(&spec.end_to_end.len()));
        assert!((1..=128).contains(&spec.per_layer.len()));
        let mut seen = std::collections::BTreeSet::new();
        for (name, why) in &spec.workloads {
            assert!(valid_name(name), "{name}");
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "{name}: why is {} long",
                why.len()
            );
            assert!(seen.insert(name.clone()), "{name} used twice");
        }
        for m in spec.end_to_end.iter().chain(&spec.per_layer) {
            assert!(valid_name(&m.name), "{}", m.name);
            assert!(seen.insert(m.name.clone()), "{} used twice", m.name);
            assert!(m.unit.len() <= 16 && !m.unit.is_empty(), "{}", m.name);
            assert!(
                m.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}",
                m.unit
            );
        }
        for m in &spec.end_to_end {
            let b = m.bound.unwrap_or_else(|| panic!("{} has no bound", m.name));
            assert!((0.0..=0.25).contains(&b), "{}", m.name);
        }
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
        let setup = spec
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert!(setup.unit == "s" && !setup.higher_is_better);
        let widest = spec
            .end_to_end
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s has the largest bound");
    }

    #[test]
    fn result_line_is_one_json_object_with_the_four_keys() {
        let spec = Spec::load();
        let mut o = Outcome::default();
        for m in &spec.end_to_end {
            o.metrics.set(&m.name, 1.25);
        }
        o.check(true, String::new);
        let line = o.result_line(&spec.end_to_end, false);
        assert!(!line.contains('\n'));
        let v = json::parse(&line).expect("parses");
        let keys: Vec<&str> = v
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("correct").unwrap().as_bool(), Some(true));
        let metrics = v.get("metrics").unwrap().as_obj().unwrap();
        assert_eq!(metrics.len(), spec.end_to_end.len());
        // A traced line carries every per-layer metric, unmeasured ones as 0.
        let traced = Outcome::default().result_line(&spec.per_layer, true);
        let v = json::parse(&traced).expect("parses");
        assert_eq!(
            v.get("metrics").unwrap().as_obj().unwrap().len(),
            spec.per_layer.len()
        );
    }

    #[test]
    fn numbers_keep_their_digits() {
        assert_eq!(number(3.0), "3");
        assert_eq!(number(0.1234567890123), "0.1234567890123");
        assert_eq!(number(1e-7), "0.0000001");
    }
}
