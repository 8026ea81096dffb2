//! `bench`: the repository's benchmark.
//!
//! ```text
//! bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!       one run of one workload; the last line of stdout is the result
//! bench [all] [--seed <n>] [--seconds <s>] [--runs <r>] [--write-expected]
//!       every workload, untraced and traced, each run in its own
//!       process; writes bench/out/RESULT.json
//! bench trace <workload> [--seed <n>] [--seconds <s>]
//!       the traced run of one workload; writes bench/out/TRACE_<workload>.json
//! bench compare <A.json> <B.json>
//!       verdict per end-to-end metric and workload between two RESULT files
//! ```
//!
//! The benchmark measures every layer from outside, by timing calls into
//! public functions. It owns its plans and drivers: it calls neither
//! `shard::loadgen`, `runtime::kernels::library` nor any `xbench` item.

#![forbid(unsafe_code)]

mod churn;
mod compare;
mod overlay;
mod plan;
mod probes;
mod report;
mod rng;
mod shardmix;
mod spans;
mod stats;
mod stream;
#[cfg(test)]
mod tests;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use report::{number, Outcome, Spec};
use trace::json::{self, JsonValue};

/// Arguments of one run.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Set-ups per run: at least this many, more until they have taken
/// [`SETUP_MIN_SECONDS`] together; `setup_s` is their fast quartile. One
/// comes before the window, the others after it.
const SETUP_REPS: usize = 5;
const SETUP_MAX_REPS: usize = 51;
const SETUP_MIN_SECONDS: f64 = 1.0;
/// Equal-work segments of the window behind `op_ms`, `ops_per_s` and
/// `window.op_tail_ms`: half a second each in a 30 s window.
const SEGMENTS: usize = 60;
/// With fewer operations per segment than this, `window.op_tail_ms` is the
/// tail quantile of the whole window.
const TAIL_MIN_SAMPLES: usize = 10;
/// Which segment speaks for the run: the third fastest of the 60 (with
/// fewer operations than segments, the fastest operation).
/// Neighbours on a shared host only ever slow a segment down (on the host
/// this was sized on, the *median* segment of identical runs moved by 25 %
/// within the hour, and with a neighbour on one core most segments of
/// `shard_mixed` ran at 1200 lifecycles/s, a few at 1900), so the fast side
/// estimates the program on a quiet host, and needs only a second and a
/// half of quiet in the window to do so. Set-ups: the fast quartile.
const FAST_SIDE: f64 = 0.05;
const FAST_QUARTILE: f64 = 0.25;

/// Threads `par` may use: the generator is the only other busy thread of
/// `overlay_build`, and the host is sized at two cores.
pub fn par_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

/// The benchmark's directory: `bench/` under the checkout the run starts
/// in, or the package directory when started elsewhere (`cargo test`).
pub fn bench_dir() -> PathBuf {
    let here = PathBuf::from("bench");
    if here.join("Cargo.toml").exists() {
        here
    } else {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
    }
}

pub fn out_dir() -> PathBuf {
    bench_dir().join("out")
}

/// One set-up under the clock: the state it built and the seconds it took.
pub fn timed<T>(setup: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let state = setup();
    (state, t.elapsed().as_secs_f64())
}

/// `setup_s`: the fast quartile of the run's set-up times, the one before
/// the window (`first`) and further complete set-ups made now, each torn
/// down at once. They come after the window because a set-up may start
/// threads, and every thread takes a malloc arena: which arenas the
/// window's workers then inherit depended on how the earlier threads'
/// exits were scheduled, and `peak_rss_mb` of `shard_mixed` read 36 or
/// 49 MiB accordingly.
pub fn setup_seconds<T>(
    first: f64,
    mut setup: impl FnMut() -> T,
    mut teardown: impl FnMut(T),
) -> f64 {
    let mut seconds = vec![first];
    while seconds.len() < SETUP_REPS
        || (seconds.iter().sum::<f64>() < SETUP_MIN_SECONDS && seconds.len() < SETUP_MAX_REPS)
    {
        let (state, s) = timed(&mut setup);
        seconds.push(s);
        teardown(state);
    }
    stats::quantile(&seconds, FAST_QUARTILE)
}

/// The timed window of a run: per-operation latencies and completion
/// times, from one generator thread.
#[derive(Debug)]
pub struct Window {
    start: Instant,
    seconds: f64,
    latency_ms: Vec<f64>,
    done_at: Vec<f64>,
}

impl Window {
    pub fn open(seconds: f64) -> Self {
        Window {
            start: Instant::now(),
            seconds,
            latency_ms: Vec::new(),
            done_at: Vec::new(),
        }
    }

    pub fn elapsed(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    pub fn expired(&self) -> bool {
        self.elapsed() >= self.seconds
    }

    /// Records an operation that began at `t0` and completed now.
    pub fn record(&mut self, t0: Instant) {
        self.latency_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        self.done_at.push(self.elapsed());
    }

    pub fn ops(&self) -> usize {
        self.latency_ms.len()
    }

    /// Latency of an operation in ms: the median within a segment, the
    /// fast side across the window's segments.
    pub fn op_ms(&self) -> f64 {
        stats::segmented_quantile(
            &self.latency_ms,
            0.5,
            FAST_SIDE,
            SEGMENTS.min(self.ops()),
            1,
        )
    }

    /// Tracing overhead in percent: this (traced) window's `op_ms` over an
    /// untraced window's.
    pub fn overhead_pct(&self, untraced: &Window) -> f64 {
        100.0 * (self.op_ms() / untraced.op_ms() - 1.0)
    }

    /// Latency at the tail quantile `tail` within a segment, the fast
    /// side across the window's segments: `window.op_tail_ms` of the
    /// traced run. Not an end-to-end metric: on the shared host it was
    /// sized on, identical runs spread it by 20 to 40 %, past any bound
    /// the benchmark may set.
    pub fn tail_ms(&self, tail: f64) -> f64 {
        stats::segmented_quantile(
            &self.latency_ms,
            tail,
            FAST_SIDE,
            SEGMENTS,
            TAIL_MIN_SAMPLES,
        )
    }

    /// Sets the window's end-to-end metrics. `op_ms`: see [`Window::op_ms`].
    /// `ops_per_s`: work rate of a segment, the fast side across them.
    /// `port_s`, `peak_rss_mb`: as the fixed prefix left them. Records
    /// beside them the workload's tail quantile and which quantile the
    /// window's sample supports by the ten-samples-beyond rule.
    pub fn report(&self, out: &mut Outcome, tail: f64, prefix: Prefix) {
        let port_s = prefix.port_s;
        let rates = stats::segment_rates(&self.done_at, SEGMENTS);
        out.metrics.set("op_ms", self.op_ms());
        out.metrics.set("peak_rss_mb", prefix.peak_rss_mb);
        out.metrics
            .set("ops_per_s", stats::quantile(&rates, 1.0 - FAST_SIDE));
        out.metrics.set("port_s", port_s);
        out.fact("port_s", number(port_s));
        out.fact("ops", self.ops());
        out.fact("tail_quantile", tail);
        out.fact(
            "tail_supported",
            stats::highest_supported_quantile(self.ops()),
        );
    }
}

/// What a run holds when its fixed prefix of operations has completed:
/// figures that depend on how much work was done are taken there, so that
/// they do not follow the speed of the host.
#[derive(Debug, Clone, Copy, Default)]
pub struct Prefix {
    /// Modeled configuration-port seconds charged by the prefix.
    pub port_s: f64,
    /// `VmHWM` of the process at that point, MiB.
    pub peak_rss_mb: f64,
}

impl Prefix {
    pub fn now(port_s: f64) -> Self {
        Prefix {
            port_s,
            peak_rss_mb: report::peak_rss_mib(),
        }
    }
}

/// Runs one workload in this process.
fn run_workload(args: &Args) -> Outcome {
    match args.workload.as_str() {
        "overlay_build" => overlay::run(args, &overlay::Sizes::default()),
        "app_churn" => churn::run(args, &churn::Sizes::default()),
        "serve_stream" => stream::run(args, &stream::Sizes::default()),
        "shard_mixed" => shardmix::run(args, &shardmix::Sizes::default()),
        other => panic!("unknown workload {other}"),
    }
}

/// Compares a run's facts with `bench/expected/<workload>.seed<N>.json`,
/// when that file exists. The plan hash and the output fingerprint are
/// defined by the benchmark and the reference interpreter alone, so a
/// difference is a failed check. Recorded counts (QoR, modeled port time)
/// may move when a change says it changes the model or the QoR: a
/// difference is reported, not failed.
fn check_expected(args: &Args, out: &mut Outcome) {
    let path = bench_dir()
        .join("expected")
        .join(format!("{}.seed{}.json", args.workload, args.seed));
    let Ok(text) = std::fs::read_to_string(&path) else {
        return;
    };
    let expected = json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    for (section, exact) in [("exact", true), ("recorded", false)] {
        let Some(fields) = expected.get(section).and_then(JsonValue::as_obj) else {
            continue;
        };
        for (name, want) in fields {
            let want = want.as_str().unwrap_or_default();
            let got = out.facts.get(name).cloned().unwrap_or_default();
            if exact {
                out.check(got == want, || {
                    format!("{name} is {got}, {} has {want}", path.display())
                });
            } else if got != want {
                eprintln!("drift: {name} is {got}, {} has {want}", path.display());
            }
        }
    }
}

fn facts_json(facts: &BTreeMap<String, String>) -> String {
    let fields: Vec<String> = facts
        .iter()
        .map(|(k, v)| format!("\"{k}\": \"{v}\""))
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// One run: prints `name value unit` lines, a `facts` line, and the
/// result line last.
fn run_one(args: &Args) -> ExitCode {
    let spec = Spec::load();
    assert!(
        spec.workloads
            .iter()
            .any(|(name, _)| name == &args.workload),
        "unknown workload {}; BENCHMARK.json names {:?}",
        args.workload,
        spec.workloads.iter().map(|(n, _)| n).collect::<Vec<_>>()
    );
    let mut out = run_workload(args);
    if !args.trace {
        check_expected(args, &mut out);
    }
    let specs = spec.metrics(args.trace);
    for m in specs {
        if let Some(v) = out.metrics.get(&m.name) {
            println!("{} {} {}", m.name, number(v), m.unit);
        }
    }
    println!("facts {}", facts_json(&out.facts));
    println!("{}", out.result_line(specs, args.trace));
    ExitCode::SUCCESS
}

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter().position(|a| a == name).map(|i| {
        args.get(i + 1)
            .unwrap_or_else(|| panic!("{name} needs a value"))
            .clone()
    })
}

fn parsed<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> T {
    flag(args, name).map_or(default, |v| {
        v.parse()
            .unwrap_or_else(|_| panic!("{name}: cannot read {v}"))
    })
}

/// The revision of the checkout, when it is a git repository.
fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}"))
            .map_or_else(|_| reference.to_string(), |s| s.trim().to_string()),
        None if head.is_empty() => "unknown".to_string(),
        None => head.to_string(),
    }
}

/// Runs `bench --workload ...` as a child process and returns its stdout.
fn child(args: &Args) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = std::process::Command::new(exe)
        .args(["--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    if !output.status.success() {
        return Err(format!("{} exited with {}", args.workload, output.status));
    }
    String::from_utf8(output.stdout).map_err(|e| e.to_string())
}

/// Every workload, untraced (`runs` times) and traced (once), each in a
/// process of its own.
fn run_all(argv: &[String]) -> ExitCode {
    let spec = Spec::load();
    let seed: u64 = parsed(argv, "--seed", 1);
    let seconds: f64 = parsed(argv, "--seconds", spec.run_seconds);
    let runs: usize = parsed(argv, "--runs", 1);
    let write_expected = argv.iter().any(|a| a == "--write-expected");
    let mut failed = false;
    let mut rows = Vec::new();
    for (workload, _) in &spec.workloads {
        let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        let mut facts = String::from("{}");
        let (mut attempted, mut failures) = (0.0, 0.0);
        for run in 0..=runs {
            let traced = run == runs;
            let args = Args {
                workload: workload.clone(),
                seed,
                seconds,
                trace: traced,
            };
            let stdout = match child(&args) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("FAILED: {e}");
                    failed = true;
                    continue;
                }
            };
            let line = stdout.lines().last().unwrap_or_default();
            let result =
                json::parse(line).unwrap_or_else(|e| panic!("{workload}: result line: {e}"));
            attempted += result
                .get("attempted")
                .and_then(JsonValue::as_f64)
                .unwrap_or(0.0);
            failures += result
                .get("failed")
                .and_then(JsonValue::as_f64)
                .unwrap_or(0.0);
            failed |= result.get("correct").and_then(JsonValue::as_bool) != Some(true);
            let metrics = result
                .get("metrics")
                .and_then(JsonValue::as_obj)
                .unwrap_or_default();
            for (name, m) in metrics {
                let v = m
                    .get("value")
                    .and_then(JsonValue::as_f64)
                    .unwrap_or(f64::NAN);
                let unit = m
                    .get("unit")
                    .and_then(JsonValue::as_str)
                    .unwrap_or_default();
                println!("{workload} {name} {} {unit}", number(v));
                values.entry(name.clone()).or_default().push(v);
            }
            if !traced {
                if let Some(f) = stdout.lines().find_map(|l| l.strip_prefix("facts ")) {
                    facts = f.to_string();
                }
            }
        }
        if write_expected {
            write_expected_file(workload, seed, &facts);
        }
        let metrics: Vec<String> = values
            .iter()
            .map(|(name, v)| {
                let list: Vec<String> = v.iter().map(|x| number(*x)).collect();
                format!(
                    "        \"{name}\": {{\"median\": {}, \"runs\": [{}]}}",
                    number(stats::median(v)),
                    list.join(", ")
                )
            })
            .collect();
        rows.push(format!(
            "    \"{workload}\": {{\n      \"attempted\": {attempted},\n      \"failed\": {failures},\n      \"facts\": {facts},\n      \"metrics\": {{\n{}\n      }}\n    }}",
            metrics.join(",\n")
        ));
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let result = format!(
        "{{\n  \"git_rev\": \"{}\",\n  \"nproc\": {nproc},\n  \"par_threads\": {},\n  \"seed\": {seed},\n  \"seconds\": {seconds},\n  \"runs\": {runs},\n  \"sizes\": {},\n  \"workloads\": {{\n{}\n  }}\n}}\n",
        git_rev(),
        par_threads(),
        sizes_json(),
        rows.join(",\n")
    );
    let path = out_dir().join("RESULT.json");
    std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&path, result))
        .expect("write RESULT.json");
    eprintln!("wrote {}", path.display());
    if failed {
        eprintln!("FAILED: at least one check failed");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// The frozen sizes, as recorded in `RESULT.json`.
fn sizes_json() -> String {
    let o = overlay::Sizes::default();
    let c = churn::Sizes::default();
    let s = stream::Sizes::default();
    let m = shardmix::Sizes::default();
    format!(
        "{{\"setup_reps\": {SETUP_REPS}, \"segments\": {SEGMENTS}, \
         \"overlay_build\": {{\"format\": [{}, {}], \"place_seed\": {}, \"min_reps\": {}, \"specializations\": {}}}, \
         \"app_churn\": {{\"pool\": {}, \"passes\": {}, \"items\": {}, \"prefix\": {}, \"tail\": {}}}, \
         \"serve_stream\": {{\"tenants\": 7, \"items\": {}, \"swap_every\": {}, \"swap_sets\": {}, \"prefix\": {}, \"tail\": {}}}, \
         \"shard_mixed\": {{\"shards\": {}, \"in_flight\": {}, \"items\": {}, \"cycle\": {}, \"hot\": {}, \"cold\": {}, \"cold_per_mille\": {}, \"prefix\": {}, \"tail\": {}}}}}",
        o.format.we, o.format.wf, o.place_seed, o.min_reps, o.specializations,
        plan::CHURN_POOL, plan::CHURN_PASSES, plan::CHURN_ITEMS, c.prefix, c.tail,
        s.items, plan::STREAM_SWAP_EVERY, plan::STREAM_SWAP_SETS, s.prefix, s.tail,
        m.shards, m.in_flight, plan::SHARD_ITEMS, plan::SHARD_CYCLE, plan::hot_set().len(),
        plan::cold_pool().len(), plan::SHARD_COLD_PER_MILLE, m.prefix, m.tail,
    )
}

/// Facts that only the benchmark and the reference interpreter define.
const EXACT_FACTS: [&str; 2] = ["plan_hash", "fingerprint"];
/// Facts recorded beside them: exact for one seed, free to move with the
/// model or the QoR.
const RECORDED_FACTS: [&str; 5] = [
    "port_s",
    "param_luts",
    "param_min_width",
    "param_wirelength",
    "dirty_frames",
];

fn write_expected_file(workload: &str, seed: u64, facts: &str) {
    let facts = json::parse(facts).expect("facts line parses");
    let section = |names: &[&str]| {
        let fields: Vec<String> = names
            .iter()
            .filter_map(|n| {
                facts
                    .get(n)
                    .and_then(JsonValue::as_str)
                    .map(|v| format!("    \"{n}\": \"{v}\""))
            })
            .collect();
        format!("{{\n{}\n  }}", fields.join(",\n"))
    };
    let text = format!(
        "{{\n  \"exact\": {},\n  \"recorded\": {}\n}}\n",
        section(&EXACT_FACTS),
        section(&RECORDED_FACTS)
    );
    let dir = bench_dir().join("expected");
    let path = dir.join(format!("{workload}.seed{seed}.json"));
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, text))
        .expect("write expectation");
    eprintln!("wrote {}", path.display());
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let spec_seconds = || Spec::load().run_seconds;
    match argv.first().map(String::as_str) {
        Some("compare") => {
            let (a, b) = match (argv.get(1), argv.get(2)) {
                (Some(a), Some(b)) => (a, b),
                _ => panic!("usage: bench compare <A.json> <B.json>"),
            };
            compare::run(a, b)
        }
        Some("trace") => {
            let workload = argv.get(1).expect("usage: bench trace <workload>").clone();
            run_one(&Args {
                workload,
                seed: parsed(&argv, "--seed", 1),
                seconds: parsed(&argv, "--seconds", spec_seconds()),
                trace: true,
            })
        }
        _ if flag(&argv, "--workload").is_some() => run_one(&Args {
            workload: flag(&argv, "--workload").expect("checked above"),
            seed: parsed(&argv, "--seed", 1),
            seconds: parsed(&argv, "--seconds", spec_seconds()),
            trace: parsed::<u8>(&argv, "--trace", 0) != 0,
        }),
        _ => run_all(&argv),
    }
}
