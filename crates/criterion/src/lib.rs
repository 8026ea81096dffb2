//! Offline stand-in for the crates.io `criterion` crate.
//!
//! The build container has no network access to crates.io, so the
//! workspace ships this minimal drop-in that covers exactly the API
//! surface the `xbench` benches use: [`Criterion`], [`Criterion::bench_function`],
//! [`Criterion::benchmark_group`], [`BenchmarkGroup::sample_size`],
//! [`Bencher::iter`], and the [`criterion_group!`]/[`criterion_main!`]
//! macros. Measurements are honest wall-clock medians over repeated
//! batches — adequate for relative comparisons between the workspace's
//! own flows, not a statistical replacement for real criterion.
//!
//! Swapping back to the real crate is a one-line change in
//! `Cargo.toml` (`[workspace.dependencies] criterion = "0.5"`); no
//! bench source needs to change.

#![forbid(unsafe_code)]
#![deny(clippy::dbg_macro, clippy::todo)]

use std::hint;
use std::time::{Duration, Instant};

/// Re-export so benches written against real criterion's `black_box`
/// keep compiling (ours delegates to `std::hint::black_box`).
pub fn black_box<T>(x: T) -> T {
    hint::black_box(x)
}

/// Target measurement time per benchmark. Kept short: these benches run
/// in CI and inside `cargo test`-adjacent loops.
const MEASURE_TARGET: Duration = Duration::from_millis(500);
const WARMUP_TARGET: Duration = Duration::from_millis(100);

/// Per-iteration timer handle passed to the closure of
/// [`Criterion::bench_function`].
pub struct Bencher {
    /// Median nanoseconds per iteration, filled in by `iter`.
    median_ns: f64,
    iters: u64,
}

impl Bencher {
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        // Warm-up: discover a batch size that takes ~1ms, executing the
        // closure enough times to stabilize caches and branch predictors.
        let mut batch: u64 = 1;
        let warmup_began = Instant::now();
        loop {
            let t = Instant::now();
            for _ in 0..batch {
                hint::black_box(f());
            }
            let dt = t.elapsed();
            if dt >= Duration::from_millis(1) || batch >= 1 << 20 {
                break;
            }
            batch = batch.saturating_mul(2);
            if warmup_began.elapsed() >= WARMUP_TARGET {
                break;
            }
        }

        // Measurement: timed batches until the target budget is spent.
        let mut samples: Vec<f64> = Vec::new();
        let mut total_iters: u64 = 0;
        let start = Instant::now();
        while start.elapsed() < MEASURE_TARGET || samples.len() < 5 {
            let t = Instant::now();
            for _ in 0..batch {
                hint::black_box(f());
            }
            let dt = t.elapsed();
            samples.push(dt.as_nanos() as f64 / batch as f64);
            total_iters += batch;
            if samples.len() >= 200 {
                break;
            }
        }
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        self.median_ns = samples[samples.len() / 2];
        self.iters = total_iters;
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.3} s", ns / 1_000_000_000.0)
    }
}

fn run_bench<F: FnMut(&mut Bencher)>(id: &str, mut f: F) {
    let mut b = Bencher { median_ns: 0.0, iters: 0 };
    f(&mut b);
    println!(
        "{:<40} time: [{}]   ({} iterations)",
        id,
        fmt_ns(b.median_ns),
        b.iters
    );
}

/// Top-level benchmark driver, mirroring `criterion::Criterion`.
#[derive(Default)]
pub struct Criterion {}

impl Criterion {
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, f: F) -> &mut Self {
        run_bench(id, f);
        self
    }

    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup { _c: self, name: name.to_string() }
    }
}

/// Grouped benchmarks, mirroring `criterion::BenchmarkGroup`. The
/// `sample_size` knob is accepted for source compatibility; the stub's
/// fixed time budget already bounds runtime.
pub struct BenchmarkGroup<'a> {
    _c: &'a mut Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, f: F) -> &mut Self {
        run_bench(&format!("{}/{}", self.name, id), f);
        self
    }

    pub fn finish(self) {}
}

/// Mirrors `criterion::criterion_group!`: defines a function that runs
/// each target against a fresh default `Criterion`.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut c = $crate::Criterion::default();
            $( $target(&mut c); )+
        }
    };
}

/// Mirrors `criterion::criterion_main!`: a `main` that runs each group.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}
