//! How one `run` call's item work spreads over threads: the seven tenants
//! the repo benchmark's `serve_stream` workload serves, 4 096 items each
//! per call, streamed at 1, 2 and 4 workers.
//!
//! ```text
//! cargo run --release --example serve_scaling
//! ```
//!
//! Inputs are seeded uniform values in [-2, 2), as the benchmark draws
//! them, so every column the kernel sees is all Normal, as on
//! `serve_stream`. Asserts that the outputs are bit-identical at every
//! worker count and prints the column tier the kernel runs on and the
//! median host time per call. `RuntimeConfig::workers` is the
//! most threads a call may use: a call never runs on more threads than
//! the host runs at once, so on a 2-core host the 4-worker row runs on 2.
//! One more call per row is traced, and its `execute` spans say how it
//! was split: the threads it ran on and the grabs they took, against the
//! 448 64-item units a grab-per-unit schedule would lock for.

use std::time::{Duration, Instant};

use logic::SplitMix64;
use retina::filters::{gaussian, matched_filter, texture_filter};
use runtime::{kernels, Runtime, RuntimeConfig, StreamRequest};
use softfloat::{FpFormat, FpValue};
use vcgra::app::AppGraph;
use vcgra::VcgraArch;

const F: FpFormat = FpFormat::PAPER;
const ITEMS: usize = 4096;
const CALLS: usize = 40;

/// The seven tenants: four kernels of the library and three retina
/// convolutions.
fn tenants() -> Vec<(String, AppGraph)> {
    let mut tenants = vec![
        kernels::fir(F, &[0.2, -0.4, 0.6, -0.4, 0.2]),
        kernels::separable_stencil(F, &[0.25, 0.5, 0.25], &[-0.5, 1.0, -0.5]),
        kernels::matvec(
            F,
            &[
                vec![0.5, -0.25, 0.75, 1.0],
                vec![-1.0, 0.125, 0.5, -0.5],
                vec![0.25, 0.25, -0.75, 0.5],
            ],
        ),
        kernels::tree_reduction(F, 8),
    ];
    for kernel in [
        gaussian(3, 0.85),
        texture_filter(3, 1.2),
        matched_filter(5, 1.6, 4.0, 0.0),
    ] {
        tenants.push(kernels::retina_stage(F, &kernel));
    }
    tenants.into_iter().map(|w| (w.name, w.graph)).collect()
}

/// `ITEMS` seeded input vectors for a graph with `n` inputs, each value
/// uniform in [-2, 2).
fn items(n: usize, seed: u64) -> Vec<Vec<FpValue>> {
    let mut rng = SplitMix64::new(seed);
    (0..ITEMS)
        .map(|_| {
            (0..n)
                .map(|_| FpValue::from_f64(rng.unit_f64() * 4.0 - 2.0, F))
                .collect()
        })
        .collect()
}

/// Runs one call with the trace armed: the threads it ran on and the
/// grabs its `execute` spans count (a grab that spans two jobs counts in
/// both jobs' spans).
fn traced_split(rt: &mut Runtime, requests: Vec<StreamRequest>) -> (u64, u64) {
    trace::configure(trace::TraceConfig::On);
    rt.run(requests).expect("every item is well-formed");
    trace::configure(trace::TraceConfig::Off);
    let (mut threads, mut grabs) = (0, 0);
    let events = trace::take_events();
    for e in events
        .iter()
        .filter(|e| e.name == "execute" && e.phase == trace::Phase::End)
    {
        for (key, value) in &e.args {
            match (*key, value) {
                ("threads", trace::AttrValue::U64(n)) => threads = *n,
                ("grabs", trace::AttrValue::U64(n)) => grabs += n,
                _ => {}
            }
        }
    }
    (threads, grabs)
}

fn main() {
    let tenants = tenants();
    let inputs: Vec<_> = tenants
        .iter()
        .enumerate()
        .map(|(t, (_, g))| items(g.num_inputs, t as u64))
        .collect();
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "{} tenants x {ITEMS} items per call, {host} threads available on this host, {} column tier",
        tenants.len(),
        softfloat::kernel::column_tier()
    );

    let mut baseline: Option<(Duration, Vec<Vec<Vec<FpValue>>>)> = None;
    for workers in [1, 2, 4] {
        // Three 16x4 grids: each tenant has a band of its own, so no call
        // pays a context switch.
        let mut rt = Runtime::new(RuntimeConfig {
            grids: vec![VcgraArch::new(16, 4, 2); 3],
            workers,
            ..RuntimeConfig::default()
        });
        let ids: Vec<_> = tenants
            .iter()
            .map(|(name, g)| {
                rt.submit(name.as_str(), g.clone())
                    .expect("a well-formed graph")
                    .expect_admitted("a band of its own")
                    .tenant
            })
            .collect();
        let requests = || -> Vec<StreamRequest> {
            ids.iter()
                .zip(&inputs)
                .map(|(&tenant, items)| StreamRequest {
                    tenant,
                    inputs: items.clone(),
                })
                .collect()
        };
        let mut times = Vec::with_capacity(CALLS);
        let mut outputs = Vec::new();
        for _ in 0..CALLS {
            let requests = requests();
            let t0 = Instant::now();
            let runs = rt.run(requests).expect("every item is well-formed");
            times.push(t0.elapsed());
            outputs = runs.into_iter().map(|r| r.outputs).collect();
        }
        times.sort();
        let median = times[CALLS / 2];
        let ms = median.as_secs_f64() * 1e3;
        let (threads, grabs) = traced_split(&mut rt, requests());
        let split = format!("{threads} thread(s), {grabs} grabs");
        match &baseline {
            None => {
                println!("  workers {workers}: {ms:.3} ms per call (median of {CALLS}); {split}");
                baseline = Some((median, outputs));
            }
            Some((one, want)) => {
                assert!(
                    outputs == *want,
                    "outputs at {workers} workers differ from 1 worker's"
                );
                println!(
                    "  workers {workers}: {ms:.3} ms per call, {:.2}x the 1-worker rate; {split}",
                    one.as_secs_f64() / median.as_secs_f64()
                );
            }
        }
    }
    println!("outputs bit-identical at 1, 2 and 4 workers");
}
