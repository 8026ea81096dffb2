//! The swap-pricing model is a constant of the overlay, checked in as a
//! table: a 2-shard server and two plain runtimes, swapping at once on
//! four threads, map no PE while they swap, and price the same change the
//! same, field for field.
//!
//! Single `#[test]` on purpose: the span recorder is process-global, so
//! one test owns arm/drain and no sibling can map a PE unseen.

use std::sync::Barrier;
use std::time::Duration;

use runtime::{kernels, Runtime, RuntimeConfig, SwapReport};
use shard::{RoutePick, ShardConfig, ShardServer};
use softfloat::{FpFormat, FpValue};

const F: FpFormat = FpFormat::PAPER;

/// The changes every tenant makes, in order: a FIR-5's coefficients.
fn changes(slots: usize) -> Vec<Vec<FpValue>> {
    (0..3)
        .map(|k| {
            (0..slots)
                .map(|i| FpValue::from_f64((-1.0f64).powi(i as i32) * (0.5 + (k + i) as f64), F))
                .collect()
        })
        .collect()
}

/// Every field of a report: PEs, frames, bits changed, sweeps, port time.
fn priced(r: &SwapReport) -> (usize, usize, usize, usize, usize, Duration) {
    (
        r.dirty_pes,
        r.ppc_frames,
        r.settings_frames,
        r.bits_changed,
        r.sweeps,
        r.port_time,
    )
}

#[test]
fn every_runtime_and_shard_prices_on_one_model() {
    let fir = kernels::fir_seeded(F, 5, 7).graph;
    let changes = changes(fir.coeff_nodes().len());
    trace::configure(trace::TraceConfig::On);

    let start = Barrier::new(3);
    let reports: Vec<Vec<SwapReport>> = std::thread::scope(|s| {
        let plain: Vec<_> = (0..2)
            .map(|t| {
                let (fir, changes, start) = (fir.clone(), &changes, &start);
                s.spawn(move || {
                    let mut rt = Runtime::new(RuntimeConfig::default());
                    let tenant = rt
                        .submit(format!("plain-{t}"), fir)
                        .expect("submit")
                        .tenant();
                    start.wait();
                    changes
                        .iter()
                        .map(|c| rt.swap_params(tenant, c).expect("swap"))
                        .collect::<Vec<_>>()
                })
            })
            .collect();

        // Spill margin 1: the second admission, dispatched while the
        // first is outstanding, lands on the other shard.
        let mut server = ShardServer::start(ShardConfig {
            spill_margin: 1,
            ..ShardConfig::new(2)
        });
        let (a, pick_a, ticket_a) = server.submit("shard-a", fir.clone()).expect("dispatch");
        let (b, pick_b, ticket_b) = server.submit("shard-b", fir.clone()).expect("dispatch");
        assert_eq!(pick_a, RoutePick::Affinity);
        assert!(matches!(pick_b, RoutePick::Spilled { .. }));
        assert_ne!(a.shard, b.shard, "one tenant on each shard");
        for ticket in [ticket_a, ticket_b] {
            ticket.wait().expect("admit").expect_admitted("empty shard");
        }
        start.wait();
        // Both shards' swaps are in flight before either is collected.
        let tickets: Vec<Vec<_>> = [a, b]
            .into_iter()
            .map(|at| {
                changes
                    .iter()
                    .map(|c| server.swap_params(at, c.clone()).expect("dispatch"))
                    .collect()
            })
            .collect();
        let mut reports: Vec<Vec<SwapReport>> = tickets
            .into_iter()
            .map(|ts| ts.into_iter().map(|t| t.wait().expect("swap")).collect())
            .collect();
        server.shutdown();
        reports.extend(plain.into_iter().map(|h| h.join().expect("runtime thread")));
        reports
    });

    trace::configure(trace::TraceConfig::Off);
    let events = trace::take_events();
    let priced_swaps = events
        .iter()
        .filter(|e| e.name == "pricing" && e.phase == trace::Phase::End)
        .filter(|e| e.args.iter().any(|(k, _)| *k == "sweeps"))
        .count();
    assert_eq!(priced_swaps, 4 * changes.len(), "every swap was traced");
    let maps: Vec<&str> = events
        .iter()
        .map(|e| e.name)
        .filter(|name| *name == "map" || name.starts_with("map."))
        .collect();
    assert!(maps.is_empty(), "a PE was mapped to price a swap: {maps:?}");

    assert_eq!(reports.len(), 4);
    for (i, change) in changes.iter().enumerate() {
        let first = priced(&reports[0][i]);
        assert!(first.1 > 0, "change {i} reaches the PPC: {change:?}");
        for runtime in &reports[1..] {
            assert_eq!(priced(&runtime[i]), first, "change {i}");
        }
    }
}
