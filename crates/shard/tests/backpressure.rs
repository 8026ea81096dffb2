//! Backpressure semantics: a full bounded queue rejects loudly
//! (`Reject::QueueFull` to the caller, `shard.reject` counted) and
//! everything the tier *did* accept is served — never silently dropped.
//! A refused admission is a reject only: it is not counted as a spill.

use std::time::Duration;

use runtime::kernels;
use runtime::StreamRequest;
use shard::{Reject, RouteKey, RoutePick, ShardConfig, ShardServer};
use softfloat::{FpFormat, FpValue};
use vcgra::app::AppGraph;

const F: FpFormat = FpFormat::PAPER;

#[test]
fn full_queue_rejects_and_accepted_work_still_completes() {
    let mut server = ShardServer::start(ShardConfig {
        queue_depth: 2,
        ..ShardConfig::new(1)
    });
    let fir = kernels::fir_seeded(F, 5, 11);
    let coeffs = fir.graph.coeff_nodes().len();
    let (at, _, ticket) = server
        .submit("tenant", fir.graph.clone())
        .expect("dispatch");
    let admitted = ticket.wait().expect("admit").expect_admitted("empty tier");
    assert_eq!(
        admitted.tenant, at.tenant,
        "server predicts the tenant id at dispatch"
    );

    // Occupy the worker with a long streaming run (hundreds of
    // gate-level evaluations — orders of magnitude longer than the
    // microseconds the dispatch loop below needs), then flood the
    // depth-2 queue with swaps until it pushes back.
    let inputs: Vec<Vec<FpValue>> = (0..400)
        .map(|i| vec![FpValue::from_f64((i % 7) as f64 * 0.25 - 0.75, F); fir.graph.num_inputs])
        .collect();
    let run_ticket = server
        .run(
            at.shard,
            vec![StreamRequest {
                tenant: at.tenant,
                inputs,
            }],
        )
        .expect("dispatch run");

    let new_coeffs = vec![FpValue::from_f64(0.5, F); coeffs];
    let mut accepted = Vec::new();
    let mut rejection = None;
    for _ in 0..8 {
        match server.swap_params(at, new_coeffs.clone()) {
            Ok(t) => accepted.push(t),
            Err(r) => {
                rejection = Some(r);
                break;
            }
        }
    }
    let rejection =
        rejection.expect("a depth-2 queue must reject within 8 back-to-back dispatches");
    assert_eq!(
        rejection,
        Reject::QueueFull {
            shard: 0,
            capacity: 2
        }
    );
    assert!(
        server.metrics().counter_value("shard.reject") >= 1,
        "rejections must be counted, not just returned"
    );

    // Nothing accepted was dropped: the run and every accepted swap reply.
    let runs = run_ticket.wait().expect("run");
    assert_eq!(runs[0].outputs.len(), 400);
    for t in accepted {
        t.wait().expect("accepted swap must be served");
    }

    // After the pressure clears, the same dispatch succeeds.
    server.drain(true).expect("drain");
    server
        .swap_params(at, new_coeffs)
        .expect("queue has space again")
        .wait()
        .expect("swap");
    for fin in server.shutdown() {
        assert!(fin.verify.ok());
    }
}

#[test]
fn a_spill_the_full_queue_refuses_is_counted_as_a_reject_only() {
    let mut server = ShardServer::start(ShardConfig {
        queue_depth: 1,
        spill_margin: 1,
        ..ShardConfig::new(2)
    });
    // Dot products of growing length until one is affine to the other
    // shard: the one-tap product keeps the `busy` shard busy, and the
    // other structure's `home` holds an open admission ticket.
    let graph = |n: usize| AppGraph::dot_product(F, &vec![0.5; n]);
    let affine = |n: usize| RouteKey::of(&graph(n)).shard(2);
    let taps = (2..)
        .find(|&n| affine(n) != affine(1))
        .expect("both shards");
    let (busy, home) = (affine(1), affine(taps));

    let (at, _, ticket) = server.submit("busy", graph(1)).expect("idle tier");
    ticket.wait().expect("admit");
    // The busy worker streams 2^18 items while a stats request holds the
    // one slot of its queue, taken once the worker has the run.
    let inputs = vec![vec![FpValue::from_f64(0.75, F)]; 1 << 18];
    let run = server
        .run(
            busy,
            vec![StreamRequest {
                tenant: at.tenant,
                inputs,
            }],
        )
        .expect("idle queue");
    let stats = loop {
        if let Ok(t) = server.stats(busy) {
            break t;
        }
    };
    let (_, pick, held) = server.submit("held", graph(taps)).expect("idle queue");
    assert_eq!(pick, RoutePick::Affinity);

    // `home` runs one ticket ahead, so the structure spills to the full
    // busy shard, which refuses it.
    let refused = server.submit("spilled", graph(taps));
    assert_eq!(
        refused.err(),
        Some(Reject::QueueFull {
            shard: busy,
            capacity: 1
        })
    );
    let spills = |server: &ShardServer| server.metrics().counter_value("shard.spill");
    assert_eq!(spills(&server), 0, "a refused spill is not a spill");
    assert!(server.metrics().counter_value("shard.reject") >= 1);

    // Retried until the busy shard takes it: one spill, however many tries.
    let (at, pick, ticket) = loop {
        match server.submit("spilled", graph(taps)) {
            Ok(accepted) => break accepted,
            Err(Reject::QueueFull { .. }) => std::thread::sleep(Duration::from_micros(50)),
        }
    };
    assert_eq!((at.shard, pick), (busy, RoutePick::Spilled { from: home }));
    assert_eq!(spills(&server), 1);

    assert_eq!(run.wait().expect("run")[0].outputs.len(), 1 << 18);
    stats.wait();
    held.wait().expect("admit");
    ticket.wait().expect("admit");
    for fin in server.shutdown() {
        assert!(fin.verify.ok());
    }
}
