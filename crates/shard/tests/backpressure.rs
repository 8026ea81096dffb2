//! Backpressure semantics: a full bounded queue rejects loudly
//! (`Reject::QueueFull` to the caller, `shard.reject` counted) and
//! everything the tier *did* accept is served — never silently dropped.

use runtime::kernels;
use runtime::StreamRequest;
use shard::{Reject, ShardConfig, ShardServer};
use softfloat::{FpFormat, FpValue};

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
