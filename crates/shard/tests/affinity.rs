//! Cache-affinity routing: structurally identical submissions always
//! land on the same shard, and sharding does not cost warm hits — the
//! aggregate warm-hit rate at N shards is no worse than the
//! single-runtime soak's.

use runtime::kernels;
use shard::{synthesize, LoadSpec, RouteKey, RoutePick, ShardConfig, ShardServer};
use softfloat::{FpFormat, FpValue};

const F: FpFormat = FpFormat::PAPER;

fn small_spec() -> LoadSpec {
    LoadSpec {
        waves: 2,
        tenants_per_wave: 6,
        items_per_tenant: 4,
        ..LoadSpec::default()
    }
}

#[test]
fn same_structure_always_routes_to_the_same_shard() {
    for shards in [2usize, 3, 8] {
        for w in kernels::library(F) {
            let key = RouteKey::of(&w.graph);
            let home = key.shard(shards);
            // Any coefficient variant of the structure keys identically.
            let coeffs = w.graph.coeff_nodes().len();
            let variant = w
                .graph
                .with_coeffs(&vec![FpValue::from_f64(0.123, F); coeffs]);
            assert_eq!(
                RouteKey::of(&variant).shard(shards),
                home,
                "{} at {shards} shards",
                w.name
            );
        }
    }
}

#[test]
fn server_sticks_structures_to_their_affine_shard() {
    // Spilling disabled: routing is pure affinity.
    let mut server = ShardServer::start(ShardConfig {
        spill_margin: u64::MAX,
        ..ShardConfig::new(3)
    });
    let fir = kernels::fir_seeded(F, 5, 7);
    let (at_cold, pick, ticket) = server
        .submit("fir-cold", fir.graph.clone())
        .expect("dispatch");
    assert_eq!(pick, RoutePick::Affinity);
    let cold = ticket.wait().expect("admit").expect_admitted("empty tier");
    assert!(
        !cold.cache_hit,
        "first admission of the structure compiles cold"
    );

    // A coefficient variant must land on the same shard — and hit its cache.
    let coeffs = fir.graph.coeff_nodes().len();
    let warm_graph = fir
        .graph
        .with_coeffs(&vec![FpValue::from_f64(-0.5, F); coeffs]);
    let (at_warm, _, ticket) = server.submit("fir-warm", warm_graph).expect("dispatch");
    assert_eq!(
        at_warm.shard, at_cold.shard,
        "affinity key ignores coefficient values"
    );
    let warm = ticket
        .wait()
        .expect("admit")
        .expect_admitted("room on shard");
    assert!(
        warm.cache_hit,
        "affine routing must convert the second admission to a warm hit"
    );
    server.drain(true).expect("drain");
    for fin in server.shutdown() {
        assert!(fin.verify.ok(), "shard {} invariants", fin.shard);
    }
}

#[test]
fn sharding_does_not_cost_warm_hits() {
    let plan = synthesize(F, &small_spec());
    let mut single = ShardServer::start(ShardConfig::new(1));
    let baseline = shard::loadgen::run(&mut single, &plan).expect("single-shard run");
    single.shutdown();

    let mut tier = ShardServer::start(ShardConfig::new(3));
    let report = shard::loadgen::run(&mut tier, &plan).expect("3-shard run");
    tier.shutdown();

    assert!(
        baseline.warm_hit_rate >= 1.0 / 3.0,
        "single-runtime soak warm rate {:.2} below the 33% floor",
        baseline.warm_hit_rate
    );
    assert!(
        report.warm_hit_rate + 1e-9 >= baseline.warm_hit_rate,
        "sharded warm rate {:.2} fell below the single-runtime rate {:.2}",
        report.warm_hit_rate,
        baseline.warm_hit_rate
    );
}
