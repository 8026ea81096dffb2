//! The determinism contract: one seed, one schedule. Two runs of the
//! same synthesized plan produce identical per-shard admission orders
//! and a bit-identical output fingerprint — routing reads only the
//! caller's own submit/collect order, never worker timing. The orders
//! are the dispatcher's record; the workers keep none (a stats reply is
//! `Copy`), and the load generator checks every worker's tenant ids
//! against that record.

use shard::{synthesize, LoadPlan, LoadReport, LoadSpec, ShardConfig, ShardServer, ShardStats};
use softfloat::FpFormat;

const F: FpFormat = FpFormat::PAPER;

fn spec(seed: u64) -> LoadSpec {
    LoadSpec {
        seed,
        waves: 2,
        tenants_per_wave: 6,
        items_per_tenant: 4,
    }
}

fn drive(plan: &LoadPlan, shards: usize) -> LoadReport {
    let mut server = ShardServer::start(ShardConfig::new(shards));
    let report = shard::loadgen::run(&mut server, plan).expect("load run");
    for fin in server.shutdown() {
        assert!(
            fin.verify.ok(),
            "shard {} failed its closing verification",
            fin.shard
        );
    }
    report
}

#[test]
fn same_seed_same_admission_orders_and_fingerprint() {
    let plan = synthesize(F, &spec(0xD00D));
    let a = drive(&plan, 3);
    let b = drive(&plan, 3);
    assert_eq!(
        a.fingerprint, b.fingerprint,
        "output fingerprints must match bit-for-bit"
    );
    assert_eq!(
        a.spills, b.spills,
        "spill decisions are part of the deterministic schedule"
    );
    assert_eq!(
        a.admission_orders, b.admission_orders,
        "every shard must admit the same applications in the same order"
    );
    // The orders are a real partition of the plan, not vacuously empty.
    let total: usize = a.admission_orders.iter().map(Vec::len).sum();
    assert_eq!(total, plan.tenants());
}

#[test]
fn synthesis_is_a_pure_function_of_the_seed() {
    let one = synthesize(F, &spec(0xABCD));
    let two = synthesize(F, &spec(0xABCD));
    // Same plan → same schedule end to end (cheap proxy for structural
    // equality: drive both and compare the full deterministic surface).
    let a = drive(&one, 2);
    let b = drive(&two, 2);
    assert_eq!(a.fingerprint, b.fingerprint);
    assert_eq!(a.admission_orders, b.admission_orders);

    // And a different seed actually changes the workload.
    let other = synthesize(F, &spec(0xEF01));
    let c = drive(&other, 2);
    assert_ne!(
        a.fingerprint, c.fingerprint,
        "distinct seeds must synthesize distinct traffic"
    );
}

#[test]
fn a_stats_reply_holds_no_per_admission_state() {
    // A compile-time bound: a type that owned a growing log could not be
    // `Copy`.
    fn copy<T: Copy>() {}
    copy::<ShardStats>();
}

#[test]
fn a_verified_drain_is_one_request_per_shard() {
    let mut server = ShardServer::start(ShardConfig::new(1));
    let first = server.drain(true).expect("empty tier verifies");
    let second = server.drain(true).expect("empty tier verifies");
    assert_eq!(second[0].processed - first[0].processed, 1);
    for fin in server.shutdown() {
        assert!(fin.verify.ok());
    }
}
