//! The sharded serving tier in ~60 lines: route structurally related
//! tenants to their cache-affine shard, absorb backpressure, stream
//! through them concurrently, and close with a verified drain.
//!
//! ```text
//! cargo run --release --example sharded_serving
//! ```
//!
//! For throughput and latency quantiles run the repo benchmark's
//! `shard_mixed` workload (`bench/run.sh`, see `bench/README.md`); the
//! bit-exactness cross-check against a single-runtime run is
//! `crates/shard/tests/bit_exact.rs`.

use shard::{synthesize, LoadSpec, RouteKey, ShardConfig, ShardServer};
use softfloat::FpFormat;

fn main() {
    let format = FpFormat::PAPER;

    // Where does each library kernel live on a 4-shard tier? The routing
    // key hashes the graph *structure* (never coefficient values), so a
    // kernel and all its retunings share one home shard — and one warm
    // configuration cache.
    let shards = 4;
    println!("routing keys over {shards} shards:");
    for w in runtime::kernels::library(format) {
        let key = RouteKey::of(&w.graph);
        println!("  {:<22} -> shard {}", w.name, key.shard(shards));
    }

    // Serve a small seeded plan: one priming wave (cold compiles), two
    // waves of warm traffic, each tenant's lifecycle fully pipelined
    // (admit -> stream -> swap -> stream -> release).
    let spec = LoadSpec {
        waves: 2,
        tenants_per_wave: 8,
        items_per_tenant: 16,
        ..LoadSpec::default()
    };
    let plan = synthesize(format, &spec);
    let mut tier = ShardServer::start(ShardConfig::new(shards));
    let report = shard::loadgen::run(&mut tier, &plan).expect("every wave drains verified");

    println!(
        "\nserved {} tenants: {} items after priming, \
         warm-hit rate {:.0}%, {} spills, fingerprint {:016x}",
        plan.tenants(),
        report.total_items,
        report.warm_hit_rate * 100.0,
        report.spills,
        report.fingerprint,
    );
    for (s, admitted) in report.shard_stats.iter().zip(&report.admission_orders) {
        println!(
            "  shard {}: {} requests, {} admissions ({} warm hits)",
            s.shard,
            s.processed,
            admitted.len(),
            s.cache.hits,
        );
    }

    // Shutdown joins every worker and re-proves each runtime's scheduler
    // invariants one last time.
    for fin in tier.shutdown() {
        assert!(fin.verify.ok(), "shard {} invariants", fin.shard);
    }
    println!("\nall shards drained and verified.");
}
