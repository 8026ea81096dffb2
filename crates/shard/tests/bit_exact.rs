//! Sharding must not change a single output bit: the same plan produces
//! identical per-tenant results on one shard and on three, both agree
//! with the reference dataflow interpreter, and the fingerprint is the
//! same for every shard count × engine worker count.

use shard::{synthesize, LoadSpec, ShardConfig, ShardServer};
use softfloat::FpFormat;
use vcgra::sim::run_dataflow;

const F: FpFormat = FpFormat::PAPER;

#[test]
fn outputs_are_bit_exact_across_shard_counts_and_against_the_reference() {
    let plan = synthesize(
        F,
        &LoadSpec {
            waves: 2,
            tenants_per_wave: 5,
            items_per_tenant: 4,
            ..LoadSpec::default()
        },
    );

    let mut single = ShardServer::start(ShardConfig::new(1));
    let baseline = shard::loadgen::run(&mut single, &plan).expect("single-shard run");
    single.shutdown();
    let mut tier = ShardServer::start(ShardConfig::new(3));
    let report = shard::loadgen::run(&mut tier, &plan).expect("3-shard run");
    tier.shutdown();

    // Neither the shard count nor the engine workers per shard may show
    // in the fingerprint, and every shard closes with clean invariants.
    for shards in [1, 2, 3, 8] {
        for workers in [1, 2, 4] {
            let mut cfg = ShardConfig::new(shards);
            cfg.runtime.workers = workers;
            let mut tier = ShardServer::start(cfg);
            let rep = shard::loadgen::run(&mut tier, &plan).expect("matrix run");
            assert_eq!(
                rep.fingerprint, baseline.fingerprint,
                "{shards} shards x {workers} workers changed the output bits"
            );
            for fin in tier.shutdown() {
                assert!(
                    fin.verify.ok(),
                    "{shards} shards x {workers} workers: shard {}",
                    fin.shard
                );
            }
        }
    }

    assert_eq!(
        baseline.fingerprint, report.fingerprint,
        "shard count must be invisible in the output bits"
    );
    let base_outputs = &baseline.outputs;
    let tier_outputs = &report.outputs;
    assert_eq!(base_outputs.len(), plan.tenants());
    assert_eq!(
        base_outputs.keys().collect::<Vec<_>>(),
        tier_outputs.keys().collect::<Vec<_>>()
    );

    for (wave, jobs) in plan.waves.iter().enumerate() {
        for job in jobs {
            let base = &base_outputs[&job.name];
            let tier = &tier_outputs[&job.name];
            // Phase by phase, vector by vector, bit by bit — and each
            // phase against run_dataflow on the phase's graph.
            let phase_graphs = [job.graph.clone(), job.graph.with_coeffs(&job.swap_coeffs)];
            for (phase, graph) in phase_graphs.iter().enumerate() {
                assert_eq!(base[phase].len(), job.inputs.len());
                for (input, (b, t)) in job.inputs.iter().zip(base[phase].iter().zip(&tier[phase])) {
                    let bits =
                        |vs: &[softfloat::FpValue]| vs.iter().map(|v| v.bits).collect::<Vec<_>>();
                    assert_eq!(
                        bits(b),
                        bits(t),
                        "wave {wave} job {} phase {phase}: 1-shard vs 3-shard outputs differ",
                        job.name
                    );
                    let want = run_dataflow(graph, input);
                    assert_eq!(
                        bits(b),
                        bits(&want),
                        "wave {wave} job {} phase {phase}: deviates from run_dataflow",
                        job.name
                    );
                }
            }
        }
    }
}
