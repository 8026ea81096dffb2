//! Scheduler-state verification tests: a churn soak that runs the sched
//! and timeline passes after every mutating operation, snapshot sanity for
//! the exported plain-data view, and the configuration lint of every
//! library kernel on the region admission compiles it for.

use runtime::kernels;
use runtime::{Admission, GridPool, Runtime, RuntimeConfig, StreamRequest};
use softfloat::{FpFormat, FpValue};
use vcgra::VcgraArch;

const F: FpFormat = FpFormat::PAPER;

fn stream(n: usize, items: usize, salt: u64) -> Vec<Vec<FpValue>> {
    let mut rng = logic::SplitMix64::new(0xFEED ^ salt);
    (0..items)
        .map(|_| {
            (0..n)
                .map(|_| FpValue::from_f64((rng.unit_f64() - 0.5) * 8.0, F))
                .collect()
        })
        .collect()
}

/// Runs the sched and timeline passes over `rt`'s state after `op`.
fn verified<T>(rt: &mut Runtime, op: &str, f: impl FnOnce(&mut Runtime) -> T) -> T {
    let out = f(rt);
    let report = rt.verify_all();
    assert!(report.ok(), "after {op}: {}", report.summary());
    out
}

#[test]
fn churn_soak_verifies_after_every_operation() {
    // Mixed pool, everything on: queueing, compaction, time-sharing,
    // cache-aware placement — and both passes after every operation.
    let cfg = RuntimeConfig {
        grids: vec![VcgraArch::new(6, 4, 2), VcgraArch::new(8, 4, 2)],
        ..RuntimeConfig::default()
    };
    let mut rt = Runtime::new(cfg);

    // Fill the pool past capacity so some submissions queue.
    let mut tenants = Vec::new();
    for (i, taps) in [3usize, 5, 8, 3, 12, 4].iter().enumerate() {
        let graph = kernels::fir_seeded(F, *taps, i as u64 + 1).graph;
        let adm =
            verified(&mut rt, "submit", |rt| rt.submit(format!("t{i}"), graph)).expect("submit");
        if let Admission::Admitted(a) = adm {
            tenants.push(a.tenant);
        }
    }
    assert_eq!(
        tenants.len(),
        4,
        "the 6-row tenant and the one after it queue"
    );

    // Stream through the placed tenants.
    for &t in &tenants {
        let inputs = stream(rt.tenant(t).expect("live").graph.num_inputs, 8, t);
        verified(&mut rt, "run", |rt| {
            rt.run(vec![StreamRequest { tenant: t, inputs }])
        })
        .expect("run");
    }

    // A parameter swap on every placed tenant.
    for &t in &tenants {
        let n = rt.tenant(t).expect("live").graph.coeff_nodes().len();
        let coeffs = vec![FpValue::from_f64(0.75, F); n];
        verified(&mut rt, "swap", |rt| rt.swap_params(t, &coeffs)).expect("swap");
    }

    // Churn releases, each draining the queue and each re-verified. The
    // first two leave grid 1 six free rows in two runs, so the queued
    // 6-row tenant's admission compacts it: the time axis holds a
    // lane-local replay, not only port phases.
    for i in [0, 2, 1, 3] {
        verified(&mut rt, "release", |rt| rt.release(tenants[i])).expect("release");
    }

    // Final state re-proves clean explicitly.
    let report = rt.verify();
    assert!(report.ok(), "{}", report.summary());
    assert_eq!(report.pass, "sched");
    assert!(
        rt.ledger().compactions >= 1,
        "the soak verified a compaction: {:?}",
        rt.ledger()
    );
}

#[test]
fn snapshot_reflects_live_state() {
    let mut rt = Runtime::new(RuntimeConfig {
        grids: vec![VcgraArch::new(6, 4, 2)],
        ..RuntimeConfig::default()
    });
    let a = rt
        .submit("a", kernels::fir_seeded(F, 3, 1).graph)
        .expect("submit")
        .expect_admitted("empty pool");
    let snap = rt.snapshot();
    assert_eq!(snap.grids.len(), 1);
    assert_eq!(snap.tenants.len(), 1);
    assert_eq!(snap.tenants[0].id, a.tenant);
    assert_eq!(snap.bands.len(), 1);
    // Every cache insert follows a counted miss: the one miss is the
    // admission's compile going into the cache.
    assert_eq!(
        rt.cache_stats().misses,
        1,
        "the admission compiled into the cache"
    );
    assert!(verify::sched::check_sched(&snap).is_empty());
}

#[test]
fn library_kernels_lint_clean_on_their_minimal_regions() {
    // What a cold admission compiles on a 4-wide grid of channel
    // capacity 2: the minimal region, with the runtime's placement seed.
    let seed = RuntimeConfig::default().place_seed;
    let v = verify::Verifier::new();
    for format in [F, FpFormat::new(5, 10)] {
        for w in kernels::library(format) {
            let rows = GridPool::rows_needed(w.graph.pe_demand(), 4);
            let mapping = vcgra::flow::map_app(&w.graph, VcgraArch::new(rows, 4, 2), seed)
                .unwrap_or_else(|e| panic!("{} unmappable on its minimal region: {e}", w.name));
            let report = v.verify_config(&w.graph, &mapping);
            assert!(
                report.ok(),
                "{} at ({},{}): {}",
                w.name,
                format.we,
                format.wf,
                report.summary()
            );
        }
    }
}
