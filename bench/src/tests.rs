//! Whole-run tests at reduced sizes: every declared metric is emitted, and
//! each workload's validity checks fail a run that breaks them.

use std::collections::BTreeSet;
use std::sync::{Mutex, MutexGuard};

use crate::report::{Outcome, Spec};
use crate::{churn, overlay, shardmix, stream, Args};

/// The span recorder is one per process: a run that traces must not
/// overlap another run's spans, so whole-run tests take turns.
static ONE_RUN_AT_A_TIME: Mutex<()> = Mutex::new(());

fn turn() -> MutexGuard<'static, ()> {
    ONE_RUN_AT_A_TIME
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn args(workload: &str, trace: bool) -> Args {
    Args {
        workload: workload.to_string(),
        seed: 1,
        seconds: 0.3,
        trace,
    }
}

fn small_overlay() -> overlay::Sizes {
    overlay::Sizes {
        format: softfloat::FpFormat::new(4, 6),
        specializations: 16,
        equiv_draws: 1,
        ..overlay::Sizes::default()
    }
}

fn small_churn() -> churn::Sizes {
    churn::Sizes {
        prefix: 3,
        ..churn::Sizes::default()
    }
}

fn small_stream() -> stream::Sizes {
    stream::Sizes {
        items: 8,
        prefix: 2,
        sample_every: 1,
        ..stream::Sizes::default()
    }
}

fn small_shard() -> shardmix::Sizes {
    // A window this short never reaches the steady hit share.
    shardmix::Sizes {
        prefix: 16,
        sample_every: 4,
        warm_band: (0.0, 1.0),
        ..shardmix::Sizes::default()
    }
}

fn run_small(workload: &str, trace: bool) -> Outcome {
    let a = args(workload, trace);
    match workload {
        "overlay_build" => overlay::run(&a, &small_overlay()),
        "app_churn" => churn::run(&a, &small_churn()),
        "serve_stream" => stream::run(&a, &small_stream()),
        "shard_mixed" => shardmix::run(&a, &small_shard()),
        other => panic!("{other}"),
    }
}

#[test]
fn every_declared_metric_is_emitted_and_every_emitted_one_declared() {
    let _turn = turn();
    let spec = Spec::load();
    let end_to_end: BTreeSet<&str> = spec.end_to_end.iter().map(|m| m.name.as_str()).collect();
    let per_layer: BTreeSet<&str> = spec.per_layer.iter().map(|m| m.name.as_str()).collect();
    let mut layer_seen = BTreeSet::new();
    for (workload, _) in &spec.workloads {
        let plain = run_small(workload, false);
        assert_eq!(plain.failed, 0, "{workload}: {:?}", plain.failures);
        let got: BTreeSet<&str> = plain.metrics.0.keys().map(String::as_str).collect();
        assert_eq!(
            got, end_to_end,
            "{workload}: every end-to-end metric, on every workload"
        );
        assert!(
            plain.metrics.0.values().all(|&v| v > 0.0),
            "{workload}: {:?}",
            plain.metrics
        );
        // The result line itself checks that every name is declared.
        plain.result_line(&spec.end_to_end, false);

        let traced = run_small(workload, true);
        assert_eq!(traced.failed, 0, "{workload}: {:?}", traced.failures);
        traced.result_line(&spec.per_layer, true);
        assert_eq!(traced.metrics.get("verify.violations"), Some(0.0));
        assert!(
            traced.metrics.get("trace.overhead_pct").is_some(),
            "{workload}"
        );
        layer_seen.extend(traced.metrics.0.keys().cloned());
    }
    let layer_seen: BTreeSet<&str> = layer_seen.iter().map(String::as_str).collect();
    assert_eq!(
        layer_seen, per_layer,
        "every per-layer metric is measured by some workload"
    );
}

#[test]
fn same_seed_same_facts() {
    let _turn = turn();
    for workload in ["app_churn", "serve_stream", "shard_mixed"] {
        let (a, b) = (run_small(workload, false), run_small(workload, false));
        for fact in ["plan_hash", "fingerprint", "port_s"] {
            assert!(a.facts.contains_key(fact), "{workload} records {fact}");
            assert_eq!(a.facts[fact], b.facts[fact], "{workload} {fact}");
        }
    }
}

#[test]
fn churn_fails_when_an_admission_hits_the_cache() {
    let _turn = turn();
    let mut state = churn::setup(1, &mut Outcome::default());
    // The same structure twice in a row: the second admission is a hit.
    let first = state.plan.visits[0].clone();
    state.plan.visits = vec![first.clone(), first];
    state.plan.visit_shape = vec![state.plan.visit_shape[0]; 2];
    let mut out = Outcome::default();
    let sizes = churn::Sizes {
        prefix: 2,
        ..churn::Sizes::default()
    };
    churn::replay(&mut state, 0.0, &sizes, &mut out);
    assert_eq!(out.failed, 0, "{:?}", out.failures);
    churn::check_state(&state, &mut out);
    assert_eq!(out.failed, 1, "{:?}", out.failures);
    assert!(out.failures[0].contains("must never hit the cache"));
}

#[test]
fn stream_fails_when_a_band_is_time_shared() {
    let _turn = turn();
    // One 16x4 grid cannot give seven tenants (41 rows) a band each.
    let config = runtime::RuntimeConfig {
        grids: vec![vcgra::VcgraArch::new(16, 4, 2)],
        ..stream::runtime_config()
    };
    let mut out = Outcome::default();
    let mut state = stream::setup_on(1, &small_stream(), config, &mut out);
    stream::replay(&mut state, 0.0, &small_stream(), &mut out);
    let before = out.failed;
    stream::check_state(&state, &mut out);
    assert!(out.failed > before, "{:?}", out.failures);
    assert!(
        out.failures.iter().any(|f| f.contains("must be dedicated")),
        "{:?}",
        out.failures
    );
}

#[test]
fn shard_fails_outside_the_warm_band() {
    let _turn = turn();
    let mut out = Outcome::default();
    let sizes = shardmix::Sizes {
        prefix: 0,
        warm_band: (0.999, 1.0),
        ..shardmix::Sizes::default()
    };
    let mut state = shardmix::setup(1, &sizes, &mut out);
    shardmix::replay(&mut state, 0.2, &sizes, &mut out);
    assert_eq!(out.failed, 0, "{:?}", out.failures);
    shardmix::close(state, &sizes, &mut out);
    assert_eq!(out.failed, 1, "{:?}", out.failures);
    assert!(out.failures[0].contains("left the band"));
}

#[test]
fn a_wrong_output_is_a_failed_operation() {
    let _turn = turn();
    let mut out = Outcome::default();
    let mut state = churn::setup(1, &mut out);
    let sizes = churn::Sizes {
        prefix: 1,
        sample_every: 1,
        ..churn::Sizes::default()
    };
    let (_, _, _, mut samples) = churn::replay(&mut state, 0.0, &sizes, &mut out);
    churn::check_samples(&state.plan, &samples, &mut out);
    assert_eq!(out.failed, 0);
    samples[0].outputs[0][0].bits ^= 1;
    churn::check_samples(&state.plan, &samples, &mut out);
    assert_eq!(out.failed, 1);
}
