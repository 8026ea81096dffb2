//! Acceptance tests for the runtime: every kernel in the library executes
//! bit-exactly like `vcgra::sim::run_dataflow`, before and after a
//! warm-cache parameter swap, with all tenants live on one grid pool
//! concurrently.

use runtime::kernels;
use runtime::{Refresh, Runtime, RuntimeConfig, RuntimeError, StreamRequest};
use softfloat::{FpFormat, FpValue};
use vcgra::app::{AppGraph, AppSource};
use vcgra::flow::FlowError;
use vcgra::sim::run_dataflow;

const F: FpFormat = FpFormat::PAPER;

fn fp(x: f64) -> FpValue {
    FpValue::from_f64(x, F)
}

/// Deterministic input stream for a graph with `n` inputs.
fn stream(n: usize, items: usize, salt: u64) -> Vec<Vec<FpValue>> {
    let mut rng = logic::SplitMix64::new(0xC0FFEE ^ salt);
    (0..items)
        .map(|_| (0..n).map(|_| fp((rng.unit_f64() - 0.5) * 8.0)).collect())
        .collect()
}

#[test]
fn every_library_kernel_is_bit_exact_cold_and_after_warm_swap() {
    let mut rt = Runtime::new(RuntimeConfig::default());
    let lib = kernels::library(F);
    assert!(lib.len() >= 4, "need at least four distinct kernels");

    // Admit every kernel concurrently onto the one pool.
    let mut ids = Vec::new();
    for w in &lib {
        let adm = rt.submit(&w.name, w.graph.clone()).expect("submitted").expect_admitted("placed");
        ids.push(adm.tenant);
    }

    // Concurrent cold streams: all tenants in one run() call.
    let requests: Vec<StreamRequest> = ids
        .iter()
        .zip(&lib)
        .map(|(&t, w)| StreamRequest {
            tenant: t,
            inputs: stream(w.graph.num_inputs, 16, t),
        })
        .collect();
    let inputs: Vec<Vec<Vec<FpValue>>> =
        requests.iter().map(|r| r.inputs.clone()).collect();
    let runs = rt.run(requests).expect("streamed");
    assert_eq!(runs.len(), lib.len());
    for ((run, w), ins) in runs.iter().zip(&lib).zip(&inputs) {
        for (input, out) in ins.iter().zip(&run.outputs) {
            let want = run_dataflow(&w.graph, input);
            assert_eq!(
                out.iter().map(|v| v.bits).collect::<Vec<_>>(),
                want.iter().map(|v| v.bits).collect::<Vec<_>>(),
                "{} cold outputs must be bit-exact",
                w.name
            );
        }
    }

    // Warm parameter swap on every coefficient-bearing tenant, then
    // re-stream and compare against run_dataflow on the swapped graph.
    let mut rng = logic::SplitMix64::new(99);
    for (&t, w) in ids.iter().zip(&lib) {
        let slots = w.graph.coeff_nodes();
        let new_coeffs: Vec<FpValue> =
            (0..slots.len()).map(|_| fp((rng.unit_f64() - 0.5) * 4.0)).collect();
        let report = rt.swap_params(t, &new_coeffs).expect("swap");
        if !slots.is_empty() {
            assert!(report.dirty_pes > 0, "{}: coefficients changed", w.name);
        }
        let swapped = w.graph.with_coeffs(&new_coeffs);
        let ins = stream(w.graph.num_inputs, 8, t ^ 0xABCD);
        let runs = rt
            .run(vec![StreamRequest { tenant: t, inputs: ins.clone() }])
            .expect("streamed after swap");
        for (input, out) in ins.iter().zip(&runs[0].outputs) {
            let want = run_dataflow(&swapped, input);
            assert_eq!(
                out.iter().map(|v| v.bits).collect::<Vec<_>>(),
                want.iter().map(|v| v.bits).collect::<Vec<_>>(),
                "{} post-swap outputs must be bit-exact",
                w.name
            );
        }
    }
}

#[test]
fn warm_admission_hits_cache_and_skips_compile() {
    let mut rt = Runtime::new(RuntimeConfig::default());
    let a = kernels::fir(F, &[0.1, 0.2, 0.3, 0.4, 0.5]);
    let b = kernels::fir(F, &[-1.0, 2.0, -3.0, 4.0, -5.0]); // same structure

    let cold = rt.submit("fir-cold", a.graph.clone()).unwrap().expect_admitted("placed");
    assert!(!cold.cache_hit);
    assert!(cold.compile_time > std::time::Duration::ZERO);

    let warm = rt.submit("fir-warm", b.graph.clone()).unwrap().expect_admitted("placed");
    assert!(warm.cache_hit, "structurally identical graph must hit");
    assert_eq!(warm.compile_time, std::time::Duration::ZERO);
    assert_eq!(
        rt.tenant(cold.tenant).unwrap().config_key(),
        rt.tenant(warm.tenant).unwrap().config_key()
    );

    // Both tenants produce their *own* coefficients' results (no
    // cross-tenant parameter leakage through the shared cache entry).
    let ins = stream(5, 4, 7);
    let runs = rt
        .run(vec![
            StreamRequest { tenant: cold.tenant, inputs: ins.clone() },
            StreamRequest { tenant: warm.tenant, inputs: ins.clone() },
        ])
        .unwrap();
    for (run, w) in runs.iter().zip([&a, &b]) {
        for (input, out) in ins.iter().zip(&run.outputs) {
            let want = run_dataflow(&w.graph, input);
            assert_eq!(out[0].bits, want[0].bits);
        }
    }
    let stats = rt.cache_stats();
    assert_eq!(stats.hits, 1);
    assert_eq!(stats.misses, 1);
}

#[test]
fn resubmit_routes_structure_changes_to_recompile() {
    let mut rt = Runtime::new(RuntimeConfig::default());
    let w = kernels::fir(F, &[0.25, 0.5, 0.25]);
    let adm = rt.submit("fir", w.graph.clone()).unwrap().expect_admitted("placed");

    // Parameter-only resubmit: swap fast path.
    let swapped = w.graph.with_coeffs(&[fp(1.0), fp(2.0), fp(3.0)]);
    match rt.resubmit(adm.tenant, swapped).unwrap() {
        Refresh::Swapped(r) => assert!(r.dirty_pes > 0),
        _ => panic!("same structure must not recompile or queue"),
    }

    // Structural resubmit: recompile under the same tenant id.
    let bigger = kernels::fir(F, &[1.0; 7]);
    match rt.resubmit(adm.tenant, bigger.graph.clone()).unwrap() {
        Refresh::Recompiled(a) => {
            assert_eq!(a.tenant, adm.tenant, "tenant id survives");
            assert!(!a.cache_hit);
        }
        _ => panic!("structure changed, must recompile"),
    }
    let ins = stream(7, 4, 3);
    let runs = rt
        .run(vec![StreamRequest { tenant: adm.tenant, inputs: ins.clone() }])
        .unwrap();
    for (input, out) in ins.iter().zip(&runs[0].outputs) {
        assert_eq!(out[0].bits, run_dataflow(&bigger.graph, input)[0].bits);
    }
}

#[test]
fn oversubscribed_pool_time_multiplexes_without_corruption() {
    // One tiny grid: 4 rows of 4. Three 2-row tenants oversubscribe it.
    let cfg = RuntimeConfig {
        grids: vec![vcgra::VcgraArch::new(4, 4, 2)],
        ..RuntimeConfig::default()
    };
    let mut rt = Runtime::new(cfg);
    let kernels: Vec<_> = [
        kernels::fir(F, &[0.5, 0.25, 0.125]),
        kernels::fir(F, &[-1.0, 1.0, -1.0]),
        kernels::tree_reduction(F, 4),
    ]
    .into_iter()
    .collect();
    let mut ids = Vec::new();
    for w in &kernels {
        ids.push(rt.submit(&w.name, w.graph.clone()).unwrap().tenant());
    }
    // The third tenant had to share a band.
    assert!(rt.tenant(ids[2]).unwrap().lease.shared);

    let requests: Vec<StreamRequest> = ids
        .iter()
        .zip(&kernels)
        .map(|(&t, w)| StreamRequest { tenant: t, inputs: stream(w.graph.num_inputs, 12, t) })
        .collect();
    let inputs: Vec<Vec<Vec<FpValue>>> = requests.iter().map(|r| r.inputs.clone()).collect();
    let runs = rt.run(requests).unwrap();
    let mut switches = 0;
    for ((run, w), ins) in runs.iter().zip(&kernels).zip(&inputs) {
        switches += run.context_switches;
        for (input, out) in ins.iter().zip(&run.outputs) {
            let want = run_dataflow(&w.graph, input);
            assert_eq!(
                out.iter().map(|v| v.bits).collect::<Vec<_>>(),
                want.iter().map(|v| v.bits).collect::<Vec<_>>(),
                "{}: time-multiplexed results must not corrupt",
                w.name
            );
        }
    }
    assert!(switches > 0, "sharing a band must charge context switches");
    assert!(rt.ledger().switch_port_time > std::time::Duration::ZERO);

    // Alternating single-tenant run() calls on the shared band must keep
    // charging switches: the runtime tracks which tenant's configuration
    // is resident across calls, not just within one call.
    let shared_pair: Vec<_> = ids
        .iter()
        .copied()
        .filter(|&t| {
            let l = rt.tenant(t).unwrap().lease;
            (l.grid, l.row0) == {
                let l2 = rt.tenant(ids[2]).unwrap().lease;
                (l2.grid, l2.row0)
            }
        })
        .collect();
    assert_eq!(shared_pair.len(), 2, "exactly two tenants share the band");
    let mut alternating_switches = 0;
    for &t in [shared_pair[0], shared_pair[1], shared_pair[0]].iter() {
        let w = &kernels[ids.iter().position(|&i| i == t).unwrap()];
        let runs = rt
            .run(vec![StreamRequest { tenant: t, inputs: stream(w.graph.num_inputs, 2, t) }])
            .unwrap();
        alternating_switches += runs[0].context_switches;
    }
    assert!(
        alternating_switches >= 2,
        "each swap-in across run() calls must be charged, got {alternating_switches}"
    );
}

/// Admits a two-tap FIR that the refusal tests keep serving.
fn served(rt: &mut Runtime) -> (runtime::TenantId, AppGraph) {
    let good = kernels::fir(F, &[0.5, 0.25]);
    let id = rt.submit("good", good.graph.clone()).unwrap().tenant();
    (id, good.graph)
}

/// After refused calls only: its four items are the first streamed.
fn assert_still_served(rt: &mut Runtime, id: runtime::TenantId, graph: &AppGraph) {
    let ins = stream(2, 4, 1);
    let runs = rt.run(vec![StreamRequest { tenant: id, inputs: ins.clone() }]).unwrap();
    for (input, out) in ins.iter().zip(&runs[0].outputs) {
        assert_eq!(out[0].bits, run_dataflow(graph, input)[0].bits);
    }
    assert_eq!(rt.ledger().items, 4, "a refused call streams nothing");
}

#[test]
fn a_graph_that_does_not_lower_is_an_error_not_a_worker_panic() {
    // `AppGraph`'s fields are public, so a tenant can hand over operands
    // that `AppGraph::add` would have refused, and `add` takes a
    // coefficient of any format. Such a graph is admitted (placement reads
    // neither coefficients nor operand values it cannot route), and `run`
    // must refuse it before any engine thread starts, leaving the other
    // tenants served.
    let mut rt = Runtime::new(RuntimeConfig::default());
    let (good_id, good) = served(&mut rt);
    let mut external = AppGraph::dot_product(F, &[1.0, 2.0]);
    external.nodes[0].a = AppSource::External(7);
    let mut forward = AppGraph::dot_product(F, &[1.0, 2.0]);
    forward.nodes[2].b = AppSource::Node(2);
    let mut format = AppGraph::dot_product(F, &[1.0, 2.0]);
    format.nodes[1].coeff = Some(FpValue::from_f64(2.0, FpFormat::new(5, 10)));
    for (name, graph) in [("external", external), ("forward", forward), ("format", format)] {
        let bad = rt.submit(name, graph).unwrap().tenant();
        let err = rt
            .run(vec![
                StreamRequest { tenant: good_id, inputs: stream(2, 4, 1) },
                StreamRequest { tenant: bad, inputs: stream(2, 4, 2) },
            ])
            .unwrap_err();
        assert!(matches!(err, RuntimeError::Invariant(_)), "{name}: {err}");
    }
    assert_still_served(&mut rt, good_id, &good);
}

#[test]
fn an_input_in_the_wrong_format_is_an_error_not_a_worker_panic() {
    // The engine's columns are bare bits: a (5,10) encoding streamed into
    // a (6,26) graph would be read as some other number. `run` refuses it
    // before any engine thread starts.
    let mut rt = Runtime::new(RuntimeConfig::default());
    let (id, graph) = served(&mut rt);
    let other = FpFormat::new(5, 10);
    let mut inputs = stream(2, 70, 3);
    inputs[67][1] = FpValue::from_f64(1.5, other);
    let err = rt.run(vec![StreamRequest { tenant: id, inputs }]).unwrap_err();
    assert_eq!(err, RuntimeError::BadFormat { expected: F, got: other });
    assert_still_served(&mut rt, id, &graph);
}

#[test]
fn a_swapped_coefficient_in_the_wrong_format_is_an_error_not_a_worker_panic() {
    let mut rt = Runtime::new(RuntimeConfig::default());
    let (id, graph) = served(&mut rt);
    let other = FpFormat::new(5, 10);
    let err = rt.swap_params(id, &[fp(0.75), FpValue::from_f64(0.75, other)]).unwrap_err();
    assert_eq!(err, RuntimeError::BadFormat { expected: F, got: other });
    // `resubmit` of the same structure takes the same door.
    let mut same = graph.clone();
    let slot = same.coeff_nodes()[0];
    same.nodes[slot].coeff = Some(FpValue::from_f64(0.75, other));
    let err = rt.resubmit(id, same).unwrap_err();
    assert_eq!(err, RuntimeError::BadFormat { expected: F, got: other });
    assert_eq!(rt.ledger().swaps, 0, "a refused swap is not charged");
    // The old coefficients are still the ones in force.
    assert_still_served(&mut rt, id, &graph);
}

/// What a refused call must leave as it found it: the bands, the queue
/// and every ledger counter.
fn state(rt: &Runtime) -> (Vec<runtime::BandInfo>, Vec<runtime::TenantId>, String) {
    (rt.pool().bands(), rt.queued_tenants(), format!("{:?}", rt.ledger()))
}

#[test]
fn an_empty_graph_is_refused_not_a_panic() {
    // A zero-node graph has a zero-PE demand: the pool asserts on it, and
    // behind a non-empty queue it would wait there for a drain to reach
    // that assert. `submit` and `resubmit` refuse it at the door.
    let empty = || AppGraph::new(F, 1);
    let refused = RuntimeError::Flow(FlowError::EmptyGraph);

    // Dedicated bands, nothing queued.
    let mut rt = Runtime::new(RuntimeConfig { queue: false, ..RuntimeConfig::default() });
    let (good_id, good) = served(&mut rt);
    let before = state(&rt);
    assert_eq!(rt.submit("empty", empty()).unwrap_err(), refused);
    assert_eq!(rt.resubmit(good_id, empty()).unwrap_err(), refused);
    assert_eq!(state(&rt), before);
    assert!(rt.verify().ok(), "{}", rt.verify().summary());
    assert_still_served(&mut rt, good_id, &good);

    // A full pool with a tenant waiting: the empty graph must not take a
    // queue slot, nor replace the waiting tenant's graph.
    let mut rt = Runtime::new(RuntimeConfig {
        grids: vec![vcgra::VcgraArch::new(4, 4, 2)],
        time_share: false,
        ..RuntimeConfig::default()
    });
    let (good_id, good) = served(&mut rt);
    let second = rt.submit("second", good.clone()).unwrap().tenant();
    let waiting = rt.submit("waiting", good.clone()).unwrap();
    assert!(waiting.is_queued(), "two 2-row bands fill the 4-row grid");
    let before = state(&rt);
    assert_eq!(rt.submit("empty", empty()).unwrap_err(), refused);
    assert_eq!(rt.resubmit(waiting.tenant(), empty()).unwrap_err(), refused);
    assert_eq!(rt.resubmit(good_id, empty()).unwrap_err(), refused);
    assert_eq!(state(&rt), before);
    assert!(rt.verify().ok(), "{}", rt.verify().summary());
    // The waiting tenant admits with the graph it queued with.
    let drained = rt.release(second).unwrap();
    assert_eq!(drained.len(), 1);
    assert_eq!(drained[0].tenant, waiting.tenant());
    assert_eq!(rt.tenant(waiting.tenant()).unwrap().graph.nodes.len(), good.nodes.len());
    assert_still_served(&mut rt, good_id, &good);
}

#[test]
fn a_dangling_operand_is_refused_at_submit_not_a_worker_panic() {
    // `submit` compiles before `run` ever lowers: an operand naming a
    // node the graph does not have used to index past the placement
    // inside `map_app`. It is a compile error now, the lease taken for
    // the compile is surrendered, and the runtime keeps serving.
    let mut rt = Runtime::new(RuntimeConfig::default());
    let (good_id, good) = served(&mut rt);
    let mut dangling = AppGraph::dot_product(F, &[1.0, 2.0, 3.0]);
    dangling.nodes[4].a = AppSource::Node(99);
    let refused = RuntimeError::Flow(FlowError::DanglingSource { node: 4, source: 99 });
    let before = state(&rt);
    assert_eq!(rt.submit("dangling", dangling.clone()).unwrap_err(), refused);
    assert_eq!(state(&rt), before, "the lease taken for the compile is surrendered");
    assert!(rt.verify().ok(), "{}", rt.verify().summary());

    // A structural resubmit gives its lease up first, so the refusal
    // evicts the tenant (as an unroutable replacement would) and frees
    // its rows.
    let victim = rt.submit("victim", good.clone()).unwrap().tenant();
    assert_eq!(rt.resubmit(victim, dangling).unwrap_err(), refused);
    assert!(rt.tenant(victim).is_none());
    assert_eq!(rt.pool().bands(), before.0);
    assert!(rt.verify().ok(), "{}", rt.verify().summary());

    // Other tenants, old and new, are served as before.
    let later = kernels::fir(F, &[1.0, 2.0, 3.0]);
    rt.submit(&later.name, later.graph).unwrap().expect_admitted("a free grid");
    assert_still_served(&mut rt, good_id, &good);
}
