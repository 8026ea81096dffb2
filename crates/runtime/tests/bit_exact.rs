//! Acceptance tests for the runtime: every kernel in the library executes
//! bit-exactly like `vcgra::sim::run_dataflow`, before and after a
//! warm-cache parameter swap, with all tenants live on one grid pool
//! concurrently.

use std::sync::Arc;

use runtime::kernels;
use runtime::{CacheStats, Runtime, RuntimeConfig, RuntimeError, StreamRequest, TenantId};
use softfloat::{FpFormat, FpValue, NotIn};
use vcgra::app::{AppGraph, AppSource, GraphError};
use vcgra::flow::FlowError;
use vcgra::sim::run_dataflow;
use vcgra::PeMode;

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
        let adm = rt
            .submit(&w.name, w.graph.clone())
            .expect("submitted")
            .expect_admitted("placed");
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
    let inputs: Vec<Vec<Vec<FpValue>>> = requests.iter().map(|r| r.inputs.clone()).collect();
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
        let new_coeffs: Vec<FpValue> = (0..slots.len())
            .map(|_| fp((rng.unit_f64() - 0.5) * 4.0))
            .collect();
        let report = rt.swap_params(t, &new_coeffs).expect("swap");
        if !slots.is_empty() {
            assert!(report.dirty_pes > 0, "{}: coefficients changed", w.name);
        }
        let swapped = w.graph.with_coeffs(&new_coeffs);
        let ins = stream(w.graph.num_inputs, 8, t ^ 0xABCD);
        let runs = rt
            .run(vec![StreamRequest {
                tenant: t,
                inputs: ins.clone(),
            }])
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

    let cold = rt
        .submit("fir-cold", a.graph.clone())
        .unwrap()
        .expect_admitted("placed");
    assert!(!cold.cache_hit);

    let warm = rt
        .submit("fir-warm", b.graph.clone())
        .unwrap()
        .expect_admitted("placed");
    assert!(warm.cache_hit, "structurally identical graph must hit");
    assert_eq!(
        rt.tenant(cold.tenant).unwrap().config_key(),
        rt.tenant(warm.tenant).unwrap().config_key()
    );

    // Both tenants produce their *own* coefficients' results (no
    // cross-tenant parameter leakage through the shared cache entry).
    let ins = stream(5, 4, 7);
    let runs = rt
        .run(vec![
            StreamRequest {
                tenant: cold.tenant,
                inputs: ins.clone(),
            },
            StreamRequest {
                tenant: warm.tenant,
                inputs: ins.clone(),
            },
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
fn a_shared_compile_cannot_leak_parameters() {
    // Two tenants of one structure, on regions of one key, hold the
    // cache's one compile as it is. A mapping holds no coefficient, so a
    // swap of one tenant writes its own graph and nothing the other reads:
    // the other still runs its own filter, and its next swap is priced
    // as if the first swap had never happened.
    let graph_a = kernels::fir(F, &[0.1, 0.2, 0.3, 0.4, 0.5]).graph;
    let graph_b = kernels::fir(F, &[-1.0, 2.0, -3.0, 4.0, -5.0]).graph;
    let admit = |rt: &mut Runtime| {
        let a = rt.submit("a", graph_a.clone()).unwrap();
        let b = rt.submit("b", graph_b.clone()).unwrap();
        (a.expect_admitted("placed"), b.expect_admitted("placed"))
    };
    let b_next: Vec<FpValue> = [4.0, -0.5, 1.5, 0.25, -2.0].map(fp).to_vec();

    // The reference: the same admissions, and B's swap without A's.
    let mut reference = Runtime::new(RuntimeConfig::default());
    let (_, b) = admit(&mut reference);
    let want = reference.swap_params(b.tenant, &b_next).unwrap();
    assert!(want.dirty_pes > 0, "the swap changes every tap");

    let mut rt = Runtime::new(RuntimeConfig::default());
    let (a, b) = admit(&mut rt);
    assert!(!a.cache_hit && b.cache_hit);
    let (ta, tb) = (rt.tenant(a.tenant).unwrap(), rt.tenant(b.tenant).unwrap());
    assert_eq!(ta.config_key(), tb.config_key());
    assert!(
        Arc::ptr_eq(&ta.mapping, &tb.mapping),
        "a warm admission shares the cold one's compile, uncopied"
    );

    rt.swap_params(a.tenant, &[7.0, -7.0, 0.75, 3.0, -0.125].map(fp))
        .unwrap();
    let ins = stream(5, 8, 11);
    let runs = rt
        .run(vec![StreamRequest {
            tenant: b.tenant,
            inputs: ins.clone(),
        }])
        .unwrap();
    for (input, out) in ins.iter().zip(&runs[0].outputs) {
        assert_eq!(out, &run_dataflow(&graph_b, input));
    }
    assert_eq!(rt.swap_params(b.tenant, &b_next).unwrap(), want);
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
    let lease = rt.pool().lease(ids[2]).unwrap();
    assert!(rt.pool().band_tenants(lease.grid, lease.row0).len() > 1);

    let requests: Vec<StreamRequest> = ids
        .iter()
        .zip(&kernels)
        .map(|(&t, w)| StreamRequest {
            tenant: t,
            inputs: stream(w.graph.num_inputs, 12, t),
        })
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
        .filter(|&t| rt.pool().lease(t) == Some(lease))
        .collect();
    assert_eq!(shared_pair.len(), 2, "exactly two tenants share the band");
    let mut alternating_switches = 0;
    for &t in [shared_pair[0], shared_pair[1], shared_pair[0]].iter() {
        let w = &kernels[ids.iter().position(|&i| i == t).unwrap()];
        let runs = rt
            .run(vec![StreamRequest {
                tenant: t,
                inputs: stream(w.graph.num_inputs, 2, t),
            }])
            .unwrap();
        alternating_switches += runs[0].context_switches;
    }
    assert!(
        alternating_switches >= 2,
        "each swap-in across run() calls must be charged, got {alternating_switches}"
    );
}

/// Admits a two-tap FIR that the refusal tests keep serving.
fn served(rt: &mut Runtime) -> (TenantId, AppGraph) {
    let good = kernels::fir(F, &[0.5, 0.25]);
    let id = rt.submit("good", good.graph.clone()).unwrap().tenant();
    (id, good.graph)
}

/// After refused calls only: its four items are the first streamed.
fn assert_still_served(rt: &mut Runtime, id: TenantId, graph: &AppGraph) {
    let ins = stream(2, 4, 1);
    let runs = rt
        .run(vec![StreamRequest {
            tenant: id,
            inputs: ins.clone(),
        }])
        .unwrap();
    for (input, out) in ins.iter().zip(&runs[0].outputs) {
        assert_eq!(out[0].bits, run_dataflow(graph, input)[0].bits);
    }
    assert_eq!(rt.ledger().items, 4, "a refused call streams nothing");
}

#[test]
fn an_input_in_the_wrong_format_is_an_error_not_a_worker_panic() {
    // The engine's columns are bare bits: a (5,10) encoding streamed into
    // a (6,26) graph would be read as some other number. `run` refuses it:
    // the engine checks each item as it transposes it.
    let mut rt = Runtime::new(RuntimeConfig::default());
    let (id, graph) = served(&mut rt);
    let other = FpFormat::new(5, 10);
    let mut inputs = stream(2, 70, 3);
    inputs[67][1] = FpValue::from_f64(1.5, other);
    let err = rt
        .run(vec![StreamRequest { tenant: id, inputs }])
        .unwrap_err();
    assert_eq!(
        err,
        RuntimeError::BadValue {
            format: F,
            why: NotIn::Format(other)
        }
    );
    assert_still_served(&mut rt, id, &graph);
}

/// One 4x4 grid at `workers`: `served`'s FIR holds a 2-row band, and two
/// more share the other. Returns the runtime, the FIR, the dedicated
/// band's tenant and the shared band's two in slot order.
fn a_time_shared_band(workers: usize) -> (Runtime, AppGraph, TenantId, [TenantId; 2]) {
    let mut rt = Runtime::new(RuntimeConfig {
        grids: vec![vcgra::VcgraArch::new(4, 4, 2)],
        workers,
        ..RuntimeConfig::default()
    });
    let (first, graph) = served(&mut rt);
    let second = rt.submit("second", graph.clone()).unwrap().tenant();
    let third = rt.submit("third", graph.clone()).unwrap().tenant();
    let lease = rt.pool().lease(third).unwrap();
    let shared = rt.pool().band_tenants(lease.grid, lease.row0).to_vec();
    let alone = [first, second]
        .into_iter()
        .find(|t| !shared.contains(t))
        .expect("two bands, one of them shared");
    assert_eq!(shared.len(), 2);
    (rt, graph, alone, [shared[0], shared[1]])
}

/// Items `run` cannot read: a wrong arity or format at the first item, in
/// a later unit, in the second slot of a time-shared band, and in two
/// requests at once. The expected errors are those of a serial check of
/// the requests in order, item by item, at every worker count.
#[test]
fn a_refused_call_reports_the_first_bad_item_and_changes_nothing() {
    const OTHER: FpFormat = FpFormat { we: 5, wf: 10 };
    type Fault = fn(&mut Vec<FpValue>);
    let short: Fault = |item| item.truncate(1);
    let long: Fault = |item| item.push(fp(1.0));
    let foreign: Fault = |item| item[1] = FpValue::from_f64(1.5, OTHER);
    let arity = |got| RuntimeError::BadInputArity { expected: 2, got };
    let format = RuntimeError::BadValue {
        format: F,
        why: NotIn::Format(OTHER),
    };
    // (what, [(request's tenant: 0 alone, 1 and 2 the shared slots, its
    // faulted items)], error).
    type Case = (
        &'static str,
        Vec<(usize, Vec<(usize, Fault)>)>,
        RuntimeError,
    );
    let cases: Vec<Case> = vec![
        ("arity at item 0", vec![(2, vec![(0, short)])], arity(1)),
        (
            "format at item 0",
            vec![(2, vec![(0, foreign)])],
            format.clone(),
        ),
        ("arity at item 67", vec![(2, vec![(67, long)])], arity(3)),
        (
            "format at item 67",
            vec![(2, vec![(67, foreign)])],
            format.clone(),
        ),
        (
            "arity in a shared band's second slot",
            vec![(1, vec![]), (2, vec![(5, short)])],
            arity(1),
        ),
        (
            "format in a shared band's second slot",
            vec![(1, vec![]), (2, vec![(130, foreign)])],
            format.clone(),
        ),
        // The first request's bad item is the later one, in a later unit
        // and on the other band.
        (
            "two requests, two bad items",
            vec![(2, vec![(100, foreign)]), (0, vec![(3, long)])],
            format.clone(),
        ),
        (
            "two requests, arity first",
            vec![(0, vec![(140, long)]), (2, vec![(1, foreign)])],
            arity(3),
        ),
    ];
    for workers in [1, 2, 4, 8] {
        let (mut rt, graph, alone, [slot0, slot1]) = a_time_shared_band(workers);
        let tenants = [alone, slot0, slot1];
        for (what, requests, want) in &cases {
            let at = format!("{what}, {workers} workers");
            // The shared band holds its first slot, so a call that served
            // its second would leave that one resident.
            rt.run(vec![StreamRequest {
                tenant: slot0,
                inputs: stream(2, 1, 9),
            }])
            .unwrap();
            let before = state(&rt);
            let intervals = rt.timeline_snapshot().intervals.len();
            let requests = requests
                .iter()
                .map(|(t, faults)| {
                    let mut inputs = stream(2, 150, *t as u64);
                    for &(item, fault) in faults {
                        fault(&mut inputs[item]);
                    }
                    StreamRequest {
                        tenant: tenants[*t],
                        inputs,
                    }
                })
                .collect();
            assert_eq!(&rt.run(requests).unwrap_err(), want, "{at}");
            assert_eq!(state(&rt), before, "{at}");
            assert_eq!(rt.timeline_snapshot().intervals.len(), intervals, "{at}");
            // And every tenant is still served.
            let ins = stream(2, 70, 11);
            let runs = rt
                .run(
                    tenants
                        .iter()
                        .map(|&tenant| StreamRequest {
                            tenant,
                            inputs: ins.clone(),
                        })
                        .collect(),
                )
                .unwrap();
            for run in &runs {
                for (input, out) in ins.iter().zip(&run.outputs) {
                    assert_eq!(out, &run_dataflow(&graph, input), "{at}");
                }
            }
        }
    }
}

#[test]
fn a_request_run_cannot_serve_is_reported_before_a_bad_item() {
    // Tenants are looked up and lowered before any item is read, so a
    // later request naming no tenant outranks an earlier bad item.
    let (mut rt, _, alone, _) = a_time_shared_band(2);
    let mut inputs = stream(2, 10, 1);
    inputs[0].pop();
    let unknown = 99;
    let err = rt
        .run(vec![
            StreamRequest {
                tenant: alone,
                inputs,
            },
            StreamRequest {
                tenant: unknown,
                inputs: stream(2, 10, 2),
            },
        ])
        .unwrap_err();
    assert_eq!(err, RuntimeError::UnknownTenant(unknown));
}

/// `run` serves items in place: an item's vector grows to a graph's six
/// outputs and shrinks to another's one, at every size around the 64-item
/// unit, and a worker's column buffer, reused from one plan to the next,
/// leaks nothing between them.
#[test]
fn outputs_grow_and_shrink_in_place_and_match_the_dataflow() {
    // The six-MAC chain of `vcgra::sim`'s tests: one input, six outputs.
    let mut chain = AppGraph::new(F, 1);
    let coeffs = [-0.5, 2f64.powi(-30), -3.0, 2f64.powi(30), 0.0, 1.5];
    for (i, &c) in coeffs.iter().enumerate() {
        let a = if i == 0 {
            AppSource::External(0)
        } else {
            AppSource::Node(i - 1)
        };
        chain.add(PeMode::Mac, Some(fp(c)), a, AppSource::Zero);
        chain.mark_output(i);
    }
    // A 5x5 retina window: 25 inputs, one output.
    let window = kernels::retina_stage(F, &retina::filters::gaussian(5, 1.0)).graph;
    assert_eq!((window.num_inputs, window.outputs.len()), (25, 1));
    for workers in 1..=8 {
        let mut rt = Runtime::new(RuntimeConfig {
            grids: vec![vcgra::VcgraArch::new(16, 4, 2); 2],
            workers,
            ..RuntimeConfig::default()
        });
        let graphs = [&chain, &window];
        let ids: Vec<TenantId> = graphs
            .iter()
            .map(|g| rt.submit("t", (*g).clone()).unwrap().tenant())
            .collect();
        for items in [0, 1, 64, 65, 150] {
            // The window, the chain, then the window again: one worker
            // runs all three plans over one buffer.
            let requests: Vec<StreamRequest> = [1, 0, 1]
                .iter()
                .enumerate()
                .map(|(r, &g)| StreamRequest {
                    tenant: ids[g],
                    inputs: stream(graphs[g].num_inputs, items, (items + r) as u64),
                })
                .collect();
            let want: Vec<Vec<Vec<FpValue>>> = requests
                .iter()
                .map(|r| {
                    let g = graphs[ids.iter().position(|&t| t == r.tenant).unwrap()];
                    r.inputs.iter().map(|x| run_dataflow(g, x)).collect()
                })
                .collect();
            let runs = rt.run(requests).unwrap();
            // Tenant order; the window's two requests in request order.
            let got: Vec<&Vec<Vec<FpValue>>> = runs.iter().map(|r| &r.outputs).collect();
            let at = format!("{items} items, {workers} workers");
            assert_eq!(got, [&want[1], &want[0], &want[2]], "{at}");
            for run in &runs {
                let g = graphs[ids.iter().position(|&t| t == run.tenant).unwrap()];
                assert!(
                    run.outputs.iter().all(|o| o.capacity() >= g.num_inputs),
                    "{at}: an item keeps its vector"
                );
            }
        }
    }
}

#[test]
fn a_swapped_coefficient_in_the_wrong_format_is_an_error_not_a_worker_panic() {
    let mut rt = Runtime::new(RuntimeConfig::default());
    let (id, graph) = served(&mut rt);
    let other = FpFormat::new(5, 10);
    let err = rt
        .swap_params(id, &[fp(0.75), FpValue::from_f64(0.75, other)])
        .unwrap_err();
    assert_eq!(
        err,
        RuntimeError::BadValue {
            format: F,
            why: NotIn::Format(other)
        }
    );
    assert_eq!(rt.ledger().swaps, 0, "a refused swap is not charged");
    // The old coefficients are still the ones in force.
    assert_still_served(&mut rt, id, &graph);
}

#[test]
fn a_value_wider_than_its_format_is_refused_at_every_door() {
    // Tagged (6,26), but all 64 bits set: no (6,26) value is that wide,
    // and a `Pass` node would copy the stray bits to an output as they
    // are. `submit`, `run` and `swap_params` each refuse it.
    let wide = FpValue {
        bits: u64::MAX,
        format: F,
    };
    let refusal = RuntimeError::BadValue {
        format: F,
        why: NotIn::Bits(u64::MAX),
    };
    let mut rt = Runtime::new(RuntimeConfig::default());
    let (id, graph) = served(&mut rt);
    let coeffs = |rt: &Runtime| -> Vec<Option<FpValue>> {
        let graph = &rt.tenant(id).expect("still served").graph;
        graph.nodes.iter().map(|n| n.coeff).collect()
    };
    let (before, coeffs_before) = (state(&rt), coeffs(&rt));

    // A graph holding it as a coefficient.
    let mut bad = graph.clone();
    let slot = bad.coeff_nodes()[1];
    bad.nodes[slot].coeff = Some(wide);
    assert_eq!(rt.submit("wide", bad).unwrap_err(), refusal);
    assert_eq!(rt.ledger().refused, 1, "refused at the door");
    // A stream item holding it, in the call's second unit.
    let mut inputs = stream(2, 70, 3);
    inputs[67][1] = wide;
    let err = rt
        .run(vec![StreamRequest { tenant: id, inputs }])
        .unwrap_err();
    assert_eq!(err, refusal);
    // A swap to it.
    assert_eq!(rt.swap_params(id, &[fp(0.75), wide]).unwrap_err(), refusal);

    assert_eq!(
        state(&rt),
        before,
        "bands, queue, cache and ledger as they were"
    );
    assert_eq!(
        coeffs(&rt),
        coeffs_before,
        "the graph keeps its coefficients"
    );
    assert_still_served(&mut rt, id, &graph);
}

/// What a refused call must leave as it found it: the bands, the queue,
/// the cache's lookup counters and every ledger counter but `refused`.
/// Every cache insert follows a counted miss, so unchanged `misses` means
/// that no entry was added.
fn state(rt: &Runtime) -> (Vec<runtime::BandInfo>, Vec<TenantId>, String) {
    let ledger = runtime::Ledger {
        refused: 0,
        ..*rt.ledger()
    };
    (
        rt.pool().bands(),
        rt.queued_tenants(),
        format!("{:?} {ledger:?}", rt.cache_stats()),
    )
}

/// The error a graph that breaks shape rule `why` is refused with.
fn malformed(why: GraphError) -> RuntimeError {
    RuntimeError::Flow(FlowError::Graph(why))
}

/// One 5x4 grid: `served`'s tenant and a second one hold a 2-row band
/// each, and a 3-row FIR waits — one row is free and neither band is tall
/// enough to share. Returns the runtime, `served`'s pair, the second id,
/// then the waiting id and its graph.
fn full_pool_with_a_waiter() -> (Runtime, TenantId, AppGraph, TenantId, TenantId, AppGraph) {
    let mut rt = Runtime::new(RuntimeConfig {
        grids: vec![vcgra::VcgraArch::new(5, 4, 2)],
        ..RuntimeConfig::default()
    });
    let (good_id, good) = served(&mut rt);
    let second = rt.submit("second", good.clone()).unwrap().tenant();
    let waiter = kernels::fir_seeded(F, 5, 3).graph; // 9 nodes → 3 rows
    let waiting = rt.submit("waiting", waiter.clone()).unwrap();
    assert!(
        waiting.is_queued(),
        "one free row, two 2-row bands: nowhere to put three rows"
    );
    (rt, good_id, good, second, waiting.tenant(), waiter)
}

#[test]
fn an_empty_graph_is_refused_not_a_panic() {
    // A zero-node graph has a zero-PE demand: the pool asserts on it, and
    // behind a non-empty queue it would wait there for a drain to reach
    // that assert. `submit` refuses it at the door.
    let empty = || AppGraph::new(F, 1);
    let refused = malformed(GraphError::Empty);

    // Dedicated bands, nothing queued.
    let mut rt = Runtime::new(RuntimeConfig::default());
    let (good_id, good) = served(&mut rt);
    let before = state(&rt);
    assert_eq!(rt.submit("empty", empty()).unwrap_err(), refused);
    assert_eq!(state(&rt), before);
    assert!(rt.verify().ok(), "{}", rt.verify().summary());
    assert_still_served(&mut rt, good_id, &good);

    // A full pool with a tenant waiting: the empty graph must not take a
    // queue slot.
    let (mut rt, good_id, good, second, waiting, waiter) = full_pool_with_a_waiter();
    let before = state(&rt);
    assert_eq!(rt.submit("empty", empty()).unwrap_err(), refused);
    assert_eq!(state(&rt), before);
    assert!(rt.verify().ok(), "{}", rt.verify().summary());
    // The waiting tenant admits with the graph it queued with.
    let drained = rt.release(second).unwrap();
    assert_eq!(drained.len(), 1);
    assert_eq!(drained[0].tenant, waiting);
    assert_eq!(
        rt.tenant(waiting).unwrap().graph.nodes.len(),
        waiter.nodes.len()
    );
    assert_still_served(&mut rt, good_id, &good);
}

/// A two-input adder in the format `{we, wf}` — it holds no value, so
/// `AppGraph::add` builds it in any format — and the error `submit`
/// refuses it with when `FpFormat::new` would refuse those widths.
fn adder_in_widths(we: u32, wf: u32) -> (&'static str, AppGraph, RuntimeError) {
    let format = FpFormat { we, wf };
    let mut g = AppGraph::new(format, 2);
    let sum = g.add(
        PeMode::Add,
        None,
        AppSource::External(0),
        AppSource::External(1),
    );
    g.mark_output(sum);
    let refused = malformed(GraphError::FormatOutOfRange { format });
    ("widths", g, refused)
}

#[test]
fn a_malformed_graph_is_refused_at_the_door_and_holds_nothing() {
    // `AppGraph`'s fields are public, so a tenant can hand over what
    // `AppGraph::add` and `mark_output` would have refused, and `add`
    // takes a coefficient of any format. `run` could never lower such a
    // graph, so `submit` refuses it before the pool, the queue or the
    // cache is touched. `FpFormat`'s fields are public too: a graph in a
    // format `FpFormat::new` refuses was admitted, and `run` then
    // panicked (dev profile) or returned meaningless bits (release).
    let edited = |edit: fn(&mut AppGraph)| {
        let mut g = AppGraph::dot_product(F, &[1.0, 2.0, 3.0]);
        edit(&mut g);
        g
    };
    let other = FpFormat::new(5, 10);
    let table: [(&str, AppGraph, RuntimeError); 11] = [
        ("empty", AppGraph::new(F, 1), malformed(GraphError::Empty)),
        (
            "self",
            edited(|g| g.nodes[3].b = AppSource::Node(3)),
            malformed(GraphError::OperandNotEarlier {
                node: 3,
                operand: 3,
            }),
        ),
        (
            "forward",
            edited(|g| g.nodes[0].a = AppSource::Node(4)),
            malformed(GraphError::OperandNotEarlier {
                node: 0,
                operand: 4,
            }),
        ),
        (
            "dangling",
            edited(|g| g.nodes[4].a = AppSource::Node(99)),
            malformed(GraphError::OperandNotEarlier {
                node: 4,
                operand: 99,
            }),
        ),
        (
            "external",
            edited(|g| g.nodes[0].a = AppSource::External(7)),
            malformed(GraphError::ExternalOutOfRange {
                node: 0,
                index: 7,
                num_inputs: 3,
            }),
        ),
        (
            "output",
            edited(|g| g.outputs.push(5)),
            malformed(GraphError::OutputOutOfRange {
                output: 5,
                nodes: 5,
            }),
        ),
        (
            "format",
            edited(|g| g.nodes[1].coeff = Some(FpValue::from_f64(2.0, FpFormat::new(5, 10)))),
            // One name for a wrong-format value, whichever door it came by.
            RuntimeError::BadValue {
                format: F,
                why: NotIn::Format(other),
            },
        ),
        // No widths, both far too wide, a one-bit exponent, and double's
        // widths, which with the three flag bits need 66.
        adder_in_widths(0, 0),
        adder_in_widths(40, 40),
        adder_in_widths(1, 63),
        adder_in_widths(11, 52),
    ];

    // Dedicated bands, nothing queued.
    let mut rt = Runtime::new(RuntimeConfig::default());
    let (good_id, good) = served(&mut rt);
    let before = state(&rt);
    for (name, graph, refused) in &table {
        assert_eq!(
            &rt.submit(*name, graph.clone()).unwrap_err(),
            refused,
            "{name}"
        );
    }
    assert_eq!(state(&rt), before);
    assert_eq!(rt.ledger().refused, table.len());
    assert!(rt.verify().ok(), "{}", rt.verify().summary());
    assert_still_served(&mut rt, good_id, &good);

    // A full pool with a tenant waiting: the graph must not take a queue
    // slot.
    let (mut rt, good_id, good, second, waiting, waiter) = full_pool_with_a_waiter();
    let before = state(&rt);
    for (name, graph, refused) in &table {
        assert_eq!(
            &rt.submit(*name, graph.clone()).unwrap_err(),
            refused,
            "{name}"
        );
    }
    assert_eq!(state(&rt), before);
    assert_eq!(rt.ledger().refused, table.len());
    assert!(rt.verify().ok(), "{}", rt.verify().summary());
    // The waiting tenant admits with the graph it queued with.
    let drained = rt.release(second).unwrap();
    assert_eq!(drained.len(), 1);
    assert_eq!(drained[0].tenant, waiting);
    assert_eq!(
        rt.tenant(waiting).unwrap().graph.nodes.len(),
        waiter.nodes.len()
    );
    assert_still_served(&mut rt, good_id, &good);
}

#[test]
fn a_mul_without_its_coefficient_is_refused_at_the_door() {
    // `AppGraph::add` refuses a MAC/MUL without a coefficient; the public
    // fields do not. Admitted, such a node would multiply every item by
    // zero, and with no slot in `coeff_nodes` no swap could ever set it.
    let mut rt = Runtime::new(RuntimeConfig::default());
    let mut graph = AppGraph::dot_product(F, &[1.0, 2.0, 3.0]);
    graph.nodes[1].coeff = None;
    assert_eq!(
        rt.submit("no-coefficient", graph).unwrap_err(),
        malformed(GraphError::MissingCoeff { node: 1 })
    );
    assert_eq!(rt.ledger().refused, 1);
    assert!(
        rt.pool().bands().is_empty(),
        "a refused graph holds no rows"
    );
}

/// A well-formed graph no capacity-1 region can route: ten edges leave
/// the root's cell, which has at most four channel segments out.
fn unroutable_at_capacity_one() -> AppGraph {
    let mut g = AppGraph::new(F, 1);
    let root = g.add(PeMode::Pass, None, AppSource::External(0), AppSource::Zero);
    for _ in 0..5 {
        let leaf = g.add(
            PeMode::Add,
            None,
            AppSource::Node(root),
            AppSource::Node(root),
        );
        g.mark_output(leaf);
    }
    g
}

#[test]
fn a_dangling_operand_is_refused_at_submit_not_a_worker_panic() {
    // An operand naming a node the graph does not have used to index past
    // the placement inside `map_app`, then was `map_app`'s compile error;
    // now the door refuses it before a lease is taken for the compile.
    let mut rt = Runtime::new(RuntimeConfig::default());
    let (good_id, good) = served(&mut rt);
    let mut dangling = AppGraph::dot_product(F, &[1.0, 2.0, 3.0]);
    dangling.nodes[4].a = AppSource::Node(99);
    let refused = malformed(GraphError::OperandNotEarlier {
        node: 4,
        operand: 99,
    });
    let before = state(&rt);
    assert_eq!(rt.submit("dangling", dangling).unwrap_err(), refused);
    assert_eq!(state(&rt), before);
    assert!(rt.verify().ok(), "{}", rt.verify().summary());

    // Other tenants, old and new, are served as before.
    let later = kernels::fir(F, &[1.0, 2.0, 3.0]);
    rt.submit(&later.name, later.graph)
        .unwrap()
        .expect_admitted("a free grid");
    assert_still_served(&mut rt, good_id, &good);
}

#[test]
fn a_refused_graph_is_called_malformed_and_only_a_failed_compile_failed() {
    // A graph the door refuses was never compiled: its message says what
    // is wrong with it, and "compile failed" is kept for `map_app`'s.
    let mut rt = Runtime::new(RuntimeConfig {
        grids: vec![vcgra::VcgraArch::new(5, 4, 1)],
        ..RuntimeConfig::default()
    });
    let err = rt.submit("empty", AppGraph::new(F, 1)).unwrap_err();
    assert_eq!(
        err.to_string(),
        "malformed graph: application graph has no nodes"
    );
    let err = rt.submit("wide", unroutable_at_capacity_one()).unwrap_err();
    assert!(
        err.to_string().starts_with("compile failed: unroutable"),
        "{err}"
    );
}

#[test]
fn a_graph_that_does_not_compile_surrenders_its_lease() {
    // The failures the door cannot see: a well-formed graph takes a lease
    // and only `map_app` finds it unroutable on the region. `submit`
    // surrenders the lease and returns the error; a drain surrenders it,
    // drops the tenant into `queue_failures` and goes on to the next.
    let wide = unroutable_at_capacity_one();
    let mut rt = Runtime::new(RuntimeConfig {
        grids: vec![vcgra::VcgraArch::new(5, 4, 1)],
        ..RuntimeConfig::default()
    });
    let (good_id, good) = served(&mut rt);
    // The failed compile is one more cache miss; nothing else moves.
    let held = |rt: &Runtime| {
        let (bands, queue, _) = state(rt);
        (bands, queue, format!("{:?}", rt.ledger()))
    };
    let (before, stats) = (held(&rt), rt.cache_stats());
    for attempt in 1..=2 {
        let err = rt.submit("wide", wide.clone()).unwrap_err();
        assert!(
            matches!(err, RuntimeError::Flow(FlowError::Unroutable { .. })),
            "{err}"
        );
        assert_eq!(
            held(&rt),
            before,
            "the lease taken for the compile is surrendered"
        );
        // A second attempt misses again: the failed compile was not cached.
        let misses = stats.misses + attempt;
        assert_eq!(rt.cache_stats(), CacheStats { misses, ..stats });
    }
    assert_eq!(
        rt.ledger().refused,
        0,
        "the door counts malformed graphs only"
    );
    assert!(rt.verify().ok(), "{}", rt.verify().summary());

    // Leave one row free and park a 3-row waiter behind the two 2-row
    // bands, neither tall enough to share. Strict FIFO queues the
    // unroutable graph behind it, though a band could share it, and a
    // well-formed FIR behind that.
    let victim = rt.submit("victim", good.clone()).unwrap().tenant();
    let waiter = kernels::fir_seeded(F, 5, 3).graph; // 9 nodes → 3 rows
    let queued: Vec<TenantId> = [("waiting", &waiter), ("wide", &wide), ("fir", &good)]
        .into_iter()
        .map(|(name, graph)| {
            let adm = rt.submit(name, graph.clone()).unwrap();
            assert!(adm.is_queued(), "{name} queues");
            adm.tenant()
        })
        .collect();
    let [waiting, dropped, fir] = queued[..] else {
        unreachable!()
    };

    // The victim's rows and the free one place the waiter; the unroutable
    // graph time-shares a band, fails to compile there and is dropped;
    // the FIR behind it is placed by the same drain.
    let drained = rt.release(victim).unwrap();
    assert_eq!(
        drained.iter().map(|a| a.tenant).collect::<Vec<_>>(),
        [waiting, fir]
    );
    assert_eq!(rt.queue_failures().len(), 1);
    let (tenant, err) = &rt.queue_failures()[0];
    assert_eq!(*tenant, dropped);
    assert!(
        matches!(err, RuntimeError::Flow(FlowError::Unroutable { .. })),
        "{err}"
    );
    assert!(rt.tenant(dropped).is_none());
    assert!(
        rt.pool()
            .bands()
            .iter()
            .all(|b| !b.tenants.contains(&dropped)),
        "the dropped tenant's lease is surrendered"
    );
    let led = rt.ledger();
    assert_eq!(
        (led.queued, led.queue_admitted, led.queue_dropped),
        (3, 2, 1)
    );
    assert_eq!(rt.queue_len(), 0);
    assert!(rt.verify().ok(), "{}", rt.verify().summary());

    // Everyone still here is served as before.
    for (tenant, graph) in [(waiting, &waiter), (good_id, &good), (fir, &good)] {
        let ins = stream(graph.num_inputs, 4, 7);
        let runs = rt
            .run(vec![StreamRequest {
                tenant,
                inputs: ins.clone(),
            }])
            .unwrap();
        for (input, out) in ins.iter().zip(&runs[0].outputs) {
            assert_eq!(out[0].bits, run_dataflow(graph, input)[0].bits);
        }
    }
}

/// `run` answers in tenant-id order, and one tenant's requests in request
/// order, whatever order the requests come in; each reply holds the
/// outputs of the request it answers.
#[test]
fn run_replies_in_tenant_order_then_request_order() {
    let mut rt = Runtime::new(RuntimeConfig::default());
    let graphs = [
        kernels::fir(F, &[0.5, 0.25]).graph,
        kernels::fir(F, &[-1.0, 3.0]).graph,
    ];
    let [a, b] = graphs
        .each_ref()
        .map(|g| rt.submit("t", g.clone()).unwrap().tenant());
    assert!(a < b);
    for (order, replies) in [(vec![b, a], vec![1, 0]), (vec![a, b, a], vec![0, 2, 1])] {
        let requests: Vec<StreamRequest> = order
            .iter()
            .enumerate()
            .map(|(i, &tenant)| StreamRequest {
                tenant,
                inputs: stream(2, 5, 10 * order.len() as u64 + i as u64),
            })
            .collect();
        let want: Vec<(TenantId, Vec<Vec<FpValue>>)> = replies
            .iter()
            .map(|&r| {
                let req = &requests[r];
                let graph = &graphs[usize::from(req.tenant == b)];
                let outs = req.inputs.iter().map(|x| run_dataflow(graph, x));
                (req.tenant, outs.collect())
            })
            .collect();
        let runs = rt.run(requests).unwrap();
        let got: Vec<(TenantId, Vec<Vec<FpValue>>)> =
            runs.into_iter().map(|r| (r.tenant, r.outputs)).collect();
        assert_eq!(got, want, "requests for {order:?}");
    }
}
