//! Scheduler acceptance tests: admission queue FIFO discipline, band
//! compaction (including the 13-row tenant first-fit refuses), cache-aware
//! placement on a mixed-width pool, and a seeded multi-tenant churn soak —
//! everything asserted, nothing just printed.

use std::collections::VecDeque;
use std::time::Duration;

use runtime::kernels;
use runtime::{
    Admission, Interval, Phase, Runtime, RuntimeConfig, RuntimeError, StreamRequest, TenantId,
    TenantRun,
};
use softfloat::{FpFormat, FpValue};
use vcgra::sim::run_dataflow;
use vcgra::VcgraArch;

const F: FpFormat = FpFormat::PAPER;

fn fp(x: f64) -> FpValue {
    FpValue::from_f64(x, F)
}

fn stream(n: usize, items: usize, salt: u64) -> Vec<Vec<FpValue>> {
    let mut rng = logic::SplitMix64::new(0xFEED ^ salt);
    (0..items)
        .map(|_| (0..n).map(|_| fp((rng.unit_f64() - 0.5) * 8.0)).collect())
        .collect()
}

/// Streams `items` inputs through one tenant and asserts bit-exactness
/// against `run_dataflow` on the tenant's current graph.
fn assert_bit_exact(rt: &mut Runtime, tenant: TenantId, items: usize, salt: u64) {
    let graph = rt.tenant(tenant).unwrap().graph.clone();
    let ins = stream(graph.num_inputs, items, salt);
    let runs = rt
        .run(vec![StreamRequest {
            tenant,
            inputs: ins.clone(),
        }])
        .expect("stream");
    for (input, out) in ins.iter().zip(&runs[0].outputs) {
        let want = run_dataflow(&graph, input);
        assert_eq!(
            out.iter().map(|v| v.bits).collect::<Vec<_>>(),
            want.iter().map(|v| v.bits).collect::<Vec<_>>(),
            "tenant {tenant} must stay bit-exact"
        );
    }
}

/// Whether the tenant's band holds anyone else: the pool's band
/// membership, the one place that fact lives.
fn shares_its_band(rt: &Runtime, tenant: TenantId) -> bool {
    let lease = rt.pool().lease(tenant).unwrap();
    rt.pool().band_tenants(lease.grid, lease.row0).len() > 1
}

/// One 10x4 grid with a 5-row blocker on rows 0–4. Five rows are free and
/// the only band has five, so a 6-row tenant finds neither a run to take
/// nor a band tall enough to share: it queues from geometry alone, and
/// the blocker's release leaves the whole grid to the queue.
fn half_blocked() -> (Runtime, TenantId) {
    let cfg = RuntimeConfig {
        grids: vec![VcgraArch::new(10, 4, 2)],
        ..RuntimeConfig::default()
    };
    let mut rt = Runtime::new(cfg);
    let blocker = rt
        .submit("blocker", kernels::fir_seeded(F, 9, 1).graph) // 17 nodes → 5 rows
        .unwrap()
        .expect_admitted("empty pool");
    (rt, blocker.tenant)
}

/// The 6-row tenant `half_blocked` has no place for (23 nodes).
fn six_rows(seed: u64) -> vcgra::app::AppGraph {
    kernels::fir_seeded(F, 12, seed).graph
}

#[test]
fn queue_drains_in_fifo_order_on_release() {
    let (mut rt, blocker) = half_blocked();

    // A 6-row head queues from geometry; two 2-row tenants would fit the
    // free rows but queue up behind it, in submission order.
    let mut queued = Vec::new();
    let waiters = [
        six_rows(2),
        kernels::fir_seeded(F, 3, 3).graph,
        kernels::fir_seeded(F, 3, 4).graph,
    ];
    for (i, graph) in waiters.into_iter().enumerate() {
        match rt.submit(format!("q{i}"), graph).unwrap() {
            Admission::Queued(q) => {
                assert_eq!(q.position, i, "positions count up from the head");
                queued.push(q.tenant);
            }
            Admission::Admitted(_) => panic!("q{i} must queue"),
        }
    }
    assert_eq!(rt.queue_len(), 3);
    assert_eq!(rt.queued_tenants(), queued);
    assert_eq!(rt.ledger().queued, 3);

    // Releasing the blocker admits all three, strictly in FIFO order,
    // packed from row 0.
    let drained = rt.release(blocker).unwrap();
    assert_eq!(
        drained.iter().map(|a| a.tenant).collect::<Vec<_>>(),
        queued,
        "drain must follow submission order"
    );
    assert_eq!(
        drained.iter().map(|a| a.lease.row0).collect::<Vec<_>>(),
        [0, 6, 8],
        "FIFO drain packs first-fit"
    );
    assert_eq!(rt.queue_len(), 0);
    assert_eq!(rt.ledger().queue_admitted, 3);
    for &t in &queued {
        assert_bit_exact(&mut rt, t, 6, t);
    }
}

#[test]
fn late_submissions_never_jump_the_queue_head() {
    let (mut rt, blocker) = half_blocked();
    let filler = rt
        .submit("filler", kernels::fir_seeded(F, 7, 8).graph) // 13 nodes → 4 rows
        .unwrap()
        .expect_admitted("five rows free");
    // Head of queue: a 6-row tenant. Behind it: a 2-row one.
    let big = rt.submit("big", six_rows(9)).unwrap();
    assert!(big.is_queued());
    let small = rt
        .submit("small", kernels::fir_seeded(F, 3, 5).graph)
        .unwrap();
    assert!(
        small.is_queued(),
        "while the queue is non-empty, everyone joins it"
    );

    // The filler's release leaves five rows in a run: still none for the
    // head, and the small tenant must not overtake it even though it
    // would fit there.
    assert!(rt.release(filler.tenant).unwrap().is_empty());
    assert_eq!(rt.queued_tenants(), vec![big.tenant(), small.tenant()]);

    // Now the blocker leaves; the head drains first, the small one after.
    let drained = rt.release(blocker).unwrap();
    assert_eq!(
        drained
            .iter()
            .map(|a| (a.tenant, a.lease.row0))
            .collect::<Vec<_>>(),
        [(big.tenant(), 0), (small.tenant(), 6)]
    );
    assert_eq!(rt.queue_len(), 0);
}

#[test]
fn queued_tenants_cannot_run_and_can_cancel() {
    let (mut rt, _blocker) = half_blocked();
    let q = rt.submit("waiter", six_rows(2)).unwrap();
    assert!(q.is_queued());
    let id = q.tenant();

    // Operations on a queued tenant say "waiting", not "unknown".
    assert_eq!(
        rt.swap_params(id, &[fp(1.0); 3]).unwrap_err(),
        RuntimeError::Waiting(id)
    );
    assert_eq!(
        rt.run(vec![StreamRequest {
            tenant: id,
            inputs: stream(5, 1, 0)
        }])
        .unwrap_err(),
        RuntimeError::Waiting(id)
    );
    // Cancelling a queued admission frees nothing but empties the queue.
    assert!(rt.release(id).unwrap().is_empty());
    assert_eq!(rt.queue_len(), 0);
    assert_eq!(rt.release(id).unwrap_err(), RuntimeError::UnknownTenant(id));
}

#[test]
fn cancelling_the_queue_head_unblocks_the_tenants_behind_it() {
    let cfg = RuntimeConfig {
        grids: vec![VcgraArch::new(6, 4, 2)],
        ..RuntimeConfig::default()
    };
    let mut rt = Runtime::new(cfg);
    // Two free rows left and a 4-row band; the 6-row head, with nothing to
    // take or share, blocks a 2-row follower that would fit right now.
    rt.submit("resident", kernels::fir_seeded(F, 7, 1).graph) // 13 nodes → 4 rows
        .unwrap()
        .expect_admitted("fits");
    let head = rt
        .submit("head", kernels::fir_seeded(F, 12, 2).graph)
        .unwrap();
    assert!(head.is_queued());
    let follower = rt
        .submit("follower", kernels::fir_seeded(F, 3, 3).graph)
        .unwrap();
    assert!(follower.is_queued());

    // Cancelling the blocked head must drain the follower immediately —
    // not leave it parked while two rows sit idle.
    let drained = rt.release(head.tenant()).unwrap();
    assert_eq!(drained.len(), 1);
    assert_eq!(drained[0].tenant, follower.tenant());
    assert_eq!(rt.queue_len(), 0);
}

#[test]
fn impossible_demands_are_rejected_synchronously_even_behind_a_queue() {
    let (mut rt, _blocker) = half_blocked();
    let waiter = rt.submit("waiter", six_rows(2)).unwrap();
    assert!(waiter.is_queued());

    // 49 nodes need 13 rows — no grid of the pool could ever host that.
    // It must fail now, identically to the empty-queue case, instead of
    // queueing and being dropped silently at the next drain.
    let too_big = kernels::fir_seeded(F, 25, 3).graph;
    assert!(matches!(
        rt.submit("impossible", too_big).unwrap_err(),
        RuntimeError::Pool(runtime::PoolError::TooBig { .. })
    ));
    assert_eq!(rt.queue_len(), 1, "the waiter keeps its slot");
    assert!(rt.queue_failures().is_empty());
}

/// The acceptance scenario: 13 free rows, fragmented 6+7, and a 13-row
/// tenant. First fit has no 13-row run to offer (the pool's own
/// `compaction_admits_a_13_row_tenant_first_fit_refuses` pins that arm);
/// compaction slides the 3-row survivor down and admits — and everything
/// stays bit-exact, including the relocated tenant.
#[test]
fn compaction_admits_13_row_tenant_where_first_fit_refused() {
    let grids = vec![VcgraArch::new(16, 2, 2)];
    let blocker = kernels::fir_seeded(F, 6, 11); // 11 nodes → 6 rows of 2
    let survivor = kernels::fir_seeded(F, 3, 12); // 5 nodes → 3 rows
    let big = kernels::fir_seeded(F, 13, 13); // 25 nodes → 13 rows

    let cfg = RuntimeConfig {
        grids,
        ..RuntimeConfig::default()
    };
    let mut rt = Runtime::new(cfg);
    let b = rt
        .submit("blocker", blocker.graph.clone())
        .unwrap()
        .expect_admitted("fits");
    let s = rt
        .submit("survivor", survivor.graph.clone())
        .unwrap()
        .expect_admitted("fits");
    assert_eq!((s.lease.row0, s.lease.rows), (6, 3));
    rt.release(b.tenant).unwrap();

    let adm = rt
        .submit("big", big.graph.clone())
        .unwrap()
        .expect_admitted("compaction");
    assert_eq!(adm.lease.rows, 13, "a 13-row dedicated band");
    assert_eq!(adm.relocations, 1, "one band slid down to make room");
    assert_eq!(adm.lease.row0, 3, "admitted right above the compacted band");

    // The survivor moved to row 0, and its band's replay is its own.
    assert_eq!(rt.pool().lease(s.tenant).unwrap().row0, 0);
    let led = rt.ledger();
    assert_eq!((led.compactions, led.relocated_bands), (1, 1));
    assert!(
        rt.timeline()
            .intervals()
            .iter()
            .any(|iv| iv.phase == Phase::Replay && iv.tenant == Some(s.tenant)),
        "the replay is tagged with the survivor"
    );
    assert!(
        led.compaction_port_time > std::time::Duration::ZERO,
        "the replay must be charged as reconfiguration time"
    );

    // Bit-exact across the relocation, for mover and newcomer alike.
    assert_bit_exact(&mut rt, s.tenant, 8, 21);
    assert_bit_exact(&mut rt, adm.tenant, 8, 22);
    // The survivor's grid-local replay hides behind the 13-row admission
    // stream, so the scheduled makespan is strictly below the flat sum
    // that lays the two end to end.
    let led = rt.ledger();
    assert!(
        led.modeled_makespan < led.total_port_time(),
        "makespan {:?} must beat the summed port time {:?}",
        led.modeled_makespan,
        led.total_port_time()
    );

    // A parameter swap on the relocated tenant still lands on the right
    // (translated) settings frames.
    let rep = rt
        .swap_params(s.tenant, &[fp(0.5), fp(-0.25), fp(0.125)])
        .unwrap();
    assert!(rep.dirty_pes > 0);
    assert_bit_exact(&mut rt, s.tenant, 4, 34);
}

/// Cache-aware placement on a mixed-width pool: the same structure is
/// already compiled for the 5-wide grid; first fit would recompile it for
/// the free 4-wide grid 0, the runtime goes where the key is warm.
#[test]
fn cache_aware_placement_raises_warm_hit_rate_on_mixed_width_pool() {
    let cfg = RuntimeConfig {
        grids: vec![VcgraArch::new(6, 4, 2), VcgraArch::new(6, 5, 2)],
        ..RuntimeConfig::default()
    };
    let mut rt = Runtime::new(cfg);
    // Fill the 4-wide grid with a 6-row blocker.
    let blocker = rt
        .submit(
            "blocker",
            kernels::matvec(
                F,
                &[
                    vec![1.0, 0.5, 0.25, 0.125],
                    vec![-1.0, 2.0, -0.5, 0.75],
                    vec![0.5, 0.5, 0.5, 0.5],
                ],
            )
            .graph,
        )
        .unwrap()
        .expect_admitted("empty pool"); // 21 nodes → 6 rows of 4
    assert_eq!(blocker.lease.grid, 0);
    // The FIR lands on the 5-wide grid and compiles for width 5.
    let first = rt
        .submit("fir-a", kernels::fir_seeded(F, 5, 41).graph)
        .unwrap()
        .expect_admitted("grid 1 has room");
    assert_eq!(first.lease.grid, 1);
    assert!(!first.cache_hit);
    // Free the 4-wide grid: both widths are now feasible, and first fit
    // would take grid 0.
    rt.release(blocker.tenant).unwrap();
    let fir_b = kernels::fir_seeded(F, 5, 42).graph;
    assert_eq!((rt.pool().free_rows(0), rt.pool().free_rows(1)), (6, 4));
    // Same structure, new coefficients: admitted where the key is warm.
    let second = rt
        .submit("fir-b", fir_b)
        .unwrap()
        .expect_admitted("both grids have room");
    assert!(second.cache_hit);
    let stats = rt.cache_stats();
    assert_eq!(stats.hits, 1, "cache-aware placement finds the warm width");
    assert_eq!(stats.misses, 2);
    assert_eq!(
        rt.pool().lease(second.tenant).unwrap().grid,
        1,
        "placed on the warm grid"
    );
    // The warm-admitted tenant computes its own coefficients' results.
    assert_bit_exact(&mut rt, second.tenant, 8, 55);
}

/// Time-sharing on the default pool: the kernel library oversubscribes two
/// 8-row grids, so some tenants share a band and every run charges context
/// switches. Those are grid-local replays — they overlap other bands' port
/// streams, so once bands time-share the scheduled makespan beats the flat
/// sum — and sharing a band corrupts nobody's results.
#[test]
fn time_shared_library_overlaps_switches_and_stays_bit_exact() {
    let mut rt = Runtime::new(RuntimeConfig::default());
    let mut ids = Vec::new();
    for round in 0..2 {
        for w in kernels::library(F) {
            let adm = rt.submit(format!("{}-{round}", w.name), w.graph).unwrap();
            ids.push(
                adm.expect_admitted("a full pool time-shares before it queues")
                    .tenant,
            );
        }
    }
    assert!(ids.iter().any(|&t| shares_its_band(&rt, t)));

    let graphs: Vec<_> = ids
        .iter()
        .map(|&t| rt.tenant(t).unwrap().graph.clone())
        .collect();
    let requests: Vec<StreamRequest> = ids
        .iter()
        .zip(&graphs)
        .map(|(&t, g)| StreamRequest {
            tenant: t,
            inputs: stream(g.num_inputs, 12, t),
        })
        .collect();
    let inputs: Vec<_> = requests.iter().map(|r| r.inputs.clone()).collect();
    let runs = rt.run(requests).unwrap();
    assert_eq!(runs.len(), ids.len());
    for run in &runs {
        let at = ids.iter().position(|&t| t == run.tenant).unwrap();
        for (input, out) in inputs[at].iter().zip(&run.outputs) {
            let want = run_dataflow(&graphs[at], input);
            assert_eq!(
                out.iter().map(|v| v.bits).collect::<Vec<_>>(),
                want.iter().map(|v| v.bits).collect::<Vec<_>>(),
                "tenant {} must stay bit-exact on a shared band",
                run.tenant
            );
        }
    }

    let led = rt.ledger();
    assert!(
        led.context_switches > 0,
        "sharing a band must charge context switches"
    );
    assert!(
        led.modeled_makespan < led.total_port_time(),
        "makespan {:?} must beat the summed port time {:?}",
        led.modeled_makespan,
        led.total_port_time()
    );
    assert!(rt.verify().ok(), "{}", rt.verify().summary());
    assert!(
        rt.verify_timeline().ok(),
        "{}",
        rt.verify_timeline().summary()
    );
}

/// A tenant is never charged a context switch against itself: two requests
/// for one tenant in one call are adjacent slots of its band, and the
/// second finds its own configuration loaded.
#[test]
fn a_tenant_requested_twice_in_one_call_switches_at_most_once() {
    let mut rt = Runtime::new(RuntimeConfig {
        grids: vec![VcgraArch::paper_4x4()],
        ..RuntimeConfig::default()
    });
    let graph = kernels::fir_seeded(F, 8, 7).graph; // 15 nodes → all 4 rows
    let first = rt
        .submit("first", graph.clone())
        .unwrap()
        .expect_admitted("empty grid");
    let second = rt
        .submit("second", graph.clone())
        .unwrap()
        .expect_admitted("shares the band");
    assert!(shares_its_band(&rt, second.tenant));

    let mut twice = |tenant: TenantId| -> Vec<usize> {
        let request = || StreamRequest {
            tenant,
            inputs: stream(graph.num_inputs, 3, tenant),
        };
        let runs = rt.run(vec![request(), request()]).unwrap();
        runs.iter().map(|r| r.context_switches).collect()
    };
    // Admission left the second tenant's configuration resident.
    assert_eq!(twice(second.tenant), [0, 0]);
    assert_eq!(twice(first.tenant), [1, 0]);
    assert_eq!(rt.ledger().context_switches, 1);
    assert!(
        rt.verify_timeline().ok(),
        "{}",
        rt.verify_timeline().summary()
    );
}

/// A tenant that leaves a shared band leaves its configuration behind:
/// whoever runs there next pays a swap-in, whether or not the band is
/// still shared, and pays it once.
#[test]
fn the_survivor_of_a_shared_band_pays_for_its_swap_in() {
    let graph = kernels::fir_seeded(F, 8, 7).graph; // 15 nodes → all 4 rows
    let shared_grid = |sharers: usize| -> (Runtime, Vec<TenantId>) {
        let mut rt = Runtime::new(RuntimeConfig {
            grids: vec![VcgraArch::paper_4x4()],
            ..RuntimeConfig::default()
        });
        let tenants = (0..sharers)
            .map(|i| {
                rt.submit(format!("t{i}"), graph.clone())
                    .unwrap()
                    .expect_admitted("shares")
                    .tenant
            })
            .collect();
        (rt, tenants)
    };
    let switches = |rt: &mut Runtime, tenant: TenantId| -> usize {
        let request = StreamRequest {
            tenant,
            inputs: stream(graph.num_inputs, 3, tenant),
        };
        rt.run(vec![request]).unwrap()[0].context_switches
    };
    let assert_clean = |rt: &Runtime, switches: usize| {
        assert_eq!(rt.ledger().context_switches, switches);
        assert!(rt.verify().ok(), "{}", rt.verify().summary());
        assert!(
            rt.verify_timeline().ok(),
            "{}",
            rt.verify_timeline().summary()
        );
    };

    // Two sharers: admission left the second resident; it leaves, and the
    // band — dedicated again — still holds its configuration.
    let (mut rt, t) = shared_grid(2);
    rt.release(t[1]).unwrap();
    assert_eq!(rt.pool().band_tenants(0, 0), [t[0]]);
    assert_eq!(
        switches(&mut rt, t[0]),
        1,
        "the region holds the released tenant's configuration"
    );
    assert_eq!(switches(&mut rt, t[0]), 0, "now its own is loaded");
    assert_clean(&rt, 1);

    // Three sharers: the resident leaves and the band stays shared.
    let (mut rt, t) = shared_grid(3);
    rt.release(t[2]).unwrap();
    assert_eq!(switches(&mut rt, t[0]), 1);
    assert_eq!(switches(&mut rt, t[0]), 0);
    assert_eq!(switches(&mut rt, t[1]), 1);
    assert_clean(&rt, 2);
}

/// The swap-in rule, through `Runtime::run`: a slot swaps its
/// configuration in when the one loaded before it — the previous slot's,
/// or for the first slot the band's resident — is another tenant's. Every
/// case is read off the replies and off the `Switch` intervals the call
/// put on the time axis.
#[test]
fn a_slot_swaps_in_when_its_band_holds_another_configuration() {
    let mut rt = Runtime::new(RuntimeConfig {
        grids: vec![VcgraArch::paper_4x4()],
        ..RuntimeConfig::default()
    });
    let graph = kernels::fir_seeded(F, 8, 7).graph; // 15 nodes → all 4 rows
    let t: Vec<TenantId> = (0..3)
        .map(|i| {
            rt.submit(format!("t{i}"), graph.clone())
                .unwrap()
                .expect_admitted("shares")
                .tenant
        })
        .collect();
    assert_eq!(rt.pool().band_tenants(0, 0), t, "slot order");

    // One call with a request of `items` items per tenant listed; checks
    // that the `Switch` intervals it added name the tenants whose replies
    // count a switch, in reply order.
    let mut call = |tenants: &[TenantId], items: usize| -> Vec<TenantRun> {
        let logged = rt.timeline().intervals().len();
        let requests = tenants
            .iter()
            .map(|&tenant| StreamRequest {
                tenant,
                inputs: stream(graph.num_inputs, items, tenant),
            })
            .collect();
        let runs = rt.run(requests).unwrap();
        let switched: Vec<Option<TenantId>> = rt.timeline().intervals()[logged..]
            .iter()
            .filter(|iv| iv.phase == Phase::Switch)
            .map(|iv| iv.tenant)
            .collect();
        let replied: Vec<Option<TenantId>> = runs
            .iter()
            .filter(|r| r.context_switches > 0)
            .map(|r| Some(r.tenant))
            .collect();
        assert_eq!(switched, replied, "calls for {tenants:?}");
        runs
    };
    let switches =
        |runs: &[TenantRun]| -> Vec<usize> { runs.iter().map(|r| r.context_switches).collect() };

    // Admission left t2 resident: a first slot of anyone else pays.
    assert_eq!(switches(&call(&[t[0]], 3)), [1]);
    // Three sharers in one call, the resident first.
    assert_eq!(switches(&call(&[t[0], t[1], t[2]], 3)), [0, 1, 1]);
    // [t, t, u] with t resident: only u pays.
    assert_eq!(switches(&call(&[t[1]], 3)), [1]);
    assert_eq!(switches(&call(&[t[1], t[1], t[2]], 3)), [0, 0, 1]);
    // A request with no items is still a slot, and still gets a reply.
    let runs = call(&[t[0]], 0);
    assert_eq!(switches(&runs), [1]);
    assert_eq!((runs[0].tenant, runs[0].outputs.len()), (t[0], 0));
    assert!(runs[0].outputs.is_empty());

    assert_eq!(rt.ledger().context_switches, 6);
    rt.verify().assert_ok();
    rt.verify_timeline().assert_ok();
}

/// A fixed scenario over two grids: two dedicated tenants on one and a
/// band time-shared by two `fir_seeded(8)` tenants on the other; runs of
/// `items` seeded inputs each, with repeated and alternating tenants; a
/// parameter swap; a release, then an admission that compacts the freed
/// rows, then a release of the band's resident. Returns the runtime and
/// the tenants `[d, e, a, b, f]` in admission order.
fn shared_band_scenario(workers: usize, items: usize) -> (Runtime, [TenantId; 5]) {
    let mut rt = Runtime::new(RuntimeConfig {
        grids: vec![VcgraArch::new(6, 4, 2), VcgraArch::paper_4x4()],
        workers,
        ..RuntimeConfig::default()
    });
    let admit = |rt: &mut Runtime, name: &str, taps, seed| {
        rt.submit(name, kernels::fir_seeded(F, taps, seed).graph)
            .unwrap()
            .expect_admitted("room or a band to share")
            .tenant
    };
    let d = admit(&mut rt, "d", 3, 1); // 5 nodes → grid 0, rows 0–1
    let e = admit(&mut rt, "e", 3, 2); // rows 2–3
    let a = admit(&mut rt, "a", 8, 3); // 15 nodes → all of grid 1
    let b = admit(&mut rt, "b", 8, 4); // time-shares a's band
    assert_eq!(rt.pool().band_tenants(1, 0), [a, b]);

    let run = |rt: &mut Runtime, tenants: &[TenantId]| {
        let requests = tenants
            .iter()
            .enumerate()
            .map(|(i, &t)| StreamRequest {
                tenant: t,
                inputs: stream(rt.tenant(t).unwrap().graph.num_inputs, items, i as u64),
            })
            .collect();
        rt.run(requests).unwrap();
    };
    run(&mut rt, &[a, b]);
    run(&mut rt, &[b]);
    run(&mut rt, &[a, a, e]);
    run(&mut rt, &[b, d, e]);
    let coeffs: Vec<FpValue> = (0..8).map(|i| fp(0.5 - i as f64 * 0.125)).collect();
    rt.swap_params(a, &coeffs).unwrap();
    run(&mut rt, &[a]);
    rt.release(d).unwrap();
    // Rows 0–1 and 4–5 are free: a 4-row tenant compacts the grid.
    let f = admit(&mut rt, "f", 8, 5);
    assert_eq!(rt.pool().lease(e).unwrap().row0, 0, "e slides to row 0");
    run(&mut rt, &[e, b]);
    run(&mut rt, &[b, a, b]);
    rt.release(b).unwrap();
    run(&mut rt, &[a]);
    run(&mut rt, &[a]);
    rt.verify().assert_ok();
    rt.verify_timeline().assert_ok();
    (rt, [d, e, a, b, f])
}

/// [`shared_band_scenario`] pins the whole time axis: every interval's
/// lane, phase, tenant, start and duration, in order. Every interval is
/// modeled port time, so the axis follows from the operations alone.
/// The order and the durations were recorded on commit `0ba56a4`, where
/// compaction could still also be started by hand; the starts follow
/// from them by the scheduling rules of `runtime::timeline`.
#[test]
fn a_shared_band_runs_the_same_time_axis() {
    let (rt, [d, e, a, b, f]) = shared_band_scenario(RuntimeConfig::default().workers, 3);
    // A switch rewrites the whole 16-PE band; an admission configures the
    // tenant's own PEs, a replay the moved 8-PE band, a swap dirty frames.
    const SWITCH: u64 = 4_015_942_720;
    const FIR3: u64 = 1_254_982_100;
    const FIR8: u64 = 3_764_946_300;
    // The admissions, then one group per call in the order `run` charges
    // it: by tenant id. Port phases wait for the port and their lane;
    // switches and the replay wait for their lane alone.
    let (g0r0, g0r2, g1) = ((0, 0), (0, 2), (1, 0));
    use Phase::{Admission, Replay, Swap, Switch};
    let want: Vec<Interval> = [
        (g0r0, Admission, d, 0, FIR3),
        (g0r2, Admission, e, 1_254_982_100, FIR3),
        (g1, Admission, a, 2_509_964_200, FIR8),
        (g1, Admission, b, 6_274_910_500, FIR8),
        // [a, b]: b was admitted last, so both swap in. [b] does not.
        (g1, Switch, a, 10_039_856_800, SWITCH),
        (g1, Switch, b, 14_055_799_520, SWITCH),
        // [a, a, e], then [b, d, e]: e and d are their bands' residents.
        (g1, Switch, a, 18_071_742_240, SWITCH),
        (g1, Switch, b, 22_087_684_960, SWITCH),
        // The swap streams once the band's switch is done, then [a].
        (g1, Swap, a, 26_103_627_680, 27_531_600),
        (g1, Switch, a, 26_131_159_280, SWITCH),
        // d leaves; f's admission slides e's band down, its resident with
        // it — the replay starts when e's old rows are free — and takes
        // the coalesced rows once the port is free.
        (g0r0, Replay, e, 2_509_964_200, 2_007_971_360),
        (g0r2, Admission, f, 26_131_159_280, FIR8),
        // [e, b]
        (g1, Switch, b, 30_147_102_000, SWITCH),
        // [b, a, b], served in slot order a, b, b.
        (g1, Switch, a, 34_163_044_720, SWITCH),
        (g1, Switch, b, 38_178_987_440, SWITCH),
        // The resident b leaves: [a] swaps in, the next [a] does not.
        (g1, Switch, a, 42_194_930_160, SWITCH),
    ]
    .into_iter()
    .map(|(lane, phase, t, start, dur)| Interval {
        lane,
        phase,
        tenant: Some(t),
        start: Duration::from_nanos(start),
        dur: Duration::from_nanos(dur),
    })
    .collect();
    assert_eq!(rt.timeline().intervals(), want);
    let ledger = rt.ledger();
    assert_eq!(ledger.modeled_makespan.as_nanos(), 46_210_872_880);
    assert_eq!(ledger.overlap_saved.as_nanos(), 5_772_917_660);
}

/// The worker count changes who computes what, never the modeled time:
/// the same operations at one worker and at four — every request three
/// 64-item units long, so the workers split each job — give the same
/// time axis and the same ledger.
#[test]
fn the_time_axis_does_not_depend_on_the_worker_count() {
    let (one, _) = shared_band_scenario(1, 150);
    let (four, _) = shared_band_scenario(4, 150);
    assert_eq!(one.timeline().intervals(), four.timeline().intervals());
    assert_eq!(one.ledger(), four.ledger());
    let ledger = one.ledger();
    assert!(ledger.context_switches > 0 && ledger.swaps > 0 && ledger.compactions > 0);
}

/// Whether a tenant shares its band is true *now*, for every tenant on
/// the band — not what was true when each was admitted — and the
/// verifier agrees at every step.
#[test]
fn band_sharing_follows_admissions_resubmits_and_releases() {
    let cfg = RuntimeConfig {
        grids: vec![VcgraArch::new(6, 4, 2)],
        ..RuntimeConfig::default()
    };
    let mut rt = Runtime::new(cfg);
    let four_rows = |seed| kernels::fir_seeded(F, 8, seed).graph; // 15 nodes → 4 rows
    let shared = |rt: &Runtime, t: TenantId| {
        rt.verify().assert_ok();
        shares_its_band(rt, t)
    };

    let a = rt
        .submit("a", four_rows(1))
        .unwrap()
        .expect_admitted("empty grid")
        .tenant;
    assert!(!shared(&rt, a));
    // Two rows are free, B wants four: it is time-multiplexed onto A's band.
    let b = rt
        .submit("b", four_rows(2))
        .unwrap()
        .expect_admitted("shares")
        .tenant;
    assert_eq!(rt.pool().band_tenants(0, 0), [a, b]);
    assert!(shared(&rt, a) && shared(&rt, b));
    // B leaves, and a smaller structure takes the free rows: a band of its
    // own, and A's is dedicated again.
    rt.release(b).unwrap();
    assert!(!shared(&rt, a));
    let b = rt
        .submit("b", kernels::fir_seeded(F, 3, 3).graph) // 5 nodes → 2 rows
        .unwrap()
        .expect_admitted("two free rows")
        .tenant;
    assert!(!shared(&rt, a) && !shared(&rt, b));
    // C shares A's band; A leaves, and the survivor's band is dedicated again.
    let c = rt
        .submit("c", four_rows(4))
        .unwrap()
        .expect_admitted("shares")
        .tenant;
    assert!(shared(&rt, a) && shared(&rt, c) && !shared(&rt, b));
    rt.release(a).unwrap();
    assert!(!shared(&rt, c));
    assert_bit_exact(&mut rt, c, 4, 5);
}

/// Seeded multi-tenant churn through the queue: submissions, releases and
/// streams interleave for dozens of rounds. The model tracks the expected
/// FIFO queue; every drain must match it, every stream must stay
/// bit-exact, and the pool invariants must hold throughout.
#[test]
fn seeded_churn_soak_preserves_fifo_and_bit_exactness() {
    let cfg = RuntimeConfig {
        grids: vec![VcgraArch::new(6, 4, 2), VcgraArch::new(2, 5, 2)],
        ..RuntimeConfig::default()
    };
    let mut rt = Runtime::new(cfg);
    let mut rng = logic::SplitMix64::new(0x50AC);
    let mut live: Vec<TenantId> = Vec::new();
    let mut expected_queue: VecDeque<TenantId> = VecDeque::new();
    let mut admitted_order: Vec<TenantId> = Vec::new();
    let mut submitted_order: Vec<TenantId> = Vec::new();

    let note_drained = |drained: &[runtime::Admitted],
                        expected_queue: &mut VecDeque<TenantId>,
                        live: &mut Vec<TenantId>,
                        admitted_order: &mut Vec<TenantId>| {
        for adm in drained {
            let head = expected_queue
                .pop_front()
                .expect("drain with empty model queue");
            assert_eq!(adm.tenant, head, "drain must pop the FIFO head");
            live.push(adm.tenant);
            admitted_order.push(adm.tenant);
        }
    };

    for round in 0..120u64 {
        // Rounds come in thirties. The fifteenth of each submits a tall
        // tenant: by then short ones hold bands on the one grid tall enough
        // for it, so it finds neither the rows nor a band of its height to
        // share, and queues with everyone after it until that grid empties.
        // The thirtieth clears the pool — a tall band lives for as long as
        // anyone time-shares it, and whoever finds the pool full joins it —
        // so the next tall tenant meets short bands again.
        let tall_arrives = round % 30 == 14;
        if round % 30 == 29 {
            while let Some(victim) = live.pop() {
                let drained = rt.release(victim).unwrap();
                note_drained(
                    &drained,
                    &mut expected_queue,
                    &mut live,
                    &mut admitted_order,
                );
            }
            assert_eq!(rt.queue_len(), 0, "an empty pool leaves nobody waiting");
            continue;
        }
        let op = if tall_arrives { 0 } else { rng.below(4) };
        match op {
            0 | 1 => {
                let w = if tall_arrives {
                    kernels::fir_seeded(F, 9, 300 + round) // 5 rows of 4, none of the 2x5
                } else {
                    match rng.below(3) {
                        0 => kernels::fir_seeded(F, 3, 100 + round), // 2 rows
                        1 => kernels::fir_seeded(F, 5, 200 + round), // 3 rows of 4, 2 of 5
                        _ => kernels::tree_reduction(F, 4),          // 2 rows
                    }
                };
                let adm = rt.submit(format!("t{round}"), w.graph).unwrap();
                submitted_order.push(adm.tenant());
                match adm {
                    Admission::Admitted(a) => {
                        assert!(
                            expected_queue.is_empty(),
                            "nobody may be admitted past a waiting queue"
                        );
                        live.push(a.tenant);
                        admitted_order.push(a.tenant);
                    }
                    Admission::Queued(q) => {
                        expected_queue.push_back(q.tenant);
                    }
                }
            }
            // Release a pseudo-random live tenant; the drain must follow
            // the model's FIFO queue.
            2 => {
                if !live.is_empty() {
                    let victim = live.remove((rng.below(live.len() as u64)) as usize);
                    let drained = rt.release(victim).unwrap();
                    note_drained(
                        &drained,
                        &mut expected_queue,
                        &mut live,
                        &mut admitted_order,
                    );
                }
            }
            // Stream a batch through a pseudo-random live tenant,
            // bit-exact against run_dataflow.
            _ => {
                if !live.is_empty() {
                    let t = live[(rng.below(live.len() as u64)) as usize];
                    assert_bit_exact(&mut rt, t, 4, round);
                }
            }
        }
        assert_eq!(
            rt.queued_tenants(),
            expected_queue.iter().copied().collect::<Vec<_>>(),
            "round {round}: runtime queue must match the FIFO model"
        );
        assert!(rt.pool().utilization() <= 1.0 + 1e-12);
    }

    assert!(live.is_empty(), "the last round cleared the pool");
    assert!(
        rt.queue_failures().is_empty(),
        "no queued tenant may be dropped"
    );
    // Global FIFO: the admission order is exactly the submission order
    // restricted to tenants that were ever admitted.
    let admitted_set: std::collections::BTreeSet<_> = admitted_order.iter().copied().collect();
    let expected: Vec<TenantId> = submitted_order
        .iter()
        .copied()
        .filter(|t| admitted_set.contains(t))
        .collect();
    assert_eq!(
        admitted_order, expected,
        "admissions must respect submission order"
    );
    // The cache did its job across the churn: structures repeat, so warm
    // admissions must dominate cold compiles.
    let led = rt.ledger();
    assert!(led.warm_admissions > led.cold_compiles);
    // And the churn did go through the queue, not around it.
    assert!(
        led.queue_admitted >= 12 && led.queue_admitted == led.queued,
        "{led:?}"
    );
}
