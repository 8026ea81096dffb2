//! Mixed-tenant soak over the **`vcgra-runtime`** overlay runtime.
//!
//! The scenario exercises the whole serving story the paper's overlay
//! argument implies:
//!
//! 1. a **cold wave** admits every kernel in the library (cache misses,
//!    full `map_app` compiles);
//! 2. a **warm wave** admits structurally identical kernels with new
//!    coefficients (cache hits — admission cost collapses to a settings
//!    specialize, oversubscribing the pool so some tenants time-share);
//! 3. **parameter swaps** retune live tenants through the
//!    micro-reconfiguration fast path (dirty frames only);
//! 4. **concurrent streams** batch inputs through every tenant on
//!    the engine workers, with bit-exactness checked against
//!    `vcgra::sim::run_dataflow`;
//!
//! followed by the **scheduler waves** (the admission-layer story):
//!
//! 5. **queue wave** — a full pool queues submissions FIFO and drains
//!    them deterministically on release (asserted, not just printed);
//! 6. **compaction wave** — a 13-row tenant that first-fit refuses on 13
//!    fragmented free rows admits once the scheduler slides the surviving
//!    band down (relocation epochs and replay charges in the ledger);
//! 7. **cache wave** — the same submission sequence runs on a mixed-width
//!    pool with cache-aware placement off, then on: the warm-hit rate
//!    must strictly improve.
//!
//! The run fails (non-zero exit) if the warm admission path is not at
//! least 10× faster than the cold compile of the same structures, if any
//! tenant's outputs deviate from `run_dataflow` by a single bit, or if
//! any scheduler-wave assertion fires.
//!
//! Usage: `cargo run -p xbench --release --bin serve [--smoke] [--queue]
//! [--compact] [--check] [--verify] [--shards N] [--workers W]
//! [--json <path>]`
//!
//! `--queue` / `--compact` select just that scheduler wave; `--check`
//! (CI's queue-regression gate) runs everything regardless of selection.
//! `--shards N` runs the **sharded serving tier** bench instead: a
//! seeded deterministic load plan (`vcgra-shard`'s generator) driven
//! through N cache-affine shards, cross-checked for bit-exactness
//! against the same plan on a single-runtime tier, with per-shard and
//! aggregate admit/execute/queue-wait quantiles in the JSON record.
//! `--verify` turns on `verify_on_admit` (every mutating runtime
//! operation re-proves the scheduler invariants before returning) and a
//! final `vcgra-verify` sched pass per wave. `--check` implies the final
//! sched pass, so queue/ledger reconciliation drift *fails* the gate
//! instead of merely printing skewed counters. `--json` writes the soak's
//! machine-readable record — ledger counters plus the audit seconds the
//! admission-time `StructureSig` memo saved across snapshots.

use runtime::kernels;
use runtime::{Admission, Runtime, RuntimeConfig, StreamRequest, TenantId};
use softfloat::{FpFormat, FpValue};
use std::time::Duration;
use vcgra::sim::run_dataflow;
use vcgra::VcgraArch;

const F: FpFormat = FpFormat::PAPER;

fn fp(x: f64) -> FpValue {
    FpValue::from_f64(x, F)
}

fn ms(d: Duration) -> String {
    format!("{:.3} ms", d.as_secs_f64() * 1e3)
}

fn us(d: Duration) -> String {
    format!("{:.1} us", d.as_secs_f64() * 1e6)
}

/// Re-proves the scheduler invariants (band/lease disjointness, row
/// conservation, queue/ledger reconciliation, cache-key soundness) on
/// the live runtime and fails the run on any violation.
fn sched_verify(rt: &Runtime, label: &str) {
    let report = rt.verify();
    println!("  [verify] {label}: {}", report.summary());
    report.assert_ok();
    let timeline = rt.verify_timeline();
    println!("  [verify] {label} (time axis): {}", timeline.summary());
    timeline.assert_ok();
}

fn stream(n: usize, items: usize, salt: u64) -> Vec<Vec<FpValue>> {
    let mut rng = logic::SplitMix64::new(0x5EED ^ salt);
    (0..items)
        .map(|_| (0..n).map(|_| fp((rng.unit_f64() - 0.5) * 8.0)).collect())
        .collect()
}

/// Streams through one tenant and asserts bit-exactness on its current
/// graph.
fn assert_bit_exact(rt: &mut Runtime, tenant: TenantId, items: usize, salt: u64) {
    let graph = rt.tenant(tenant).unwrap().graph.clone();
    let ins = stream(graph.num_inputs, items, salt);
    let runs = rt.run(vec![StreamRequest { tenant, inputs: ins.clone() }]).expect("stream");
    for (input, out) in ins.iter().zip(&runs[0].outputs) {
        let want = run_dataflow(&graph, input);
        assert_eq!(
            out.iter().map(|v| v.bits).collect::<Vec<_>>(),
            want.iter().map(|v| v.bits).collect::<Vec<_>>(),
            "tenant {tenant} deviates from run_dataflow"
        );
    }
}

/// Phases 1–4 + ledger: the original mixed-tenant soak.
fn soak(smoke: bool, verify_on_admit: bool, audit: bool, json: Option<&str>) {
    // Per-wave latency histograms: cold/warm admission and streaming
    // execution, recorded at the driver so each wave reads out its own
    // p50/p95/p99 (the runtime's own `runtime.admit_ns` histogram pools
    // both waves).
    let lat = trace::Registry::new();
    let cold_hist = lat.histogram("serve.cold_admit_ns");
    let warm_hist = lat.histogram("serve.warm_admit_ns");
    let exec_hist = lat.histogram("serve.execute_ns");
    let items_per_tenant = if smoke { 200 } else { 2000 };
    let mut lib = kernels::library(F);
    if !smoke {
        // The big matched-filter stage goes first: large tenants admit
        // before the pool fragments into small bands.
        lib.insert(0, kernels::retina_soak_stage(F));
    }

    // Pool: uniform 4-wide grids (one overlay generation — a uniform
    // width keeps region shapes, and therefore cache keys, stable across
    // re-placements), one of them tall enough for the big retina stage.
    // Sized so the warm wave oversubscribes and time-shares.
    let cfg = RuntimeConfig {
        grids: vec![
            VcgraArch::new(8, 4, 2),
            VcgraArch::new(8, 4, 2),
            VcgraArch::new(8, 4, 2),
            VcgraArch::new(16, 4, 2),
        ],
        verify_on_admit,
        ..RuntimeConfig::default()
    };
    println!("=== vcgra-runtime serve: mixed-tenant soak ({} kernels) ===", lib.len());
    println!(
        "pool: {:?} grids, cache {} entries, {} workers, batch {}",
        cfg.grids.iter().map(|g| (g.rows, g.cols)).collect::<Vec<_>>(),
        cfg.cache_capacity,
        cfg.workers,
        cfg.batch_size,
    );
    let mut rt = Runtime::new(cfg);

    // --- phase 1: cold wave ---
    println!("\n-- cold admissions (cache misses, full compiles) --");
    println!(
        "  {:<22} {:>4} {:>9} {:>12} {:>12} {:>6}",
        "kernel", "PEs", "region", "compile", "admit", "cache"
    );
    let mut cold_ids = Vec::new();
    let mut cold_admits: Vec<Duration> = Vec::new();
    for w in &lib {
        let adm = rt
            .submit(&w.name, w.graph.clone())
            .expect("cold submission")
            .expect_admitted("cold wave fits the pool");
        println!(
            "  {:<22} {:>4} {:>6}x{:<2} {:>12} {:>12} {:>6}",
            w.name,
            w.graph.pe_demand(),
            adm.lease.rows,
            adm.lease.cols,
            ms(adm.compile_time),
            us(adm.admit_time),
            if adm.cache_hit { "hit" } else { "miss" },
        );
        // Structurally identical kernels (e.g. two 3x3 tap sets) may hit
        // within the first wave already — only misses enter the cold
        // baseline.
        if !adm.cache_hit {
            cold_admits.push(adm.admit_time);
        }
        cold_hist.record_duration(adm.admit_time);
        cold_ids.push(adm.tenant);
    }
    assert!(cold_admits.len() >= 4, "library must hold >= 4 distinct structures");

    // --- phase 2: warm wave (same structures, new coefficients) ---
    println!("\n-- warm admissions (cache hits, parameters only) --");
    let mut rng = logic::SplitMix64::new(2026);
    let mut warm_ids = Vec::new();
    let mut warm_admits: Vec<Duration> = Vec::new();
    let mut warm_graphs = Vec::new();
    for w in &lib {
        let slots = w.graph.coeff_nodes();
        let coeffs: Vec<FpValue> =
            (0..slots.len()).map(|_| fp((rng.unit_f64() - 0.5) * 4.0)).collect();
        let graph = w.graph.with_coeffs(&coeffs);
        let adm = rt
            .submit(format!("{}-warm", w.name), graph.clone())
            .expect("warm submission")
            .expect_admitted("warm wave time-shares instead of queueing");
        println!(
            "  {:<22} admit {:>12}  cache {}  {}",
            format!("{}-warm", w.name),
            us(adm.admit_time),
            if adm.cache_hit { "hit " } else { "MISS" },
            if adm.lease.shared { "time-shared" } else { "dedicated" },
        );
        assert!(adm.cache_hit, "second wave must hit the configuration cache");
        warm_admits.push(adm.admit_time);
        warm_hist.record_duration(adm.admit_time);
        warm_ids.push(adm.tenant);
        warm_graphs.push(graph);
    }
    let cold_avg = cold_admits.iter().sum::<Duration>() / cold_admits.len() as u32;
    let warm_avg = warm_admits.iter().sum::<Duration>() / warm_admits.len() as u32;
    let speedup = cold_avg.as_secs_f64() / warm_avg.as_secs_f64().max(1e-12);
    println!(
        "\n  warm-path speedup: cold admission {} vs warm {} -> {speedup:.0}x (require >= 10x)",
        us(cold_avg),
        us(warm_avg),
    );
    assert!(speedup >= 10.0, "warm admission must be >= 10x faster, got {speedup:.1}x");

    // --- phase 3: parameter swaps on live tenants ---
    println!("\n-- parameter swaps (micro-reconfiguration fast path) --");
    println!(
        "  {:<22} {:>6} {:>8} {:>8} {:>12} {:>12}",
        "kernel", "dirty", "PPC fr", "set fr", "port", "SCG eval"
    );
    let mut swapped_graphs = Vec::new();
    for (&t, w) in cold_ids.iter().zip(&lib) {
        let slots = rt.tenant(t).unwrap().graph.coeff_nodes();
        let coeffs: Vec<FpValue> =
            (0..slots.len()).map(|_| fp((rng.unit_f64() - 0.5) * 2.0)).collect();
        let rep = rt.swap_params(t, &coeffs).expect("swap");
        println!(
            "  {:<22} {:>6} {:>8} {:>8} {:>12} {:>12}",
            w.name,
            rep.dirty_pes,
            rep.ppc_frames,
            rep.settings_frames,
            ms(rep.port_time),
            us(rep.eval_time),
        );
        swapped_graphs.push(rt.tenant(t).unwrap().graph.clone());
    }

    // --- phase 4: concurrent batched streams ---
    println!("\n-- streaming ({items_per_tenant} items/tenant, all tenants concurrent) --");
    let all_ids: Vec<_> = cold_ids.iter().chain(&warm_ids).copied().collect();
    let all_graphs: Vec<_> = swapped_graphs.iter().chain(&warm_graphs).cloned().collect();
    let requests: Vec<StreamRequest> = all_ids
        .iter()
        .zip(&all_graphs)
        .map(|(&t, g)| StreamRequest { tenant: t, inputs: stream(g.num_inputs, items_per_tenant, t) })
        .collect();
    let inputs: Vec<Vec<Vec<FpValue>>> = requests.iter().map(|r| r.inputs.clone()).collect();
    let t0 = std::time::Instant::now();
    let runs = rt.run(requests).expect("streaming");
    let wall = t0.elapsed();

    println!(
        "  {:<22} {:>7} {:>10} {:>12} {:>7} {:>6} {:>10}",
        "tenant", "items", "host", "items/s", "cxsw", "epoch", "bit-exact"
    );
    let mut total_items = 0usize;
    for run in &runs {
        let idx = all_ids.iter().position(|&t| t == run.tenant).unwrap();
        let graph = &all_graphs[idx];
        let name = &rt.tenant(run.tenant).unwrap().name;
        // Bit-exactness against the pure dataflow simulator.
        let check = inputs[idx].len().min(64);
        for (input, out) in inputs[idx][..check].iter().zip(&run.outputs) {
            let want = run_dataflow(graph, input);
            assert_eq!(
                out.iter().map(|v| v.bits).collect::<Vec<_>>(),
                want.iter().map(|v| v.bits).collect::<Vec<_>>(),
                "{name}: runtime output deviates from run_dataflow"
            );
        }
        total_items += run.items;
        exec_hist.record_duration(run.exec_time);
        println!(
            "  {:<22} {:>7} {:>10} {:>12.0} {:>7} {:>6} {:>10}",
            name,
            run.items,
            ms(run.exec_time),
            run.throughput(),
            run.context_switches,
            run.epoch,
            "yes",
        );
    }
    println!(
        "  pool wall clock {} for {total_items} items -> {:.0} items/s aggregate",
        ms(wall),
        total_items as f64 / wall.as_secs_f64().max(1e-12),
    );

    // --- phase 5: background compaction in the idle window ---
    // Retire the warm tenants, then defragment between waves: the
    // replays are grid-local, so they hide behind the time axis's
    // existing history instead of serializing on the port.
    println!("\n-- background compaction (idle-window defragmentation) --");
    for &t in &warm_ids {
        rt.release(t).expect("release warm tenant");
    }
    let makespan_before = rt.ledger().modeled_makespan;
    let moved = rt.compact_background().expect("background compaction");
    println!(
        "  released {} warm tenants, {} band(s) relocated; makespan {} -> {}",
        warm_ids.len(),
        moved,
        ms(makespan_before),
        ms(rt.ledger().modeled_makespan),
    );

    // --- ledger ---
    let led = rt.ledger();
    let cache = rt.cache_stats();
    println!("\n-- ledger (measured host vs modeled configuration port) --");
    println!("  cold compiles          {:>10}   host compile {}", led.cold_compiles, ms(led.host_compile_time));
    println!("  warm admissions        {:>10}   host admit   {}", led.warm_admissions, ms(led.host_admit_time));
    println!(
        "  queued / drained       {:>6} / {:<3} dropped {} cancelled {}",
        led.queued, led.queue_admitted, led.queue_dropped, led.queue_cancelled
    );
    println!("  compactions            {:>10}   bands moved  {} ({})", led.compactions, led.relocated_bands, ms(led.compaction_port_time));
    println!("  parameter swaps        {:>10}   dirty frames {}", led.swaps, led.swap_frames);
    println!("  swap port time         {:>10}   SCG eval     {}", ms(led.swap_port_time), us(led.swap_eval_time));
    println!("  context switches       {:>10}   switch port  {}", led.context_switches, ms(led.switch_port_time));
    println!("  admission port time    {:>10}", ms(led.admission_port_time));
    println!("  total port time        {:>10}   vs exec      {}", ms(led.total_port_time()), ms(led.exec_time));
    println!(
        "  modeled makespan       {:>10}   overlap saved {}",
        ms(led.modeled_makespan),
        ms(led.overlap_saved),
    );
    if led.context_switches > 0 {
        // The acceptance bound of the time axis: once bands time-share,
        // their grid-local context switches overlap other bands' port
        // streams, so the honest makespan beats the flat sum.
        assert!(
            led.modeled_makespan < led.total_port_time(),
            "time-shared soak: modeled makespan {} must be strictly less than \
             the summed port time {}",
            ms(led.modeled_makespan),
            ms(led.total_port_time()),
        );
    }
    println!(
        "  paper anchor: {} per PE full reconfig ({} interface)",
        ms(led.paper_pe_unit),
        rt.config().iface.name(),
    );
    println!(
        "  cache: {} hits / {} misses / {} evictions ({:.0}% warm); pool utilization {:.0}%",
        cache.hits,
        cache.misses,
        cache.evictions,
        cache.hit_rate() * 100.0,
        rt.utilization() * 100.0,
    );
    if audit {
        sched_verify(&rt, "post-soak scheduler state");
    }
    println!(
        "  sig memo: {} derivations ({}) at admission, {} snapshot hits -> {:.3} ms audit saved",
        led.sig_derivations,
        us(led.sig_derive_time),
        rt.sig_memo_hits(),
        rt.sig_seconds_saved() * 1e3,
    );

    // --- latency quantiles (per-wave driver histograms + the runtime's
    //     own registry, which the ledger above is a view over) ---
    println!("\n-- latency (log-linear histograms, per wave) --");
    print!("{}", lat.render_table());
    println!("\n-- runtime metrics registry (ledger source of truth) --");
    print!("{}", rt.metrics().render_table());

    if let Some(path) = json {
        let record = xbench::bench::BenchRecord::new("serve_soak")
            .field("smoke", smoke)
            .field("verify_on_admit", verify_on_admit)
            .field("cold_compiles", led.cold_compiles)
            .field("warm_admissions", led.warm_admissions)
            .field("warm_speedup", speedup)
            .field("cache_hit_rate", cache.hit_rate())
            .field("swaps", led.swaps)
            .field("sig_derivations", led.sig_derivations)
            .field("sig_derive_seconds", led.sig_derive_time.as_secs_f64())
            .field("sig_memo_hits", rt.sig_memo_hits())
            .field("sig_audit_seconds_saved", rt.sig_seconds_saved())
            .field("modeled_makespan_seconds", led.modeled_makespan.as_secs_f64())
            .field("total_port_seconds", led.total_port_time().as_secs_f64())
            .field("overlap_saved_seconds", led.overlap_saved.as_secs_f64())
            .raw(
                "latency",
                format!(
                    "{{\n    \"cold_admit\": {},\n    \"warm_admit\": {},\n    \
                     \"execute\": {}\n  }}",
                    xbench::bench::latency_json(&cold_hist.snapshot()),
                    xbench::bench::latency_json(&warm_hist.snapshot()),
                    xbench::bench::latency_json(&exec_hist.snapshot()),
                ),
            );
        record.write(path).expect("write serve json");
        println!("  wrote {path}");
    }
    println!("\nsoak OK: warm path {speedup:.0}x, all outputs bit-exact with run_dataflow.");
}

/// Phase 5: FIFO admission queue — fill the pool, queue three tenants,
/// release the blocker, and require the drain to follow submission order.
fn queue_wave(verify_on_admit: bool, audit: bool) {
    println!("\n=== queue wave: FIFO admission under a full pool ===");
    let cfg = RuntimeConfig {
        grids: vec![VcgraArch::new(6, 4, 2)],
        time_share: false, // prefer queueing latency over context switches
        verify_on_admit,
        ..RuntimeConfig::default()
    };
    let mut rt = Runtime::new(cfg);
    let blocker = rt
        .submit("blocker", kernels::fir_seeded(F, 12, 1).graph)
        .expect("submit")
        .expect_admitted("empty pool");
    println!("  blocker holds all {} rows", blocker.lease.rows);

    println!("  {:<10} {:>6} {:>9}", "tenant", "rows", "position");
    let mut queued = Vec::new();
    for (i, seed) in [21u64, 22, 23].iter().enumerate() {
        match rt.submit(format!("wait{i}"), kernels::fir_seeded(F, 3, *seed).graph).expect("submit") {
            Admission::Queued(q) => {
                println!("  wait{:<6} {:>6} {:>9}", i, 2, q.position);
                assert_eq!(q.position, i, "queue positions count up");
                queued.push(q.tenant);
            }
            Admission::Admitted(_) => panic!("pool is full: wait{i} must queue"),
        }
    }
    assert_eq!(rt.queue_len(), 3);

    let drained = rt.release(blocker.tenant).expect("release");
    println!("  release(blocker) drained {} tenants:", drained.len());
    println!("  {:<10} {:>6} {:>6} {:>12}", "tenant", "row0", "rows", "admit");
    for adm in &drained {
        let name = rt.tenant(adm.tenant).unwrap().name.clone();
        println!("  {:<10} {:>6} {:>6} {:>12}", name, adm.lease.row0, adm.lease.rows, us(adm.admit_time));
    }
    assert_eq!(
        drained.iter().map(|a| a.tenant).collect::<Vec<_>>(),
        queued,
        "drain must follow FIFO submission order"
    );
    for &t in &queued {
        assert_bit_exact(&mut rt, t, 8, t);
    }
    let led = rt.ledger();
    println!(
        "  time axis: makespan {} vs summed port {} (overlap saved {})",
        ms(led.modeled_makespan),
        ms(led.total_port_time()),
        ms(led.overlap_saved),
    );
    if audit {
        sched_verify(&rt, "post-drain scheduler state");
    }
    println!("queue wave OK: 3 queued, drained in FIFO order, bit-exact.");
}

/// Phase 6: band compaction — the acceptance scenario. 13 free rows
/// fragmented 6+7 on a 16-row grid; first-fit refuses the 13-row retina
/// matched-filter stage, compaction admits it.
fn compact_wave(verify_on_admit: bool, audit: bool) {
    println!("\n=== compaction wave: 13-row tenant on 13 fragmented free rows ===");
    let grids = vec![VcgraArch::new(16, 4, 2)];
    let blocker = kernels::fir_seeded(F, 12, 31); // 23 nodes → 6 rows of 4
    let survivor = kernels::fir_seeded(F, 5, 32); // 9 nodes → 3 rows
    let big = kernels::retina_soak_stage(F); // 49 nodes → 13 rows

    // First fit (compaction off): the big tenant can only queue.
    let cfg = RuntimeConfig {
        grids: grids.clone(),
        compact: false,
        verify_on_admit,
        ..RuntimeConfig::default()
    };
    let mut rt = Runtime::new(cfg);
    let b = rt.submit("blocker", blocker.graph.clone()).unwrap().expect_admitted("fits");
    rt.submit("survivor", survivor.graph.clone()).unwrap().expect_admitted("fits");
    rt.release(b.tenant).unwrap();
    let refused = rt.submit(&big.name, big.graph.clone()).unwrap();
    assert!(
        refused.is_queued(),
        "first fit must refuse the 13-row tenant on 13 fragmented rows"
    );
    println!(
        "  first-fit: {} rows free, fragmented 6+7 -> {} queued",
        rt.pool().free_rows(0),
        big.name
    );

    // Same sequence with compaction on.
    let mut rt =
        Runtime::new(RuntimeConfig { grids, verify_on_admit, ..RuntimeConfig::default() });
    let b = rt.submit("blocker", blocker.graph.clone()).unwrap().expect_admitted("fits");
    let s = rt.submit("survivor", survivor.graph.clone()).unwrap().expect_admitted("fits");
    rt.release(b.tenant).unwrap();
    let adm = rt
        .submit(&big.name, big.graph.clone())
        .unwrap()
        .expect_admitted("compaction makes 13 contiguous rows");
    let led = rt.ledger();
    println!(
        "  compaction: {} admitted on rows {}..{} after {} relocation(s) \
         (replay charged {})",
        big.name,
        adm.lease.row0,
        adm.lease.row0 + adm.lease.rows - 1,
        adm.relocations,
        ms(led.compaction_port_time),
    );
    assert_eq!(adm.lease.rows, 13);
    assert_eq!(adm.relocations, 1);
    let survivor_lease = rt.tenant(s.tenant).unwrap().lease;
    assert_eq!((survivor_lease.row0, survivor_lease.epoch), (0, 1), "survivor slid to row 0");
    println!(
        "  survivor now at rows 0..2, lease epoch {} (stats: {} relocation)",
        survivor_lease.epoch,
        rt.tenant(s.tenant).unwrap().stats.relocations,
    );
    assert!(led.compaction_port_time > Duration::ZERO, "replay must be charged");

    // Both the mover and the newcomer stay bit-exact.
    assert_bit_exact(&mut rt, s.tenant, 8, 61);
    assert_bit_exact(&mut rt, adm.tenant, 8, 62);
    let led = rt.ledger();
    println!(
        "  time axis: makespan {} vs summed port {} (overlap saved {})",
        ms(led.modeled_makespan),
        ms(led.total_port_time()),
        ms(led.overlap_saved),
    );
    // The acceptance bound: the survivor's grid-local replay hides
    // behind the 13-row admission stream, so the honest makespan is
    // strictly below the flat sum that serializes the two.
    assert!(
        led.modeled_makespan < led.total_port_time(),
        "compaction wave: modeled makespan {} must be strictly less than \
         the summed port time {}",
        ms(led.modeled_makespan),
        ms(led.total_port_time()),
    );
    if audit {
        sched_verify(&rt, "post-compaction scheduler state");
    }
    println!("compaction wave OK: admitted via compaction, bit-exact across the move.");
}

/// Phase 7: cache-aware placement on a mixed-width pool, measured against
/// plain first fit on the identical submission sequence.
fn cache_wave(verify_on_admit: bool, audit: bool) {
    println!("\n=== cache wave: cache-aware placement on a mixed-width pool ===");
    fn scenario(cache_aware: bool, verify_on_admit: bool) -> (Runtime, TenantId) {
        let cfg = RuntimeConfig {
            grids: vec![VcgraArch::new(6, 4, 2), VcgraArch::new(6, 5, 2)],
            cache_aware,
            verify_on_admit,
            ..RuntimeConfig::default()
        };
        let mut rt = Runtime::new(cfg);
        // A 6-row blocker fills the 4-wide grid...
        let blocker = rt
            .submit("blocker", kernels::fir_seeded(F, 12, 71).graph)
            .unwrap()
            .expect_admitted("empty pool");
        // ...so the FIR compiles for the 5-wide grid.
        let first = rt
            .submit("fir-a", kernels::fir_seeded(F, 5, 72).graph)
            .unwrap()
            .expect_admitted("grid 1 has room");
        assert_eq!(first.lease.grid, 1);
        // Free the 4-wide grid: both widths feasible for the next FIR.
        rt.release(blocker.tenant).unwrap();
        let second = rt
            .submit("fir-b", kernels::fir_seeded(F, 5, 73).graph)
            .unwrap()
            .expect_admitted("both grids have room");
        (rt, second.tenant)
    }

    let (rt_first_fit, _) = scenario(false, verify_on_admit);
    let (mut rt_aware, second) = scenario(true, verify_on_admit);
    let (ff, aw) = (rt_first_fit.cache_stats(), rt_aware.cache_stats());
    println!(
        "  {:<22} {:>6} {:>8} {:>10} {:>10}",
        "policy", "hits", "misses", "warm rate", "compiles"
    );
    println!(
        "  {:<22} {:>6} {:>8} {:>9.0}% {:>10}",
        "first-fit",
        ff.hits,
        ff.misses,
        ff.hit_rate() * 100.0,
        rt_first_fit.ledger().cold_compiles,
    );
    println!(
        "  {:<22} {:>6} {:>8} {:>9.0}% {:>10}",
        "cache-aware",
        aw.hits,
        aw.misses,
        aw.hit_rate() * 100.0,
        rt_aware.ledger().cold_compiles,
    );
    assert!(
        aw.hit_rate() > ff.hit_rate(),
        "cache-aware placement must strictly raise the warm-hit rate \
         ({:.2} vs {:.2})",
        aw.hit_rate(),
        ff.hit_rate()
    );
    assert!(rt_aware.ledger().cold_compiles < rt_first_fit.ledger().cold_compiles);
    assert_eq!(rt_aware.tenant(second).unwrap().lease.grid, 1, "placed on the warm width");
    assert_bit_exact(&mut rt_aware, second, 8, 81);
    if audit {
        sched_verify(&rt_aware, "post-cache-wave scheduler state");
    }
    println!(
        "cache wave OK: warm-hit rate {:.0}% -> {:.0}%, one compile saved.",
        ff.hit_rate() * 100.0,
        aw.hit_rate() * 100.0
    );
}

/// The sharded serving tier (`--shards N`): drives one seeded load plan
/// through an N-shard tier and — when N > 1 — through a single-runtime
/// tier as the reference soak, then requires the two output fingerprints
/// to be bit-identical. Warm-hit floor (>= 33%), per-shard invariant
/// verification at every wave boundary, and the >= 3x warm-traffic
/// scaling requirement (asserted only where the host has the cores to
/// show it) all live here.
fn shard_bench(shards: usize, workers: Option<usize>, smoke: bool, verify_mode: bool, json: Option<&str>) {
    use shard::{LoadSpec, ShardConfig, ShardServer};

    let mut rt_cfg = RuntimeConfig { verify_on_admit: verify_mode, ..RuntimeConfig::default() };
    if let Some(w) = workers {
        rt_cfg.workers = w;
    }
    let spec = LoadSpec {
        waves: if smoke { 2 } else { 4 },
        tenants_per_wave: if smoke { 8 } else { 24 },
        items_per_tenant: if smoke { 8 } else { 64 },
        ..LoadSpec::default()
    };
    let plan = shard::synthesize(F, &spec);
    let cfg_for = |n: usize| ShardConfig { runtime: rt_cfg.clone(), ..ShardConfig::new(n) };

    println!("=== sharded serving tier: {shards} shard(s), {} engine worker(s)/shard ===", rt_cfg.workers);
    println!(
        "plan: seed {:#x}, {} tenants ({} priming + {} waves x {}), {} items/tenant/phase",
        spec.seed,
        plan.tenants(),
        plan.waves[0].len(),
        spec.waves,
        spec.tenants_per_wave,
        spec.items_per_tenant,
    );

    // Reference single-runtime soak: same plan, one shard. Its output
    // fingerprint is the bit-exactness witness for the sharded run, and
    // its throughput is the scaling baseline.
    let reference = (shards > 1).then(|| {
        let mut single = ShardServer::start(cfg_for(1));
        let rep = shard::loadgen::run(&mut single, &plan)
            .unwrap_or_else(|e| panic!("single-shard reference failed: {e}"));
        for fin in single.shutdown() {
            assert!(fin.verify.ok(), "reference shard invariants");
        }
        println!(
            "reference (1 shard): {:.0} items/s over {} timed items, warm rate {:.0}%",
            rep.throughput,
            rep.total_items,
            rep.warm_hit_rate * 100.0,
        );
        rep
    });

    let mut server = ShardServer::start(cfg_for(shards));
    let report = shard::loadgen::run(&mut server, &plan)
        .unwrap_or_else(|e| panic!("sharded run failed: {e}"));

    println!("\n-- waves (wave 0 primes the caches, untimed) --");
    println!("  {:<6} {:>6} {:>8} {:>12} {:>12} {:>7} {:>8}", "wave", "jobs", "items", "wall", "items/s", "spills", "retries");
    for w in &report.waves {
        println!(
            "  {:<6} {:>6} {:>8} {:>12} {:>12.0} {:>7} {:>8}",
            if w.timed { format!("w{}", w.wave) } else { format!("w{}*", w.wave) },
            w.jobs,
            w.items,
            ms(Duration::from_secs_f64(w.seconds)),
            w.items as f64 / w.seconds.max(1e-12),
            w.spills,
            w.retries,
        );
    }

    // Latency quantiles come off the tier's registry: aggregate cells
    // plus the per-shard `shard.<i>.*` cells the workers record into.
    let reg = server.metrics();
    let pct = |name: &str| {
        let s = reg.histogram(name).snapshot();
        (s.count, us(Duration::from_nanos(s.p50())), us(Duration::from_nanos(s.p95())), us(Duration::from_nanos(s.p99())))
    };
    println!("\n-- latency (p50 / p95 / p99) --");
    println!("  {:<22} {:>8} {:>12} {:>12} {:>12}", "cell", "count", "p50", "p95", "p99");
    for name in ["shard.queue_wait_ns", "shard.admit_ns", "shard.execute_ns"] {
        let (n, p50, p95, p99) = pct(name);
        println!("  {:<22} {:>8} {:>12} {:>12} {:>12}", name, n, p50, p95, p99);
    }
    let mut per_shard_json = Vec::with_capacity(shards);
    for s in &report.shard_stats {
        let i = s.shard;
        let (_, a50, a95, a99) = pct(&format!("shard.{i}.admit_ns"));
        let (_, e50, e95, e99) = pct(&format!("shard.{i}.execute_ns"));
        println!(
            "  shard {i}: {} reqs, {} admits ({} warm), util {:.0}%, makespan {}, admit p50/p95/p99 {a50}/{a95}/{a99}, exec {e50}/{e95}/{e99}",
            s.processed,
            s.admission_order.len(),
            s.cache.hits,
            s.utilization * 100.0,
            ms(s.ledger.modeled_makespan),
        );
        per_shard_json.push(format!(
            "{{\"processed\": {}, \"admissions\": {}, \"makespan_seconds\": {:.6}, \"overlap_saved_seconds\": {:.6}, \"queue_wait\": {}, \"admit\": {}, \"execute\": {}}}",
            s.processed,
            s.admission_order.len(),
            s.ledger.modeled_makespan.as_secs_f64(),
            s.ledger.overlap_saved.as_secs_f64(),
            xbench::bench::latency_json(&reg.histogram(&format!("shard.{i}.queue_wait_ns")).snapshot()),
            xbench::bench::latency_json(&reg.histogram(&format!("shard.{i}.admit_ns")).snapshot()),
            xbench::bench::latency_json(&reg.histogram(&format!("shard.{i}.execute_ns")).snapshot()),
        ));
    }
    // Shards run in parallel, each with its own configuration port: the
    // tier's modeled makespan is the slowest shard's axis; the flat
    // story is the sum of every shard's port time.
    let tier_makespan = report
        .shard_stats
        .iter()
        .map(|s| s.ledger.modeled_makespan)
        .max()
        .unwrap_or(Duration::ZERO);
    let tier_port: Duration = report.shard_stats.iter().map(|s| s.ledger.total_port_time()).sum();
    let tier_saved: Duration = report.shard_stats.iter().map(|s| s.ledger.overlap_saved).sum();
    println!(
        "  tier time axis: makespan {} (slowest shard) vs {} summed port time",
        ms(tier_makespan),
        ms(tier_port),
    );
    let agg_wait = reg.histogram("shard.queue_wait_ns").snapshot();
    let agg_admit = reg.histogram("shard.admit_ns").snapshot();
    let agg_exec = reg.histogram("shard.execute_ns").snapshot();
    let (routed, spilled, rejected) = (
        reg.counter_value("shard.route"),
        reg.counter_value("shard.spill"),
        reg.counter_value("shard.reject"),
    );

    for fin in server.shutdown() {
        assert!(fin.verify.ok(), "shard {} invariants at shutdown", fin.shard);
    }

    println!(
        "\n  routed {routed} ({spilled} spilled), {rejected} rejections absorbed by retry, \
         cache {} hits / {} misses ({:.0}% warm)",
        report.warm_hits,
        report.cold_misses,
        report.warm_hit_rate * 100.0,
    );
    println!(
        "  {} timed items in {} -> {:.0} items/s, fingerprint {:016x}",
        report.total_items,
        ms(Duration::from_secs_f64(report.timed_seconds)),
        report.throughput,
        report.fingerprint,
    );
    assert!(
        report.warm_hit_rate >= 1.0 / 3.0,
        "warm-hit rate {:.2} below the 33% floor — affinity routing is not keeping caches warm",
        report.warm_hit_rate
    );

    let mut speedup = None;
    if let Some(ref single) = reference {
        assert_eq!(
            report.fingerprint, single.fingerprint,
            "sharded outputs must be bit-exact with the single-runtime soak"
        );
        let x = report.throughput / single.throughput.max(1e-12);
        speedup = Some(x);
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        println!("  speedup over 1 shard: {x:.2}x ({cores} host cores), outputs bit-exact");
        if shards >= 8 && cores >= shards {
            assert!(
                x >= 3.0,
                "{shards} shards on {cores} cores must sustain >= 3x the single-shard \
                 warm-traffic throughput, got {x:.2}x"
            );
        } else {
            println!(
                "  (scaling assertion needs >= 8 shards and as many host cores; \
                 advisory only here)"
            );
        }
    }

    if let Some(path) = json {
        let mut sharded = format!(
            "{{\n    \"spills\": {},\n    \"warm_hits\": {},\n    \"cold_misses\": {},\n    \
             \"warm_hit_rate\": {:.6},\n    \"makespan_seconds\": {:.6},\n    \
             \"port_seconds\": {:.6},\n    \"overlap_saved_seconds\": {:.6},\n    \
             \"latency\": {{\n      \"queue_wait\": {},\n      \
             \"admit\": {},\n      \"execute\": {}\n    }},\n    \"per_shard\": [{}]",
            report.spills,
            report.warm_hits,
            report.cold_misses,
            report.warm_hit_rate,
            tier_makespan.as_secs_f64(),
            tier_port.as_secs_f64(),
            tier_saved.as_secs_f64(),
            xbench::bench::latency_json(&agg_wait),
            xbench::bench::latency_json(&agg_admit),
            xbench::bench::latency_json(&agg_exec),
            per_shard_json.join(", "),
        );
        if let Some(x) = speedup {
            sharded.push_str(&format!(",\n    \"single_shard_speedup\": {x:.6}"));
        }
        sharded.push_str("\n  }");
        let record = xbench::bench::BenchRecord::new("serve_shard")
            .field("smoke", smoke)
            .field("shards", shards as u64)
            .field("workers", rt_cfg.workers as u64)
            .field("seed", spec.seed)
            .field("waves", spec.waves as u64)
            .field("tenants_per_wave", spec.tenants_per_wave as u64)
            .field("items_per_tenant", spec.items_per_tenant as u64)
            .field("tenants", plan.tenants() as u64)
            .field("total_items", report.total_items)
            .field("fingerprint", format!("{:016x}", report.fingerprint))
            .field("timed_seconds", report.timed_seconds)
            .field("items_per_sec", report.throughput)
            .raw("sharded", sharded);
        record.write(path).expect("write serve_shard json");
        println!("  wrote {path}");
    }
    println!(
        "\nshard bench OK: {} tenants over {shards} shard(s), bit-exact, warm rate {:.0}%.",
        plan.tenants(),
        report.warm_hit_rate * 100.0,
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = xbench::smoke_mode();
    let trace_path = xbench::init_trace();
    let check = args.iter().any(|a| a == "--check");
    let verify_mode = args.iter().any(|a| a == "--verify");
    let only_queue = args.iter().any(|a| a == "--queue");
    let only_compact = args.iter().any(|a| a == "--compact");
    let selected = only_queue || only_compact;
    // `--verify` gates every mutating operation; `--check` additionally
    // re-proves each wave's final state so ledger drift fails the gate.
    let audit = verify_mode || check;

    let json = args
        .iter()
        .position(|a| a == "--json")
        .map(|i| args.get(i + 1).expect("--json needs a path").clone());

    // `--shards N` selects the sharded-tier bench and nothing else: it is
    // its own serving model (N runtimes behind a router) and CI runs it
    // as a separate matrix job.
    if let Some(i) = args.iter().position(|a| a == "--shards") {
        let shards: usize = args
            .get(i + 1)
            .expect("--shards needs a count")
            .parse()
            .expect("--shards takes an integer");
        assert!(shards >= 1, "--shards needs at least one shard");
        let workers = args.iter().position(|a| a == "--workers").map(|i| {
            args.get(i + 1)
                .expect("--workers needs a count")
                .parse()
                .expect("--workers takes an integer")
        });
        shard_bench(shards, workers, smoke, verify_mode, json.as_deref());
        xbench::finish_trace(trace_path.as_deref());
        return;
    }

    if check || !selected {
        soak(smoke, verify_mode, audit, json.as_deref());
    }
    if check || !selected || only_queue {
        queue_wave(verify_mode, audit);
    }
    if check || !selected || only_compact {
        compact_wave(verify_mode, audit);
    }
    if check || !selected {
        cache_wave(verify_mode, audit);
    }
    if check {
        println!(
            "\nCHECK OK: soak + queue + compaction + cache waves asserted green, \
             scheduler invariants re-proven per wave."
        );
    }
    xbench::finish_trace(trace_path.as_deref());
}
