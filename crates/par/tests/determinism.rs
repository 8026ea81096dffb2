//! Engine guarantees under test:
//!
//! 1. **Thread determinism** — the same netlist and options produce an
//!    `==` report (placement, minimum, certificate, trees, probe table)
//!    for any worker count.
//! 2. **Width-search equivalence** — the warm-started doubling + binary
//!    search reports the same minimum channel width as the cold linear
//!    reference scan.
//! 3. **Legality** — everything the engine returns passes the `verify`
//!    crate's route-tree lint (connectivity + wire exclusivity), which
//!    the engine never runs itself.
//! 4. **Speculation is invisible** — the width search's cold probes may
//!    run beside its main sequence; the whole search is `==` at any thread
//!    count, and the same as the commit before speculation existed (golden
//!    hashes). That the speculation runs at all is `speculation.rs`'s.

mod common;

use common::mul_netlist;
use par::troute::terminals;
use par::{EngineOptions, ParEngine, ParNetlist, ParReport, Placement, WidthSearch};
use verify::Verifier;

#[test]
fn routing_is_bit_identical_across_thread_counts() {
    for parameterized in [false, true] {
        let nl = mul_netlist(4, parameterized);
        assert_thread_matrix_is_bit_identical(&nl);
    }
}

/// Lints a report's trees at its minimum width, panicking on a violation.
fn assert_routes_lint_clean(nl: &ParNetlist, rep: &ParReport) {
    assert_trees_lint_clean(
        nl,
        rep.arch,
        rep.search.min_width,
        &rep.placement,
        &rep.search.result.trees,
    );
}

/// Lints `trees`, routed for `placement` at channel width `width` on
/// `arch`, panicking on a violation.
fn assert_trees_lint_clean(
    nl: &ParNetlist,
    arch: fabric::FabricArch,
    width: usize,
    placement: &Placement,
    trees: &[Vec<u32>],
) {
    let graph = fabric::RouteGraph::build(arch, width);
    Verifier::new()
        .verify_routes(&graph, &terminals(nl, placement, &graph), trees)
        .assert_ok();
}

/// Runs the engine at 1, 2 and 8 threads: every report passes the route
/// lint and is `==` the 1-thread run's.
fn assert_thread_matrix_is_bit_identical(nl: &ParNetlist) {
    let reports: Vec<_> = [1usize, 2, 8]
        .iter()
        .map(|&threads| {
            let rep = ParEngine::new(EngineOptions {
                threads,
                ..Default::default()
            })
            .run(nl)
            .expect("routable");
            assert_routes_lint_clean(nl, &rep);
            rep
        })
        .collect();
    for r in &reports[1..] {
        assert!(
            *r == reports[0],
            "the report must not depend on the thread count"
        );
    }
}

#[test]
fn binary_warm_search_matches_linear_scan_minimum() {
    for (bits, parameterized) in [(4, false), (4, true), (5, true)] {
        let nl = mul_netlist(bits, parameterized);
        let arch = fabric::FabricArch::sized_for(nl.logic_count(), nl.io_count());
        let engine = ParEngine::new(EngineOptions::default());
        let placement = engine.place(&nl, arch);

        let fast = engine
            .min_channel_width(&nl, &placement, arch)
            .expect("binary+warm finds a width");
        let reference = engine
            .min_channel_width_reference(&nl, &placement, arch)
            .expect("linear scan finds a width");

        assert_eq!(
            fast.min_width, reference.min_width,
            "binary+warm vs linear scan disagree (bits={bits}, par={parameterized})"
        );
        // Both searches probed, and both results audit clean at their
        // width.
        assert!(!fast.probes.is_empty() && !reference.probes.is_empty());
        for search in [&fast, &reference] {
            assert_trees_lint_clean(
                &nl,
                arch,
                search.min_width,
                &placement,
                &search.result.trees,
            );
        }
    }
}

#[test]
fn engine_results_pass_the_audit() {
    for parameterized in [false, true] {
        let nl = mul_netlist(4, parameterized);
        let rep = ParEngine::new(EngineOptions::default())
            .run(&nl)
            .expect("routable");
        assert_routes_lint_clean(&nl, &rep);
        // Effort accounting is populated (the winning probe may be
        // warm-started, so ripups can legitimately be below the net
        // count).
        assert!(rep.search.result.iterations >= 1);
        assert!(rep.search.result.ripups > 0);
        assert!(rep.search.probes.iter().any(|p| p.success));
    }
}

/// The proof-grade contract (ROADMAP "cold confirmation" item): every
/// reported minimum carries a certificate — the final `W−1` verdict is a
/// cold failure, the sound lower bound, or the search floor — and it is
/// the minimum the cold linear reference finds.
#[test]
fn certified_minimum_matches_the_reported_minimum() {
    use par::WidthCertificate::{ColdFailure, Floor, LowerBound};
    for (bits, parameterized) in [(4, false), (4, true), (5, true)] {
        let nl = mul_netlist(bits, parameterized);
        let arch = fabric::FabricArch::sized_for(nl.logic_count(), nl.io_count());
        let engine = ParEngine::new(EngineOptions::default());
        let placement = engine.place(&nl, arch);

        let certified = engine
            .min_channel_width(&nl, &placement, arch)
            .expect("certified search finds a width");
        // Each of the three certificates is backed by what it names.
        let w = certified.min_width;
        let at = format!("bits={bits}, par={parameterized}");
        match certified.certificate {
            Floor => assert_eq!(w, engine.opts.min_width, "{at}"),
            LowerBound => assert!(w - 1 < certified.lower_bound, "{at}"),
            ColdFailure => assert!(
                certified
                    .probes
                    .iter()
                    .any(|p| p.width == w - 1 && !p.success && p.warm_nets == 0),
                "cold-failure certificate without a cold failing probe at W-1 ({at})"
            ),
        }

        // The cold linear reference certifies itself (every verdict below
        // its minimum is already cold) and finds the same minimum.
        let reference = engine
            .min_channel_width_reference(&nl, &placement, arch)
            .expect("linear scan finds a width");
        assert!(matches!(reference.certificate, Floor | ColdFailure));
        assert_eq!(certified.min_width, reference.min_width);
    }
}

/// The router's give-up exits, pinned on the 65-net conventional netlist
/// routed cold: width 2 stops at the massive-overuse stall, width 3 at the
/// iteration limit — both report the worst cut's residual overuse, which
/// the width search's `lo` advance reads — and width 4 routes.
#[test]
fn cold_routes_stop_at_the_recorded_exits() {
    let nl = mul_netlist(5, false);
    let arch = fabric::FabricArch::sized_for(nl.logic_count(), nl.io_count());
    let engine = ParEngine::new(EngineOptions::default());
    let placement = engine.place(&nl, arch);
    let route = |width| engine.route(&nl, &placement, &fabric::RouteGraph::build(arch, width));
    for (width, exit) in [(2, (10, 551, 19)), (3, (30, 577, 3))] {
        let e = route(width).expect_err("too narrow to route");
        assert_eq!(
            (e.iterations, e.ripups, e.worst_cut_overuse),
            exit,
            "(iterations, ripups, worst_cut_overuse) at width {width}"
        );
    }
    assert!(route(4).is_ok(), "width 4 routes");
}

/// The thread matrix on the 65-net conventional netlist, the largest the
/// suite routes end to end. (The name is historical: the matrix once had
/// a second axis, the column count of a spatial-partition executor that
/// no longer exists.)
#[test]
fn partition_and_thread_matrix_is_bit_identical() {
    assert_thread_matrix_is_bit_identical(&mul_netlist(5, false));
}

// The overuse-sharpened `lo` advance is heuristic; this property pins it
// to reality: whenever the rule fires, the width it claims hopeless never
// exceeds the true minimum found by the cold linear reference scan.
proptest::proptest! {
    #![proptest_config(proptest::ProptestConfig::with_cases(5))]
    #[test]
    fn overuse_lower_bound_never_exceeds_linear_scan_minimum(
        bits in 3usize..5,
        parameterized in proptest::any::<bool>(),
        seed in 1u64..1000,
    ) {
        let nl = mul_netlist(bits, parameterized);
        let arch = fabric::FabricArch::sized_for(nl.logic_count(), nl.io_count());
        let engine = ParEngine::new(EngineOptions {
            seeds: vec![seed],
            min_width: 2,
            ..Default::default()
        });
        let placement = engine.place(&nl, arch);
        let sharpened = engine
            .min_channel_width(&nl, &placement, arch)
            .expect("sharpened search finds a width");
        let reference = engine
            .min_channel_width_reference(&nl, &placement, arch)
            .expect("linear scan finds a width");
        // Warm probes may legalize a width the cold scan gives up on, so
        // the tightest demonstrated-routable width is the min of both.
        let routable = sharpened.min_width.min(reference.min_width);
        proptest::prop_assert!(
            sharpened.overuse_lo <= routable,
            "overuse rule claimed widths below {} hopeless, but width {} routed",
            sharpened.overuse_lo,
            routable
        );
    }
}

/// Observability guarantee (`vcgra-trace`): arming the span recorder
/// only *observes* the router — every report is `==` the untraced run's
/// at every thread count. This
/// is the determinism guard the tracing instrumentation in
/// `engine`/`incr`/`warm` must never trip.
#[test]
fn tracing_does_not_change_routed_results() {
    let nl = mul_netlist(4, true);
    let baseline: Vec<_> = [1usize, 2, 8]
        .iter()
        .map(|&threads| {
            ParEngine::new(EngineOptions {
                threads,
                ..Default::default()
            })
            .run(&nl)
            .expect("routable untraced")
        })
        .collect();

    trace::configure(trace::TraceConfig::On);
    let traced: Vec<_> = [1usize, 2, 8]
        .iter()
        .map(|&threads| {
            ParEngine::new(EngineOptions {
                threads,
                ..Default::default()
            })
            .run(&nl)
            .expect("routable traced")
        })
        .collect();
    trace::configure(trace::TraceConfig::Off);
    let events = trace::take_events();
    assert!(
        events.iter().any(|e| e.name == "par.route_iter"),
        "recorder was armed, so router spans must have been captured"
    );

    for (t, (b, r)) in baseline.iter().zip(&traced).enumerate() {
        assert!(b == r, "tracing changed the report (thread index {t})");
    }
}

/// The warm starts must be exercised, not only harmless: the default
/// search on this netlist runs at least one warm-seeded probe, and still
/// reports the minimum the cold reference (no warm start anywhere) finds.
#[test]
fn warm_start_does_not_change_the_reported_minimum() {
    let nl = mul_netlist(5, false);
    let arch = fabric::FabricArch::sized_for(nl.logic_count(), nl.io_count());
    let engine = ParEngine::new(EngineOptions::default());
    let placement = engine.place(&nl, arch);
    let warm = engine.min_channel_width(&nl, &placement, arch).unwrap();
    assert!(
        warm.probes.iter().any(|p| p.warm_nets > 0),
        "no probe was warm-started"
    );
    let cold = engine
        .min_channel_width_reference(&nl, &placement, arch)
        .unwrap();
    assert!(cold.probes.iter().all(|p| p.warm_nets == 0));
    assert_eq!(warm.min_width, cold.min_width);
}

/// `max_width` is a ceiling the search may not exceed: when the floor or
/// the sound lower bound lies above it, or the true minimum does, the
/// search reports unroutable — like the cold reference — instead of
/// probing (and returning) a width the caller ruled out.
#[test]
fn a_ceiling_below_the_floor_or_the_lower_bound_is_unroutable_not_exceeded() {
    let nl = mul_netlist(5, false);
    let arch = fabric::FabricArch::sized_for(nl.logic_count(), nl.io_count());
    let free = ParEngine::new(EngineOptions {
        min_width: 2,
        ..Default::default()
    });
    let placement = free.place(&nl, arch);
    let minimum = free
        .min_channel_width(&nl, &placement, arch)
        .expect("routable")
        .min_width;
    assert!(minimum > 2, "the last case needs room below the minimum");
    for (min_width, max_width) in [(6, 3), (12, 2), (2, minimum - 1)] {
        let at = format!("min_width={min_width}, max_width={max_width}");
        let engine = ParEngine::new(EngineOptions {
            min_width,
            max_width,
            ..Default::default()
        });
        let found = engine
            .min_channel_width(&nl, &placement, arch)
            .map(|s| s.min_width);
        assert_eq!(found, None, "the search exceeded its ceiling ({at})");
        assert!(
            engine
                .min_channel_width_reference(&nl, &placement, arch)
                .is_none(),
            "{at}"
        );
        assert!(
            engine.run(&nl).is_none(),
            "a report wider than allowed ({at})"
        );
    }
}

/// FNV-1a over a search's answer: the minimum, the trees there, and each
/// probe row's six fields.
fn search_fnv(s: &WidthSearch) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut put = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    put(s.min_width as u64);
    put(s.result.trees.len() as u64);
    for t in &s.result.trees {
        put(t.len() as u64);
        t.iter().for_each(|&n| put(u64::from(n)));
    }
    put(s.probes.len() as u64);
    for p in &s.probes {
        let row = [
            p.width,
            p.success as usize,
            p.iterations,
            p.ripups,
            p.warm_nets,
            p.confirm as usize,
        ];
        row.iter().for_each(|&v| put(v as u64));
    }
    h
}

/// The width search at 1, 2 and 8 threads on [`common::CASES`], which
/// consume, adopt and cancel a speculated verdict. The golden hashes were
/// recorded when `place` began drawing logic moves inside the range
/// window, which moved every placement and so every search; the seeds of
/// the adopting and cancelling rows were re-picked then, so that each
/// outcome still occurs. Any later change to the search or the router
/// must be invisible in every tree and every probe row.
#[test]
fn width_search_ignores_the_thread_count_and_equals_the_recorded_goldens() {
    let goldens = [
        0x44a5_4f90_50e7_d24au64,
        0xc974_ecaa_1be4_9ee2,
        0x703d_150c_6098_89e9,
        0x52b2_b1cc_a610_3dfb,
        0x1112_32d7_7b6c_807f,
        0xc0e8_cfc6_661a_f21a,
        0x54d5_3c9b_9508_01b9,
    ];
    for (case, golden) in common::CASES.iter().zip(goldens) {
        let nl = mul_netlist(case.0, case.1);
        let serial = common::search(&nl, case, 1);
        assert_eq!(
            search_fnv(&serial),
            golden,
            "result moved from the recorded one ({case:?})"
        );
        for threads in [2, 8] {
            assert!(
                common::search(&nl, case, threads) == serial,
                "the search depends on the thread count ({case:?}, {threads} threads)"
            );
        }
    }
}
