//! Engine guarantees under test:
//!
//! 1. **Thread determinism** — the same netlist and options produce
//!    bit-identical placements and routing trees for any worker count.
//! 2. **Width-search equivalence** — the warm-started doubling + binary
//!    search reports the same minimum channel width as the cold linear
//!    reference scan.
//! 3. **Legality** — everything the engine returns passes the routing
//!    audit (connectivity + wire exclusivity).
//! 4. **Speculation is invisible** — the width search's cold probes may
//!    run beside its main sequence; minimum, certificate, trees and probe
//!    table are the same at any thread count, and the same as the commit
//!    before speculation existed (golden hashes).

use logic::aig::{Aig, InputKind};
use mapping::{map_conventional, map_parameterized, MapOptions};
use par::troute::audit;
use par::{extract, EngineOptions, ParEngine, ParNetlist, WidthProbe, WidthSearch};

fn mul_netlist(bits: usize, parameterized: bool) -> ParNetlist {
    let mut g = Aig::new();
    let x = g.input_vec("x", bits, InputKind::Regular);
    let c = g.input_vec("c", bits, InputKind::Param);
    let p = softfloat::gates::mul_carry_save(&mut g, &x, &c);
    g.add_output_vec("p", &p);
    let d = if parameterized {
        map_parameterized(&g, MapOptions::default())
    } else {
        map_conventional(&g, MapOptions::default())
    };
    extract(&d)
}

#[test]
fn routing_is_bit_identical_across_thread_counts() {
    for parameterized in [false, true] {
        let nl = mul_netlist(4, parameterized);
        assert_thread_matrix_is_bit_identical(&nl);
    }
}

/// Runs the engine at 1, 2 and 8 threads: every report passes the route
/// audit, and placement, minimum width and trees equal the 1-thread run's.
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
            let graph = fabric::RouteGraph::build(rep.arch, rep.min_channel_width);
            audit(nl, &rep.placement, &graph, &rep.result).expect("audit clean");
            rep
        })
        .collect();
    for r in &reports[1..] {
        assert_eq!(r.placement.site_of, reports[0].placement.site_of);
        assert_eq!(r.min_channel_width, reports[0].min_channel_width);
        assert_eq!(
            r.result.trees, reports[0].result.trees,
            "routing trees must not depend on the thread count"
        );
        assert_eq!(r.result.wirelength, reports[0].result.wirelength);
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
        // The fast search must not probe more than the linear scan would
        // have needed in the worst case, and both must audit clean.
        assert!(!fast.probes.is_empty() && !reference.probes.is_empty());
    }
}

#[test]
fn engine_results_pass_the_audit() {
    for parameterized in [false, true] {
        let nl = mul_netlist(4, parameterized);
        let rep = ParEngine::new(EngineOptions::default())
            .run(&nl)
            .expect("routable");
        let graph = fabric::RouteGraph::build(rep.arch, rep.min_channel_width);
        audit(&nl, &rep.placement, &graph, &rep.result).expect("audit clean");
        // Effort accounting is populated (the winning probe may be
        // warm-started, so ripups can legitimately be below the net
        // count).
        assert!(rep.result.iterations >= 1);
        assert!(rep.result.ripups > 0);
        assert!(rep.probes.iter().any(|p| p.success));
        assert!(rep.place_seconds >= 0.0 && rep.route_seconds > 0.0);
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
/// only *observes* the router — placements, minima, and routing trees
/// stay bit-identical to the untraced run at every thread count. This
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
        assert_eq!(
            b.placement.site_of, r.placement.site_of,
            "threads[{t}] placement"
        );
        assert_eq!(
            b.min_channel_width, r.min_channel_width,
            "threads[{t}] minimum width"
        );
        assert_eq!(
            b.result.trees, r.result.trees,
            "tracing must not change routing trees (thread index {t})"
        );
        assert_eq!(b.result.wirelength, r.result.wirelength);
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
        let err = engine
            .run(&nl)
            .err()
            .unwrap_or_else(|| panic!("a report wider than allowed ({at})"));
        assert!(
            err.starts_with(&format!("unroutable up to width {max_width}")),
            "{at}: {err}"
        );
    }
}

/// What a probe found, without when it ran (`seconds`, `overlapped`).
fn row(p: &WidthProbe) -> [usize; 6] {
    [
        p.width,
        p.success as usize,
        p.iterations,
        p.ripups,
        p.warm_nets,
        p.confirm as usize,
    ]
}

/// FNV-1a over a search's answer: the minimum, the trees there, and the
/// probe table's [`row`]s.
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
    s.probes.iter().flat_map(row).for_each(|v| put(v as u64));
    h
}

/// What the speculative cold probe of a search must have gone through for
/// the case to test what it is listed for (read at two threads, one slot).
enum Speculated {
    /// The floor certifies the minimum: no confirmation, nothing to take.
    Unused,
    /// The `W−1` probe ran beside the binary phase, failed, and was taken
    /// by the confirmation loop.
    Consumed,
    /// It *succeeded*: the search adopted the narrower result and went on
    /// certifying below it.
    Adopted,
    /// The search ended on a warm failure above the width in the slot:
    /// that probe was let go, and no row of it may appear.
    Cancelled,
}

/// The width search at 1, 2 and 8 threads on searches that consume, adopt
/// and cancel a speculated verdict. The golden hashes were recorded when
/// `place` began drawing logic moves inside the range window, which moved
/// every placement and so every search; the seeds of the adopting and
/// cancelling rows were re-picked then, so that each outcome still occurs.
/// Any later change to the search or the router must be invisible in every
/// tree and every probe row.
#[test]
fn width_search_ignores_the_thread_count_and_equals_the_recorded_goldens() {
    use Speculated::*;
    for (bits, parameterized, seed, min_width, golden, speculated) in [
        (5, true, 1, 6, 0x44a5_4f90_50e7_d24au64, Unused),
        (5, false, 1, 6, 0xc974_ecaa_1be4_9ee2, Unused),
        (5, true, 1, 2, 0x703d_150c_6098_89e9, Consumed),
        (5, false, 1, 2, 0x52b2_b1cc_a610_3dfb, Consumed),
        (5, true, 8, 2, 0x1112_32d7_7b6c_807f, Adopted),
        (5, false, 38, 2, 0xc0e8_cfc6_661a_f21a, Adopted),
        (6, false, 43, 2, 0x54d5_3c9b_9508_01b9, Cancelled),
    ] {
        let at = format!("bits={bits}, par={parameterized}, seed={seed}, min_width={min_width}");
        let nl = mul_netlist(bits, parameterized);
        let arch = fabric::FabricArch::sized_for(nl.logic_count(), nl.io_count());
        let search = |threads: usize| {
            let engine = ParEngine::new(EngineOptions {
                seeds: vec![seed],
                threads,
                min_width,
                ..Default::default()
            });
            let placement = engine.place(&nl, arch);
            engine
                .min_channel_width(&nl, &placement, arch)
                .expect("routable")
        };
        let serial = search(1);
        assert_eq!(
            search_fnv(&serial),
            golden,
            "result moved from the recorded one ({at})"
        );
        assert!(
            serial.probes.iter().all(|p| !p.overlapped),
            "one thread never speculates ({at})"
        );
        let threaded = [2usize, 8].map(|threads| (threads, search(threads)));
        for (threads, s) in &threaded {
            assert_eq!(s.min_width, serial.min_width, "{at}, {threads} threads");
            assert_eq!(s.certificate, serial.certificate, "{at}, {threads} threads");
            assert_eq!(
                s.result.trees, serial.result.trees,
                "{at}, {threads} threads"
            );
            assert_eq!(
                s.probes.iter().map(row).collect::<Vec<_>>(),
                serial.probes.iter().map(row).collect::<Vec<_>>(),
                "probe table depends on the thread count ({at}, {threads} threads)"
            );
            // Only a confirmation row can have run beside the search.
            assert!(s.probes.iter().all(|p| p.confirm || !p.overlapped), "{at}");
        }
        let two = &threaded[0].1;
        let beside: Vec<_> = two.probes.iter().filter(|p| p.overlapped).collect();
        match speculated {
            Unused => assert!(beside.is_empty(), "{at}"),
            Consumed => assert!(beside.len() == 1 && !beside[0].success, "{at}"),
            Adopted => {
                assert!(beside.len() == 1 && beside[0].success, "{at}");
                assert_eq!(
                    two.min_width, beside[0].width,
                    "the adopted width is the minimum ({at})"
                );
            }
            Cancelled => {
                // A warm failure below the final W−1 started a cold twin;
                // the search moved past it, and it left no cold row.
                let dropped = two
                    .probes
                    .iter()
                    .find(|p| !p.success && p.warm_nets > 0 && p.width + 1 < two.min_width)
                    .unwrap_or_else(|| panic!("no speculation was let go ({at})"));
                assert!(
                    !two.probes
                        .iter()
                        .any(|p| p.width == dropped.width && p.warm_nets == 0),
                    "a cancelled probe reached the log ({at})"
                );
            }
        }
    }
}
