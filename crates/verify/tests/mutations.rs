//! Mutation suite: every pass must reject a *corrupted* known-good
//! artifact with the **right** [`Violation`] variant.
//!
//! Each test produces a real artifact through the actual toolchain
//! (overlay flow, par-engine, runtime), proves it clean, seeds exactly
//! one corruption, and asserts the matching rejection. A verifier that
//! waves corrupted state through — or rejects it for the wrong reason —
//! fails here.

use fabric::arch::FabricArch;
use fabric::rrg::RouteGraph;
use par::{EngineOptions, ParEngine};
use runtime::{kernels, Runtime, RuntimeConfig};
use softfloat::FpFormat;
use vcgra::app::AppGraph;
use vcgra::VcgraArch;
use verify::config::check_mapping;
use verify::routes::{check_route_trees, NetTerminals};
use verify::sched::{check_sched, SchedSnapshot};
use verify::timeline::{check_timeline, TimelineSnapshot};
use verify::Violation;

const F: FpFormat = FpFormat::PAPER;

/// Asserts that `$violations` holds at least one entry matching
/// `$pattern` — the *right* rejection, not just any rejection.
macro_rules! assert_violation {
    ($violations:expr, $pattern:pat $(if $guard:expr)?) => {
        assert!(
            $violations.iter().any(|v| matches!(v, $pattern $(if $guard)?)),
            "expected {} in {:?}",
            stringify!($pattern $(if $guard)?),
            $violations
        )
    };
}

// --- configuration linter ---------------------------------------------

fn clean_mapping() -> (AppGraph, vcgra::flow::VcgraMapping) {
    let app = AppGraph::dot_product(F, &[1.0, 2.0, 3.0]);
    let rows = verify::sched::rows_needed(app.pe_demand(), 4);
    let mapping = vcgra::flow::map_app(&app, VcgraArch::new(rows, 4, 2), 1).expect("mappable");
    assert!(
        check_mapping(&app, &mapping).is_empty(),
        "artifact must start clean"
    );
    (app, mapping)
}

#[test]
fn overlapping_placement_is_rejected() {
    let (app, mut m) = clean_mapping();
    m.place[1] = m.place[0];
    assert_violation!(check_mapping(&app, &m), Violation::PlacementOverlap { .. });
}

#[test]
fn dropped_route_is_rejected() {
    let (app, mut m) = clean_mapping();
    m.routes.remove(0);
    assert_violation!(check_mapping(&app, &m), Violation::RouteMissing { .. });
}

#[test]
fn broken_path_is_rejected() {
    let (app, mut m) = clean_mapping();
    let r = m
        .routes
        .iter_mut()
        .find(|r| r.path.len() >= 2)
        .expect("a multi-cell path");
    // Teleport an interior/terminal step somewhere non-adjacent.
    let last = r.path.len() - 1;
    r.path[last] = (m.arch.rows + 7, m.arch.cols + 7);
    let v = check_mapping(&app, &m);
    assert_violation!(v, Violation::PathBroken { .. });
}

// One mutation per remaining linter variant, each with its exact count.
// The mapping states some facts twice (a node's cell in `place` and at the
// ends of its routes), so where one corrupted field breaks a second fact
// the test names that variant too.

#[test]
fn placement_missing_a_node_is_rejected() {
    let (app, mut m) = clean_mapping();
    m.place.pop();
    let v = check_mapping(&app, &m);
    assert_violation!(
        v,
        Violation::NodeCountMismatch {
            expected: 5,
            got: 4
        }
    );
    assert_eq!(
        v.len(),
        1,
        "node indices are not trusted past the count: {v:?}"
    );
}

#[test]
fn node_placed_off_the_grid_is_rejected() {
    let (app, mut m) = clean_mapping();
    // mul0 moves off the grid; its one route still starts on the old
    // cell.
    let off = (m.arch.rows, 0);
    m.place[0] = off;
    let edge = m
        .routes
        .iter()
        .position(|r| r.from == 0)
        .expect("mul0 feeds the adder tree");
    let v = check_mapping(&app, &m);
    assert_violation!(v, Violation::PlacementOutOfBounds { node: 0, cell } if *cell == off);
    assert_violation!(v, Violation::RouteEndpointMismatch { edge: e, want, .. }
        if (*e, *want) == (edge, off));
    assert_eq!(v.len(), 2, "{v:?}");
}

#[test]
fn route_from_no_node_is_rejected() {
    let (app, mut m) = clean_mapping();
    let mut stray = m.routes[0].clone();
    stray.from = app.nodes.len();
    m.routes.push(stray);
    let v = check_mapping(&app, &m);
    assert_violation!(v, Violation::RouteUnknown { edge } if *edge == m.routes.len() - 1);
    assert_eq!(v.len(), 1, "an unknown route is not walked: {v:?}");
}

#[test]
fn path_with_a_detour_back_is_rejected() {
    let (app, mut m) = clean_mapping();
    // A → B → A after the route's first cell A: every step stays adjacent
    // and both endpoints stay put, so the revisit is the only fault.
    let cols = m.arch.cols;
    let path = &mut m.routes[0].path;
    let a = path[0];
    let b = if a.1 + 1 < cols {
        (a.0, a.1 + 1)
    } else {
        (a.0, a.1 - 1)
    };
    path.splice(1..1, [b, a]);
    let v = check_mapping(&app, &m);
    assert_violation!(v, Violation::PathRevisitsCell { edge: 0, cell } if *cell == a);
    assert!(
        !v.iter().any(|x| matches!(
            x,
            Violation::PathBroken { .. } | Violation::RouteEndpointMismatch { .. }
        )),
        "{v:?}"
    );
}

#[test]
fn channel_narrower_than_its_routes_is_rejected() {
    let (app, mut m) = clean_mapping();
    // Every directed segment a route uses is now over a zero capacity.
    m.arch.channel_capacity = 0;
    let segments: std::collections::HashSet<_> = m
        .routes
        .iter()
        .flat_map(|r| r.path.windows(2).map(|w| (w[0], w[1])))
        .collect();
    assert!(!segments.is_empty(), "the adder tree routes between PEs");
    let v = check_mapping(&app, &m);
    let over = |x: &Violation| matches!(x, Violation::ChannelOverCapacity { capacity: 0, .. });
    assert!(v.iter().all(over), "{v:?}");
    assert_eq!(v.len(), segments.len(), "{v:?}");
}

// --- fabric route-tree linter -----------------------------------------

fn small_aig() -> logic::aig::Aig {
    use logic::aig::{Aig, InputKind};
    let mut g = Aig::new();
    let xs: Vec<_> = (0..6)
        .map(|i| g.input(format!("x{i}"), InputKind::Regular))
        .collect();
    let mut acc = xs[0];
    for (i, &x) in xs.iter().enumerate().skip(1) {
        acc = if i % 2 == 0 {
            g.xor(acc, x)
        } else {
            g.and(acc, x)
        };
    }
    let alt0 = g.xor(xs[0], xs[5]);
    let alt1 = g.or(xs[2], xs[4]);
    let alt = g.and(alt0, alt1);
    g.add_output("f", acc);
    g.add_output("g", alt);
    g
}

fn clean_route() -> (RouteGraph, Vec<NetTerminals>, Vec<Vec<u32>>) {
    // A real mapped-and-routed artifact: a small netlist pushed through
    // the conventional flow and the par-engine.
    let design = mapping::map_conventional(&small_aig(), mapping::MapOptions::default());
    let nl = par::extract(&design);
    let arch = FabricArch::sized_for(nl.logic_count(), nl.io_count());
    let engine = ParEngine::new(EngineOptions::default());
    let placement = engine.place(&nl, arch);
    let mut width = par::channel_width_estimate(&nl, &placement, arch).max(4);
    let (graph, result) = loop {
        let graph = RouteGraph::build(arch, width);
        match engine.route(&nl, &placement, &graph) {
            Ok(r) => break (graph, r),
            Err(_) => width *= 2,
        }
    };
    let nets = par::troute::terminals(&nl, &placement, &graph);
    assert!(
        check_route_trees(&graph, &nets, &result.trees).is_empty(),
        "artifact must start clean"
    );
    (graph, nets, result.trees)
}

#[test]
fn stolen_wire_node_is_rejected() {
    let (graph, nets, mut trees) = clean_route();
    // Steal a wire node of net 0's tree into another net's tree.
    let stolen = *trees[0]
        .iter()
        .find(|&&n| graph.kind(n).is_wire())
        .expect("net 0 uses at least one wire");
    let thief = (1..trees.len())
        .find(|&i| !trees[i].contains(&stolen))
        .expect("some net does not own the node");
    trees[thief].push(stolen);
    let v = check_route_trees(&graph, &nets, &trees);
    assert_violation!(v, Violation::WireConflict { .. });
}

#[test]
fn emptied_tree_is_rejected() {
    let (graph, nets, mut trees) = clean_route();
    trees[0].clear();
    assert_violation!(
        check_route_trees(&graph, &nets, &trees),
        Violation::SinkUnreached { .. }
    );
}

#[test]
fn out_of_range_node_is_rejected() {
    let (graph, nets, mut trees) = clean_route();
    trees[0].push(graph.node_count() as u32 + 41);
    assert_violation!(
        check_route_trees(&graph, &nets, &trees),
        Violation::NodeOutOfRange { .. }
    );
}

#[test]
fn dropped_tree_is_rejected() {
    let (graph, nets, mut trees) = clean_route();
    trees.pop();
    assert_violation!(
        check_route_trees(&graph, &nets, &trees),
        Violation::TreeCountMismatch { .. }
    );
}

#[test]
fn tree_from_a_wider_graph_is_rejected() {
    let (mut graph, nets, trees) = clean_route();
    // Narrow the channel under the routed trees: the highest track any
    // tree uses no longer exists.
    let g = &graph;
    let (net, top) = trees
        .iter()
        .enumerate()
        .flat_map(|(i, t)| t.iter().filter_map(move |&n| Some((i, g.kind(n).track()?))))
        .max_by_key(|&(_, track)| track)
        .expect("some net uses a wire");
    graph.width = top;
    let v = check_route_trees(&graph, &nets, &trees);
    assert_violation!(
        v,
        Violation::TrackOutOfRange { net: n, track, width, .. } if (*n, *track, *width) == (net, top, top)
    );
    // A net with an invalid id is not walked: no connectivity noise.
    assert!(
        !v.iter().any(|x| matches!(x,
            Violation::SinkUnreached { net: n, .. } | Violation::StrandedNode { net: n, .. } if *n == net)),
        "{v:?}"
    );
}

#[test]
fn stranded_branch_is_rejected() {
    let (graph, nets, mut trees) = clean_route();
    // A free wire no node of net 0's tree drives: in the set, hanging off
    // nothing.
    let lone = (0..graph.node_count() as u32)
        .find(|&n| {
            graph.kind(n).is_wire()
                && trees.iter().all(|t| !t.contains(&n))
                && trees[0].iter().all(|&t| !graph.edges(t).contains(&n))
        })
        .expect("a free wire away from net 0");
    trees[0].push(lone);
    let v = check_route_trees(&graph, &nets, &trees);
    assert_violation!(v, Violation::StrandedNode { net: 0, node } if *node == lone);
    assert_eq!(
        v.len(),
        1,
        "every sink is still reached, nothing else is wrong: {v:?}"
    );
}

// --- equivalence --------------------------------------------------------

#[test]
fn flipped_ptt_entry_is_not_equivalent() {
    use logic::aig::{Aig, InputKind};
    use mapping::{MappedNode, Source};
    // f = p ? a·b : a + b, a TLUT over (a, b) whose entries are functions
    // of p.
    let mut g = Aig::new();
    let a = g.input("a", InputKind::Regular);
    let b = g.input("b", InputKind::Regular);
    let p = g.input("p", InputKind::Param);
    let ab = g.and(a, b);
    let aob = g.or(a, b);
    let f = g.mux(p, ab, aob);
    g.add_output("f", f);
    let mut design = mapping::map_parameterized(&g, mapping::MapOptions::default());
    let verifier = verify::Verifier::new();
    assert!(
        verifier.verify_equivalence(&g, &design, 4, 7).ok(),
        "artifact must start clean"
    );

    // Minterm a = b = 0 is 0 under every p; make it 1.
    let Source::Node(n) = design.outputs[0].source else {
        panic!("f is computed by a node")
    };
    let MappedNode::Lut(lut) = &mut design.nodes[n as usize] else {
        panic!("f is a TLUT")
    };
    lut.ptt[0] = design.bdd.not(lut.ptt[0]);
    let report = verifier.verify_equivalence(&g, &design, 4, 7);
    let v = report.violations;
    assert_violation!(v, Violation::NotEquivalent { detail } if detail.contains("differs"));
    assert_eq!(v.len(), 1, "{v:?}");
}

// --- scheduler-state checker ------------------------------------------

/// One 8x4 grid: tenant `a` on rows 0–1 (5 nodes), `b` on rows 2–4 (9).
fn two_tenants() -> Runtime {
    let mut rt = Runtime::new(RuntimeConfig {
        grids: vec![VcgraArch::new(8, 4, 2)],
        ..RuntimeConfig::default()
    });
    rt.submit("a", kernels::fir_seeded(F, 3, 1).graph)
        .expect("submit")
        .expect_admitted("empty pool");
    rt.submit("b", kernels::fir_seeded(F, 5, 2).graph)
        .expect("submit")
        .expect_admitted("room left");
    rt
}

fn clean_snapshot() -> SchedSnapshot {
    let snap = two_tenants().snapshot();
    assert!(check_sched(&snap).is_empty(), "artifact must start clean");
    assert!(snap.bands.len() >= 2 && snap.tenants.len() >= 2);
    snap
}

#[test]
fn overlapping_leases_are_rejected() {
    let mut snap = clean_snapshot();
    // Slide the second band up into the first.
    let mut bands: Vec<usize> = (0..snap.bands.len()).collect();
    bands.sort_by_key(|&i| snap.bands[i].row0);
    snap.bands[bands[1]].row0 = snap.bands[bands[0]].row0 + snap.bands[bands[0]].rows - 1;
    assert_violation!(check_sched(&snap), Violation::BandOverlap { .. });
}

#[test]
fn desynced_ledger_counter_is_rejected() {
    let mut snap = clean_snapshot();
    snap.ledger.queued += 1; // one phantom queue entry nothing accounts for
    assert_violation!(check_sched(&snap), Violation::QueueLedgerDrift { .. });
}

#[test]
fn aliased_cache_key_is_rejected() {
    let mut snap = clean_snapshot();
    // Two structurally different tenants suddenly share a fingerprint:
    // the hash-hit structural comparison must catch the collision.
    assert_ne!(
        snap.tenants[0].sig, snap.tenants[1].sig,
        "tenants differ structurally"
    );
    snap.tenants[1].key_id = snap.tenants[0].key_id;
    assert_violation!(check_sched(&snap), Violation::CacheKeyCollision { .. });
}

// One mutation per remaining sched variant. The snapshot states each fact
// once, but some checks read two facts together (the queue and its
// counters, a band's tenants and its resident), so where one corrupted
// field breaks a second check too, the test says which and nothing else
// may fire.

#[test]
fn band_past_its_grid_is_rejected() {
    let mut snap = clean_snapshot();
    snap.grids[0].rows = 4; // band b now ends at row 5 of 4
    let v = check_sched(&snap);
    assert_violation!(
        v,
        Violation::BandOutOfBounds {
            row0: 2,
            rows: 3,
            grid_rows: 4,
            ..
        }
    );
    assert_eq!(v.len(), 1, "{v:?}");
}

#[test]
fn emptied_band_is_rejected() {
    let mut snap = clean_snapshot();
    let b = snap.tenants[1].id;
    snap.bands[1].tenants.clear();
    let v = check_sched(&snap);
    assert_violation!(v, Violation::EmptyBand { grid: 0, row0: 2 });
    // Its former tenant is now on no band, yet still the band's resident.
    assert_violation!(v, Violation::LeaseWithoutBand { tenant } if *tenant == b);
    assert_violation!(v, Violation::ResidentInvalid { row0: 2, tenant, .. } if *tenant == b);
    assert_eq!(v.len(), 3, "{v:?}");
}

#[test]
fn lease_beside_its_band_is_rejected() {
    let mut snap = clean_snapshot();
    // A live tenant no band lists: the same structure as `b`, so its key
    // and signature agree with b's and only the missing lease is wrong.
    let mut stray = snap.tenants[1].clone();
    stray.id = snap.tenants.iter().map(|t| t.id).max().expect("tenants") + 1;
    let id = stray.id;
    snap.tenants.push(stray);
    let v = check_sched(&snap);
    assert_violation!(v, Violation::LeaseWithoutBand { tenant } if *tenant == id);
    assert_eq!(v.len(), 1, "{v:?}");
}

#[test]
fn lease_shorter_than_its_demand_is_rejected() {
    let mut snap = clean_snapshot();
    snap.bands[1].rows = 2; // nine nodes need three rows of four
    let v = check_sched(&snap);
    assert_violation!(
        v,
        Violation::LeaseTooSmall {
            rows: 2,
            needed: 3,
            ..
        }
    );
    assert_eq!(v.len(), 1, "{v:?}");
}

#[test]
fn region_of_another_shape_is_rejected() {
    let mut snap = clean_snapshot();
    snap.tenants[1].region.0 += 1;
    let v = check_sched(&snap);
    assert_violation!(
        v,
        Violation::RegionMismatch {
            expected: (3, 4),
            got: (4, 4),
            ..
        }
    );
    assert_eq!(v.len(), 1, "{v:?}");
}

#[test]
fn mapping_that_drops_a_node_is_rejected() {
    let mut snap = clean_snapshot();
    snap.tenants[1].placed_nodes -= 1;
    let v = check_sched(&snap);
    assert_violation!(
        v,
        Violation::MappingNodeCount {
            expected: 9,
            got: 8,
            ..
        }
    );
    assert_eq!(v.len(), 1, "{v:?}");
}

#[test]
fn live_tenant_in_the_queue_is_rejected() {
    let mut snap = clean_snapshot();
    snap.queue.push(snap.tenants[0].id);
    let v = check_sched(&snap);
    assert_violation!(v, Violation::QueuedAndLive { tenant } if *tenant == snap.tenants[0].id);
    assert_violation!(
        v,
        Violation::QueueLedgerDrift {
            queued: 0,
            accounted: 1
        }
    );
    assert_eq!(v.len(), 2, "{v:?}");
}

#[test]
fn resident_from_another_band_is_rejected() {
    let mut snap = clean_snapshot();
    let (a, b) = (snap.tenants[0].id, snap.tenants[1].id);
    assert_eq!(
        snap.bands[0].resident,
        Some(a),
        "admission leaves a resident"
    );
    snap.bands[0].resident = Some(b);
    let v = check_sched(&snap);
    assert_violation!(v, Violation::ResidentInvalid { row0: 0, tenant, .. } if *tenant == b);
    assert_eq!(v.len(), 1, "{v:?}");
}

#[test]
fn split_cache_key_is_rejected() {
    let mut snap = clean_snapshot();
    // One structure under two fingerprints: every admission of it would
    // recompile.
    snap.tenants[1].sig = snap.tenants[0].sig.clone();
    let v = check_sched(&snap);
    assert_violation!(v, Violation::CacheKeySplit { .. });
    assert_eq!(v.len(), 1, "{v:?}");
}

// --- timeline checker --------------------------------------------------

fn clean_timeline() -> TimelineSnapshot {
    let snap = two_tenants().timeline_snapshot();
    assert!(
        check_timeline(&snap).is_empty(),
        "artifact must start clean"
    );
    let ports = snap.intervals.iter().filter(|iv| iv.uses_port).count();
    assert!(ports >= 2, "two admissions put two intervals on the port");
    snap
}

#[test]
fn port_double_booking_is_rejected() {
    let mut snap = clean_timeline();
    // Start the second port stream while the first is still on the
    // wire — the single-bitstream-at-a-time invariant breaks.
    let ports: Vec<usize> = (0..snap.intervals.len())
        .filter(|&i| snap.intervals[i].uses_port)
        .collect();
    snap.intervals[ports[1]].start_ns = snap.intervals[ports[0]].start_ns;
    assert_violation!(check_timeline(&snap), Violation::PortOverlap { .. });
}

#[test]
fn lane_double_booking_is_rejected() {
    let mut snap = clean_timeline();
    // A phantom lane-local phase occupying a lane during an existing
    // interval: only the lane-exclusivity invariant breaks (the port is
    // untouched).
    let mut ghost = snap.intervals[0];
    ghost.uses_port = false;
    snap.intervals.push(ghost);
    let v = check_timeline(&snap);
    assert_violation!(v, Violation::LaneOverlap { .. });
    assert_eq!(v.len(), 1, "{v:?}");
}

// --- census ---------------------------------------------------------------

/// Every `Violation` is seeded by some test in this file. `code()` matches
/// without a wildcard, so its arms name every variant exactly once.
#[test]
fn every_violation_is_seeded() {
    let lib = include_str!("../src/lib.rs");
    let suite = include_str!("mutations.rs");
    let variants: Vec<&str> = lib
        .lines()
        .filter(|l| l.contains("{ .. } => \""))
        .filter_map(|l| l.trim().strip_prefix("Violation::")?.split(' ').next())
        .collect();
    assert!(variants.len() > 1, "no `code()` arms found: {variants:?}");
    let seeded = |name: &str| {
        let needle = format!("Violation::{name}");
        suite.match_indices(&needle).any(|(i, _)| {
            let next = suite[i + needle.len()..].chars().next();
            !next.is_some_and(|c| c.is_alphanumeric() || c == '_')
        })
    };
    let unseeded: Vec<&str> = variants.into_iter().filter(|v| !seeded(v)).collect();
    assert!(unseeded.is_empty(), "seeded by no mutation: {unseeded:?}");
}
