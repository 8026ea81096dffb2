//! The incremental PathFinder core: bounding-box-confined A*, a dirty-net
//! worklist, and one canonical wave order.
//!
//! This module is the engine behind the [`crate::ParEngine`]
//! facade. It differs from a textbook PathFinder loop in three ways:
//!
//! * **Incremental rip-up-and-reroute.** Occupancy and history live in a
//!   [`fabric::rrg::NodeState`] that is updated in place; per iteration
//!   only *dirty* nets (unrouted, or crossing an overused wire) are ripped
//!   and rerouted. Clean nets keep their trees untouched.
//! * **Per-net bounding boxes.** Each net's A* is confined to a box around
//!   its terminals. A net that cannot route inside its box escalates
//!   through staged margins (3 tiles → 10 tiles → the whole fabric), and
//!   the escalated stage sticks for later iterations. The search never
//!   pushes a node without out-edges unless it is the sink it is after —
//!   every wire feeds the input pins of its neighbouring blocks, 40 % of
//!   all edges, and a pin that is not the sink leads nowhere; skipping
//!   them is exact (the pruned search pops the same nodes in the same
//!   order and returns the same tree, `pruned_route_net_equals_…`).
//! * **Waves are the order, not an executor.** Dirty nets are greedily
//!   packed into *waves* of nets whose effective boxes (search box ∪ old
//!   tree) are pairwise disjoint, and rerouted wave by wave, member by
//!   member — rip, search, commit — on one thread and one scratch. The
//!   order depends only on the netlist and the state, and it is the
//!   result: every tree since the waves were introduced was found in it.
//!   Within a wave the order does not matter, which is why the serial
//!   loop equals ripping all members, searching them against one snapshot
//!   and committing them together: a search reads the state only of nodes
//!   inside its own box, and everything another member writes — the tree
//!   it rips, the tree it commits — lies inside that member's disjoint
//!   box. Nets that fail inside their box are deferred and retried after
//!   the waves with a larger box.
//!
//! A run can be **cancelled** (`route_core`'s last argument, read once per
//! wave): the width search routes cold probes speculatively and stops the
//! ones it moves past. A cancelled run's `Unroutable` is no verdict, and
//! the search drops it unread.
//!
//! The core prints nothing and reads no environment: what it did is in
//! its trace spans — `par.route_iter` (`dirty`, `waves`, `ripups`,
//! `overused`), `par.wave` (`nets`, `deferred`), and a `par.debias`
//! instant (`warm_n`) each time a stalled warm probe dissolves its frozen
//! trees.

use crate::netlist::ParNetlist;
use crate::tplace::Placement;
use crate::troute::{RouteResult, Unroutable};
use fabric::rrg::{NodeState, RouteGraph};
use logic::fxhash::FxHashSet;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, Ordering};

/// Maximum PathFinder iterations before giving up.
const MAX_ITERS: usize = 30;
/// Initial present-congestion factor.
const FIRST_PRES_FAC: f64 = 0.5;
/// Multiplier on the present-congestion factor per iteration.
const PRES_FAC_MULT: f64 = 1.8;
/// History cost accumulation factor.
const ACC_FAC: f64 = 1.0;
/// A* directedness (1.0 = admissible-ish, >1 trades quality for speed).
const ASTAR_FAC: f64 = 1.2;
/// Abort early when the best overuse count has not improved by ≥3 % for
/// this many consecutive iterations *while overuse is still massive*
/// (> nets/16 + 64 wires) — the signature of a hopelessly narrow channel.
/// Near-feasible widths plateau far below the threshold and always get
/// their full `MAX_ITERS` budget.
const STALL_ITERS: usize = 6;

/// Staged bbox margins (tiles around the terminal extent). The last stage
/// is the whole fabric.
const MARGINS: [f32; 3] = [3.0, 10.0, f32::INFINITY];
const LAST_STAGE: u8 = (MARGINS.len() - 1) as u8;

/// Axis-aligned closed box in tile coordinates.
#[derive(Debug, Clone, Copy)]
struct BBox {
    x0: f32,
    y0: f32,
    x1: f32,
    y1: f32,
}

impl BBox {
    #[inline]
    fn contains(&self, (x, y): (f32, f32)) -> bool {
        x >= self.x0 && x <= self.x1 && y >= self.y0 && y <= self.y1
    }

    #[inline]
    fn overlaps(&self, o: &BBox) -> bool {
        self.x0 <= o.x1 && o.x0 <= self.x1 && self.y0 <= o.y1 && o.y0 <= self.y1
    }

    #[inline]
    fn union(&self, o: &BBox) -> BBox {
        BBox {
            x0: self.x0.min(o.x0),
            y0: self.y0.min(o.y0),
            x1: self.x1.max(o.x1),
            y1: self.y1.max(o.y1),
        }
    }
}

/// The router's scratch: A* cost/prev arrays reset via a touched list, the
/// open heap, and the growing per-net tree.
struct Scratch {
    cost_to: Vec<f32>,
    prev: Vec<u32>,
    touched: Vec<u32>,
    heap: BinaryHeap<(Reverse<u64>, u32)>,
    tree_set: FxHashSet<u32>,
    tree_list: Vec<u32>,
}

impl Scratch {
    fn new(n_nodes: usize) -> Self {
        Self {
            cost_to: vec![f32::INFINITY; n_nodes],
            prev: vec![u32::MAX; n_nodes],
            touched: Vec::new(),
            heap: BinaryHeap::new(),
            tree_set: FxHashSet::default(),
            tree_list: Vec::new(),
        }
    }
}

#[inline]
fn dist(a: (f32, f32), b: (f32, f32)) -> f32 {
    (a.0 - b.0).abs() + (a.1 - b.1).abs()
}

/// Routes one net inside `bbox` against the current state. Returns the
/// sorted node set of the tree, or `None` if some sink is unreachable
/// within the box. Pure in its inputs: what the scratch held before does
/// not matter.
fn route_net(
    graph: &RouteGraph,
    state: &NodeState,
    pres_fac: f64,
    srcs: &[u32],
    sinks: &[u32],
    bbox: BBox,
    scratch: &mut Scratch,
) -> Option<Vec<u32>> {
    let Scratch {
        cost_to,
        prev,
        touched,
        heap,
        tree_set,
        tree_list,
    } = scratch;
    tree_set.clear();
    tree_list.clear();

    for &sink in sinks {
        // Reset the previous search (possibly a different net's).
        for &t in touched.iter() {
            cost_to[t as usize] = f32::INFINITY;
            prev[t as usize] = u32::MAX;
        }
        touched.clear();
        heap.clear();

        let tloc = graph.location_f32(sink);
        macro_rules! push {
            ($node:expr, $c:expr, $from:expr) => {{
                let node: u32 = $node;
                let c: f32 = $c;
                if c < cost_to[node as usize] {
                    if cost_to[node as usize] == f32::INFINITY {
                        touched.push(node);
                    }
                    cost_to[node as usize] = c;
                    prev[node as usize] = $from;
                    let h = dist(graph.location_f32(node), tloc) as f64 * ASTAR_FAC;
                    heap.push((Reverse(((c as f64 + h) * 1024.0) as u64), node));
                }
            }};
        }
        for &s in srcs {
            push!(s, 0.0, u32::MAX);
        }
        for &t in tree_list.iter() {
            push!(t, 0.0, u32::MAX);
        }

        let mut found = false;
        while let Some((_, node)) = heap.pop() {
            if node == sink {
                found = true;
                break;
            }
            let c_here = cost_to[node as usize];
            for &next in graph.edges(node) {
                // A node without out-edges that is not this sink leads
                // nowhere: its pop would push nothing and no other search
                // reads its cost, so skipping the push changes no tree.
                if graph.is_dead_end(next) && next != sink {
                    continue;
                }
                if !bbox.contains(graph.location_f32(next)) {
                    continue;
                }
                push!(next, c_here + state.step_cost(next, pres_fac), node);
            }
        }
        if !found {
            return None;
        }
        // Trace back into the tree (stops at a seeded node, prev == MAX).
        let mut cur = sink;
        while cur != u32::MAX {
            if tree_set.insert(cur) {
                tree_list.push(cur);
            }
            cur = prev[cur as usize];
        }
    }
    let mut tree = tree_list.clone();
    tree.sort_unstable();
    Some(tree)
}

/// Greedy first-fit packing of dirty nets into waves of pairwise
/// bbox-disjoint members. Deterministic in the net order.
fn build_waves(dirty: &[u32], bboxes: &[BBox]) -> Vec<Vec<usize>> {
    // Waves hold *positions into `dirty`*; each wave carries a union box
    // for a quick reject before the member scan.
    let mut waves: Vec<(Vec<usize>, BBox)> = Vec::new();
    'nets: for (pos, _) in dirty.iter().enumerate() {
        let bb = bboxes[pos];
        for (members, ubox) in waves.iter_mut() {
            if !bb.overlaps(ubox) || !members.iter().any(|&m| bb.overlaps(&bboxes[m])) {
                *ubox = ubox.union(&bb);
                members.push(pos);
                continue 'nets;
            }
        }
        waves.push((vec![pos], bb));
    }
    waves.into_iter().map(|(m, _)| m).collect()
}

/// The incremental PathFinder loop. `seed_trees`, when given, warm-starts
/// the router: non-empty entries are taken as valid routes (the caller
/// must have verified connectivity in *this* graph), empty entries mark
/// nets to route from scratch. The run is single-threaded.
///
/// `cancel`, when given, is read once per wave: once it is set the run
/// stops with an `Unroutable` that says nothing about the width — the
/// caller that raised the flag has stopped wanting the verdict and drops
/// it (the width search's speculative cold probes, `warm.rs`).
pub(crate) fn route_core(
    netlist: &ParNetlist,
    placement: &Placement,
    graph: &RouteGraph,
    seed_trees: Option<Vec<Vec<u32>>>,
    cancel: Option<&AtomicBool>,
) -> Result<RouteResult, Unroutable> {
    let n_nets = netlist.nets.len();

    // Terminals in RRG space; sinks ordered far-first like the reference
    // router (route the hardest sink while the tree is small).
    let srcs: Vec<Vec<u32>> = netlist
        .nets
        .iter()
        .map(|n| {
            n.sources
                .iter()
                .map(|&b| graph.opin(placement.site_of[b as usize]))
                .collect()
        })
        .collect();
    let sinks: Vec<Vec<u32>> = netlist
        .nets
        .iter()
        .enumerate()
        .map(|(i, n)| {
            let mut s: Vec<u32> = n
                .sinks
                .iter()
                .map(|&(b, p)| graph.ipin(placement.site_of[b as usize], p as usize))
                .collect();
            let s0 = graph.location_f32(srcs[i][0]);
            s.sort_by(|&a, &b| {
                let da = dist(graph.location_f32(a), s0);
                let db = dist(graph.location_f32(b), s0);
                db.total_cmp(&da).then(a.cmp(&b))
            });
            s
        })
        .collect();

    // Terminal extents (fixed by the placement) and escalation stages.
    let extents: Vec<BBox> = (0..n_nets)
        .map(|i| {
            let mut bb = BBox {
                x0: f32::INFINITY,
                y0: f32::INFINITY,
                x1: f32::NEG_INFINITY,
                y1: f32::NEG_INFINITY,
            };
            for &t in srcs[i].iter().chain(sinks[i].iter()) {
                let (x, y) = graph.location_f32(t);
                bb.x0 = bb.x0.min(x);
                bb.y0 = bb.y0.min(y);
                bb.x1 = bb.x1.max(x);
                bb.y1 = bb.y1.max(y);
            }
            bb
        })
        .collect();
    let mut stage: Vec<u8> = vec![0; n_nets];
    let bbox_of = |net: usize, stage: u8| -> BBox {
        let m = MARGINS[stage as usize];
        let e = &extents[net];
        BBox {
            x0: e.x0 - m,
            y0: e.y0 - m,
            x1: e.x1 + m,
            y1: e.y1 + m,
        }
    };

    let mut state = NodeState::new(graph);
    let mut trees: Vec<Vec<u32>> = seed_trees.unwrap_or_else(|| vec![Vec::new(); n_nets]);
    // Checked in release builds too: a seed-tree/netlist length mismatch
    // would silently misattribute routes to the wrong nets.
    assert_eq!(
        trees.len(),
        n_nets,
        "seed trees must match the netlist net count"
    );
    for t in &trees {
        for &n in t {
            state.occupy(n);
        }
    }
    // Warm-seeded nets that have not been rerouted yet. A stalled probe
    // with *small* overuse dissolves this set (see below): the frozen
    // routes hold capacity the contested nets may need, and ripping them
    // turns the probe into a cold-equivalent one instead of letting the
    // bias produce a false "unroutable" verdict.
    let mut warm_left: Vec<bool> = trees.iter().map(|t| !t.is_empty()).collect();
    let mut warm_n = warm_left.iter().filter(|&&w| w).count();
    let mut debias = false;

    let mut scratch = Scratch::new(graph.node_count());
    let mut pres_fac = FIRST_PRES_FAC;
    let mut ripups = 0usize;
    let mut waves_total = 0usize;
    let mut best_overused = usize::MAX;
    let mut stalled = 0usize;
    // Thrash escalation: in the endgame (small overuse), a net that keeps
    // being ripped yet always "succeeds" inside its box is playing
    // musical chairs over a local capacity deficit — the detour that
    // resolves it lies outside the box. Growing the box for such nets
    // recovers the unconfined router's verdicts. While overuse is large
    // the gate stays closed, so hopeless probes keep their cheap searches.
    let mut rips_of: Vec<u16> = vec![0; n_nets];
    let mut last_overused = usize::MAX;

    for iter in 0..MAX_ITERS {
        let mut iter_span = trace::span("par.route_iter");
        iter_span.arg("iter", iter);
        // Dirty worklist: unrouted nets and nets crossing an overused wire.
        let dirty: Vec<u32> = (0..n_nets as u32)
            .filter(|&i| {
                let t = &trees[i as usize];
                (debias && warm_left[i as usize])
                    || t.is_empty()
                    || t.iter().any(|&n| state.overused(n))
            })
            .collect();
        ripups += dirty.len();
        if warm_n > 0 {
            for &i in &dirty {
                if warm_left[i as usize] {
                    warm_left[i as usize] = false;
                    warm_n -= 1;
                }
            }
        }
        debias = false;
        let endgame = last_overused <= n_nets / 16 + 64;
        for &i in &dirty {
            let i = i as usize;
            rips_of[i] = rips_of[i].saturating_add(1);
            if endgame && rips_of[i] >= 4 && stage[i] < LAST_STAGE {
                stage[i] += 1;
                rips_of[i] = 0;
            }
        }

        let bboxes: Vec<BBox> = dirty
            .iter()
            .map(|&i| bbox_of(i as usize, stage[i as usize]))
            .collect();
        // Effective box = search box ∪ the extent of the tree about to be
        // ripped. Warm-seeded trees translated from a wider probe can
        // stick out of the *current* stage box, and a wave's boxes must
        // cover every node a member writes for its members not to see
        // each other — cold runs have no seed trees, so there eff == the
        // stage box.
        let eff: Vec<BBox> = dirty
            .iter()
            .enumerate()
            .map(|(pos, &i)| {
                let mut bb = bboxes[pos];
                for &n in &trees[i as usize] {
                    let (x, y) = graph.location_f32(n);
                    bb.x0 = bb.x0.min(x);
                    bb.y0 = bb.y0.min(y);
                    bb.x1 = bb.x1.max(x);
                    bb.y1 = bb.y1.max(y);
                }
                bb
            })
            .collect();
        let waves = build_waves(&dirty, &eff);
        waves_total += waves.len();
        iter_span.arg("dirty", dirty.len());
        iter_span.arg("waves", waves.len());

        let mut deferred: Vec<usize> = Vec::new();
        for wave in &waves {
            // Relaxed: the flag publishes no data, it only stops the work.
            if cancel.is_some_and(|c| c.load(Ordering::Relaxed)) {
                return Err(Unroutable {
                    iterations: iter,
                    ripups,
                    worst_cut_overuse: 0,
                });
            }
            let mut wave_span = trace::span("par.wave");
            wave_span.arg("nets", wave.len());
            let mut wave_deferred = 0usize;
            for &pos in wave {
                // Rip up right before rerouting: every other dirty net
                // keeps occupying its old wires until its own turn.
                let i = dirty[pos] as usize;
                for &n in &trees[i] {
                    state.release(n);
                }
                trees[i].clear();
                match route_net(
                    graph,
                    &state,
                    pres_fac,
                    &srcs[i],
                    &sinks[i],
                    bboxes[pos],
                    &mut scratch,
                ) {
                    Some(tree) => {
                        for &n in &tree {
                            state.occupy(n);
                        }
                        trees[i] = tree;
                    }
                    None => {
                        deferred.push(i);
                        wave_deferred += 1;
                    }
                }
            }
            wave_span.arg("deferred", wave_deferred);
        }

        // Escalate nets that failed inside their box, in order.
        for &i in &deferred {
            loop {
                if stage[i] >= LAST_STAGE {
                    return Err(Unroutable {
                        iterations: iter + 1,
                        ripups,
                        worst_cut_overuse: 0,
                    });
                }
                stage[i] += 1;
                let bb = bbox_of(i, stage[i]);
                if let Some(tree) = route_net(
                    graph,
                    &state,
                    pres_fac,
                    &srcs[i],
                    &sinks[i],
                    bb,
                    &mut scratch,
                ) {
                    for &n in &tree {
                        state.occupy(n);
                    }
                    trees[i] = tree;
                    break;
                }
            }
        }

        let overused = state.accrue_history(ACC_FAC);
        last_overused = overused;
        iter_span.arg("ripups", ripups);
        iter_span.arg("overused", overused);
        if overused == 0 {
            return Ok(build_result(
                netlist,
                graph,
                &state,
                trees,
                iter + 1,
                ripups,
                waves_total,
            ));
        }
        if iter + 1 == MAX_ITERS {
            // A cold-equivalent verdict (no frozen warm trees biasing the
            // congestion) reports its worst-cut residual so the width
            // search can advance `lo` past hopeless widths.
            let cut = if warm_n == 0 {
                graph.cut_pressure(&state).max_overuse
            } else {
                0
            };
            return Err(Unroutable {
                iterations: iter + 1,
                ripups,
                worst_cut_overuse: cut,
            });
        }
        // Stall detector: a hopelessly narrow channel shows as a large
        // overuse count that stops improving *meaningfully* (≥3 % per
        // window). Near-feasible runs either converge in a handful of
        // iterations or plateau far below the absolute guard.
        if (overused as f64) < best_overused as f64 * 0.97 {
            best_overused = overused;
            stalled = 0;
        } else {
            best_overused = best_overused.min(overused);
            stalled += 1;
            if overused > n_nets / 16 + 64 {
                if stalled >= STALL_ITERS {
                    if warm_n > 0 {
                        // Never let warm bias manufacture an "unroutable":
                        // dissolve the remaining frozen routes and give the
                        // stall clock a fresh start before giving up.
                        trace::instant("par.debias", || vec![("warm_n", warm_n.into())]);
                        debias = true;
                        best_overused = usize::MAX;
                        stalled = 0;
                    } else {
                        // warm_n == 0 here, so the residual congestion is
                        // honest — report the worst cut's overuse.
                        return Err(Unroutable {
                            iterations: iter + 1,
                            ripups,
                            worst_cut_overuse: graph.cut_pressure(&state).max_overuse,
                        });
                    }
                }
            } else if stalled >= 3 && warm_n > 0 {
                // Small, stubborn overuse on a warm-started run: the
                // remaining frozen routes are the likely culprit. Rip
                // them all next iteration and restart the stall clock.
                trace::instant("par.debias", || vec![("warm_n", warm_n.into())]);
                debias = true;
                best_overused = usize::MAX;
                stalled = 0;
            }
        }
        pres_fac *= PRES_FAC_MULT;
    }
    unreachable!("loop returns before exhausting iterations")
}

fn build_result(
    netlist: &ParNetlist,
    graph: &RouteGraph,
    state: &NodeState,
    trees: Vec<Vec<u32>>,
    iterations: usize,
    ripups: usize,
    waves: usize,
) -> RouteResult {
    let mut wl = 0usize;
    let mut twl = 0usize;
    let mut tcon_switches = 0usize;
    for (i, tree) in trees.iter().enumerate() {
        let wires = tree.iter().filter(|&&n| state.is_wire(n)).count();
        wl += wires;
        if netlist.nets[i].is_tunable() {
            twl += wires;
            // Every used node of a tunable net was entered through a
            // configured programmable switch.
            tcon_switches += tree.len().saturating_sub(netlist.nets[i].sources.len());
        }
    }
    RouteResult {
        trees,
        wirelength: wl,
        tunable_wirelength: twl,
        tcon_switches,
        iterations,
        ripups,
        waves,
        worst_cut_used: graph.cut_pressure(state).max_used,
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use fabric::arch::{FabricArch, Site};

    /// `route_net` as it was before it skipped dead ends: every in-box
    /// edge target is pushed, input pins of bystander blocks included.
    fn route_net_reference(
        graph: &RouteGraph,
        state: &NodeState,
        pres_fac: f64,
        srcs: &[u32],
        sinks: &[u32],
        bbox: BBox,
    ) -> Option<Vec<u32>> {
        let n = graph.node_count();
        let (mut tree_set, mut tree_list) = (FxHashSet::default(), Vec::new());
        for &sink in sinks {
            let (mut cost_to, mut prev) = (vec![f32::INFINITY; n], vec![u32::MAX; n]);
            let mut heap = BinaryHeap::new();
            let tloc = graph.location_f32(sink);
            macro_rules! push {
                ($node:expr, $c:expr, $from:expr) => {{
                    let (node, c): (u32, f32) = ($node, $c);
                    if c < cost_to[node as usize] {
                        cost_to[node as usize] = c;
                        prev[node as usize] = $from;
                        let h = dist(graph.location_f32(node), tloc) as f64 * ASTAR_FAC;
                        heap.push((Reverse(((c as f64 + h) * 1024.0) as u64), node));
                    }
                }};
            }
            for &s in srcs.iter().chain(tree_list.iter()) {
                push!(s, 0.0, u32::MAX);
            }
            let mut found = false;
            while let Some((_, node)) = heap.pop() {
                if node == sink {
                    found = true;
                    break;
                }
                let c_here = cost_to[node as usize];
                for &next in graph.edges(node) {
                    if bbox.contains(graph.location_f32(next)) {
                        push!(next, c_here + state.step_cost(next, pres_fac), node);
                    }
                }
            }
            if !found {
                return None;
            }
            let mut cur = sink;
            while cur != u32::MAX {
                if tree_set.insert(cur) {
                    tree_list.push(cur);
                }
                cur = prev[cur as usize];
            }
        }
        tree_list.sort_unstable();
        Some(tree_list)
    }

    /// The 65-net conventional 5-bit multiplier (`tests/determinism.rs`'s
    /// `mul_netlist(5, false)`).
    pub(crate) fn mul5_conventional() -> ParNetlist {
        use logic::aig::{Aig, InputKind};
        let mut g = Aig::new();
        let x = g.input_vec("x", 5, InputKind::Regular);
        let c = g.input_vec("c", 5, InputKind::Param);
        let p = softfloat::gates::mul_carry_save(&mut g, &x, &c);
        g.add_output_vec("p", &p);
        crate::netlist::extract(&mapping::map_conventional(
            &g,
            mapping::MapOptions::default(),
        ))
    }

    #[test]
    fn pruned_route_net_equals_the_unpruned_reference() {
        let nl = mul5_conventional();
        let arch = FabricArch::sized_for(nl.logic_count(), nl.io_count());
        let placement = crate::tplace::place(&nl, arch, 1);
        for width in [4usize, 7] {
            let graph = RouteGraph::build(arch, width);
            let mut nets: Vec<(Vec<u32>, Vec<u32>)> =
                crate::troute::terminals(&nl, &placement, &graph)
                    .into_iter()
                    .map(|t| (t.sources, t.sinks))
                    .collect();
            // A sink beside its block's other input pins, two sinks on one
            // block (the later one a dead-end neighbour of the earlier
            // search), and a pad sink.
            let far = Site::Logic {
                x: arch.size - 1,
                y: arch.size - 1,
            };
            nets.push((
                vec![graph.opin(Site::Logic { x: 0, y: 0 })],
                vec![
                    graph.ipin(far, 0),
                    graph.ipin(far, 1),
                    graph.ipin(Site::Logic { x: 1, y: 0 }, 3),
                ],
            ));
            nets.push((
                vec![graph.opin(far), graph.opin(Site::Logic { x: 1, y: 1 })],
                vec![
                    graph.ipin(
                        Site::Io {
                            side: 3,
                            pos: 0,
                            slot: 1,
                        },
                        0,
                    ),
                    graph.ipin(far, 2),
                ],
            ));
            let whole = BBox {
                x0: f32::NEG_INFINITY,
                y0: f32::NEG_INFINITY,
                x1: f32::INFINITY,
                y1: f32::INFINITY,
            };
            let mut state = NodeState::new(&graph);
            let mut scratch = Scratch::new(graph.node_count());
            let mut compared = 0;
            // Two PathFinder rounds: the second searches against the
            // occupancy and history the first left behind.
            for pres_fac in [FIRST_PRES_FAC, FIRST_PRES_FAC * PRES_FAC_MULT.powi(6)] {
                for (srcs, sinks) in &nets {
                    // The first-stage box: the terminals' extent plus margin.
                    let m = MARGINS[0];
                    let tight = srcs
                        .iter()
                        .chain(sinks)
                        .map(|&t| graph.location_f32(t))
                        .fold(
                            BBox {
                                x0: f32::INFINITY,
                                y0: f32::INFINITY,
                                x1: f32::NEG_INFINITY,
                                y1: f32::NEG_INFINITY,
                            },
                            |bb, (x, y)| {
                                bb.union(&BBox {
                                    x0: x - m,
                                    y0: y - m,
                                    x1: x + m,
                                    y1: y + m,
                                })
                            },
                        );
                    for bbox in [tight, whole] {
                        let pruned =
                            route_net(&graph, &state, pres_fac, srcs, sinks, bbox, &mut scratch);
                        let reference =
                            route_net_reference(&graph, &state, pres_fac, srcs, sinks, bbox);
                        assert_eq!(pruned, reference, "width {width}, pres_fac {pres_fac}");
                        compared += usize::from(pruned.is_some());
                    }
                    if let Some(tree) =
                        route_net(&graph, &state, pres_fac, srcs, sinks, whole, &mut scratch)
                    {
                        tree.iter().for_each(|&n| state.occupy(n));
                    }
                }
                state.accrue_history(ACC_FAC);
            }
            assert!(
                compared >= 2 * nets.len(),
                "most searches must find a tree (width {width})"
            );
        }
    }

    #[test]
    fn a_cancelled_route_stops_at_the_next_wave() {
        let nl = mul5_conventional();
        let arch = FabricArch::sized_for(nl.logic_count(), nl.io_count());
        let placement = crate::tplace::place(&nl, arch, 1);
        let graph = RouteGraph::build(arch, 7);
        let routed = |cancel: &AtomicBool| route_core(&nl, &placement, &graph, None, Some(cancel));
        let stopped = routed(&AtomicBool::new(true))
            .err()
            .expect("a cancelled run is no route");
        assert_eq!(
            (stopped.iterations, stopped.ripups),
            (0, nl.nets.len()),
            "no wave was routed"
        );
        // An unraised flag changes nothing.
        let free = routed(&AtomicBool::new(false)).expect("routable at width 7");
        let plain = route_core(&nl, &placement, &graph, None, None).expect("routable");
        assert_eq!(free.trees, plain.trees);
    }
}
