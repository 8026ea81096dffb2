//! The incremental PathFinder core: bounding-box-confined A*, a dirty-net
//! worklist, and one canonical wave order.
//!
//! This module is the engine behind the [`crate::ParEngine`]
//! facade. It routes the nets' [`crate::troute::terminals`] — the one lift
//! of nets into the routing graph, which the warm-start audit and the
//! verifier's route pass read too — and only orders each net's sinks
//! far-first. It differs from a textbook PathFinder loop in three ways:
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
//! A run that does not route leaves by one of three exits, each its own
//! `Unroutable`:
//!
//! * **cancelled** (`route_core`'s last argument, read once per wave): the
//!   width search routes cold probes speculatively and stops the ones it
//!   moves past. It reports the iterations finished and no cut pressure;
//!   it is no verdict, and the search drops it unread;
//! * **whole-fabric deferral**: a net finds no tree even with the whole
//!   fabric as its box (`iter + 1` iterations, no cut pressure);
//! * **give-up**: the iteration limit, or a massive overuse that stalled
//!   with no warm trees left. It reports the worst cut's residual overuse
//!   when no warm tree is left to bias the congestion, which the width
//!   search's `lo` advance reads.
//!
//! The core prints nothing and reads no environment: what it did is in
//! its trace spans — `par.route_iter` (`dirty`, `waves`, `ripups`,
//! `overused`), `par.wave` (`nets`, `deferred`), and a `par.debias`
//! instant (`warm_n`) each time a stalled warm probe dissolves its frozen
//! trees.

use crate::netlist::ParNetlist;
use crate::tplace::Placement;
use crate::troute::{terminals, RouteResult, Unroutable};
use fabric::rrg::{NetTerminals, NodeState, RouteGraph};
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
/// ([`is_massive`]) — the signature of a hopelessly narrow channel.
/// Near-feasible widths plateau far below the threshold and always get
/// their full `MAX_ITERS` budget.
const STALL_ITERS: usize = 6;

/// Is `overused` wires a *massive* overuse for a netlist of `n_nets`? Below
/// it the run is in its endgame (thrash escalation opens); above it a
/// stalled cold run gives up.
fn is_massive(overused: usize, n_nets: usize) -> bool {
    overused > n_nets / 16 + 64
}

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
    /// The box that holds nothing: including a point makes it that point.
    const EMPTY: BBox = BBox {
        x0: f32::INFINITY,
        y0: f32::INFINITY,
        x1: f32::NEG_INFINITY,
        y1: f32::NEG_INFINITY,
    };

    /// The smallest box holding the locations of `nodes`.
    fn around<'a>(graph: &RouteGraph, nodes: impl IntoIterator<Item = &'a u32>) -> BBox {
        let mut bb = BBox::EMPTY;
        for &n in nodes {
            bb.include(graph.location_f32(n));
        }
        bb
    }

    #[inline]
    fn include(&mut self, (x, y): (f32, f32)) {
        self.x0 = self.x0.min(x);
        self.y0 = self.y0.min(y);
        self.x1 = self.x1.max(x);
        self.y1 = self.y1.max(y);
    }

    /// The box with `margin` tiles added on every side (an infinite margin
    /// makes it the whole plane).
    fn grown(&self, margin: f32) -> BBox {
        BBox {
            x0: self.x0 - margin,
            y0: self.y0 - margin,
            x1: self.x1 + margin,
            y1: self.y1 + margin,
        }
    }

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
    net: &NetTerminals,
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

    for &sink in &net.sinks {
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
        for &s in &net.sources {
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

/// What a reroute step works on besides the net: the graph, its
/// occupancy and history, the search scratch and the iteration's
/// present-congestion factor.
struct Router<'g> {
    graph: &'g RouteGraph,
    state: NodeState,
    scratch: Scratch,
    pres_fac: f64,
}

impl Router<'_> {
    /// The reroute step: rips `tree` out of the state, searches the net
    /// inside `bbox` against what is left, and commits the tree it finds.
    /// Returns false, with the net left unrouted, when no tree fits in the
    /// box.
    fn reroute(&mut self, net: &NetTerminals, bbox: BBox, tree: &mut Vec<u32>) -> bool {
        for &n in tree.iter() {
            self.state.release(n);
        }
        tree.clear();
        let (graph, state, pres_fac) = (self.graph, &self.state, self.pres_fac);
        let Some(found) = route_net(graph, state, pres_fac, net, bbox, &mut self.scratch) else {
            return false;
        };
        for &n in &found {
            self.state.occupy(n);
        }
        *tree = found;
        true
    }
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

    // Sinks ordered far-first like the reference router (route the hardest
    // sink while the tree is small).
    let mut nets = terminals(netlist, placement, graph);
    for net in &mut nets {
        let s0 = graph.location_f32(net.sources[0]);
        net.sinks.sort_by(|&a, &b| {
            let da = dist(graph.location_f32(a), s0);
            let db = dist(graph.location_f32(b), s0);
            db.total_cmp(&da).then(a.cmp(&b))
        });
    }
    // Terminal extents (fixed by the placement) and escalation stages.
    let extents: Vec<BBox> = nets
        .iter()
        .map(|net| BBox::around(graph, net.sources.iter().chain(&net.sinks)))
        .collect();
    let mut stage: Vec<u8> = vec![0; n_nets];
    let bbox_of = |net: usize, stage: u8| extents[net].grown(MARGINS[stage as usize]);

    let mut router = Router {
        graph,
        state: NodeState::new(graph),
        scratch: Scratch::new(graph.node_count()),
        pres_fac: FIRST_PRES_FAC,
    };
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
            router.state.occupy(n);
        }
    }
    // Warm-seeded nets that have not been rerouted yet. A stalled probe
    // dissolves this set (see below): the frozen routes hold capacity the
    // contested nets may need, and ripping them turns the probe into a
    // cold-equivalent one instead of letting the bias produce a false
    // "unroutable" verdict.
    let mut warm_left: Vec<bool> = trees.iter().map(|t| !t.is_empty()).collect();
    let mut warm_n = warm_left.iter().filter(|&&w| w).count();
    let mut debias = false;

    let mut ripups = 0usize;
    let mut waves_total = 0usize;
    let mut best_overused = usize::MAX;
    let mut stalled = 0usize;
    // Thrash escalation: in the endgame (no massive overuse), a net that
    // keeps being ripped yet always "succeeds" inside its box is playing
    // musical chairs over a local capacity deficit — the detour that
    // resolves it lies outside the box. Growing the box for such nets
    // recovers the unconfined router's verdicts. While overuse is massive
    // the gate stays closed, so hopeless probes keep their cheap searches.
    let mut rips_of: Vec<u16> = vec![0; n_nets];
    let mut endgame = false;

    for iter in 0..MAX_ITERS {
        let mut iter_span = trace::span("par.route_iter");
        iter_span.arg("iter", iter);
        // Dirty worklist: unrouted nets and nets crossing an overused wire.
        let dirty: Vec<u32> = (0..n_nets as u32)
            .filter(|&i| {
                let t = &trees[i as usize];
                (debias && warm_left[i as usize])
                    || t.is_empty()
                    || t.iter().any(|&n| router.state.overused(n))
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
            .zip(&bboxes)
            .map(|(&i, bb)| bb.union(&BBox::around(graph, &trees[i as usize])))
            .collect();
        let waves = build_waves(&dirty, &eff);
        waves_total += waves.len();
        iter_span.arg("dirty", dirty.len());
        iter_span.arg("waves", waves.len());

        // Rip each member right before rerouting it: every other dirty net
        // keeps occupying its old wires until its own turn.
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
            let before = deferred.len();
            for &pos in wave {
                let i = dirty[pos] as usize;
                if !router.reroute(&nets[i], bboxes[pos], &mut trees[i]) {
                    deferred.push(i);
                }
            }
            wave_span.arg("deferred", deferred.len() - before);
        }
        // Escalate the nets that failed inside their box, in order: each
        // grows its stage until it routes, or gives up on the whole fabric.
        for &i in &deferred {
            let routed = (stage[i] + 1..=LAST_STAGE).any(|s| {
                stage[i] = s;
                router.reroute(&nets[i], bbox_of(i, s), &mut trees[i])
            });
            if !routed {
                return Err(Unroutable {
                    iterations: iter + 1,
                    ripups,
                    worst_cut_overuse: 0,
                });
            }
        }

        let overused = router.state.accrue_history(ACC_FAC);
        iter_span.arg("ripups", ripups);
        iter_span.arg("overused", overused);
        if overused == 0 {
            return Ok(build_result(
                netlist,
                graph,
                &router.state,
                trees,
                iter + 1,
                ripups,
                waves_total,
            ));
        }
        // Stall detector: a hopelessly narrow channel shows as a massive
        // overuse count that stops improving *meaningfully* (≥3 % per
        // window). Near-feasible runs either converge in a handful of
        // iterations or plateau far below the bound.
        if (overused as f64) < best_overused as f64 * 0.97 {
            best_overused = overused;
            stalled = 0;
        } else {
            best_overused = best_overused.min(overused);
            stalled += 1;
        }
        let massive = is_massive(overused, n_nets);
        let stuck = stalled >= if massive { STALL_ITERS } else { 3 };
        if iter + 1 == MAX_ITERS || (stuck && massive && warm_n == 0) {
            // The run gives up: out of iterations, or stalled on a massive
            // overuse. A cold-equivalent verdict (no frozen warm trees
            // biasing the congestion — always so on a stall) reports its
            // worst cut's residual so the width search can advance `lo`
            // past hopeless widths.
            let worst_cut_overuse = if warm_n == 0 {
                graph.cut_pressure(&router.state).max_overuse
            } else {
                0
            };
            return Err(Unroutable {
                iterations: iter + 1,
                ripups,
                worst_cut_overuse,
            });
        }
        if stuck && warm_n > 0 {
            // The remaining frozen routes are the likely culprit, and warm
            // bias must never manufacture an "unroutable": rip them all
            // next iteration and give the stall clock a fresh start.
            trace::instant("par.debias", || vec![("warm_n", warm_n.into())]);
            debias = true;
            best_overused = usize::MAX;
            stalled = 0;
        }
        endgame = !massive;
        router.pres_fac *= PRES_FAC_MULT;
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
        net: &NetTerminals,
        bbox: BBox,
    ) -> Option<Vec<u32>> {
        let n = graph.node_count();
        let (mut tree_set, mut tree_list) = (FxHashSet::default(), Vec::new());
        for &sink in &net.sinks {
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
            for &s in net.sources.iter().chain(tree_list.iter()) {
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
            let mut nets = terminals(&nl, &placement, &graph);
            // A sink beside its block's other input pins, two sinks on one
            // block (the later one a dead-end neighbour of the earlier
            // search), and a pad sink.
            let far = Site::Logic {
                x: arch.size - 1,
                y: arch.size - 1,
            };
            nets.push(NetTerminals {
                sources: vec![graph.opin(Site::Logic { x: 0, y: 0 })],
                sinks: vec![
                    graph.ipin(far, 0),
                    graph.ipin(far, 1),
                    graph.ipin(Site::Logic { x: 1, y: 0 }, 3),
                ],
            });
            nets.push(NetTerminals {
                sources: vec![graph.opin(far), graph.opin(Site::Logic { x: 1, y: 1 })],
                sinks: vec![
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
            });
            let mut state = NodeState::new(&graph);
            let mut scratch = Scratch::new(graph.node_count());
            let mut compared = 0;
            // Two PathFinder rounds: the second searches against the
            // occupancy and history the first left behind.
            for pres_fac in [FIRST_PRES_FAC, FIRST_PRES_FAC * PRES_FAC_MULT.powi(6)] {
                for net in &nets {
                    // The first and the last stage's box: the terminals'
                    // extent plus a margin, and the whole fabric.
                    let extent = BBox::around(&graph, net.sources.iter().chain(&net.sinks));
                    let [tight, whole] = [0, LAST_STAGE].map(|s| extent.grown(MARGINS[s as usize]));
                    for bbox in [tight, whole] {
                        let pruned = route_net(&graph, &state, pres_fac, net, bbox, &mut scratch);
                        let reference = route_net_reference(&graph, &state, pres_fac, net, bbox);
                        assert_eq!(pruned, reference, "width {width}, pres_fac {pres_fac}");
                        compared += usize::from(pruned.is_some());
                    }
                    if let Some(tree) =
                        route_net(&graph, &state, pres_fac, net, whole, &mut scratch)
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
        let stopped = routed(&AtomicBool::new(true)).expect_err("a cancelled run is no route");
        assert_eq!(
            (
                stopped.iterations,
                stopped.ripups,
                stopped.worst_cut_overuse
            ),
            (0, nl.nets.len(), 0),
            "no wave was routed, and a cancelled run reports no cut pressure"
        );
        // An unraised flag changes nothing.
        let free = routed(&AtomicBool::new(false)).expect("routable at width 7");
        let plain = route_core(&nl, &placement, &graph, None, None).expect("routable");
        assert_eq!(free.trees, plain.trees);
    }
}
