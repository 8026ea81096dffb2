//! The incremental PathFinder core: bounding-box-confined A*, a dirty-net
//! worklist, and deterministic wave parallelism.
//!
//! This module is the engine behind the [`crate::engine::ParEngine`]
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
//! * **Deterministic wave parallelism.** Dirty nets are greedily packed
//!   into *waves* of pairwise bbox-disjoint nets. All members of a wave
//!   are ripped first, then routed against the same immutable snapshot of
//!   occupancy/history — legal because disjoint boxes mean disjoint search
//!   regions — and committed in net order. The schedule depends only on
//!   the netlist, never on thread count, so results are **bit-identical**
//!   across `threads = 1..N`; threads only change who executes a wave
//!   member. A wave fans out only when it can pay for the spawn: a member
//!   routes in tens of microseconds, about what starting a scoped thread
//!   costs, so a wave is split across [`wave_workers`] threads — one per
//!   [`WAVE_NETS_PER_WORKER`] members, the caller being the first — and
//!   smaller waves route on the calling thread. Nets that fail inside
//!   their box are deferred and retried serially after the waves with a
//!   larger box.
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
use verify::{WaveAuditor, WaveFootprint};

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

/// Members a wave must hold per worker before it is split across threads
/// (see [`wave_workers`]). A member routes in ≈ 30–60 µs, about what
/// starting a scoped thread costs, and a wave is small (smoke PE: largest
/// 16 nets, 60 % of routed nets in waves of 8–15; paper PE: largest 34,
/// 53 % in waves of 16–31). Chosen as the smallest value at which a
/// 2-thread route reads no slower than the 1-thread route on the 2-core
/// host (`compile_time --threads-sweep 1,2,…`, median 2-thread ÷ 1-thread
/// route time at smoke / paper scale, 24–50 alternated routes a point):
/// 1 → ×1.30 / ×1.12, 4 → ×1.12 / ×1.07, 8 → ×1.01 / ×1.06, 12 → no
/// fan-out / ×1.01 (slower in 30 of 50), 16 → no fan-out / ×1.00 (21 of
/// 50); never fanning out reads ×1.00 at both scales.
const WAVE_NETS_PER_WORKER: usize = 16;

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

/// Per-worker scratch: A* cost/prev arrays reset via a touched list, the
/// open heap, and the growing per-net tree.
struct Scratch {
    cost_to: Vec<f32>,
    prev: Vec<u32>,
    touched: Vec<u32>,
    heap: BinaryHeap<(Reverse<u64>, u32)>,
    tree_set: FxHashSet<u32>,
    tree_list: Vec<u32>,
    /// When set, every node whose occupancy/history the search consults
    /// (the `step_cost` operand) is appended to `reads` — the read
    /// footprint the wave auditor checks for serial equivalence.
    record: bool,
    reads: Vec<u32>,
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
            record: false,
            reads: Vec::new(),
        }
    }
}

#[inline]
fn dist(a: (f32, f32), b: (f32, f32)) -> f32 {
    (a.0 - b.0).abs() + (a.1 - b.1).abs()
}

/// Routes one net inside `bbox` against an immutable state snapshot.
/// Returns the sorted node set of the tree, or `None` if some sink is
/// unreachable within the box. Pure in its inputs: independent of which
/// scratch/thread executes it.
fn route_net(
    graph: &RouteGraph,
    state: &NodeState,
    pres_fac: f64,
    srcs: &[u32],
    sinks: &[u32],
    bbox: BBox,
    scratch: &mut Scratch,
) -> Option<Vec<u32>> {
    let Scratch { cost_to, prev, touched, heap, tree_set, tree_list, record, reads } = scratch;
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
                if *record {
                    reads.push(next);
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
/// nets to route from scratch. `threads` bounds how far a wave may fan
/// out (0 counts as 1); results do not depend on it.
///
/// `cancel`, when given, is read once per wave: once it is set the run
/// stops with an `Unroutable` that says nothing about the width — the
/// caller that raised the flag has stopped wanting the verdict and drops
/// it (the width search's speculative cold probes, `warm.rs`).
///
/// When `auditor` is given, every wave's actual read/write footprints are
/// reported to it for the serial-equivalence check. Audited waves are
/// routed serially on one scratch — footprints (and trees) are identical
/// to the parallel execution because each member's search is pure in the
/// immutable pre-wave snapshot, so serialization only changes *who* runs
/// a member, never what it touches.
pub(crate) fn route_core(
    netlist: &ParNetlist,
    placement: &Placement,
    graph: &RouteGraph,
    threads: usize,
    seed_trees: Option<Vec<Vec<u32>>>,
    mut auditor: Option<&mut WaveAuditor>,
    cancel: Option<&AtomicBool>,
) -> Result<RouteResult, Unroutable> {
    let n_nets = netlist.nets.len();
    let n_nodes = graph.node_count();

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
            let mut bb =
                BBox { x0: f32::INFINITY, y0: f32::INFINITY, x1: f32::NEG_INFINITY, y1: f32::NEG_INFINITY };
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
        BBox { x0: e.x0 - m, y0: e.y0 - m, x1: e.x1 + m, y1: e.y1 + m }
    };

    let mut state = NodeState::new(graph);
    let mut trees: Vec<Vec<u32>> = seed_trees.unwrap_or_else(|| vec![Vec::new(); n_nets]);
    // Checked in release builds too: a seed-tree/netlist length mismatch
    // would silently misattribute routes to the wrong nets.
    assert_eq!(trees.len(), n_nets, "seed trees must match the netlist net count");
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

    // One scratch per worker the largest possible wave (every net) could
    // be split across — at these netlist sizes usually one, whatever
    // `threads` says.
    let mut scratches: Vec<Scratch> =
        (0..wave_workers(n_nets, threads)).map(|_| Scratch::new(n_nodes)).collect();
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

        let bboxes: Vec<BBox> =
            dirty.iter().map(|&i| bbox_of(i as usize, stage[i as usize])).collect();
        // Effective box = search box ∪ the extent of the tree about to be
        // ripped. Warm-seeded trees translated from a wider probe can
        // stick out of the *current* stage box, and wave packing must
        // cover every node a member writes — cold runs have no seed
        // trees, so there eff == the stage box and packing is unchanged.
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

        let mut deferred: Vec<u32> = Vec::new();
        for wave in &waves {
            // Relaxed: the flag publishes no data, it only stops the work.
            if cancel.is_some_and(|c| c.load(Ordering::Relaxed)) {
                return Err(Unroutable {
                    overused: usize::MAX,
                    iterations: iter,
                    ripups,
                    worst_cut_overuse: 0,
                });
            }
            let mut wave_span = trace::span("par.wave");
            wave_span.arg("nets", wave.len());
            // The write footprint of a member includes the tree it is
            // about to rip — capture old trees before the rip-up.
            let old_writes: Vec<Vec<u32>> = if auditor.is_some() {
                wave.iter().map(|&pos| trees[dirty[pos] as usize].clone()).collect()
            } else {
                Vec::new()
            };
            // Rip up this wave's nets only, right before rerouting them —
            // later waves keep occupying their old wires so the snapshot
            // the wave searches against stays faithful to the serial
            // rip-right-before-reroute dynamics. Within the wave, a
            // member's rip-up touches only its own (disjoint) box.
            for &pos in wave {
                let i = dirty[pos] as usize;
                for &n in &trees[i] {
                    state.release(n);
                }
                trees[i].clear();
            }
            let results = if let Some(aud) = auditor.as_deref_mut() {
                audited_wave(
                    graph, &state, pres_fac, &dirty, wave, &bboxes, &srcs, &sinks,
                    &mut scratches[0], &old_writes, iter, aud,
                )
            } else {
                route_wave(
                    graph, &state, pres_fac, &dirty, wave, &bboxes, &srcs, &sinks,
                    &mut scratches,
                )
            };
            let mut wave_deferred = 0usize;
            for (net, res) in results {
                match res {
                    Some(tree) => {
                        for &n in &tree {
                            state.occupy(n);
                        }
                        trees[net as usize] = tree;
                    }
                    None => {
                        deferred.push(net);
                        wave_deferred += 1;
                    }
                }
            }
            wave_span.arg("deferred", wave_deferred);
        }

        // Escalate nets that failed inside their box; serial, in order.
        for &net in &deferred {
            loop {
                if stage[net as usize] >= LAST_STAGE {
                    return Err(Unroutable {
                        overused: usize::MAX,
                        iterations: iter + 1,
                        ripups,
                        worst_cut_overuse: 0,
                    });
                }
                stage[net as usize] += 1;
                let bb = bbox_of(net as usize, stage[net as usize]);
                if let Some(tree) = route_net(
                    graph,
                    &state,
                    pres_fac,
                    &srcs[net as usize],
                    &sinks[net as usize],
                    bb,
                    &mut scratches[0],
                ) {
                    for &n in &tree {
                        state.occupy(n);
                    }
                    trees[net as usize] = tree;
                    break;
                }
            }
        }

        let overused = state.accrue_history(ACC_FAC);
        last_overused = overused;
        iter_span.arg("ripups", ripups);
        iter_span.arg("overused", overused);
        if overused == 0 {
            return Ok(build_result(netlist, graph, &state, trees, iter + 1, ripups, waves_total));
        }
        if iter + 1 == MAX_ITERS {
            // A cold-equivalent verdict (no frozen warm trees biasing the
            // congestion) reports its worst-cut residual so the width
            // search can advance `lo` past hopeless widths.
            let cut = if warm_n == 0 { graph.cut_pressure(&state).max_overuse } else { 0 };
            return Err(Unroutable {
                overused,
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
                        trace::instant("par.debias", vec![("warm_n", warm_n.into())]);
                        debias = true;
                        best_overused = usize::MAX;
                        stalled = 0;
                    } else {
                        // warm_n == 0 here, so the residual congestion is
                        // honest — report the worst cut's overuse.
                        return Err(Unroutable {
                            overused,
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
                trace::instant("par.debias", vec![("warm_n", warm_n.into())]);
                debias = true;
                best_overused = usize::MAX;
                stalled = 0;
            }
        }
        pres_fac *= PRES_FAC_MULT;
    }
    unreachable!("loop returns before exhausting iterations")
}

/// Threads one wave of `members` nets is split across: one per
/// [`WAVE_NETS_PER_WORKER`] members, never more than `threads`, never less
/// than one — so a thread count cannot make a route slower.
fn wave_workers(members: usize, threads: usize) -> usize {
    threads.min(members / WAVE_NETS_PER_WORKER).max(1)
}

/// Routes one wave. Members' boxes are pairwise disjoint, so each search
/// reads the shared snapshot without seeing the others — any partition of
/// the wave across workers yields the same trees. Chunks are contiguous,
/// so concatenating per-chunk results preserves member order. The calling
/// thread takes the first chunk; [`wave_workers`] decides how many scoped
/// threads, if any, take the rest.
#[allow(clippy::too_many_arguments)]
fn route_wave(
    graph: &RouteGraph,
    state: &NodeState,
    pres_fac: f64,
    dirty: &[u32],
    wave: &[usize],
    bboxes: &[BBox],
    srcs: &[Vec<u32>],
    sinks: &[Vec<u32>],
    scratches: &mut [Scratch],
) -> Vec<(u32, Option<Vec<u32>>)> {
    let run_chunk = |chunk: &[usize], scratch: &mut Scratch| -> Vec<(u32, Option<Vec<u32>>)> {
        chunk
            .iter()
            .map(|&pos| {
                let net = dirty[pos] as usize;
                let tree = route_net(
                    graph, state, pres_fac, &srcs[net], &sinks[net], bboxes[pos], scratch,
                );
                (net as u32, tree)
            })
            .collect()
    };

    let workers = wave_workers(wave.len(), scratches.len());
    let (own, rest) = scratches.split_first_mut().expect("the router owns at least one scratch");
    if workers == 1 {
        return run_chunk(wave, own);
    }
    let (first, tail) = wave.split_at(wave.len().div_ceil(workers));
    std::thread::scope(|scope| {
        let handles: Vec<_> = tail
            .chunks(first.len())
            .zip(rest)
            .map(|(chunk, scratch)| scope.spawn(move || run_chunk(chunk, scratch)))
            .collect();
        let mut out = run_chunk(first, own);
        out.reserve(tail.len());
        for h in handles {
            out.extend(h.join().expect("router worker panicked"));
        }
        out
    })
}

/// Routes one wave serially while recording each member's actual
/// read/write footprint and reporting the wave to the auditor. The trees
/// are exactly those `route_wave` would produce — each member's search is
/// pure in the shared pre-wave snapshot — so auditing never perturbs the
/// routing result, only observes it.
#[allow(clippy::too_many_arguments)]
fn audited_wave(
    graph: &RouteGraph,
    state: &NodeState,
    pres_fac: f64,
    dirty: &[u32],
    wave: &[usize],
    bboxes: &[BBox],
    srcs: &[Vec<u32>],
    sinks: &[Vec<u32>],
    scratch: &mut Scratch,
    old_writes: &[Vec<u32>],
    iteration: usize,
    auditor: &mut WaveAuditor,
) -> Vec<(u32, Option<Vec<u32>>)> {
    scratch.record = true;
    let mut members: Vec<WaveFootprint> = Vec::with_capacity(wave.len());
    let mut out = Vec::with_capacity(wave.len());
    for (k, &pos) in wave.iter().enumerate() {
        scratch.reads.clear();
        let net = dirty[pos] as usize;
        let tree = route_net(
            graph, state, pres_fac, &srcs[net], &sinks[net], bboxes[pos], scratch,
        );
        let mut reads = std::mem::take(&mut scratch.reads);
        reads.sort_unstable();
        reads.dedup();
        let mut writes = old_writes[k].clone();
        if let Some(t) = &tree {
            writes.extend_from_slice(t);
        }
        writes.sort_unstable();
        writes.dedup();
        members.push(WaveFootprint { net: net as u32, reads, writes });
        out.push((net as u32, tree));
    }
    scratch.record = false;
    auditor.observe_wave(iteration, &members);
    out
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
        crate::netlist::extract(&mapping::map_conventional(&g, mapping::MapOptions::default()))
    }

    #[test]
    fn pruned_route_net_equals_the_unpruned_reference() {
        let nl = mul5_conventional();
        let arch = FabricArch::sized_for(nl.logic_count(), nl.io_count());
        let placement = crate::tplace::place(&nl, arch, 1);
        for width in [4usize, 7] {
            let graph = RouteGraph::build(arch, width);
            let mut nets: Vec<(Vec<u32>, Vec<u32>)> = crate::troute::terminals(&nl, &placement, &graph)
                .into_iter()
                .map(|t| (t.sources, t.sinks))
                .collect();
            // A sink beside its block's other input pins, two sinks on one
            // block (the later one a dead-end neighbour of the earlier
            // search), and a pad sink.
            let far = Site::Logic { x: arch.size - 1, y: arch.size - 1 };
            nets.push((
                vec![graph.opin(Site::Logic { x: 0, y: 0 })],
                vec![graph.ipin(far, 0), graph.ipin(far, 1), graph.ipin(Site::Logic { x: 1, y: 0 }, 3)],
            ));
            nets.push((
                vec![graph.opin(far), graph.opin(Site::Logic { x: 1, y: 1 })],
                vec![graph.ipin(Site::Io { side: 3, pos: 0, slot: 1 }, 0), graph.ipin(far, 2)],
            ));
            let whole = BBox { x0: f32::NEG_INFINITY, y0: f32::NEG_INFINITY, x1: f32::INFINITY, y1: f32::INFINITY };
            let mut state = NodeState::new(&graph);
            let mut scratch = Scratch::new(graph.node_count());
            let mut compared = 0;
            // Two PathFinder rounds: the second searches against the
            // occupancy and history the first left behind.
            for pres_fac in [FIRST_PRES_FAC, FIRST_PRES_FAC * PRES_FAC_MULT.powi(6)] {
                for (srcs, sinks) in &nets {
                    // The first-stage box: the terminals' extent plus margin.
                    let m = MARGINS[0];
                    let tight = srcs.iter().chain(sinks).map(|&t| graph.location_f32(t)).fold(
                        BBox { x0: f32::INFINITY, y0: f32::INFINITY, x1: f32::NEG_INFINITY, y1: f32::NEG_INFINITY },
                        |bb, (x, y)| bb.union(&BBox { x0: x - m, y0: y - m, x1: x + m, y1: y + m }),
                    );
                    for bbox in [tight, whole] {
                        let pruned = route_net(&graph, &state, pres_fac, srcs, sinks, bbox, &mut scratch);
                        let reference = route_net_reference(&graph, &state, pres_fac, srcs, sinks, bbox);
                        assert_eq!(pruned, reference, "width {width}, pres_fac {pres_fac}");
                        compared += usize::from(pruned.is_some());
                    }
                    if let Some(tree) = route_net(&graph, &state, pres_fac, srcs, sinks, whole, &mut scratch) {
                        tree.iter().for_each(|&n| state.occupy(n));
                    }
                }
                state.accrue_history(ACC_FAC);
            }
            assert!(compared >= 2 * nets.len(), "most searches must find a tree (width {width})");
        }
    }

    #[test]
    fn a_cancelled_route_stops_at_the_next_wave() {
        let nl = mul5_conventional();
        let arch = FabricArch::sized_for(nl.logic_count(), nl.io_count());
        let placement = crate::tplace::place(&nl, arch, 1);
        let graph = RouteGraph::build(arch, 7);
        let routed = |cancel: &AtomicBool| route_core(&nl, &placement, &graph, 1, None, None, Some(cancel));
        let stopped = routed(&AtomicBool::new(true)).err().expect("a cancelled run is no route");
        assert_eq!((stopped.iterations, stopped.ripups), (0, nl.nets.len()), "no wave was routed");
        // An unraised flag changes nothing.
        let free = routed(&AtomicBool::new(false)).expect("routable at width 7");
        let plain = route_core(&nl, &placement, &graph, 1, None, None, None).expect("routable");
        assert_eq!(free.trees, plain.trees);
    }

    #[test]
    fn wave_workers_is_one_below_the_threshold_and_capped_by_threads() {
        const K: usize = WAVE_NETS_PER_WORKER;
        for (members, threads, want) in [
            (0, 4, 1),
            (1, 4, 1),
            (K - 1, 4, 1),
            (2 * K - 1, 4, 1),
            (2 * K, 4, 2),
            (100 * K, 4, 4),
            (0, 1, 1),
            (2 * K, 1, 1),
            (100 * K, 1, 1),
        ] {
            assert_eq!(wave_workers(members, threads), want, "{members} members, {threads} threads");
        }
    }

    #[test]
    fn a_fanned_out_wave_routes_what_one_thread_routes() {
        // Two-pin nets between horizontally adjacent tiles on every other
        // row of an empty fabric, each confined to a box around its own
        // two tiles — pairwise disjoint, as `build_waves` would pack them.
        let size = 16;
        let graph = RouteGraph::build(FabricArch::paper_4lut(size), 8);
        let state = NodeState::new(&graph);
        let (mut srcs, mut sinks, mut bboxes) = (Vec::new(), Vec::new(), Vec::new());
        for y in (0..size).step_by(2) {
            for x in (0..size).step_by(2) {
                srcs.push(vec![graph.opin(Site::Logic { x, y })]);
                sinks.push(vec![graph.ipin(Site::Logic { x: x + 1, y }, 0)]);
                let (x, y) = (x as f32, y as f32);
                bboxes.push(BBox { x0: x + 1.0, y0: y + 0.5, x1: x + 2.0, y1: y + 1.5 });
            }
        }
        let n = srcs.len();
        assert!(n >= 4 * WAVE_NETS_PER_WORKER);
        assert!(wave_workers(n, 4) > 1, "the threaded arm must be the one compared");
        for (i, a) in bboxes.iter().enumerate() {
            assert!(bboxes[..i].iter().all(|b| !a.overlaps(b)), "box {i} overlaps an earlier one");
        }

        let dirty: Vec<u32> = (0..n as u32).collect();
        let wave: Vec<usize> = (0..n).collect();
        let route = |threads: usize| {
            let mut scratches: Vec<Scratch> =
                (0..threads).map(|_| Scratch::new(graph.node_count())).collect();
            route_wave(
                &graph, &state, FIRST_PRES_FAC, &dirty, &wave, &bboxes, &srcs, &sinks,
                &mut scratches,
            )
        };
        let serial = route(1);
        assert_eq!(serial.iter().map(|&(net, _)| net).collect::<Vec<_>>(), dirty);
        assert!(serial.iter().all(|(_, tree)| tree.is_some()), "every net routes inside its box");
        assert_eq!(route(4), serial);
    }
}
