//! Warm-started minimum-channel-width search.
//!
//! VPR-style methodology: the placement is width-independent, so the
//! search probes the router at candidate widths. The engine's search is a
//! doubling phase followed by binary search, and every probe after the
//! first success is **warm-started**: the routing trees of the nearest
//! successful (wider) graph are translated into the probe's graph, each
//! net's translated tree is re-validated for connectivity (connection-box
//! and switch-box patterns are width-dependent, so edges do not
//! necessarily survive translation) against the probe graph's
//! [`crate::troute::terminals`] — the same lift the router and the
//! verifier read — and only broken or congested nets are rerouted. The
//! final `W−1` failure is probed **cold** unless something already proves
//! it, so every reported minimum carries a [`WidthCertificate`]. A cold
//! linear scan is kept as the reference
//! ([`crate::ParEngine::min_channel_width_reference`]); both must find the
//! same minimum (see the equivalence tests).
//!
//! **Where the time goes, and what is done about it.** A successful probe
//! converges in a handful of iterations; a failed one grinds to the
//! iteration limit, and the search used to pay for the hopeless `W−1`
//! twice in a row — warm (a verdict it does not trust) and then cold (the
//! certificate): 86 % of the (5,10) PE's search, 54 % of its whole flow.
//! A cold probe is a pure function of `(netlist, placement, width)`, so
//! with `threads ≥ 2` it routes **beside** the binary phase on a thread of
//! its own (`Speculation`) and the confirmation loop takes the finished
//! verdict instead of starting it. The main sequence — which widths are
//! probed warm, in which order, from which seed — is the same at every
//! thread count, a speculative probe the search moves past is dropped
//! unlogged, and a consumed one is logged where the confirmation probe
//! always was; so every result is `==` at any `threads`, a whole
//! [`WidthSearch`] included. With one thread nothing is spawned, and a
//! router run itself never spawns: `threads` is the main sequence plus the
//! probes beside it.
//!
//! The result holds what was computed, not when: host time and the thread
//! a probe ran on are trace spans. One `par.width_search` span covers a
//! search and carries its sound `lower_bound`, the congestion `estimate`
//! it started from, the minimum and the probe count; each probe is a
//! `par.probe` span (width, warm nets, verdict, effort, `overlapped`, a
//! failure's `worst_cut_overuse`, `cancelled` on a speculative probe that
//! was let go) on the thread that routed it, and its duration is the
//! probe's wall time.

use crate::engine::EngineOptions;
use crate::incr::route_core;
use crate::netlist::{Net, ParNetlist};
use crate::tplace::Placement;
use crate::troute::{terminals, RouteResult, Unroutable};
use fabric::arch::FabricArch;
use fabric::rrg::RouteGraph;
use logic::fxhash::FxHashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{Scope, ScopedJoinHandle};

/// One router invocation inside the width search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WidthProbe {
    /// Channel width probed.
    pub width: usize,
    /// Did the router legalize at this width?
    pub success: bool,
    /// PathFinder iterations spent.
    pub iterations: usize,
    /// Net (re)route operations spent.
    pub ripups: usize,
    /// Nets whose routes were carried over from the warm-start seed.
    pub warm_nets: usize,
    /// True for the certification re-probe of the final `W−1` failure
    /// (always cold: `warm_nets == 0`).
    pub confirm: bool,
}

/// Why the reported minimum is trusted (see [`WidthSearch::certificate`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WidthCertificate {
    /// `W` equals the search floor (`EngineOptions::min_width`): nothing
    /// below was in scope, so there is no `W−1` verdict to confirm.
    Floor,
    /// `W−1` lies below the sound placement-geometry lower bound — no
    /// router run can succeed there, by construction.
    LowerBound,
    /// A **cold** probe (no warm-start seed whose bias could fabricate a
    /// failure) failed at `W−1` — either during the search itself or as
    /// the certification re-probe. That shows only that a cold route did
    /// not converge at `W−1` within the router's 30-iteration budget (or
    /// was stopped by its stall detector), not that `W−1` is unroutable:
    /// on the (5,10) conventional PE a warm route has succeeded at a width
    /// where the cold probe had failed.
    ColdFailure,
}

impl WidthCertificate {
    /// Short stable name (for tables and JSON records).
    pub fn name(&self) -> &'static str {
        match self {
            WidthCertificate::Floor => "floor",
            WidthCertificate::LowerBound => "lower-bound",
            WidthCertificate::ColdFailure => "cold-failure",
        }
    }
}

/// Outcome of the width search: the minimum width, the routing there, and
/// the per-probe effort log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WidthSearch {
    /// Minimum routable channel width found.
    pub min_width: usize,
    /// Routing result at the minimum width.
    pub result: RouteResult,
    /// Every probe, in the order of the search's main sequence (a
    /// confirmation probe that ran beside it is listed where it was
    /// needed, not where it started).
    pub probes: Vec<WidthProbe>,
    /// The placement-derived lower bound the search started from.
    pub lower_bound: usize,
    /// Strongest overuse-sharpened claim the search made: the highest
    /// `w + ⌈worst-cut overuse / separator⌉` advance derived from any
    /// cold-equivalent *failed* probe (`0` when the rule never fired).
    /// Heuristic, not proof — the certification loop repairs any
    /// overshoot — but `tests/determinism.rs` property-checks it never
    /// exceeds the cold reference scan's minimum in practice.
    pub overuse_lo: usize,
    /// Why `min_width` is taken as the minimum. Only
    /// [`Floor`](WidthCertificate::Floor) and
    /// [`LowerBound`](WidthCertificate::LowerBound) prove it;
    /// [`ColdFailure`](WidthCertificate::ColdFailure) is a budgeted router
    /// verdict, not a proof (see there). The warm binary
    /// search takes de-biased warm verdicts at face value, so the final
    /// `W−1` failure is probed **cold** as well — beside the binary phase
    /// when a thread is free, after it otherwise (unless the floor or the
    /// sound lower bound already certifies it; costs at most one extra
    /// failing probe, bounded by the stall detector like any other
    /// hopeless width).
    /// If — against the de-bias design — the cold probe *succeeds*,
    /// the search adopts the narrower result and keeps certifying
    /// downward, so the reported minimum is always the certified one.
    pub certificate: WidthCertificate,
}

/// A net's placement extent `(min_x, max_x, min_y, max_y)`: the bounding
/// box of its source and sink blocks' tile coordinates on a fabric of the
/// given `size`.
fn net_extent(net: &Net, placement: &Placement, size: usize) -> (f64, f64, f64, f64) {
    let mut ext = (
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::INFINITY,
        f64::NEG_INFINITY,
    );
    let blocks = net
        .sources
        .iter()
        .copied()
        .chain(net.sinks.iter().map(|&(b, _)| b));
    for b in blocks {
        let (x, y) = placement.site_of[b as usize].location(size);
        ext = (ext.0.min(x), ext.1.max(x), ext.2.min(y), ext.3.max(y));
    }
    ext
}

/// A sound lower bound on the minimum channel width, from placement
/// geometry alone.
///
/// For every cut between adjacent tile columns, the set of channel wires
/// any crossing path must touch (the cut's vertex separator in the RRG —
/// one vertical channel column plus one full horizontal channel per row)
/// holds `(2s+1)·width` wires, and every net whose terminal extent spans
/// the cut needs at least one of them. So
/// `width ≥ ⌈crossings / (2s+1)⌉` at every cut (rows symmetric). Starting
/// the width search here skips the hopeless probes that dominated the
/// pre-engine TROUTE wall time without ever changing the found minimum.
pub fn channel_width_lower_bound(
    netlist: &ParNetlist,
    placement: &Placement,
    arch: FabricArch,
) -> usize {
    let s = arch.size;
    if s < 2 {
        return 2;
    }
    let mut cross_v = vec![0usize; s - 1];
    let mut cross_h = vec![0usize; s - 1];
    for net in &netlist.nets {
        let (min_x, max_x, min_y, max_y) = net_extent(net, placement, s);
        // Cut k sits at coordinate k + 1.5 (tile centers are 1..=s).
        for (k, c) in cross_v.iter_mut().enumerate() {
            let cut = k as f64 + 1.5;
            if min_x < cut && max_x > cut {
                *c += 1;
            }
        }
        for (k, c) in cross_h.iter_mut().enumerate() {
            let cut = k as f64 + 1.5;
            if min_y < cut && max_y > cut {
                *c += 1;
            }
        }
    }
    let sep = RouteGraph::separator_per_track(arch);
    cross_v
        .iter()
        .chain(cross_h.iter())
        .map(|&c| c.div_ceil(sep))
        .max()
        .unwrap_or(2)
        .max(2)
}

/// Congestion-map **estimate** of the channel width the design wants:
/// every net spreads one unit of wire demand uniformly over the channels
/// of its terminal bounding box (the classic probabilistic congestion
/// estimate), and the peak per-channel demand — padded 60 % for router
/// detours — picks the width the doubling phase starts from.
///
/// Unlike [`channel_width_lower_bound`] this is *not* sound, and it does
/// not need to be: the width search only uses it to choose its first
/// probe. Too low costs a doubling step; too high costs a few cheap
/// warm-started binary probes. What it buys is never grinding the router
/// through the hopelessly narrow cold widths that dominated the
/// pre-engine TROUTE wall time.
pub fn channel_width_estimate(
    netlist: &ParNetlist,
    placement: &Placement,
    arch: FabricArch,
) -> usize {
    let s = arch.size;
    // Demand per row-channel cell (horizontal wires) and column-channel
    // cell (vertical wires), indexed [channel][tile].
    let mut h = vec![0f32; (s + 1) * s];
    let mut v = vec![0f32; (s + 1) * s];
    for net in &netlist.nets {
        let (min_x, max_x, min_y, max_y) = net_extent(net, placement, s);
        // Tile/channel index ranges covered by the bbox (clamped).
        let x0 = (min_x - 1.0).floor().clamp(0.0, (s - 1) as f64) as usize;
        let x1 = (max_x - 1.0).ceil().clamp(0.0, (s - 1) as f64) as usize;
        let y0 = (min_y - 1.0).floor().clamp(0.0, (s - 1) as f64) as usize;
        let y1 = (max_y - 1.0).ceil().clamp(0.0, (s - 1) as f64) as usize;
        let rows = (y1 - y0 + 2) as f32; // row-channels usable: y0..=y1+1
        let cols = (x1 - x0 + 2) as f32;
        // One unit of horizontal demand per tile column the net spans,
        // spread over the bbox's row-channels (and symmetrically for
        // vertical demand).
        for y in y0..=(y1 + 1).min(s) {
            for x in x0..=x1 {
                h[y * s + x] += 1.0 / rows;
            }
        }
        for x in x0..=(x1 + 1).min(s) {
            for y in y0..=y1 {
                v[x * s + y] += 1.0 / cols;
            }
        }
    }
    let peak = h.iter().chain(v.iter()).fold(0f32, |m, &d| m.max(d));
    ((peak * 1.6).ceil() as usize).max(2)
}

/// One router run of the search before it is logged: the verdict and its
/// row of the probe table.
type Probed = (Result<RouteResult, Unroutable>, WidthProbe);

/// Routes one probe and describes it. `cancel` is given to a speculative
/// probe only (see [`Speculation`]): it marks the span `overlapped` and
/// lets the search stop the run.
fn run_probe(
    netlist: &ParNetlist,
    placement: &Placement,
    graph: &RouteGraph,
    seed: Option<Vec<Vec<u32>>>,
    confirm: bool,
    cancel: Option<&AtomicBool>,
) -> Probed {
    let warm_nets = seed
        .as_ref()
        .map(|s| s.iter().filter(|t| !t.is_empty()).count())
        .unwrap_or(0);
    let mut probe_span = trace::span("par.probe");
    probe_span.arg("width", graph.width);
    probe_span.arg("warm_nets", warm_nets);
    probe_span.arg("confirm", confirm);
    probe_span.arg("overlapped", cancel.is_some());
    let r = route_core(netlist, placement, graph, seed, cancel);
    let (success, iterations, ripups) = match &r {
        Ok(res) => (true, res.iterations, res.ripups),
        Err(e) => (false, e.iterations, e.ripups),
    };
    probe_span.arg("success", success);
    probe_span.arg("iterations", iterations);
    probe_span.arg("ripups", ripups);
    if let Err(e) = &r {
        // What `fail_advance` in `search` sharpens `lo` from.
        probe_span.arg("worst_cut_overuse", e.worst_cut_overuse);
    }
    if cancel.is_some_and(|c| c.load(Ordering::Relaxed)) {
        // The search let go of this probe; the row below is never read.
        probe_span.arg("cancelled", true);
    }
    drop(probe_span);
    let row = WidthProbe {
        width: graph.width,
        success,
        iterations,
        ripups,
        warm_nets,
        confirm,
    };
    (r, row)
}

/// A probe of the main sequence: routed on the calling thread and logged.
fn probe(
    netlist: &ParNetlist,
    placement: &Placement,
    graph: &RouteGraph,
    seed: Option<Vec<Vec<u32>>>,
    probes: &mut Vec<WidthProbe>,
) -> Result<RouteResult, Unroutable> {
    let (r, row) = run_probe(netlist, placement, graph, seed, false, None);
    probes.push(row);
    r
}

/// The routing graphs of one search: each width is built once and shared
/// between the main sequence and the speculative probes.
struct Graphs {
    arch: FabricArch,
    built: Vec<Arc<RouteGraph>>,
}

impl Graphs {
    fn at(&mut self, width: usize) -> Arc<RouteGraph> {
        if let Some(g) = self.built.iter().find(|g| g.width == width) {
            return Arc::clone(g);
        }
        let g = Arc::new(RouteGraph::build(self.arch, width));
        self.built.push(Arc::clone(&g));
        g
    }
}

/// The narrowest successful probe so far — one value, so the width, the
/// trees and the graph whose ids they hold cannot come apart.
struct Best {
    width: usize,
    result: RouteResult,
    graph: Arc<RouteGraph>,
}

/// Raises its flag when dropped: letting go of a speculative probe is
/// what cancels it.
struct CancelOnDrop(Arc<AtomicBool>);

impl Drop for CancelOnDrop {
    fn drop(&mut self) {
        // Relaxed: the flag publishes no data (`route_core` only stops).
        self.0.store(true, Ordering::Relaxed);
    }
}

/// One cold probe in flight beside the main sequence.
struct Speculated<'scope> {
    width: usize,
    handle: ScopedJoinHandle<'scope, Probed>,
    _cancel: CancelOnDrop,
}

/// Cold probes routed **beside** the search's main sequence, each on a
/// scoped thread of its own.
///
/// A cold probe at width `w` is a pure function of `(netlist, placement,
/// w)`, so computing it early changes nothing but the wall clock: the
/// confirmation loop [`Speculation::take`]s the verdict for its `W−1` if
/// one is in flight and routes it inline otherwise. Which widths are in
/// flight is [`Speculation::steer`]'s business and can only cost or save
/// time — a probe that is let go is dropped unlogged, so the probe table
/// does not depend on the thread count.
struct Speculation<'scope, 'env> {
    scope: &'scope Scope<'scope, 'env>,
    netlist: &'env ParNetlist,
    placement: &'env Placement,
    /// Most probes in flight at once (`threads − 1`; 0 = never speculate).
    slots: usize,
    running: Vec<Speculated<'scope>>,
}

impl<'scope, 'env> Speculation<'scope, 'env> {
    /// Brings the probes in flight to `wanted` (priority order) followed
    /// by the earlier ones that are still `possible` — i.e. could yet be
    /// the final `W−1` — cut to the slot count: whatever falls off is
    /// cancelled, and the wanted widths not yet running are started.
    fn steer(&mut self, wanted: &[usize], possible: impl Fn(usize) -> bool, graphs: &mut Graphs) {
        let mut keep: Vec<usize> = wanted.to_vec();
        for s in &self.running {
            if possible(s.width) && !keep.contains(&s.width) {
                keep.push(s.width);
            }
        }
        keep.truncate(self.slots);
        self.running.retain(|s| keep.contains(&s.width));
        for &width in wanted {
            if keep.contains(&width) && !self.running.iter().any(|s| s.width == width) {
                let graph = graphs.at(width);
                let flag = Arc::new(AtomicBool::new(false));
                let _cancel = CancelOnDrop(Arc::clone(&flag));
                let (netlist, placement) = (self.netlist, self.placement);
                let handle = self
                    .scope
                    .spawn(move || run_probe(netlist, placement, &graph, None, true, Some(&flag)));
                self.running.push(Speculated {
                    width,
                    handle,
                    _cancel,
                });
            }
        }
    }

    /// Waits for the probe in flight at `width`, if there is one.
    fn take(&mut self, width: usize) -> Option<Probed> {
        let i = self.running.iter().position(|s| s.width == width)?;
        let spec = self.running.remove(i);
        let probed = spec.handle.join().expect("speculative probe panicked");
        // `spec._cancel` drops here, after the join: nothing left to stop.
        Some(probed)
    }
}

/// Translates `trees` (routed on `old`) into `new`'s id space. A net whose
/// tree loses a node (track beyond the new width) or whose translated node
/// set no longer connects its [`terminals`] in `new` comes back empty —
/// the router reroutes it from scratch.
fn translate_trees(
    netlist: &ParNetlist,
    placement: &Placement,
    old: &RouteGraph,
    new: &RouteGraph,
    trees: &[Vec<u32>],
) -> Vec<Vec<u32>> {
    // Translating between different fabrics would silently produce
    // garbage seeds; cheap enough to check in release builds.
    assert_eq!(
        old.arch, new.arch,
        "warm-start translation requires the same fabric"
    );
    let mut reach: FxHashSet<u32> = FxHashSet::default();
    let mut queue: Vec<u32> = Vec::new();
    terminals(netlist, placement, new)
        .iter()
        .zip(trees)
        .map(|(net, tree)| {
            let mut t = Vec::with_capacity(tree.len());
            for &n in tree {
                match new.translate_from(old, n) {
                    Some(m) => t.push(m),
                    None => return Vec::new(),
                }
            }
            t.sort_unstable();
            // Connectivity audit in the new graph: every sink must be
            // reachable from a used source through the translated set.
            let set: FxHashSet<u32> = t.iter().copied().collect();
            reach.clear();
            queue.clear();
            for &s in &net.sources {
                if set.contains(&s) && reach.insert(s) {
                    queue.push(s);
                }
            }
            while let Some(n) = queue.pop() {
                for &e in new.edges(n) {
                    if set.contains(&e) && reach.insert(e) {
                        queue.push(e);
                    }
                }
            }
            if net.sinks.iter().all(|s| reach.contains(s)) {
                // Keep only the source-reachable subset. Switchbox adjacency
                // depends on the channel width, so a branch that was connected
                // in `old` can come apart in `new` even when every node
                // translates; such stranded nodes never accrue overuse, so the
                // router would carry them untouched into the final tree and
                // fail the route audit. The BFS above already computed the
                // reachable set, and it covers every sink.
                t.retain(|n| reach.contains(n));
                t
            } else {
                Vec::new()
            }
        })
        .collect()
}

/// The cold reference scan: linear from `opts.min_width`, no bound, no
/// warm starts. Every verdict below the minimum is cold already, so the
/// scan certifies itself.
pub(crate) fn reference(
    netlist: &ParNetlist,
    placement: &Placement,
    arch: FabricArch,
    opts: &EngineOptions,
) -> Option<WidthSearch> {
    let mut probes = Vec::new();
    for w in opts.min_width..=opts.max_width {
        let graph = RouteGraph::build(arch, w);
        if let Ok(r) = probe(netlist, placement, &graph, None, &mut probes) {
            let certificate = if w > opts.min_width {
                WidthCertificate::ColdFailure
            } else {
                WidthCertificate::Floor
            };
            return Some(WidthSearch {
                min_width: w,
                result: r,
                probes,
                lower_bound: opts.min_width,
                overuse_lo: 0,
                certificate,
            });
        }
    }
    None
}

/// Runs the width search: doubling + binary with warm-started probes,
/// then the cold confirmation of the final `W−1` failure — which, with
/// `threads ≥ 2`, has usually been routing beside the binary phase
/// already ([`Speculation`]). A router run is single-threaded, so
/// `threads` is the main sequence plus the speculation slots and nothing
/// else.
pub(crate) fn search(
    netlist: &ParNetlist,
    placement: &Placement,
    arch: FabricArch,
    opts: &EngineOptions,
    threads: usize,
) -> Option<WidthSearch> {
    let mut probes = Vec::new();
    let lower_bound = channel_width_lower_bound(netlist, placement, arch);
    let estimate = channel_width_estimate(netlist, placement, arch);
    let mut search_span = trace::span("par.width_search");
    search_span.arg("lower_bound", lower_bound);
    search_span.arg("estimate", estimate);

    // Overuse-sharpened `lo` advances. A *failed* cold-equivalent probe at
    // `w` reports its worst cut's residual overuse; spreading that excess
    // over the cut's `2s+1`-wire separator says widths below
    // `w + ⌈overuse/sep⌉` are hopeless too, so the search skips them
    // instead of grinding a near-cold probe at each. A *successful* probe
    // reports its worst cut's used-wire count; 90 % of `used/sep` (damped
    // — detours inflate usage) floors how low the binary phase bothers
    // descending. Neither rule is proof: the certification loop still
    // probes the final `W−1` cold and adopts anything narrower that
    // succeeds, so a too-aggressive advance costs extra confirmation
    // probes, never a wrong minimum.
    let sep = RouteGraph::separator_per_track(arch);
    let mut overuse_lo = 0usize;
    let fail_advance = |w: usize, e: &Unroutable, lo: &mut usize, overuse_lo: &mut usize| {
        let adv = e.worst_cut_overuse.div_ceil(sep);
        if adv > 1 {
            *overuse_lo = (*overuse_lo).max(w + adv);
        }
        *lo = (*lo).max(w + adv.max(1));
    };

    // Doubling phase: find a routable upper end. Probes below the sound
    // bound are pointless; the congestion estimate picks the start so the
    // hopeless cold widths are (usually) never ground through. The
    // minimum itself is still established by the binary phase, which
    // searches all the way down to `opts.min_width`.
    let mut graphs = Graphs {
        arch,
        built: Vec::new(),
    };
    let mut lo = opts.min_width.max(lower_bound);
    if lo > opts.max_width {
        // The floor or the sound bound lies above the ceiling: nothing in
        // scope can route, and probing `lo` would exceed the ceiling.
        return None;
    }
    let mut hi = lo.max(estimate.min(opts.max_width));
    let mut best = loop {
        let graph = graphs.at(hi);
        match probe(netlist, placement, &graph, None, &mut probes) {
            Ok(result) => {
                break Best {
                    width: hi,
                    result,
                    graph,
                }
            }
            Err(e) => {
                fail_advance(hi, &e, &mut lo, &mut overuse_lo);
                if hi >= opts.max_width {
                    return None;
                }
                hi = (hi * 2).min(opts.max_width);
            }
        }
    };

    let certificate = std::thread::scope(|scope| {
        let mut spec = Speculation {
            scope,
            netlist,
            placement,
            slots: threads.saturating_sub(1),
            running: Vec::new(),
        };

        // Binary search in (lo, best.width); each probe seeds from the
        // nearest successful width's trees, and each verdict sharpens `lo`
        // from its residual cut pressure.
        loop {
            let floor_est = best.result.worst_cut_used * 9 / 10 / sep;
            lo = lo.max(floor_est.min(best.width));
            // Only a width in [lo − 1, best.width) can still be the final
            // `W−1`: graphs and speculative probes outside it are let go
            // (a graph `best` or a running probe holds lives on with it).
            let (lo_now, best_w) = (lo, best.width);
            let possible = move |w: usize| w < best_w && w + 1 >= lo_now;
            graphs.built.retain(|g| possible(g.width));
            if lo >= best.width {
                spec.steer(&[], possible, &mut graphs);
                break;
            }
            let mid = (lo + best.width) / 2;
            let graph = graphs.at(mid);
            let seed = translate_trees(netlist, placement, &best.graph, &graph, &best.result.trees);
            // The cold verdicts worth routing beside this probe, most
            // wanted first: `lo − 1` once it has failed warm — every
            // search that ends at `best.width == lo` needs exactly that
            // one, and it has a head start — then `mid` itself, in case
            // this probe is the warm failure.
            let mut wanted = Vec::with_capacity(2);
            if probes
                .iter()
                .any(|p| p.width + 1 == lo && !p.success && p.warm_nets > 0)
            {
                wanted.push(lo - 1);
            }
            if seed.iter().any(|t| !t.is_empty()) {
                wanted.push(mid);
            }
            spec.steer(&wanted, possible, &mut graphs);
            match probe(netlist, placement, &graph, Some(seed), &mut probes) {
                Ok(result) => {
                    best = Best {
                        width: mid,
                        result,
                        graph,
                    }
                }
                Err(e) => fail_advance(mid, &e, &mut lo, &mut overuse_lo),
            }
        }

        // Cold confirmation of the final W−1 failure: the binary phase may
        // have taken a *warm* probe's failure at face value (de-bias makes
        // a fabricated failure unlikely, not impossible). Unless the
        // floor, the sound lower bound, or an existing cold failure
        // already certifies the verdict, take the cold probe of W−1 that
        // ran beside the search, or route it now. Should it succeed, adopt
        // the narrower result and keep certifying downward — the reported
        // minimum is always the certified one. Wherever the probe ran, it
        // is logged here, so the table reads the same at any thread count.
        loop {
            if best.width <= opts.min_width {
                break WidthCertificate::Floor;
            }
            let fail_w = best.width - 1;
            if fail_w < lower_bound {
                break WidthCertificate::LowerBound;
            }
            if probes
                .iter()
                .any(|p| p.width == fail_w && !p.success && p.warm_nets == 0)
            {
                break WidthCertificate::ColdFailure;
            }
            let graph = graphs.at(fail_w);
            let (verdict, row) = spec
                .take(fail_w)
                .unwrap_or_else(|| run_probe(netlist, placement, &graph, None, true, None));
            probes.push(row);
            match verdict {
                Err(_) => break WidthCertificate::ColdFailure,
                Ok(result) => {
                    best = Best {
                        width: fail_w,
                        result,
                        graph,
                    }
                }
            }
        }
        // Probes still in flight are dropped — cancelled — with `spec`.
    });
    search_span.arg("min_width", best.width);
    search_span.arg("probes", probes.len());
    Some(WidthSearch {
        min_width: best.width,
        result: best.result,
        probes,
        lower_bound,
        overuse_lo,
        certificate,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A probe the search lets go of never comes back: `take` finds
    /// nothing to log, and only the wanted width is left in flight.
    #[test]
    fn a_speculation_that_is_let_go_is_never_taken() {
        let nl = crate::incr::tests::mul5_conventional();
        let arch = FabricArch::sized_for(nl.logic_count(), nl.io_count());
        let placement = crate::tplace::place(&nl, arch, 1);
        std::thread::scope(|scope| {
            let mut graphs = Graphs {
                arch,
                built: Vec::new(),
            };
            let mut spec = Speculation {
                scope,
                netlist: &nl,
                placement: &placement,
                slots: 1,
                running: Vec::new(),
            };
            // Width 2 is hopeless (a full `MAX_ITERS` grind); width 7
            // routes. The more wanted width takes the only slot.
            spec.steer(&[2], |_| true, &mut graphs);
            spec.steer(&[7, 2], |_| true, &mut graphs);
            assert_eq!(
                spec.running.iter().map(|s| s.width).collect::<Vec<_>>(),
                [7]
            );
            assert!(
                spec.take(2).is_none(),
                "a cancelled probe must not reach the log"
            );
            let (verdict, row) = spec.take(7).expect("in flight");
            assert!(verdict.is_ok() && row.success && row.width == 7);
            assert!(row.confirm && row.warm_nets == 0);
            // No slot, no speculation; an impossible width is let go.
            spec.steer(&[2], |_| true, &mut graphs);
            spec.steer(&[], |w| w != 2, &mut graphs);
            assert!(spec.running.is_empty());
            spec.slots = 0;
            spec.steer(&[7], |_| true, &mut graphs);
            assert!(spec.running.is_empty());
        });
    }
}
