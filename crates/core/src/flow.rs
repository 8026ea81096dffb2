//! The VCGRA tool flow (Fig. 2, right-hand side): synthesis at PE
//! granularity, placement on the virtual grid and routing through the
//! virtual communication network. A mapping is placement and routes; each
//! PE's settings come from the graph ([`AppGraph::pe_settings`]), which is
//! what lets one compile serve every coefficient set of a structure.
//!
//! Because the basic programmable element is a whole PE, this flow works on
//! graphs of tens of nodes instead of tens of thousands of gates — the
//! source of the "orders of magnitude" compile-time advantage the paper
//! claims over the standard FPGA tool flow (quantified by the
//! `compile_time` bench in `xbench`).
//!
//! [`map_app`] is what a tenant waits for on every cold admission, and
//! nearly all of it is the annealer's move loop, so that loop does no
//! work a move does not need:
//!
//! * **Cost bookkeeping.** The cost is the `i64` sum of Manhattan edge
//!   lengths. A move changes only the edges incident to the moved node
//!   and to the node it displaces, so the loop prices it from those two
//!   nodes' adjacency rows and keeps a running total. Integer sums have
//!   no rounding: the incremental delta *is* `cost(after) − cost(before)`
//!   (an edge between the two swapped nodes keeps its length, a self-loop
//!   has none, a doubled operand is two adjacency entries), so
//!   accept/reject decisions, RNG consumption and the placement are those
//!   of re-summing every edge per move. One full re-sum after the loop
//!   asserts the total, in release builds too.
//! * **Flat rows.** Pricing a move is branch-free and has a fixed trip
//!   count. Every node's adjacency row has the width of the graph's
//!   largest degree, padded with the node's own index; a vacant cell
//!   holds a phantom node whose row names only itself; one mask drops
//!   padding, the phantom, self-loops and the edge between the swapped
//!   pair. A neighbour at cell `p` costs `dist[target][p] − dist[old][p]`
//!   from a per-compile `pes × pes` distance table, quadratic in the
//!   region (16 KiB at 64 PEs).
//! * **Acceptance table.** An uphill move of integer delta `d` is taken
//!   with probability `exp(-d / temp)`. Per temperature `d` takes a few
//!   dozen values over hundreds of proposals, so the threshold is
//!   computed on a delta's first occurrence and looked up afterwards —
//!   the same `f64` expression, hence the same threshold, drawn against
//!   only when `d > 0`.
//! * **Schedule.** The anneal starts at half the snake seed's *mean*
//!   edge length, cools ×0.8 per temperature and stops at 0.05, with
//!   `16 · max(pes, n)` proposals per temperature. A move's delta spans
//!   only the edges of the two nodes it swaps, so the start follows one
//!   edge, not the graph's *total* length: that grows with the graph
//!   while the deltas do not, and a larger graph would spend its first
//!   temperatures accepting nearly every move. A graph with no
//!   node-to-node edge has cost 0, starts at temperature 0, proposes
//!   nothing and keeps its seed. The oracle in the test module uses the
//!   same rule.
//! * **Routing scratch.** The negotiated-congestion router runs one
//!   shortest-path search per edge per round; all of them share one
//!   `PathSearch` (cost and predecessor arrays reset through the cells
//!   the last search reached, one heap), with the pop/relax order of a
//!   search on fresh arrays.
//!
//! **One oracle.** There is one served compile path. The form that
//! re-sums every edge per move and allocates per routed edge lives only
//! in this file's test module, where `anneal_matches_full_recompute_oracle`
//! requires placement, every path and the verdict to be equal to it.

use crate::app::{AppGraph, AppSource, GraphError};
use crate::grid::VcgraArch;
use logic::SplitMix64;

/// Errors the flow can report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlowError {
    /// The application needs more PEs than the grid offers.
    NotEnoughPes {
        /// PEs required by the application graph.
        needed: usize,
        /// PEs available in the grid.
        available: usize,
    },
    /// The application graph is malformed ([`AppGraph::validate`]).
    Graph(GraphError),
    /// The router could not legalize the design within its iteration budget.
    Unroutable {
        /// Channel segments still over capacity after the final iteration.
        overused_segments: usize,
    },
}

impl std::fmt::Display for FlowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlowError::NotEnoughPes { needed, available } => {
                write!(f, "application needs {needed} PEs, grid has {available}")
            }
            FlowError::Graph(e) => write!(f, "{e}"),
            FlowError::Unroutable { overused_segments } => {
                write!(
                    f,
                    "unroutable: {overused_segments} channel segments over capacity"
                )
            }
        }
    }
}

impl std::error::Error for FlowError {}

impl From<GraphError> for FlowError {
    fn from(e: GraphError) -> Self {
        FlowError::Graph(e)
    }
}

/// A routed dataflow edge: the channel segments it occupies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoutedEdge {
    /// Driving app node.
    pub from: usize,
    /// Consuming app node.
    pub to: usize,
    /// Path as a list of grid cells, starting at `from`'s PE and ending at
    /// `to`'s PE (adjacent pairs are channel segments).
    pub path: Vec<(usize, usize)>,
}

/// Result of mapping an application onto a VCGRA: where each node sits
/// and how its edges are routed. It holds no coefficient — node `i`'s PE
/// at `place[i]` is set to `AppGraph::pe_settings(i)` — so every tenant
/// of one structure can share one compile as it is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VcgraMapping {
    /// The target architecture.
    pub arch: VcgraArch,
    /// Grid cell of every app node.
    pub place: Vec<(usize, usize)>,
    /// Routed node-to-node edges.
    pub routes: Vec<RoutedEdge>,
    /// Total virtual wirelength (channel segments over all routes).
    pub virtual_wirelength: usize,
}

impl VcgraMapping {
    /// Settings register values (one 32-bit word per PE and VSB, as in the
    /// paper): a used PE's word holds its iteration counter (1 for every
    /// node, [`AppGraph::pe_settings`]), an unused PE's is 0; VSB words
    /// hold the packed turn-enable bits derived from the routes.
    pub fn settings_words(&self) -> Vec<u32> {
        let mut words = vec![0u32; self.arch.pe_count()];
        for &p in &self.place {
            words[cell_index(self.arch.cols, p)] = 1;
        }
        // VSB words: accumulate turn usage at interior corners.
        let vsb_cols = self.arch.cols - 1;
        let mut vsb = vec![0u32; self.arch.vsb_count()];
        for r in &self.routes {
            for w in r.path.windows(2) {
                let (a, b) = (w[0], w[1]);
                // The VSB at the corner between the two cells notes the
                // direction pair.
                let (rr, cc) = (a.0.min(b.0), a.1.min(b.1));
                if rr < self.arch.rows - 1 && cc < self.arch.cols - 1 {
                    let dir = if a.0 == b.0 { 1u32 } else { 2u32 };
                    vsb[rr * vsb_cols + cc] |= dir;
                }
            }
        }
        words.extend(vsb);
        words
    }
}

/// Maps an application graph onto the grid: greedy topological seed
/// placement, simulated-annealing refinement, negotiated channel routing.
///
/// The result is a pure function of `(graph structure, arch, seed)`:
/// coefficient values are never read, which is what lets a configuration
/// cache key on structure alone. A malformed graph ([`AppGraph::validate`])
/// is refused with a typed error before any placement work — `AppGraph`'s
/// fields are public, so it is not ruled out by construction.
pub fn map_app(app: &AppGraph, arch: VcgraArch, seed: u64) -> Result<VcgraMapping, FlowError> {
    app.validate()?;
    let n = app.nodes.len();
    if n > arch.pe_count() {
        return Err(FlowError::NotEnoughPes {
            needed: n,
            available: arch.pe_count(),
        });
    }

    let edges = dataflow_edges(app);
    let place = anneal(&edges, n, arch, seed);
    let paths = route(&edges, &place, arch)?;
    let virtual_wirelength = paths.iter().map(|p| p.len().saturating_sub(1)).sum();
    let routes = edges
        .iter()
        .zip(paths)
        .map(|(&(u, v), path)| RoutedEdge {
            from: u,
            to: v,
            path,
        })
        .collect();

    Ok(VcgraMapping {
        arch,
        place,
        routes,
        virtual_wirelength,
    })
}

/// Edges between placed nodes, `(producer, consumer)`, in operand order.
fn dataflow_edges(app: &AppGraph) -> Vec<(usize, usize)> {
    let mut edges = Vec::new();
    for (i, node) in app.nodes.iter().enumerate() {
        for s in [node.a, node.b] {
            if let AppSource::Node(j) = s {
                edges.push((j, i));
            }
        }
    }
    edges
}

/// Row-major index of a grid cell.
fn cell_index(cols: usize, p: (usize, usize)) -> usize {
    p.0 * cols + p.1
}

fn manhattan(a: (usize, usize), b: (usize, usize)) -> i64 {
    (a.0.abs_diff(b.0) + a.1.abs_diff(b.1)) as i64
}

/// Placement of `n >= 1` nodes: snake-order seed, then simulated
/// annealing over cell swaps (or moves to an empty cell), each move
/// priced exactly from the edges it touches (see the module docs).
fn anneal(edges: &[(usize, usize)], n: usize, arch: VcgraArch, seed: u64) -> Vec<(usize, usize)> {
    let pes = arch.pe_count();
    // Node `n` is the phantom that occupies every vacant cell.
    let phantom = n;
    // ELL adjacency: row `i` is `adj[i * dm..][..dm]`, the far endpoint
    // of every edge end at node `i` (a doubled operand is two entries, a
    // self-loop two entries naming `i`), padded with `i` itself. The
    // phantom's row is all `phantom`.
    let mut deg = vec![0usize; n + 1];
    for &(u, v) in edges {
        deg[u] += 1;
        deg[v] += 1;
    }
    let dm = deg.iter().copied().max().unwrap_or(0);
    let mut adj: Vec<usize> = (0..=n).flat_map(|i| std::iter::repeat_n(i, dm)).collect();
    deg.fill(0);
    for &(u, v) in edges {
        adj[u * dm + deg[u]] = v;
        deg[u] += 1;
        adj[v * dm + deg[v]] = u;
        deg[v] += 1;
    }
    // `dist[a * pes + b]`: Manhattan distance between row-major cells.
    let xy = |c: usize| (c / arch.cols, c % arch.cols);
    let dist: Vec<i32> = (0..pes)
        .flat_map(|a| (0..pes).map(move |b| manhattan(xy(a), xy(b)) as i32))
        .collect();

    // Seed: snake order over the grid follows the topological node order,
    // which keeps dataflow chains physically adjacent.
    let mut cells: Vec<usize> = Vec::with_capacity(pes);
    for r in 0..arch.rows {
        let row = (0..arch.cols).map(|c| r * arch.cols + c);
        if r % 2 == 0 {
            cells.extend(row);
        } else {
            cells.extend(row.rev());
        }
    }
    // `pos[phantom]` is the vacancy the phantom last took; its row is
    // masked out, so any cell does.
    let mut pos: Vec<usize> = cells[..n].iter().copied().chain([0]).collect();
    let mut occupant = vec![phantom; pes];
    for (i, &c) in pos[..n].iter().enumerate() {
        occupant[c] = i;
    }

    let cost = |pos: &[usize]| -> i64 {
        edges
            .iter()
            .map(|&(u, v)| i64::from(dist[pos[u] * pes + pos[v]]))
            .sum()
    };

    // SA refinement: swap two cells (or move to an empty one).
    let mut rng = SplitMix64::new(seed);
    let mut cur_cost = cost(&pos);
    // Half the seed's mean edge length: a move's delta spans a few
    // edges, not the whole graph. No edge, no cost and no proposal.
    let mut temp = cur_cost as f64 / edges.len().max(1) as f64 * 0.5;
    let moves_per_temp = 16 * pes.max(n);
    // `accept[d]` is the uphill acceptance threshold `exp(-d / temp)` at
    // the current temperature, computed on first use (NaN until then):
    // a delta takes a few dozen distinct values per temperature.
    let mut accept: Vec<f64> = Vec::new();
    while temp > 0.05 {
        accept.clear();
        for _ in 0..moves_per_temp {
            let i = rng.index(n);
            let target = cells[rng.index(pes)];
            let old = pos[i];
            if old == target {
                continue;
            }
            let j = occupant[target];
            // Node `i` goes `old -> target`, node `j` the other way. An
            // edge between the two keeps its length and a self-loop has
            // none, so the mask drops both, and with them the padding
            // and the phantom's whole row.
            let (dt, dold) = (&dist[target * pes..][..pes], &dist[old * pes..][..pes]);
            let mut delta = 0i32;
            for &o in &adj[i * dm..][..dm] {
                let p = pos[o];
                delta += i32::from((o != i) & (o != j)) * (dt[p] - dold[p]);
            }
            for &o in &adj[j * dm..][..dm] {
                let p = pos[o];
                delta -= i32::from((o != i) & (o != j)) * (dt[p] - dold[p]);
            }
            if delta > 0 {
                let d = delta as usize;
                if d >= accept.len() {
                    accept.resize(d + 1, f64::NAN);
                }
                if accept[d].is_nan() {
                    accept[d] = (-f64::from(delta) / temp).exp();
                }
                if rng.unit_f64() >= accept[d] {
                    continue;
                }
            }
            pos[i] = target;
            pos[j] = old;
            occupant[target] = i;
            occupant[old] = j;
            cur_cost += i64::from(delta);
        }
        temp *= 0.8;
    }
    // What re-summing per move gave for free, once per compile: the
    // running cost never drifted from the placement it describes.
    assert_eq!(cur_cost, cost(&pos), "incremental placement cost drifted");
    pos[..n].iter().map(|&c| xy(c)).collect()
}

/// Directed channel segment `a -> b` between 4-adjacent cells: four
/// direction slots per cell.
fn seg_id(cols: usize, a: (usize, usize), b: (usize, usize)) -> usize {
    let d = match (b.0 as i64 - a.0 as i64, b.1 as i64 - a.1 as i64) {
        (0, 1) => 0,
        (0, -1) => 1,
        (1, 0) => 2,
        (-1, 0) => 3,
        _ => unreachable!("non-adjacent cells"),
    };
    cell_index(cols, a) * 4 + d
}

/// Routing: negotiated congestion on the channel grid. Every edge is
/// (re)routed each round against the present usage and the accumulated
/// history until no segment is over capacity.
fn route(
    edges: &[(usize, usize)],
    place: &[(usize, usize)],
    arch: VcgraArch,
) -> Result<Vec<Vec<(usize, usize)>>, FlowError> {
    let num_segs = arch.pe_count() * 4;
    let mut usage = vec![0u32; num_segs];
    let mut history = vec![0f64; num_segs];
    let mut paths: Vec<Vec<(usize, usize)>> = vec![Vec::new(); edges.len()];
    let cap = arch.channel_capacity as u32;
    let mut search = PathSearch::new(arch);

    for iter in 0..24 {
        for (e, &(u, v)) in edges.iter().enumerate() {
            // Remove the previous path from usage.
            for w in paths[e].windows(2) {
                usage[seg_id(arch.cols, w[0], w[1])] -= 1;
            }
            search.shortest(place[u], place[v], &usage, &history, cap, &mut paths[e]);
            for w in paths[e].windows(2) {
                usage[seg_id(arch.cols, w[0], w[1])] += 1;
            }
        }
        let over: usize = usage.iter().filter(|&&u| u > cap).count();
        if over == 0 {
            break;
        }
        for (s, &u) in usage.iter().enumerate() {
            if u > cap {
                history[s] += (u - cap) as f64;
            }
        }
        if iter == 23 {
            return Err(FlowError::Unroutable {
                overused_segments: over,
            });
        }
    }
    Ok(paths)
}

/// Congestion-aware shortest path on the cell grid (uniform segment cost
/// plus present/history congestion penalties, PathFinder-style). One
/// instance serves every search of a `route` call: `best` and `prev` are
/// reset through the cells the previous search reached, the heap is
/// cleared, and the pop/relax order is that of a search on fresh arrays.
struct PathSearch {
    arch: VcgraArch,
    best: Vec<f64>,
    prev: Vec<Option<(usize, usize)>>,
    /// Cells whose `best`/`prev` the current search has written.
    reached: Vec<usize>,
    heap: std::collections::BinaryHeap<(std::cmp::Reverse<u64>, (usize, usize))>,
}

impl PathSearch {
    fn new(arch: VcgraArch) -> Self {
        PathSearch {
            arch,
            best: vec![f64::INFINITY; arch.pe_count()],
            prev: vec![None; arch.pe_count()],
            reached: Vec::new(),
            heap: std::collections::BinaryHeap::new(),
        }
    }

    /// Writes the cheapest `src -> dst` path into `path` (both ends
    /// included), replacing its contents.
    fn shortest(
        &mut self,
        src: (usize, usize),
        dst: (usize, usize),
        usage: &[u32],
        history: &[f64],
        cap: u32,
        path: &mut Vec<(usize, usize)>,
    ) {
        use std::cmp::Reverse;
        let VcgraArch { rows, cols, .. } = self.arch;
        let idx = |p| cell_index(cols, p);
        for cell in self.reached.drain(..) {
            self.best[cell] = f64::INFINITY;
            self.prev[cell] = None;
        }
        self.heap.clear();
        self.best[idx(src)] = 0.0;
        self.reached.push(idx(src));
        self.heap.push((Reverse(0), src));
        while let Some((Reverse(d_fixed), cell)) = self.heap.pop() {
            let d = d_fixed as f64 / 1024.0;
            if cell == dst {
                break;
            }
            if d > self.best[idx(cell)] + 1e-9 {
                continue;
            }
            let (r, c) = cell;
            let neighbors = [
                (c + 1 < cols).then(|| (r, c + 1)),
                (c > 0).then(|| (r, c - 1)),
                (r + 1 < rows).then(|| (r + 1, c)),
                (r > 0).then(|| (r - 1, c)),
            ];
            for nb in neighbors.into_iter().flatten() {
                let s = seg_id(cols, cell, nb);
                let congestion = if usage[s] >= cap {
                    3.0 * (usage[s] - cap + 1) as f64
                } else {
                    0.0
                };
                let nd = d + 1.0 + congestion + history[s];
                if nd + 1e-9 < self.best[idx(nb)] {
                    self.best[idx(nb)] = nd;
                    self.prev[idx(nb)] = Some(cell);
                    self.reached.push(idx(nb));
                    self.heap.push((Reverse((nd * 1024.0) as u64), nb));
                }
            }
        }
        // Reconstruct.
        path.clear();
        path.push(dst);
        let mut cur = dst;
        while cur != src {
            cur = self.prev[idx(cur)].expect("connected grid");
            path.push(cur);
        }
        path.reverse();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pe::PeMode;
    use softfloat::{FpFormat, FpValue};

    const F: FpFormat = FpFormat::PAPER;

    /// The oracle: placement and routing as `map_app` did them before the
    /// incremental annealer — every proposed move re-sums every edge and
    /// calls `exp`, every routed edge allocates fresh search arrays. Kept
    /// word for word (settings generation dropped) but for the start
    /// temperature, which follows the served schedule's per-edge rule;
    /// it lives only here, and the one served path is `map_app`.
    #[allow(clippy::type_complexity)]
    fn map_app_full_recompute(
        app: &AppGraph,
        arch: VcgraArch,
        seed: u64,
    ) -> Result<(Vec<(usize, usize)>, Vec<Vec<(usize, usize)>>), FlowError> {
        let n = app.nodes.len();
        if n > arch.pe_count() {
            return Err(FlowError::NotEnoughPes {
                needed: n,
                available: arch.pe_count(),
            });
        }

        let mut edges: Vec<(usize, usize)> = Vec::new();
        for (i, node) in app.nodes.iter().enumerate() {
            for s in [node.a, node.b] {
                if let AppSource::Node(j) = s {
                    edges.push((j, i));
                }
            }
        }

        let mut cells: Vec<(usize, usize)> = Vec::with_capacity(arch.pe_count());
        for r in 0..arch.rows {
            if r % 2 == 0 {
                for c in 0..arch.cols {
                    cells.push((r, c));
                }
            } else {
                for c in (0..arch.cols).rev() {
                    cells.push((r, c));
                }
            }
        }
        let mut place: Vec<(usize, usize)> = cells[..n].to_vec();
        let mut cell_of: Vec<Option<usize>> = vec![None; arch.pe_count()];
        let cell_index = |p: (usize, usize)| p.0 * arch.cols + p.1;
        for (i, &p) in place.iter().enumerate() {
            cell_of[cell_index(p)] = Some(i);
        }

        let dist = |a: (usize, usize), b: (usize, usize)| -> i64 {
            (a.0 as i64 - b.0 as i64).abs() + (a.1 as i64 - b.1 as i64).abs()
        };
        let cost = |place: &[(usize, usize)]| -> i64 {
            edges.iter().map(|&(u, v)| dist(place[u], place[v])).sum()
        };

        let mut rng = SplitMix64::new(seed);
        let mut cur_cost = cost(&place);
        let mut temp = cur_cost as f64 / edges.len().max(1) as f64 * 0.5;
        let moves_per_temp = 16 * arch.pe_count().max(n);
        while temp > 0.05 {
            for _ in 0..moves_per_temp {
                let i = rng.index(n);
                let target = cells[rng.index(cells.len())];
                let ti = cell_index(target);
                let old = place[i];
                if old == target {
                    continue;
                }
                let displaced = cell_of[ti];
                place[i] = target;
                if let Some(j) = displaced {
                    place[j] = old;
                }
                let new_cost = cost(&place);
                let delta = new_cost - cur_cost;
                if delta <= 0 || rng.unit_f64() < (-(delta as f64) / temp).exp() {
                    cell_of[ti] = Some(i);
                    cell_of[cell_index(old)] = displaced;
                    cur_cost = new_cost;
                } else {
                    place[i] = old;
                    if let Some(j) = displaced {
                        place[j] = target;
                    }
                }
            }
            temp *= 0.8;
        }

        let seg_id = |a: (usize, usize), b: (usize, usize)| -> usize {
            let d = match (b.0 as i64 - a.0 as i64, b.1 as i64 - a.1 as i64) {
                (0, 1) => 0,
                (0, -1) => 1,
                (1, 0) => 2,
                (-1, 0) => 3,
                _ => unreachable!("non-adjacent cells"),
            };
            (a.0 * arch.cols + a.1) * 4 + d
        };
        let num_segs = arch.pe_count() * 4;
        let mut usage = vec![0u32; num_segs];
        let mut history = vec![0f64; num_segs];
        let mut paths: Vec<Vec<(usize, usize)>> = vec![Vec::new(); edges.len()];
        let cap = arch.channel_capacity as u32;

        for iter in 0..24 {
            for (e, &(u, v)) in edges.iter().enumerate() {
                for w in paths[e].windows(2) {
                    usage[seg_id(w[0], w[1])] -= 1;
                }
                let (src, dst) = (place[u], place[v]);
                paths[e] = dijkstra_route_fresh(arch, src, dst, &usage, &history, cap);
                for w in paths[e].windows(2) {
                    usage[seg_id(w[0], w[1])] += 1;
                }
            }
            let over: usize = usage.iter().filter(|&&u| u > cap).count();
            if over == 0 {
                break;
            }
            for (s, &u) in usage.iter().enumerate() {
                if u > cap {
                    history[s] += (u - cap) as f64;
                }
            }
            if iter == 23 {
                return Err(FlowError::Unroutable {
                    overused_segments: over,
                });
            }
        }
        Ok((place, paths))
    }

    /// The oracle's router: fresh `best`/`prev`/heap per call, a `Vec` of
    /// neighbours per popped cell.
    fn dijkstra_route_fresh(
        arch: VcgraArch,
        src: (usize, usize),
        dst: (usize, usize),
        usage: &[u32],
        history: &[f64],
        cap: u32,
    ) -> Vec<(usize, usize)> {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let idx = |p: (usize, usize)| p.0 * arch.cols + p.1;
        let n = arch.pe_count();
        let mut best = vec![f64::INFINITY; n];
        let mut prev: Vec<Option<(usize, usize)>> = vec![None; n];
        let mut heap: BinaryHeap<(Reverse<u64>, (usize, usize))> = BinaryHeap::new();
        best[idx(src)] = 0.0;
        heap.push((Reverse(0), src));
        let seg_id = |a: (usize, usize), b: (usize, usize)| -> usize {
            let d = match (b.0 as i64 - a.0 as i64, b.1 as i64 - a.1 as i64) {
                (0, 1) => 0,
                (0, -1) => 1,
                (1, 0) => 2,
                (-1, 0) => 3,
                _ => unreachable!(),
            };
            (a.0 * arch.cols + a.1) * 4 + d
        };
        while let Some((Reverse(d_fixed), cell)) = heap.pop() {
            let d = d_fixed as f64 / 1024.0;
            if cell == dst {
                break;
            }
            if d > best[idx(cell)] + 1e-9 {
                continue;
            }
            let (r, c) = cell;
            let mut neighbors = Vec::with_capacity(4);
            if c + 1 < arch.cols {
                neighbors.push((r, c + 1));
            }
            if c > 0 {
                neighbors.push((r, c - 1));
            }
            if r + 1 < arch.rows {
                neighbors.push((r + 1, c));
            }
            if r > 0 {
                neighbors.push((r - 1, c));
            }
            for nb in neighbors {
                let s = seg_id(cell, nb);
                let congestion = if usage[s] >= cap {
                    3.0 * (usage[s] - cap + 1) as f64
                } else {
                    0.0
                };
                let nd = d + 1.0 + congestion + history[s];
                if nd + 1e-9 < best[idx(nb)] {
                    best[idx(nb)] = nd;
                    prev[idx(nb)] = Some(cell);
                    heap.push((Reverse((nd * 1024.0) as u64), nb));
                }
            }
        }
        let mut path = vec![dst];
        let mut cur = dst;
        while cur != src {
            cur = prev[idx(cur)].expect("connected grid");
            path.push(cur);
        }
        path.reverse();
        path
    }

    /// `k`-leaf reduction tree: pass-through leaves, balanced adder tree
    /// (2k − 1 nodes, no coefficients).
    fn tree(k: usize) -> AppGraph {
        let mut g = AppGraph::new(F, k);
        let leaves = (0..k)
            .map(|i| {
                let input = AppSource::External(i);
                g.add(PeMode::Pass, None, input, AppSource::Zero)
            })
            .collect();
        let root = g.reduce_add(leaves);
        g.mark_output(root);
        g
    }

    /// FIR, tree, MAC chain (2k − 1 nodes each) and a 2k-node cascade.
    fn shapes(k: usize) -> [(&'static str, AppGraph); 4] {
        let taps: Vec<f64> = (0..k).map(|i| 0.5 + i as f64).collect();
        [
            ("fir", AppGraph::dot_product(F, &taps)),
            ("tree", tree(k)),
            ("mac_chain", AppGraph::mac_chain(F, &taps)),
            ("cascade", AppGraph::scaling_cascade(F, &[1.5; 64][..2 * k])),
        ]
    }

    /// `r × 4` for `r` in 2…16, plus 4×16 and 8×8.
    fn regions() -> Vec<(usize, usize)> {
        (2..=16).map(|r| (r, 4)).chain([(4, 16), (8, 8)]).collect()
    }

    /// Requires `map_app` ≡ the oracle on one case: verdict, placement,
    /// every path, wirelength. Returns the verdict the two agree on.
    fn assert_matches_oracle(
        name: &str,
        app: &AppGraph,
        arch: VcgraArch,
        seed: u64,
    ) -> Result<(), FlowError> {
        let ctx = format!(
            "{name}, {} nodes on {}x{} cap {}, seed {seed}",
            app.nodes.len(),
            arch.rows,
            arch.cols,
            arch.channel_capacity
        );
        match (
            map_app(app, arch, seed),
            map_app_full_recompute(app, arch, seed),
        ) {
            (Ok(m), Ok((place, paths))) => {
                assert_eq!(m.place, place, "placement: {ctx}");
                assert_eq!(m.routes.len(), paths.len(), "edge count: {ctx}");
                for (r, path) in m.routes.iter().zip(&paths) {
                    assert_eq!(&r.path, path, "path {} -> {}: {ctx}", r.from, r.to);
                }
                let wl: usize = paths.iter().map(|p| p.len() - 1).sum();
                assert_eq!(m.virtual_wirelength, wl, "wirelength: {ctx}");
                Ok(())
            }
            (Err(got), Err(want)) => {
                assert_eq!(got, want, "error: {ctx}");
                Err(got)
            }
            (got, want) => panic!(
                "verdicts differ: {ctx}: map_app {:?}, oracle {:?}",
                got.map(|m| m.place),
                want.map(|(place, _)| place)
            ),
        }
    }

    /// Every shape at each `k` on every region at capacities 1 and 2.
    /// Capacity 1 makes the router negotiate for more than one round —
    /// an unroutable case for all 24 — which is what reuses the search
    /// scratch across rounds.
    fn sweep_against_oracle(ks: &[usize], seeds: &[u64]) {
        let (mut routed, mut too_big, mut unroutable) = (0, 0, 0);
        for &k in ks {
            for (name, app) in shapes(k) {
                for (rows, cols) in regions() {
                    for cap in [1, 2] {
                        for &seed in seeds {
                            let arch = VcgraArch::new(rows, cols, cap);
                            match assert_matches_oracle(name, &app, arch, seed) {
                                Ok(()) => routed += 1,
                                Err(FlowError::Unroutable { .. }) => unroutable += 1,
                                Err(_) => too_big += 1,
                            }
                        }
                    }
                }
            }
        }
        assert!(
            routed > 0 && too_big > 0 && unroutable > 0,
            "every verdict must occur: {routed} routed, {too_big} too big, {unroutable} unroutable"
        );
    }

    #[test]
    fn anneal_matches_full_recompute_oracle() {
        sweep_against_oracle(&[1, 2, 5, 12, 32], &[42]);
    }

    /// The long form: every size from 2 to 64 nodes, five seeds.
    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "minutes in the dev profile; `cargo test --release` runs it"
    )]
    fn anneal_matches_full_recompute_oracle_every_size() {
        let ks: Vec<usize> = (1..=32).collect();
        sweep_against_oracle(&ks, &[1, 2, 3, 42, 0xDEAD_BEEF]);
    }

    #[test]
    fn hand_edited_wiring_prices_like_the_oracle() {
        // The delta's two special cases, which no builder produces: a
        // doubled operand (two adjacency entries for one neighbour) and a
        // self-loop (an edge of length zero wherever the node sits).
        let mut app = AppGraph::dot_product(F, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let last = app.nodes.len() - 1;
        app.nodes[last].b = app.nodes[last].a;
        // `validate` keeps a self-loop from reaching `map_app`'s annealer,
        // so that one is priced at the annealer's own door.
        let mut looped = app.clone();
        looped.nodes[7].b = AppSource::Node(7);
        let edges = dataflow_edges(&looped);
        for (rows, cols) in [(3, 4), (4, 4), (8, 8)] {
            for cap in [1, 2] {
                for seed in [1, 42, 99] {
                    let arch = VcgraArch::new(rows, cols, cap);
                    let _ = assert_matches_oracle("hand-edited", &app, arch, seed);
                    let place = anneal(&edges, looped.nodes.len(), arch, seed);
                    let served = route(&edges, &place, arch).map(|paths| (place, paths));
                    assert_eq!(served, map_app_full_recompute(&looped, arch, seed));
                }
            }
        }
    }

    #[test]
    fn a_wide_fan_out_prices_like_the_oracle() {
        // A Pass node feeding six MULs: degree 7, more than twice the
        // widest row of any library or family graph.
        let c = Some(FpValue::from_f64(0.5, F));
        let mut app = AppGraph::new(F, 1);
        let head = app.add(PeMode::Mul, c, AppSource::External(0), AppSource::Zero);
        let fan = app.add(PeMode::Pass, None, AppSource::Node(head), AppSource::Zero);
        let muls = (0..6)
            .map(|_| app.add(PeMode::Mul, c, AppSource::Node(fan), AppSource::Zero))
            .collect();
        let root = app.reduce_add(muls);
        app.mark_output(root);
        let degree = |v| {
            dataflow_edges(&app)
                .iter()
                .filter(|&&(a, b)| a == v || b == v)
                .count()
        };
        assert_eq!(degree(fan), 7);
        for (rows, cols) in [(4, 4), (8, 8)] {
            for cap in [1, 2] {
                for seed in [1, 42, 99] {
                    let _ = assert_matches_oracle(
                        "fan-out",
                        &app,
                        VcgraArch::new(rows, cols, cap),
                        seed,
                    );
                }
            }
        }
    }

    #[test]
    fn a_mostly_vacant_grid_prices_like_the_oracle() {
        // Three nodes on 64 cells: most proposals land on a vacant cell.
        let app = AppGraph::dot_product(F, &[1.0, 2.0]);
        assert_eq!(app.nodes.len(), 3);
        for cap in [1, 2] {
            for seed in [1, 42, 99] {
                assert_matches_oracle("three nodes", &app, VcgraArch::new(8, 8, cap), seed)
                    .expect("three nodes route on 8x8");
            }
        }
    }

    /// `map_app` at seed 42 on every shape at each of five sizes, on
    /// every region at capacities 1 and 2: the served sweep the two pins
    /// below read.
    fn served_sweep() -> Vec<Result<VcgraMapping, FlowError>> {
        let mut served = Vec::new();
        for k in [1, 2, 5, 12, 32] {
            for (_, app) in shapes(k) {
                for (rows, cols) in regions() {
                    for cap in [1, 2] {
                        served.push(map_app(&app, VcgraArch::new(rows, cols, cap), 42));
                    }
                }
            }
        }
        served
    }

    /// `map_app`'s placement, every route path and every error verdict
    /// over the shape family, as one FNV-1a hash. The oracle above lives
    /// beside the loop it checks and could be edited with it; this
    /// constant moves only if a served placement, path or verdict does.
    #[test]
    fn served_placements_are_pinned() {
        let mut words: Vec<usize> = Vec::new();
        for served in served_sweep() {
            match served {
                Ok(m) => {
                    words.push(0);
                    words.extend(m.place.iter().flat_map(|&(r, c)| [r, c]));
                    for e in &m.routes {
                        words.extend([e.from, e.to, e.path.len()]);
                        words.extend(e.path.iter().flat_map(|&(r, c)| [r, c]));
                    }
                }
                Err(FlowError::NotEnoughPes { needed, available }) => {
                    words.extend([1, needed, available])
                }
                Err(FlowError::Unroutable { overused_segments }) => {
                    words.extend([2, overused_segments])
                }
                Err(FlowError::Graph(e)) => panic!("{e}"),
            }
        }
        let fnv1a = words
            .iter()
            .flat_map(|&w| (w as u64).to_le_bytes())
            .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
            });
        assert_eq!(
            fnv1a,
            0x00e7_522a_0bff_1be1,
            "hash {fnv1a:#018x} over {} words",
            words.len()
        );
    }

    /// The quality behind the hash: how many cases of the served sweep
    /// route, fail to route or do not fit, and the total virtual
    /// wirelength of those that route. The hash says a placement moved;
    /// this says whether the sweep got shorter or longer.
    #[test]
    fn served_wirelength_is_pinned() {
        let (mut routed, mut unroutable, mut too_small, mut wirelength) = (0, 0, 0, 0);
        for served in served_sweep() {
            match served {
                Ok(m) => {
                    routed += 1;
                    wirelength += m.virtual_wirelength;
                }
                Err(FlowError::Unroutable { .. }) => unroutable += 1,
                Err(FlowError::NotEnoughPes { .. }) => too_small += 1,
                Err(FlowError::Graph(e)) => panic!("{e}"),
            }
        }
        assert_eq!(
            (routed, unroutable, too_small, wirelength),
            (521, 7, 152, 5_545),
            "(routed, unroutable, too small, total wirelength)"
        );
    }

    #[test]
    fn a_graph_without_edges_keeps_its_seed() {
        // One node: no edge to price, so the anneal starts at temperature
        // zero, proposes nothing and leaves the snake seed's first cell.
        let app = AppGraph::scaling_cascade(F, &[1.5]);
        assert!(dataflow_edges(&app).is_empty());
        for (rows, cols) in [(2, 4), (8, 8)] {
            for seed in [1, 42, 99] {
                let arch = VcgraArch::new(rows, cols, 2);
                let m = map_app(&app, arch, seed).expect("one node maps");
                assert_eq!(m.place, [(0, 0)], "{rows}x{cols}, seed {seed}");
                assert!(m.routes.is_empty());
                let (place, paths) = map_app_full_recompute(&app, arch, seed).unwrap();
                assert_eq!((place, paths.len()), (m.place, 0));
            }
        }
    }

    #[test]
    fn mapping_ignores_coefficient_values() {
        // What a structure-keyed configuration cache relies on: the whole
        // mapping — placement, every route, wirelength and the settings
        // words — is the same for two coefficient sets, so one compile
        // serves both. Only the graphs' outputs differ.
        let a = AppGraph::dot_product(F, &[0.5, 0.25, 0.125, 1.0, 2.0, 4.0, 8.0]);
        let other: Vec<FpValue> = (0..7)
            .map(|i| FpValue::from_f64(-3.0 * i as f64 + 0.1, F))
            .collect();
        let b = a.with_coeffs(&other);
        for arch in [
            VcgraArch::new(4, 4, 1),
            VcgraArch::new(4, 4, 2),
            VcgraArch::new(8, 4, 2),
        ] {
            let (ma, mb) = (
                map_app(&a, arch, 42).unwrap(),
                map_app(&b, arch, 42).unwrap(),
            );
            assert_eq!(ma, mb);
            assert_eq!(ma.settings_words(), mb.settings_words());
        }
        let x: Vec<FpValue> = (0..7).map(|i| FpValue::from_f64(i as f64, F)).collect();
        assert_ne!(
            crate::sim::run_dataflow(&a, &x),
            crate::sim::run_dataflow(&b, &x),
            "the graphs are where the two filters differ"
        );
    }

    #[test]
    fn an_empty_graph_is_a_typed_error() {
        let err = map_app(&AppGraph::new(F, 1), VcgraArch::paper_4x4(), 1).unwrap_err();
        assert_eq!(err, FlowError::Graph(GraphError::Empty));
    }

    #[test]
    fn a_dangling_operand_is_a_typed_error() {
        // `AppGraph::add` refuses this; the public fields do not.
        let mut app = AppGraph::dot_product(F, &[1.0, 2.0, 3.0]);
        app.nodes[4].a = AppSource::Node(99);
        let err = map_app(&app, VcgraArch::paper_4x4(), 1).unwrap_err();
        assert_eq!(
            err,
            FlowError::Graph(GraphError::OperandNotEarlier {
                node: 4,
                operand: 99
            })
        );
        // So is a self reference, though it names a node the graph has.
        app.nodes[4].a = AppSource::Node(4);
        let err = map_app(&app, VcgraArch::paper_4x4(), 1).unwrap_err();
        assert_eq!(
            err,
            FlowError::Graph(GraphError::OperandNotEarlier {
                node: 4,
                operand: 4
            })
        );
    }

    #[test]
    fn small_kernel_maps_onto_4x4() {
        let app = AppGraph::dot_product(F, &[1.0, 2.0, 3.0, 4.0, 5.0]);
        let m = map_app(&app, VcgraArch::paper_4x4(), 42).expect("mappable");
        assert_eq!(m.place.len(), 9);
        // All placements distinct and in bounds.
        let mut seen = std::collections::HashSet::new();
        for &(r, c) in &m.place {
            assert!(r < 4 && c < 4);
            assert!(seen.insert((r, c)), "double occupancy at ({r},{c})");
        }
        assert!(m.virtual_wirelength > 0);
        // 8 node-to-node edges in a 9-node adder tree application.
        assert_eq!(m.routes.len(), 8);
    }

    #[test]
    fn too_big_graph_is_rejected() {
        let app = AppGraph::dot_product(F, &[1.0; 16]); // 16 muls + 15 adds
        let err = map_app(&app, VcgraArch::paper_4x4(), 1).unwrap_err();
        assert!(matches!(
            err,
            FlowError::NotEnoughPes {
                needed: 31,
                available: 16
            }
        ));
    }

    #[test]
    fn routes_are_contiguous_and_correct() {
        let app = AppGraph::mac_chain(F, &[0.5, 0.25, 0.125]);
        let m = map_app(&app, VcgraArch::paper_4x4(), 7).unwrap();
        for r in &m.routes {
            assert_eq!(r.path.first().copied(), Some(m.place[r.from]));
            assert_eq!(r.path.last().copied(), Some(m.place[r.to]));
            for w in r.path.windows(2) {
                let d =
                    (w[0].0 as i64 - w[1].0 as i64).abs() + (w[0].1 as i64 - w[1].1 as i64).abs();
                assert_eq!(d, 1, "path must step between adjacent cells");
            }
        }
    }

    #[test]
    fn settings_words_cover_pes_and_vsbs() {
        let app = AppGraph::dot_product(F, &[1.0, -1.0, 0.5]);
        let arch = VcgraArch::paper_4x4();
        let m = map_app(&app, arch, 3).unwrap();
        let words = m.settings_words();
        assert_eq!(words.len(), arch.settings_register_count());
    }

    #[test]
    fn placement_quality_chains_are_short() {
        // A 6-node chain on a 4x4 grid should place with near-minimal WL.
        let app = AppGraph::scaling_cascade(F, &[1.0; 6]);
        let m = map_app(&app, VcgraArch::paper_4x4(), 11).unwrap();
        assert!(
            m.virtual_wirelength <= 8,
            "chain of 5 edges should route in <= 8 segments, got {}",
            m.virtual_wirelength
        );
    }
}
