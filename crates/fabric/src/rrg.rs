//! Routing-resource graph (RRG) of the island-style fabric.
//!
//! Nodes are output pins, input pins and unit-length channel wires; edges
//! are the programmable switches: output connection blocks (OPIN → wire),
//! Wilton switch blocks (wire → wire, Fs = 3) and input connection blocks
//! (wire → IPIN). The TROUTE router negotiates congestion on this graph;
//! every configured edge corresponds to configuration bits that the DCS
//! crate maps into frames.
//!
//! A graph holds what the router reads and nothing else: CSR adjacency
//! (`offsets`, `targets`), each node's location for the A* heuristic, and
//! each node's kind as an 8-byte code that [`RouteGraph::kind`] decodes.
//! [`RouteGraph::build`] writes the CSR arrays directly, in two passes over
//! one switch enumeration (count, then fill), so it never holds a
//! per-node adjacency list.

use crate::arch::{FabricArch, Site};

/// Kind and coordinates of an RRG node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NodeKind {
    /// Output pin of a site.
    Opin(Site),
    /// Input pin `pin` of a site.
    Ipin(Site, u8),
    /// Horizontal wire in channel `y` (0..=size), tile `x` (0..size),
    /// track `t`.
    ChanX {
        /// Tile column.
        x: usize,
        /// Channel row.
        y: usize,
        /// Track index.
        t: usize,
    },
    /// Vertical wire in channel `x` (0..=size), tile `y` (0..size),
    /// track `t`.
    ChanY {
        /// Channel column.
        x: usize,
        /// Tile row.
        y: usize,
        /// Track index.
        t: usize,
    },
}

impl NodeKind {
    /// True for channel wires (the nodes counted as wirelength).
    pub fn is_wire(&self) -> bool {
        matches!(self, NodeKind::ChanX { .. } | NodeKind::ChanY { .. })
    }

    /// The wire's track index; `None` for pins. Static checkers use this
    /// to prove channel-width conformance of translated trees.
    pub fn track(&self) -> Option<usize> {
        match *self {
            NodeKind::ChanX { t, .. } | NodeKind::ChanY { t, .. } => Some(t),
            _ => None,
        }
    }

    /// Short stable class name (for violation messages and records).
    pub fn class(&self) -> &'static str {
        match self {
            NodeKind::Opin(_) => "opin",
            NodeKind::Ipin(..) => "ipin",
            NodeKind::ChanX { .. } => "chanx",
            NodeKind::ChanY { .. } => "chany",
        }
    }
}

/// A net's terminals in RRG node-id space: source opins and sink ipins.
#[derive(Debug, Clone, Default)]
pub struct NetTerminals {
    /// Source (output-pin) nodes; at least one must anchor the tree.
    pub sources: Vec<u32>,
    /// Sink (input-pin) nodes; every one must be reached.
    pub sinks: Vec<u32>,
}

/// The routing-resource graph (CSR adjacency).
pub struct RouteGraph {
    /// Architecture this graph was built for.
    pub arch: FabricArch,
    /// Channel width the graph was built with.
    pub width: usize,
    kinds: Vec<KindCode>,
    offsets: Vec<u32>,
    targets: Vec<u32>,
    locs: Vec<(f32, f32)>,
    // id range bases
    io_opin_base: usize,
    logic_ipin_base: usize,
    io_ipin_base: usize,
    chanx_base: usize,
    chany_base: usize,
}

impl RouteGraph {
    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.kinds.len()
    }

    /// Node kind.
    pub fn kind(&self, id: u32) -> NodeKind {
        self.kinds[id as usize].unpack()
    }

    /// Outgoing edges of a node.
    pub fn edges(&self, id: u32) -> &[u32] {
        let a = self.offsets[id as usize] as usize;
        let b = self.offsets[id as usize + 1] as usize;
        &self.targets[a..b]
    }

    /// True when the node has no outgoing edge (in this fabric: the input
    /// pins). A path search may skip such a node unless it is the sink it
    /// is looking for — expanding it reaches nothing.
    #[inline]
    pub fn is_dead_end(&self, id: u32) -> bool {
        self.offsets[id as usize] == self.offsets[id as usize + 1]
    }

    /// Output-pin node of a site.
    pub fn opin(&self, site: Site) -> u32 {
        match site {
            Site::Logic { x, y } => (y * self.arch.size + x) as u32,
            Site::Io { side, pos, slot } => {
                (self.io_opin_base
                    + ((side as usize * self.arch.size + pos) * self.arch.io_capacity + slot))
                    as u32
            }
        }
    }

    /// Input-pin node of a site.
    pub fn ipin(&self, site: Site, pin: usize) -> u32 {
        match site {
            Site::Logic { x, y } => {
                (self.logic_ipin_base + (y * self.arch.size + x) * self.arch.k + pin) as u32
            }
            Site::Io { side, pos, slot } => {
                assert_eq!(pin, 0, "I/O pads have one input pin");
                (self.io_ipin_base
                    + ((side as usize * self.arch.size + pos) * self.arch.io_capacity + slot))
                    as u32
            }
        }
    }

    /// Approximate location of a node, for the A* heuristic and
    /// bounding-box tests. Precomputed at build time — the router calls
    /// this on every edge expansion.
    #[inline]
    pub fn location_f32(&self, id: u32) -> (f32, f32) {
        self.locs[id as usize]
    }

    /// Translates a node id from `other` (same architecture, possibly
    /// different channel width) into this graph. Channel wires on tracks
    /// that do not exist at this width translate to `None`. Edges are NOT
    /// guaranteed to survive translation (connection-block and switch-box
    /// patterns are width-dependent), so callers re-validate connectivity.
    pub fn translate_from(&self, other: &RouteGraph, id: u32) -> Option<u32> {
        debug_assert_eq!(self.arch, other.arch);
        match other.kind(id) {
            NodeKind::Opin(site) => Some(self.opin(site)),
            NodeKind::Ipin(site, p) => Some(self.ipin(site, p as usize)),
            NodeKind::ChanX { x, y, t } => (t < self.width).then(|| self.chanx(x, y, t)),
            NodeKind::ChanY { x, y, t } => (t < self.width).then(|| self.chany(x, y, t)),
        }
    }

    /// Wires of one column/row cut's vertex separator **per track**: any
    /// path crossing the cut between adjacent tile columns must touch the
    /// crossing channel column (`s` wires per track) or one of the
    /// horizontal wires entering the cut's switch-block column (`s + 1`
    /// per track) — `2s + 1` total, matching the sound width lower bound.
    pub fn separator_per_track(arch: FabricArch) -> usize {
        2 * arch.size + 1
    }

    /// Per-cut routing pressure of a state: for every vertical and
    /// horizontal cut, tallies the separator's used wires and its residual
    /// overuse, returning the worst cut of each. The width search turns
    /// these into overuse-sharpened `lo` advances.
    pub fn cut_pressure(&self, state: &NodeState) -> CutPressure {
        let s = self.arch.size;
        if s < 2 {
            return CutPressure {
                max_used: 0,
                max_overuse: 0,
            };
        }
        // used/overuse per vertical cut k (x = k + 1.5) and horizontal cut
        // k (y = k + 1.5), k in 0..s-1.
        let mut used = vec![0usize; 2 * (s - 1)];
        let mut over = vec![0usize; 2 * (s - 1)];
        let mut add = |cut: usize, occ: u16| {
            if occ > 0 {
                used[cut] += 1;
                over[cut] += (occ - 1) as usize;
            }
        };
        for id in self.chanx_base as u32..self.node_count() as u32 {
            let occ = state.occ(id);
            if occ == 0 {
                continue;
            }
            match self.kind(id) {
                NodeKind::ChanX { x, y, .. } => {
                    // Horizontal wire at tile column x crosses vertical cut
                    // x-1; it lies on horizontal cut y-1's separator row.
                    if x >= 1 {
                        add(x - 1, occ);
                    }
                    if (1..s).contains(&y) {
                        add(s - 1 + (y - 1), occ);
                    }
                }
                NodeKind::ChanY { x, y, .. } => {
                    if (1..s).contains(&x) {
                        add(x - 1, occ);
                    }
                    if y >= 1 {
                        add(s - 1 + (y - 1), occ);
                    }
                }
                _ => {}
            }
        }
        CutPressure {
            max_used: used.iter().copied().max().unwrap_or(0),
            max_overuse: over.iter().copied().max().unwrap_or(0),
        }
    }

    /// Node id of the horizontal wire at tile column `x`, channel row `y`,
    /// track `t`.
    fn chanx(&self, x: usize, y: usize, t: usize) -> u32 {
        (self.chanx_base + (y * self.arch.size + x) * self.width + t) as u32
    }

    /// Node id of the vertical wire at channel column `x`, tile row `y`,
    /// track `t`.
    fn chany(&self, x: usize, y: usize, t: usize) -> u32 {
        (self.chany_base + (x * self.arch.size + y) * self.width + t) as u32
    }

    /// Builds the RRG for a channel width, straight into CSR form in two
    /// passes over the switches (`for_each_switch`): the first
    /// counts each node's out-degree, whose prefix sums are the offsets; the
    /// second writes each edge through a cursor per node. Both passes visit
    /// the switches in one order, so each node's edges keep the order the
    /// router's A* tie-breaks read. Node kinds are stored as 8-byte codes
    /// (`KindCode`) and decoded by [`RouteGraph::kind`].
    pub fn build(arch: FabricArch, width: usize) -> RouteGraph {
        assert!(width >= 2);
        let s = arch.size;
        let cap = arch.io_capacity;
        // Build-time invariant: every coordinate, track, slot and pin fits
        // its field of the kind code. Runs once per graph, so it is checked
        // in release builds too.
        assert!(
            s.max(width).max(cap) <= KindCode::FIELD_MAX && arch.k <= 1 << 8,
            "fabric too large for the RRG's node-kind code: size {s}, width {width}, \
             io_capacity {cap}, k {}",
            arch.k
        );
        let num_logic = s * s;
        let num_io = 4 * s * cap;

        let io_opin_base = num_logic;
        let logic_ipin_base = io_opin_base + num_io;
        let io_ipin_base = logic_ipin_base + num_logic * arch.k;
        let chanx_base = io_ipin_base + num_io;
        let num_chanx = s * (s + 1) * width;
        let chany_base = chanx_base + num_chanx;
        let num_chany = (s + 1) * s * width;
        let total = chany_base + num_chany;

        // Kinds, as codes.
        let mut kinds = Vec::with_capacity(total);
        let mut push = |k: NodeKind| kinds.push(KindCode::pack(k));
        for y in 0..s {
            for x in 0..s {
                push(NodeKind::Opin(Site::Logic { x, y }));
            }
        }
        for side in 0..4u8 {
            for pos in 0..s {
                for slot in 0..cap {
                    push(NodeKind::Opin(Site::Io { side, pos, slot }));
                }
            }
        }
        for y in 0..s {
            for x in 0..s {
                for p in 0..arch.k {
                    push(NodeKind::Ipin(Site::Logic { x, y }, p as u8));
                }
            }
        }
        for side in 0..4u8 {
            for pos in 0..s {
                for slot in 0..cap {
                    push(NodeKind::Ipin(Site::Io { side, pos, slot }, 0));
                }
            }
        }
        for y in 0..=s {
            for x in 0..s {
                for t in 0..width {
                    push(NodeKind::ChanX { x, y, t });
                }
            }
        }
        for x in 0..=s {
            for y in 0..s {
                for t in 0..width {
                    push(NodeKind::ChanY { x, y, t });
                }
            }
        }
        assert_eq!(
            kinds.len(),
            total,
            "RRG node enumeration out of sync with id bases"
        );

        let locs = kinds
            .iter()
            .map(|k| match k.unpack() {
                NodeKind::Opin(site) | NodeKind::Ipin(site, _) => {
                    let (x, y) = site.location(s);
                    (x as f32, y as f32)
                }
                NodeKind::ChanX { x, y, .. } => (x as f32 + 1.0, y as f32 + 0.5),
                NodeKind::ChanY { x, y, .. } => (x as f32 + 0.5, y as f32 + 1.0),
            })
            .collect();

        let mut g = RouteGraph {
            arch,
            width,
            kinds,
            offsets: Vec::new(),
            targets: Vec::new(),
            locs,
            io_opin_base,
            logic_ipin_base,
            io_ipin_base,
            chanx_base,
            chany_base,
        };
        // Pass 1: out-degrees, then their prefix sums.
        let mut offsets = vec![0u32; total + 1];
        g.for_each_switch(|a, _| offsets[a as usize + 1] += 1);
        let mut sum = 0;
        for o in &mut offsets {
            sum += *o;
            *o = sum;
        }
        // Pass 2: each edge into its node's next free slot.
        let mut cursor = offsets[..total].to_vec();
        let mut targets = vec![0u32; offsets[total] as usize];
        g.for_each_switch(|a, b| {
            let c = &mut cursor[a as usize];
            targets[*c as usize] = b;
            *c += 1;
        });
        g.offsets = offsets;
        g.targets = targets;
        g
    }

    /// Calls `connect(from, to)` once per switch of the graph, in one fixed
    /// order: output connection blocks, input connection blocks, then the
    /// switch blocks. Reads the id bases, `arch` and `width` only.
    fn for_each_switch(&self, mut connect: impl FnMut(u32, u32)) {
        let arch = self.arch;
        let (s, cap, width) = (arch.size, arch.io_capacity, self.width);
        let chanx = |x, y, t| self.chanx(x, y, t);
        let chany = |x, y, t| self.chany(x, y, t);

        // --- output connection blocks ---
        let fco = arch.fc_out_tracks(width);
        for y in 0..s {
            for x in 0..s {
                let o = (y * s + x) as u32;
                for i in 0..fco {
                    let t = (i * width / fco + x + y) % width;
                    connect(o, chanx(x, y, t));
                    connect(o, chanx(x, y + 1, t));
                    connect(o, chany(x, y, t));
                    connect(o, chany(x + 1, y, t));
                }
            }
        }
        // I/O pad outputs reach their adjacent perimeter channel.
        let fci = arch.fc_in_tracks(width);
        for side in 0..4u8 {
            for pos in 0..s {
                for slot in 0..cap {
                    let o = (self.io_opin_base + ((side as usize * s + pos) * cap + slot)) as u32;
                    for i in 0..fco.max(2) {
                        let t = (i * width / fco.max(2) + pos + slot) % width;
                        let wire = match side {
                            0 => chanx(pos, 0, t),
                            1 => chany(s, pos, t),
                            2 => chanx(pos, s, t),
                            _ => chany(0, pos, t),
                        };
                        connect(o, wire);
                    }
                }
            }
        }

        // --- input connection blocks ---
        for y in 0..s {
            for x in 0..s {
                for p in 0..arch.k {
                    let ipin = (self.logic_ipin_base + (y * s + x) * arch.k + p) as u32;
                    for i in 0..fci {
                        let t = (i * width / fci + x + y + p) % width;
                        connect(chanx(x, y, t), ipin);
                        connect(chanx(x, y + 1, t), ipin);
                        connect(chany(x, y, t), ipin);
                        connect(chany(x + 1, y, t), ipin);
                    }
                }
            }
        }
        for side in 0..4u8 {
            for pos in 0..s {
                for slot in 0..cap {
                    let ipin =
                        (self.io_ipin_base + ((side as usize * s + pos) * cap + slot)) as u32;
                    for i in 0..fci {
                        let t = (i * width / fci + pos + slot) % width;
                        let wire = match side {
                            0 => chanx(pos, 0, t),
                            1 => chany(s, pos, t),
                            2 => chanx(pos, s, t),
                            _ => chany(0, pos, t),
                        };
                        connect(wire, ipin);
                    }
                }
            }
        }

        // --- switch blocks (Wilton-style, Fs = 3) ---
        // Junction (jx, jy) joins: west chanx(jx-1, jy), east chanx(jx, jy),
        // south chany(jx, jy-1), north chany(jx, jy).
        for jy in 0..=s {
            for jx in 0..=s {
                let west = (jx > 0).then(|| jx - 1);
                let east = (jx < s).then_some(jx);
                let south = (jy > 0).then(|| jy - 1);
                let north = (jy < s).then_some(jy);
                for t in 0..width {
                    let flip = (t + 1) % width;
                    // straight X
                    if let (Some(w), Some(e)) = (west, east) {
                        connect(chanx(w, jy, t), chanx(e, jy, t));
                        connect(chanx(e, jy, t), chanx(w, jy, t));
                    }
                    // straight Y
                    if let (Some(so), Some(no)) = (south, north) {
                        connect(chany(jx, so, t), chany(jx, no, t));
                        connect(chany(jx, no, t), chany(jx, so, t));
                    }
                    // Turns: two parity-keeping and two parity-flipping
                    // pairs per junction, so no track-parity class can trap
                    // a route (a known pitfall of naive ±1 turn patterns).
                    if let (Some(w), Some(no)) = (west, north) {
                        connect(chanx(w, jy, t), chany(jx, no, t));
                        connect(chany(jx, no, t), chanx(w, jy, t));
                    }
                    if let (Some(w), Some(so)) = (west, south) {
                        connect(chanx(w, jy, t), chany(jx, so, flip));
                        connect(chany(jx, so, flip), chanx(w, jy, t));
                    }
                    if let (Some(e), Some(no)) = (east, north) {
                        connect(chanx(e, jy, t), chany(jx, no, flip));
                        connect(chany(jx, no, flip), chanx(e, jy, t));
                    }
                    if let (Some(e), Some(so)) = (east, south) {
                        connect(chanx(e, jy, t), chany(jx, so, t));
                        connect(chany(jx, so, t), chanx(e, jy, t));
                    }
                }
            }
        }
    }
}

/// A [`NodeKind`] in 8 bytes (the enum takes 32): a tag byte, the pin
/// byte, then three 16-bit fields — a logic site's `x, y`, a pad's
/// `side, pos, slot`, or a wire's `x, y, t`. [`RouteGraph::build`] asserts
/// that its fabric fits the fields. Decoding reads no graph field, so a
/// track code past a graph's `width` still decodes as that track.
#[derive(Clone, Copy, Debug, PartialEq)]
struct KindCode(u64);

impl KindCode {
    /// The largest value a 16-bit field holds.
    const FIELD_MAX: usize = u16::MAX as usize;

    fn pack(kind: NodeKind) -> KindCode {
        let site = |site: Site| match site {
            Site::Logic { x, y } => (0, x, y, 0),
            Site::Io { side, pos, slot } => (1, side as usize, pos, slot),
        };
        let (tag, pin, [a, b, c]) = match kind {
            NodeKind::Opin(s) => {
                let (io, a, b, c) = site(s);
                (io, 0, [a, b, c])
            }
            NodeKind::Ipin(s, pin) => {
                let (io, a, b, c) = site(s);
                (2 + io, pin, [a, b, c])
            }
            NodeKind::ChanX { x, y, t } => (4, 0, [x, y, t]),
            NodeKind::ChanY { x, y, t } => (5, 0, [x, y, t]),
        };
        debug_assert!(a.max(b).max(c) <= Self::FIELD_MAX, "{kind:?}");
        KindCode(tag | (pin as u64) << 8 | (a as u64) << 16 | (b as u64) << 32 | (c as u64) << 48)
    }

    fn unpack(self) -> NodeKind {
        let field = |shift: u32| (self.0 >> shift) as u16 as usize;
        let (a, b, c) = (field(16), field(32), field(48));
        let site = |io: u64| match io {
            0 => Site::Logic { x: a, y: b },
            _ => Site::Io {
                side: a as u8,
                pos: b,
                slot: c,
            },
        };
        match self.0 as u8 {
            tag @ (0 | 1) => NodeKind::Opin(site(tag as u64)),
            tag @ (2 | 3) => NodeKind::Ipin(site(tag as u64 - 2), (self.0 >> 8) as u8),
            4 => NodeKind::ChanX { x: a, y: b, t: c },
            _ => NodeKind::ChanY { x: a, y: b, t: c },
        }
    }
}

/// Worst-cut routing pressure over all vertical and horizontal cuts of a
/// fabric, as reported by [`RouteGraph::cut_pressure`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CutPressure {
    /// Most separator wires in use across any single cut.
    pub max_used: usize,
    /// Largest summed overuse (occupancy beyond capacity) across any cut.
    pub max_overuse: usize,
}

/// Mutable routing state over a [`RouteGraph`]: per-node occupancy and
/// PathFinder history, updated **in place** by the incremental router
/// instead of being rebuilt per iteration. Pins are capacity-unlimited;
/// only channel wires count toward occupancy and wirelength.
pub struct NodeState {
    occ: Vec<u16>,
    hist: Vec<f32>,
    wire: Vec<bool>,
}

impl NodeState {
    /// Fresh state (all free, no history) for a graph.
    pub fn new(graph: &RouteGraph) -> Self {
        let n = graph.node_count();
        Self {
            occ: vec![0; n],
            hist: vec![0.0; n],
            wire: (0..n as u32).map(|i| graph.kind(i).is_wire()).collect(),
        }
    }

    /// True when the node is a channel wire.
    #[inline]
    pub fn is_wire(&self, id: u32) -> bool {
        self.wire[id as usize]
    }

    /// Current occupancy of a node (0 for pins).
    #[inline]
    pub(crate) fn occ(&self, id: u32) -> u16 {
        self.occ[id as usize]
    }

    /// True when more than one net uses the wire.
    #[inline]
    pub fn overused(&self, id: u32) -> bool {
        self.occ[id as usize] > 1
    }

    /// Marks a wire as used by one more net (no-op on pins).
    #[inline]
    pub fn occupy(&mut self, id: u32) {
        if self.wire[id as usize] {
            self.occ[id as usize] += 1;
        }
    }

    /// Releases one net's use of a wire (no-op on pins).
    #[inline]
    pub fn release(&mut self, id: u32) {
        if self.wire[id as usize] {
            self.occ[id as usize] -= 1;
        }
    }

    /// PathFinder congestion cost of stepping onto `id` under the present
    /// congestion factor `pres_fac` (pins cost a small constant).
    #[inline]
    pub fn step_cost(&self, id: u32, pres_fac: f64) -> f32 {
        let i = id as usize;
        if self.wire[i] {
            (1.0 + pres_fac * self.occ[i] as f64 + self.hist[i] as f64) as f32
        } else {
            0.4
        }
    }

    /// End-of-iteration sweep: accrues history on overused wires and
    /// returns how many wires are overused.
    pub fn accrue_history(&mut self, acc_fac: f64) -> usize {
        let mut overused = 0;
        for i in 0..self.occ.len() {
            if self.occ[i] > 1 {
                overused += 1;
                self.hist[i] += (acc_fac * (self.occ[i] - 1) as f64) as f32;
            }
        }
        overused
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> RouteGraph {
        RouteGraph::build(FabricArch::paper_4lut(4), 6)
    }

    /// What [`adjacency_list_build`] returns: the arrays a graph is made of.
    struct Reference {
        kinds: Vec<NodeKind>,
        offsets: Vec<u32>,
        targets: Vec<u32>,
        locs: Vec<(f32, f32)>,
    }

    /// The graph as built before the two-pass CSR build: kinds enumerated
    /// into a `Vec<NodeKind>`, one adjacency list per node, then flattened.
    /// The oracle of `two_pass_build_equals_the_adjacency_list_build`.
    fn adjacency_list_build(arch: FabricArch, width: usize) -> Reference {
        assert!(width >= 2);
        let s = arch.size;
        let cap = arch.io_capacity;
        let num_logic = s * s;
        let num_io = 4 * s * cap;

        let io_opin_base = num_logic;
        let logic_ipin_base = io_opin_base + num_io;
        let io_ipin_base = logic_ipin_base + num_logic * arch.k;
        let chanx_base = io_ipin_base + num_io;
        let num_chanx = s * (s + 1) * width;
        let chany_base = chanx_base + num_chanx;
        let num_chany = (s + 1) * s * width;
        let total = chany_base + num_chany;

        // Kinds.
        let mut kinds = Vec::with_capacity(total);
        for y in 0..s {
            for x in 0..s {
                kinds.push(NodeKind::Opin(Site::Logic { x, y }));
            }
        }
        for side in 0..4u8 {
            for pos in 0..s {
                for slot in 0..cap {
                    kinds.push(NodeKind::Opin(Site::Io { side, pos, slot }));
                }
            }
        }
        for y in 0..s {
            for x in 0..s {
                for p in 0..arch.k {
                    kinds.push(NodeKind::Ipin(Site::Logic { x, y }, p as u8));
                }
            }
        }
        for side in 0..4u8 {
            for pos in 0..s {
                for slot in 0..cap {
                    kinds.push(NodeKind::Ipin(Site::Io { side, pos, slot }, 0));
                }
            }
        }
        for y in 0..=s {
            for x in 0..s {
                for t in 0..width {
                    kinds.push(NodeKind::ChanX { x, y, t });
                }
            }
        }
        for x in 0..=s {
            for y in 0..s {
                for t in 0..width {
                    kinds.push(NodeKind::ChanY { x, y, t });
                }
            }
        }
        // Build-time structural invariant: runs once per graph, so it is
        // checked in release builds too.
        assert_eq!(
            kinds.len(),
            total,
            "RRG node enumeration out of sync with id bases"
        );

        let chanx =
            |x: usize, y: usize, t: usize| -> u32 { (chanx_base + (y * s + x) * width + t) as u32 };
        let chany =
            |x: usize, y: usize, t: usize| -> u32 { (chany_base + (x * s + y) * width + t) as u32 };

        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); total];
        let mut connect = |a: u32, b: u32| adj[a as usize].push(b);

        // --- output connection blocks ---
        let fco = arch.fc_out_tracks(width);
        for y in 0..s {
            for x in 0..s {
                let o = (y * s + x) as u32;
                for i in 0..fco {
                    let t = (i * width / fco + x + y) % width;
                    connect(o, chanx(x, y, t));
                    connect(o, chanx(x, y + 1, t));
                    connect(o, chany(x, y, t));
                    connect(o, chany(x + 1, y, t));
                }
            }
        }
        // I/O pad outputs reach their adjacent perimeter channel.
        let fci = arch.fc_in_tracks(width);
        for side in 0..4u8 {
            for pos in 0..s {
                for slot in 0..cap {
                    let o = (io_opin_base + ((side as usize * s + pos) * cap + slot)) as u32;
                    for i in 0..fco.max(2) {
                        let t = (i * width / fco.max(2) + pos + slot) % width;
                        let wire = match side {
                            0 => chanx(pos, 0, t),
                            1 => chany(s, pos, t),
                            2 => chanx(pos, s, t),
                            _ => chany(0, pos, t),
                        };
                        connect(o, wire);
                    }
                }
            }
        }

        // --- input connection blocks ---
        for y in 0..s {
            for x in 0..s {
                for p in 0..arch.k {
                    let ipin = (logic_ipin_base + (y * s + x) * arch.k + p) as u32;
                    for i in 0..fci {
                        let t = (i * width / fci + x + y + p) % width;
                        connect(chanx(x, y, t), ipin);
                        connect(chanx(x, y + 1, t), ipin);
                        connect(chany(x, y, t), ipin);
                        connect(chany(x + 1, y, t), ipin);
                    }
                }
            }
        }
        for side in 0..4u8 {
            for pos in 0..s {
                for slot in 0..cap {
                    let ipin = (io_ipin_base + ((side as usize * s + pos) * cap + slot)) as u32;
                    for i in 0..fci {
                        let t = (i * width / fci + pos + slot) % width;
                        let wire = match side {
                            0 => chanx(pos, 0, t),
                            1 => chany(s, pos, t),
                            2 => chanx(pos, s, t),
                            _ => chany(0, pos, t),
                        };
                        connect(wire, ipin);
                    }
                }
            }
        }

        // --- switch blocks (Wilton-style, Fs = 3) ---
        // Junction (jx, jy) joins: west chanx(jx-1, jy), east chanx(jx, jy),
        // south chany(jx, jy-1), north chany(jx, jy).
        for jy in 0..=s {
            for jx in 0..=s {
                let west = (jx > 0).then(|| jx - 1);
                let east = (jx < s).then_some(jx);
                let south = (jy > 0).then(|| jy - 1);
                let north = (jy < s).then_some(jy);
                for t in 0..width {
                    let flip = (t + 1) % width;
                    // straight X
                    if let (Some(w), Some(e)) = (west, east) {
                        connect(chanx(w, jy, t), chanx(e, jy, t));
                        connect(chanx(e, jy, t), chanx(w, jy, t));
                    }
                    // straight Y
                    if let (Some(so), Some(no)) = (south, north) {
                        connect(chany(jx, so, t), chany(jx, no, t));
                        connect(chany(jx, no, t), chany(jx, so, t));
                    }
                    // Turns: two parity-keeping and two parity-flipping
                    // pairs per junction, so no track-parity class can trap
                    // a route (a known pitfall of naive ±1 turn patterns).
                    if let (Some(w), Some(no)) = (west, north) {
                        connect(chanx(w, jy, t), chany(jx, no, t));
                        connect(chany(jx, no, t), chanx(w, jy, t));
                    }
                    if let (Some(w), Some(so)) = (west, south) {
                        connect(chanx(w, jy, t), chany(jx, so, flip));
                        connect(chany(jx, so, flip), chanx(w, jy, t));
                    }
                    if let (Some(e), Some(no)) = (east, north) {
                        connect(chanx(e, jy, t), chany(jx, no, flip));
                        connect(chany(jx, no, flip), chanx(e, jy, t));
                    }
                    if let (Some(e), Some(so)) = (east, south) {
                        connect(chanx(e, jy, t), chany(jx, so, t));
                        connect(chany(jx, so, t), chanx(e, jy, t));
                    }
                }
            }
        }

        // CSR.
        let mut offsets = Vec::with_capacity(total + 1);
        offsets.push(0u32);
        let mut targets = Vec::new();
        for a in &adj {
            targets.extend_from_slice(a);
            offsets.push(targets.len() as u32);
        }

        let locs: Vec<(f32, f32)> = kinds
            .iter()
            .map(|k| match *k {
                NodeKind::Opin(site) | NodeKind::Ipin(site, _) => {
                    let (x, y) = site.location(s);
                    (x as f32, y as f32)
                }
                NodeKind::ChanX { x, y, .. } => (x as f32 + 1.0, y as f32 + 0.5),
                NodeKind::ChanY { x, y, .. } => (x as f32 + 0.5, y as f32 + 1.0),
            })
            .collect();

        Reference {
            kinds,
            offsets,
            targets,
            locs,
        }
    }

    #[test]
    fn two_pass_build_equals_the_adjacency_list_build() {
        for (size, io_capacity) in [(3, 1), (3, 2), (6, 1), (6, 2)] {
            let arch = FabricArch {
                io_capacity,
                ..FabricArch::paper_4lut(size)
            };
            for width in 2..=16 {
                let g = RouteGraph::build(arch, width);
                let r = adjacency_list_build(arch, width);
                let at = format!("size {size}, io_capacity {io_capacity}, width {width}");
                assert_eq!(g.offsets, r.offsets, "{at}");
                assert_eq!(g.targets, r.targets, "{at}");
                assert_eq!(g.locs, r.locs, "{at}");
                assert_eq!(g.node_count(), r.kinds.len(), "{at}");
                for (id, &kind) in r.kinds.iter().enumerate() {
                    assert_eq!(g.kind(id as u32), kind, "{at}, node {id}");
                }
            }
        }
    }

    #[test]
    fn kind_codes_round_trip_every_node_kind() {
        // Every kind a graph enumerates, at the paper's pad capacity and
        // one, comes back from its code unchanged, and no two share one.
        for io_capacity in [1, 2] {
            let arch = FabricArch {
                io_capacity,
                ..FabricArch::paper_4lut(5)
            };
            let kinds = adjacency_list_build(arch, 9).kinds;
            let mut codes = std::collections::HashSet::new();
            for &kind in &kinds {
                let code = KindCode::pack(kind);
                assert_eq!(code.unpack(), kind);
                assert!(codes.insert(code.0), "{kind:?} shares a code");
            }
        }
        // The widest fields a build accepts.
        let max = KindCode::FIELD_MAX;
        for kind in [
            NodeKind::ChanY {
                x: max,
                y: max,
                t: max,
            },
            NodeKind::Ipin(
                Site::Io {
                    side: 3,
                    pos: max,
                    slot: max,
                },
                255,
            ),
            NodeKind::Opin(Site::Logic { x: max, y: 0 }),
        ] {
            assert_eq!(KindCode::pack(kind).unpack(), kind);
        }
    }

    #[test]
    fn node_counts_add_up() {
        let g = small();
        let s = 4;
        let expect = s * s // logic opins
            + 4 * s * 2 // io opins
            + s * s * 4 // logic ipins
            + 4 * s * 2 // io ipins
            + s * (s + 1) * 6 // chanx
            + (s + 1) * s * 6; // chany
        assert_eq!(g.node_count(), expect);
    }

    #[test]
    fn pin_lookups_match_kinds() {
        let g = small();
        let site = Site::Logic { x: 2, y: 1 };
        let o = g.opin(site);
        assert_eq!(g.kind(o), NodeKind::Opin(site));
        let i = g.ipin(site, 3);
        assert_eq!(g.kind(i), NodeKind::Ipin(site, 3));
        let pad = Site::Io {
            side: 2,
            pos: 0,
            slot: 1,
        };
        assert_eq!(g.kind(g.opin(pad)), NodeKind::Opin(pad));
        assert_eq!(g.kind(g.ipin(pad, 0)), NodeKind::Ipin(pad, 0));
    }

    #[test]
    fn opins_reach_wires_and_wires_reach_ipins() {
        let g = small();
        let o = g.opin(Site::Logic { x: 1, y: 1 });
        assert!(!g.edges(o).is_empty());
        for &w in g.edges(o) {
            assert!(g.kind(w).is_wire(), "OPIN must drive wires");
        }
        let i = g.ipin(Site::Logic { x: 1, y: 1 }, 0);
        assert!(g.edges(i).is_empty(), "IPINs are sinks");
    }

    #[test]
    fn wires_have_switch_fanout() {
        let g = small();
        // Every wire should reach at least one other wire or pin.
        let mut wires = 0;
        for id in 0..g.node_count() as u32 {
            if g.kind(id).is_wire() {
                wires += 1;
                assert!(!g.edges(id).is_empty(), "dead-end wire {id}");
            }
        }
        assert_eq!(wires, 4 * 5 * 6 * 2);
    }

    #[test]
    fn full_connectivity_opin_to_any_ipin() {
        // BFS from one OPIN must reach every logic IPIN (fabric is fully
        // connected at this width).
        let g = small();
        let src = g.opin(Site::Logic { x: 0, y: 0 });
        let mut seen = vec![false; g.node_count()];
        let mut queue = std::collections::VecDeque::from([src]);
        seen[src as usize] = true;
        while let Some(n) = queue.pop_front() {
            for &e in g.edges(n) {
                if !seen[e as usize] {
                    seen[e as usize] = true;
                    queue.push_back(e);
                }
            }
        }
        for y in 0..4 {
            for x in 0..4 {
                for p in 0..4 {
                    let i = g.ipin(Site::Logic { x, y }, p);
                    assert!(seen[i as usize], "IPIN ({x},{y},{p}) unreachable");
                }
            }
        }
        let pad = g.ipin(
            Site::Io {
                side: 1,
                pos: 3,
                slot: 0,
            },
            0,
        );
        assert!(seen[pad as usize], "pad unreachable");
    }
}
