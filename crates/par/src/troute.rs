//! TROUTE: PathFinder-style negotiated-congestion routing with tunable
//! nets.
//!
//! Standard PathFinder: every net is repeatedly ripped up and rerouted
//! with costs that penalize present congestion (growing each iteration)
//! and accumulate history on persistently congested wires, until no wire
//! is shared by two different nets.
//!
//! The TROUTE twist: a **tunable net** has several candidate sources (the
//! TCON alternatives). All of them seed the same search, and everything
//! the net uses belongs to one occupancy bucket — alternatives legally
//! share wires because at most one of them is active for any parameter
//! value. This is what removes the paper's intra-/inter-connect from the
//! LUT budget at *zero* channel-width overhead.
//!
//! Since the `par-engine` rework the actual search loop lives in
//! `incr.rs` (incremental rip-up, bounding boxes, the wave order and
//! the PathFinder constants); this module keeps the router's public
//! types and [`terminals`], the one lift of nets into RRG node space. The
//! router routes those terminals, the width search's warm-start audit
//! checks a translated tree against them, and the `verify` crate's
//! route-tree pass — the one proof of a routing result, which callers
//! run — checks trees against them. One routing run on a prebuilt graph
//! is [`crate::ParEngine::route`].

use crate::netlist::ParNetlist;
use crate::tplace::Placement;
use fabric::rrg::{NetTerminals, RouteGraph};

/// Result of a successful routing run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteResult {
    /// Per net: the RRG nodes its route uses.
    pub trees: Vec<Vec<u32>>,
    /// Total wirelength: distinct channel wires in use.
    pub wirelength: usize,
    /// Wires used by tunable nets (the physical footprint of the TCONs).
    pub tunable_wirelength: usize,
    /// Configured switch count on tunable nets — the "TCON" figure at the
    /// physical level (edges entering used wires of tunable nets).
    pub tcon_switches: usize,
    /// PathFinder iterations used.
    pub iterations: usize,
    /// Net (re)route operations across all iterations — the router-effort
    /// figure the benches report next to wall time.
    pub ripups: usize,
    /// Disjoint-bbox waves the dirty nets were ordered into, across all
    /// iterations.
    pub waves: usize,
    /// Most separator wires in use across any fabric cut in the final
    /// state — feeds the width search's success-side `lo` advance.
    pub worst_cut_used: usize,
}

/// Routing failure: congestion never resolved, a net found no tree on the
/// whole fabric, or the run was cancelled (the router's three exits,
/// `incr.rs`).
#[derive(Debug, Clone, Copy)]
pub struct Unroutable {
    /// PathFinder iterations spent before giving up.
    pub iterations: usize,
    /// Net (re)route operations spent before giving up.
    pub ripups: usize,
    /// Largest summed residual overuse across any single fabric cut when
    /// the verdict was cold-equivalent (no frozen warm trees left); `0`
    /// otherwise. Dividing by the cut separator width gives the width
    /// search a per-failure `lo` advance sharper than `w + 1`.
    pub worst_cut_overuse: usize,
}

/// Terminal sets of every net, lifted into RRG node space: what the router
/// routes, the warm-start audit checks translated trees against, and the
/// `verify` crate's route-tree linter checks trees against. No other code
/// of the library asks the graph for a pin's node.
pub fn terminals(
    netlist: &ParNetlist,
    placement: &Placement,
    graph: &RouteGraph,
) -> Vec<NetTerminals> {
    netlist
        .nets
        .iter()
        .map(|n| NetTerminals {
            sources: n
                .sources
                .iter()
                .map(|&b| graph.opin(placement.site_of[b as usize]))
                .collect(),
            sinks: n
                .sinks
                .iter()
                .map(|&(b, p)| graph.ipin(placement.site_of[b as usize], p as usize))
                .collect(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{EngineOptions, ParEngine};
    use crate::netlist::{Block, BlockKind, Net, ParNetlist};
    use crate::tplace::place;
    use fabric::arch::FabricArch;

    fn route(nl: &ParNetlist, p: &Placement, g: &RouteGraph) -> Result<RouteResult, Unroutable> {
        ParEngine::new(EngineOptions::default()).route(nl, p, g)
    }

    #[test]
    fn impossible_width_reports_unroutable() {
        // Saturate a tiny fabric with many crossing nets at width 2.
        let mut blocks = vec![];
        let mut nets = vec![];
        for i in 0..6u32 {
            blocks.push(Block {
                name: format!("i{i}"),
                kind: BlockKind::InputPad,
            });
        }
        for i in 0..6u32 {
            blocks.push(Block {
                name: format!("l{i}"),
                kind: BlockKind::Logic,
            });
            // every input drives several LUT pins
            nets.push(Net {
                sources: vec![i],
                sinks: vec![(6 + i, 0), (6 + ((i + 1) % 6), 1), (6 + ((i + 2) % 6), 2)],
            });
        }
        let nl = ParNetlist { blocks, nets };
        let arch = FabricArch::paper_4lut(3);
        let p = place(&nl, arch, 2);
        let g = RouteGraph::build(arch, 2);
        // Width 2 may or may not fail; width 8 must succeed.
        let g8 = RouteGraph::build(arch, 8);
        assert!(route(&nl, &p, &g8).is_ok());
        let _ = route(&nl, &p, &g); // must not panic either way
    }
}
