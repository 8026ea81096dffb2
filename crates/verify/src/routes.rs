//! Pass 1b — the fabric route-tree linter.
//!
//! A routed net on the island-style fabric is a set of RRG node ids (its
//! *tree*). The linter proves, per net and across nets:
//!
//! * **node validity** — every id names a graph node, every wire's track
//!   fits the channel width;
//! * **connectivity + acyclicity** — a BFS from the net's source pins
//!   through the tree-induced subgraph reaches every sink *and* every tree
//!   node. The BFS order is a spanning-forest certificate rooted at the
//!   sources: every node hangs off a source through tree edges, so no
//!   disconnected component — and in particular no disconnected cycle —
//!   can hide in the set;
//! * **exclusive wire ownership** — no wire node appears in two nets'
//!   trees (pins are legitimately shared between a block's nets and are
//!   exempt, exactly as the router's occupancy accounting exempts them).
//!
//! The router never runs it: a caller lints a routing result through
//! [`crate::Verifier::verify_routes`], with the terminals
//! `par::troute::terminals` lifts into node space.

use crate::Violation;
pub use fabric::rrg::NetTerminals;
use fabric::rrg::RouteGraph;
use logic::fxhash::{FxHashMap, FxHashSet};

/// Runs every route-tree check; returns all violations found.
pub fn check_route_trees(
    graph: &RouteGraph,
    nets: &[NetTerminals],
    trees: &[Vec<u32>],
) -> Vec<Violation> {
    let mut out = Vec::new();
    if nets.len() != trees.len() {
        out.push(Violation::TreeCountMismatch {
            nets: nets.len(),
            trees: trees.len(),
        });
        return out;
    }

    let n_nodes = graph.node_count();
    let mut owner: FxHashMap<u32, usize> = FxHashMap::default();
    let mut set: FxHashSet<u32> = FxHashSet::default();
    let mut reach: FxHashSet<u32> = FxHashSet::default();
    let mut queue: Vec<u32> = Vec::new();

    for (i, (net, tree)) in nets.iter().zip(trees).enumerate() {
        set.clear();
        let mut valid = true;
        for &node in tree {
            if (node as usize) >= n_nodes {
                out.push(Violation::NodeOutOfRange {
                    net: i,
                    node,
                    nodes: n_nodes,
                });
                valid = false;
                continue;
            }
            if let Some(track) = graph.kind(node).track() {
                if track >= graph.width {
                    out.push(Violation::TrackOutOfRange {
                        net: i,
                        node,
                        track,
                        width: graph.width,
                    });
                    valid = false;
                }
            }
            set.insert(node);
        }
        if !valid {
            continue; // connectivity over invalid ids would be noise
        }

        // Exclusive wire ownership across nets.
        for &node in tree {
            if graph.kind(node).is_wire() {
                if let Some(&o) = owner.get(&node) {
                    out.push(Violation::WireConflict { node, nets: (o, i) });
                } else {
                    owner.insert(node, i);
                }
            }
        }

        // Spanning-forest certificate: BFS from the sources present in the
        // tree must cover every sink and every tree node.
        reach.clear();
        queue.clear();
        for &s in &net.sources {
            if set.contains(&s) && reach.insert(s) {
                queue.push(s);
            }
        }
        while let Some(node) = queue.pop() {
            for &e in graph.edges(node) {
                if set.contains(&e) && reach.insert(e) {
                    queue.push(e);
                }
            }
        }
        for &sink in &net.sinks {
            if !reach.contains(&sink) {
                out.push(Violation::SinkUnreached { net: i, sink });
            }
        }
        let mut stranded: Vec<u32> = tree
            .iter()
            .copied()
            .filter(|n| !reach.contains(n) && !net.sinks.contains(n))
            .collect();
        stranded.sort_unstable();
        for node in stranded {
            out.push(Violation::StrandedNode { net: i, node });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric::arch::FabricArch;

    /// A hand-built two-net scenario on a tiny graph, using real trees
    /// found by walking edges (no router dependency: verify must not
    /// depend on par).
    fn tiny() -> (RouteGraph, Vec<NetTerminals>, Vec<Vec<u32>>) {
        let graph = RouteGraph::build(FabricArch::paper_4lut(3), 4);
        // Net 0: first logic block's opin to its own ipin via BFS.
        let src = graph.opin(fabric::arch::Site::Logic { x: 0, y: 0 });
        let dst = graph.ipin(fabric::arch::Site::Logic { x: 2, y: 2 }, 0);
        let tree = bfs_path(&graph, src, dst);
        let nets = vec![NetTerminals {
            sources: vec![src],
            sinks: vec![dst],
        }];
        (graph, nets, vec![tree])
    }

    fn bfs_path(graph: &RouteGraph, src: u32, dst: u32) -> Vec<u32> {
        let mut prev: FxHashMap<u32, u32> = FxHashMap::default();
        let mut queue = std::collections::VecDeque::from([src]);
        prev.insert(src, src);
        while let Some(n) = queue.pop_front() {
            if n == dst {
                break;
            }
            for &e in graph.edges(n) {
                prev.entry(e).or_insert_with(|| {
                    queue.push_back(e);
                    n
                });
            }
        }
        let mut path = vec![dst];
        let mut cur = dst;
        while cur != src {
            cur = prev[&cur];
            path.push(cur);
        }
        path.sort_unstable();
        path
    }

    #[test]
    fn real_tree_is_clean() {
        let (graph, nets, trees) = tiny();
        assert!(check_route_trees(&graph, &nets, &trees).is_empty());
    }

    #[test]
    fn broken_tree_loses_its_sink() {
        let (graph, nets, mut trees) = tiny();
        // Drop a wire node from the path: the sink comes unreached and/or
        // the far side strands.
        let wire_pos = trees[0]
            .iter()
            .position(|&n| graph.kind(n).is_wire())
            .expect("path crosses a channel");
        trees[0].remove(wire_pos);
        let v = check_route_trees(&graph, &nets, &trees);
        assert!(
            v.iter().any(|x| matches!(
                x,
                Violation::SinkUnreached { .. } | Violation::StrandedNode { .. }
            )),
            "{v:?}"
        );
    }

    #[test]
    fn out_of_range_node_is_caught() {
        let (graph, nets, mut trees) = tiny();
        let huge = graph.node_count() as u32 + 5;
        trees[0].push(huge);
        let v = check_route_trees(&graph, &nets, &trees);
        assert!(
            v.iter()
                .any(|x| matches!(x, Violation::NodeOutOfRange { .. })),
            "{v:?}"
        );
    }
}
