//! Pass 1a — the overlay configuration linter.
//!
//! Takes a routed [`VcgraMapping`] together with the [`AppGraph`] it claims
//! to implement and statically proves, without executing anything:
//!
//! * **placement sanity** — every node placed, in bounds, one node per PE;
//! * **route integrity** — exactly the graph's dataflow edges are routed,
//!   every path is a contiguous *simple* path (adjacent cells, no revisits
//!   — per-path acyclicity) between the placed endpoints;
//! * **channel-width conformance** — no directed channel segment carries
//!   more paths than `arch.channel_capacity`.
//!
//! There is no settings pass: a mapping holds no PE settings. Node `i`'s
//! PE is set to `AppGraph::pe_settings(i)`, read from the graph itself, so
//! no second copy can disagree with it; `AppGraph::validate` checks every
//! coefficient's format, and `settings_words()` is sized by the
//! architecture.
//!
//! Frame addresses are not linted: for an in-bounds cell
//! `fabric::frames::FrameModel::for_grid` cannot address a frame outside
//! its space or a routing frame inside the settings plane, which the
//! frame model's own tests prove for every grid from 2×2 to 32×32.

use crate::Violation;
use std::collections::HashMap;
use vcgra::app::{AppGraph, AppSource};
use vcgra::flow::VcgraMapping;

/// Runs every configuration check; returns all violations found.
pub fn check_mapping(app: &AppGraph, mapping: &VcgraMapping) -> Vec<Violation> {
    let mut out = Vec::new();
    let arch = mapping.arch;
    let n = app.nodes.len();

    if mapping.place.len() != n {
        out.push(Violation::NodeCountMismatch {
            expected: n,
            got: mapping.place.len(),
        });
        // Node indices are unreliable past this point.
        return out;
    }

    // --- placement ---
    let mut cell_of: HashMap<(usize, usize), usize> = HashMap::new();
    for (i, &cell) in mapping.place.iter().enumerate() {
        if cell.0 >= arch.rows || cell.1 >= arch.cols {
            out.push(Violation::PlacementOutOfBounds { node: i, cell });
            continue;
        }
        if let Some(&j) = cell_of.get(&cell) {
            out.push(Violation::PlacementOverlap {
                cell,
                nodes: (j, i),
            });
        } else {
            cell_of.insert(cell, i);
        }
    }

    // --- routes: cover exactly the graph's dataflow edges ---
    let mut want: HashMap<(usize, usize), isize> = HashMap::new();
    for (i, node) in app.nodes.iter().enumerate() {
        for s in [node.a, node.b] {
            if let AppSource::Node(j) = s {
                *want.entry((j, i)).or_insert(0) += 1;
            }
        }
    }
    for (e, r) in mapping.routes.iter().enumerate() {
        if r.from >= n || r.to >= n {
            out.push(Violation::RouteUnknown { edge: e });
            continue;
        }
        match want.get_mut(&(r.from, r.to)) {
            Some(c) if *c > 0 => *c -= 1,
            _ => out.push(Violation::RouteUnknown { edge: e }),
        }
    }
    for (&(from, to), &missing) in &want {
        for _ in 0..missing.max(0) {
            out.push(Violation::RouteMissing { from, to });
        }
    }

    // --- per-path integrity + channel usage ---
    let mut usage: HashMap<((usize, usize), u8), usize> = HashMap::new();
    for (e, r) in mapping.routes.iter().enumerate() {
        if r.from >= n || r.to >= n {
            continue; // already reported as RouteUnknown
        }
        if r.path.is_empty() {
            out.push(Violation::PathBroken { edge: e, step: 0 });
            continue;
        }
        let (first, last) = (r.path[0], *r.path.last().expect("non-empty path"));
        if first != mapping.place[r.from] {
            out.push(Violation::RouteEndpointMismatch {
                edge: e,
                want: mapping.place[r.from],
                got: first,
            });
        }
        if last != mapping.place[r.to] {
            out.push(Violation::RouteEndpointMismatch {
                edge: e,
                want: mapping.place[r.to],
                got: last,
            });
        }
        let mut seen = std::collections::HashSet::new();
        for (s, &cell) in r.path.iter().enumerate() {
            if cell.0 >= arch.rows || cell.1 >= arch.cols {
                out.push(Violation::PathBroken { edge: e, step: s });
            }
            if !seen.insert(cell) {
                out.push(Violation::PathRevisitsCell { edge: e, cell });
            }
        }
        for (s, w) in r.path.windows(2).enumerate() {
            let (a, b) = (w[0], w[1]);
            let dir = match (b.0 as i64 - a.0 as i64, b.1 as i64 - a.1 as i64) {
                (0, 1) => 0u8,
                (0, -1) => 1,
                (1, 0) => 2,
                (-1, 0) => 3,
                _ => {
                    out.push(Violation::PathBroken {
                        edge: e,
                        step: s + 1,
                    });
                    continue;
                }
            };
            *usage.entry((a, dir)).or_insert(0) += 1;
        }
    }
    let mut over: Vec<_> = usage
        .iter()
        .filter(|(_, &used)| used > arch.channel_capacity)
        .map(|(&(cell, dir), &used)| Violation::ChannelOverCapacity {
            cell,
            dir,
            used,
            capacity: arch.channel_capacity,
        })
        .collect();
    over.sort_by_key(|v| match v {
        Violation::ChannelOverCapacity { cell, dir, .. } => (*cell, *dir),
        _ => unreachable!(),
    });
    out.extend(over);

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use softfloat::FpFormat;
    use vcgra::flow::map_app;
    use vcgra::VcgraArch;

    const F: FpFormat = FpFormat::PAPER;

    #[test]
    fn real_mappings_are_clean() {
        let arch = VcgraArch::paper_4x4();
        for (s, app) in [
            AppGraph::dot_product(F, &[1.0, 2.0, 3.0, 4.0, 5.0]),
            AppGraph::mac_chain(F, &[0.5, 0.25, 0.125]),
            AppGraph::scaling_cascade(F, &[1.0; 6]),
        ]
        .iter()
        .enumerate()
        {
            let m = map_app(app, arch, s as u64 + 1).expect("mappable");
            let v = check_mapping(app, &m);
            assert!(v.is_empty(), "seed {s}: {v:?}");
        }
    }

    #[test]
    fn endpoint_and_adjacency_corruptions_are_caught() {
        let app = AppGraph::mac_chain(F, &[0.5, 0.25, 0.125]);
        let m = map_app(&app, VcgraArch::paper_4x4(), 7).expect("mappable");

        let mut bad = m.clone();
        let from_cell = bad.place[bad.routes[0].from];
        bad.routes[0].path[0] = ((from_cell.0 + 1) % 4, from_cell.1);
        assert!(check_mapping(&app, &bad)
            .iter()
            .any(|v| matches!(v, Violation::RouteEndpointMismatch { .. })));

        let mut bad = m;
        let first = bad.routes[0].path[0];
        bad.routes[0].path.push(first); // revisit (and break adjacency/endpoint)
        assert!(check_mapping(&app, &bad)
            .iter()
            .any(|v| matches!(v, Violation::PathRevisitsCell { .. })));
    }
}
