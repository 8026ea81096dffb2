//! Static invariant proving for VCGRA artifacts — **before they execute**.
//!
//! The runtime's whole safety story (the router, PR 5's admission layer)
//! rests on invariants that used to live in scattered `debug_assert!`s
//! and dynamic tests: route trees own their wires exclusively, leases
//! never overlap, cache keys never alias. This crate turns each of those claims
//! into a checkable *pass* over a plain-data artifact — five passes, one
//! module each — behind one [`Verifier`] facade that produces a
//! [`VerifyReport`] of typed violations:
//!
//! * [`config`] — lints a routed [`vcgra::flow::VcgraMapping`] against its
//!   [`vcgra::app::AppGraph`]: placement sanity, the graph's dataflow
//!   edges routed as contiguous simple paths, and channel-capacity
//!   conformance. A mapping holds no settings to lint: each PE's come
//!   from its graph node, whose format `AppGraph::validate` checks.
//! * [`routes`] — lints fabric-level route trees: per-net connectivity
//!   (a spanning-forest certificate from the sources that covers every
//!   tree node and reaches every sink — no stranded components, no
//!   disconnected cycles) and exclusive wire-node ownership across nets.
//! * [`sched`] — the scheduler-state checker: over a plain
//!   [`sched::SchedSnapshot`] of the runtime, in which a tenant's lease
//!   and a configuration's residency are the bands' facts alone, proves
//!   band disjointness, region soundness, queue/ledger reconciliation
//!   and cache-key soundness (full structural comparison on hash
//!   agreement, ruling out `ConfigKey` collisions).
//! * [`timeline`] — the time-axis checker: over a plain
//!   [`timeline::TimelineSnapshot`] of the window of recent intervals
//!   the runtime's modeled schedule keeps, proves configuration-port
//!   exclusivity and per-band-lane exclusivity.
//! * `equiv` — the gate-level equivalence check between a source AIG and
//!   its mapped design (absorbed from `mapping::verify`), run through
//!   [`Verifier::verify_equivalence`].
//!
//! Every pass returns all violations it finds (it does not stop at the
//! first), each as a typed [`Violation`] so tests can assert *which*
//! invariant a corrupted artifact breaks.

#![forbid(unsafe_code)]
#![deny(unreachable_pub, clippy::dbg_macro, clippy::todo)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod config;
mod equiv;
pub mod routes;
pub mod sched;
pub mod timeline;

pub use routes::NetTerminals;
pub use sched::SchedSnapshot;
pub use timeline::TimelineSnapshot;

use std::fmt;

/// One proven-false invariant, typed so the mutation suite can assert the
/// *right* rejection and drivers can print a stable code.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    // --- configuration linter (overlay mapping) ---
    /// Placement vector length disagrees with the app graph.
    NodeCountMismatch {
        /// Nodes in the app graph.
        expected: usize,
        /// Entries in `mapping.place`.
        got: usize,
    },
    /// A node is placed outside the grid.
    PlacementOutOfBounds {
        /// App node index.
        node: usize,
        /// Its (row, col) cell.
        cell: (usize, usize),
    },
    /// Two nodes share one PE cell.
    PlacementOverlap {
        /// The contested cell.
        cell: (usize, usize),
        /// The two app nodes claiming it.
        nodes: (usize, usize),
    },
    /// A dataflow edge of the graph has no routed path.
    RouteMissing {
        /// Driving node.
        from: usize,
        /// Consuming node.
        to: usize,
    },
    /// A routed path exists for no dataflow edge of the graph.
    RouteUnknown {
        /// Route index in `mapping.routes`.
        edge: usize,
    },
    /// A route's path does not start/end at the placed endpoint cells.
    RouteEndpointMismatch {
        /// Route index.
        edge: usize,
        /// Cell the path should touch.
        want: (usize, usize),
        /// Cell it actually touches.
        got: (usize, usize),
    },
    /// Adjacent path cells are not grid-adjacent (or the path is empty).
    PathBroken {
        /// Route index.
        edge: usize,
        /// Offending step (index of the second cell of the pair).
        step: usize,
    },
    /// A path visits the same cell twice (it is not a simple path).
    PathRevisitsCell {
        /// Route index.
        edge: usize,
        /// The revisited cell.
        cell: (usize, usize),
    },
    /// A directed channel segment carries more routes than its capacity.
    ChannelOverCapacity {
        /// Segment's source cell.
        cell: (usize, usize),
        /// Direction slot (0 = E, 1 = W, 2 = S, 3 = N).
        dir: u8,
        /// Routes using the segment.
        used: usize,
        /// The architecture's channel capacity.
        capacity: usize,
    },

    // --- fabric route-tree linter ---
    /// Net and tree counts disagree.
    TreeCountMismatch {
        /// Nets given.
        nets: usize,
        /// Trees given.
        trees: usize,
    },
    /// A tree references a node outside the route graph.
    NodeOutOfRange {
        /// Net index.
        net: usize,
        /// The node id.
        node: u32,
        /// Nodes in the graph.
        nodes: usize,
    },
    /// A wire node's track exceeds the channel width.
    TrackOutOfRange {
        /// Net index.
        net: usize,
        /// The node id.
        node: u32,
        /// Its track.
        track: usize,
        /// The graph's channel width.
        width: usize,
    },
    /// A sink pin is not reached from the net's sources through its tree.
    SinkUnreached {
        /// Net index.
        net: usize,
        /// The unreached sink node.
        sink: u32,
    },
    /// A tree node is unreachable from every source (a stranded component
    /// — where a disconnected cycle would hide).
    StrandedNode {
        /// Net index.
        net: usize,
        /// The stranded node.
        node: u32,
    },
    /// Two nets both claim one wire node.
    WireConflict {
        /// The contested wire node.
        node: u32,
        /// The two claiming nets.
        nets: (usize, usize),
    },

    // --- scheduler-state checker ---
    /// A band extends past its grid.
    BandOutOfBounds {
        /// Grid index.
        grid: usize,
        /// First row.
        row0: usize,
        /// Rows tall.
        rows: usize,
        /// Rows the grid has.
        grid_rows: usize,
    },
    /// Two bands of one grid overlap.
    BandOverlap {
        /// Grid index.
        grid: usize,
        /// First band as (row0, rows).
        a: (usize, usize),
        /// Second band as (row0, rows).
        b: (usize, usize),
    },
    /// A band holds no tenants.
    EmptyBand {
        /// Grid index.
        grid: usize,
        /// First row.
        row0: usize,
    },
    /// No band lists a live tenant, so it has no lease.
    LeaseWithoutBand {
        /// The tenant.
        tenant: u64,
    },
    /// A lease is smaller than the tenant's PE demand needs.
    LeaseTooSmall {
        /// The tenant.
        tenant: u64,
        /// Leased rows.
        rows: usize,
        /// Rows the demand needs.
        needed: usize,
    },
    /// A tenant's compiled region disagrees with its minimal region.
    RegionMismatch {
        /// The tenant.
        tenant: u64,
        /// Minimal region (rows, cols) for the demand.
        expected: (usize, usize),
        /// Region the mapping was compiled for.
        got: (usize, usize),
    },
    /// A tenant's mapping does not place every graph node.
    MappingNodeCount {
        /// The tenant.
        tenant: u64,
        /// Graph nodes.
        expected: usize,
        /// Placed nodes.
        got: usize,
    },
    /// The admission ledger does not reconcile with the queue.
    QueueLedgerDrift {
        /// `queued` counter.
        queued: u64,
        /// `queue_admitted + queue_dropped + queue_cancelled + depth`.
        accounted: u64,
    },
    /// A tenant is both live and waiting in the queue.
    QueuedAndLive {
        /// The tenant.
        tenant: u64,
    },
    /// A band's resident is not on the band's own tenant list.
    ResidentInvalid {
        /// Grid index.
        grid: usize,
        /// Band's first row.
        row0: usize,
        /// The supposedly resident tenant.
        tenant: u64,
    },
    /// Two different structures share one cache key (a hash/eq collision).
    CacheKeyCollision {
        /// First tenant.
        a: u64,
        /// Second tenant.
        b: u64,
    },
    /// Two identical structures carry different cache keys (lost sharing).
    CacheKeySplit {
        /// First tenant.
        a: u64,
        /// Second tenant.
        b: u64,
    },

    // --- timeline checker ---
    /// Two intervals on the single configuration port overlap.
    PortOverlap {
        /// Lane of the earlier-starting port interval.
        a: (usize, usize),
        /// Lane of the later-starting port interval.
        b: (usize, usize),
        /// Modeled time (ns) at which the second starts inside the first.
        at_ns: u64,
    },
    /// Two intervals on one band lane overlap.
    LaneOverlap {
        /// The band lane, as (grid, row0).
        lane: (usize, usize),
        /// Modeled time (ns) of the collision.
        at_ns: u64,
    },

    // --- equivalence ---
    /// The mapped design is not equivalent to its source AIG.
    NotEquivalent {
        /// First mismatch, human-readable.
        detail: String,
    },
}

impl Violation {
    /// Short stable kebab-case code (printed by reports; CI greps it).
    pub fn code(&self) -> &'static str {
        match self {
            Violation::NodeCountMismatch { .. } => "node-count-mismatch",
            Violation::PlacementOutOfBounds { .. } => "placement-out-of-bounds",
            Violation::PlacementOverlap { .. } => "placement-overlap",
            Violation::RouteMissing { .. } => "route-missing",
            Violation::RouteUnknown { .. } => "route-unknown",
            Violation::RouteEndpointMismatch { .. } => "route-endpoint-mismatch",
            Violation::PathBroken { .. } => "path-broken",
            Violation::PathRevisitsCell { .. } => "path-revisits-cell",
            Violation::ChannelOverCapacity { .. } => "channel-over-capacity",
            Violation::TreeCountMismatch { .. } => "tree-count-mismatch",
            Violation::NodeOutOfRange { .. } => "node-out-of-range",
            Violation::TrackOutOfRange { .. } => "track-out-of-range",
            Violation::SinkUnreached { .. } => "sink-unreached",
            Violation::StrandedNode { .. } => "stranded-node",
            Violation::WireConflict { .. } => "wire-conflict",
            Violation::BandOutOfBounds { .. } => "band-out-of-bounds",
            Violation::BandOverlap { .. } => "band-overlap",
            Violation::EmptyBand { .. } => "empty-band",
            Violation::LeaseWithoutBand { .. } => "lease-without-band",
            Violation::LeaseTooSmall { .. } => "lease-too-small",
            Violation::RegionMismatch { .. } => "region-mismatch",
            Violation::MappingNodeCount { .. } => "mapping-node-count",
            Violation::QueueLedgerDrift { .. } => "queue-ledger-drift",
            Violation::QueuedAndLive { .. } => "queued-and-live",
            Violation::ResidentInvalid { .. } => "resident-invalid",
            Violation::CacheKeyCollision { .. } => "cache-key-collision",
            Violation::CacheKeySplit { .. } => "cache-key-split",
            Violation::PortOverlap { .. } => "port-overlap",
            Violation::LaneOverlap { .. } => "lane-overlap",
            Violation::NotEquivalent { .. } => "not-equivalent",
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::NodeCountMismatch { expected, got } => {
                write!(f, "placement covers {got} nodes, graph has {expected}")
            }
            Violation::PlacementOutOfBounds { node, cell } => {
                write!(f, "node {node} placed outside the grid at {cell:?}")
            }
            Violation::PlacementOverlap { cell, nodes } => {
                write!(
                    f,
                    "nodes {} and {} both placed at {cell:?}",
                    nodes.0, nodes.1
                )
            }
            Violation::RouteMissing { from, to } => {
                write!(f, "dataflow edge {from} -> {to} has no routed path")
            }
            Violation::RouteUnknown { edge } => {
                write!(f, "route {edge} matches no dataflow edge of the graph")
            }
            Violation::RouteEndpointMismatch { edge, want, got } => {
                write!(
                    f,
                    "route {edge} endpoint at {got:?}, placement says {want:?}"
                )
            }
            Violation::PathBroken { edge, step } => {
                write!(
                    f,
                    "route {edge} breaks at step {step} (non-adjacent or empty)"
                )
            }
            Violation::PathRevisitsCell { edge, cell } => {
                write!(f, "route {edge} revisits cell {cell:?}")
            }
            Violation::ChannelOverCapacity {
                cell,
                dir,
                used,
                capacity,
            } => {
                write!(
                    f,
                    "channel segment at {cell:?} dir {dir} carries {used} routes, capacity {capacity}"
                )
            }
            Violation::TreeCountMismatch { nets, trees } => {
                write!(f, "{trees} trees for {nets} nets")
            }
            Violation::NodeOutOfRange { net, node, nodes } => {
                write!(
                    f,
                    "net {net}: node {node} outside the graph ({nodes} nodes)"
                )
            }
            Violation::TrackOutOfRange {
                net,
                node,
                track,
                width,
            } => {
                write!(f, "net {net}: node {node} on track {track}, width {width}")
            }
            Violation::SinkUnreached { net, sink } => {
                write!(f, "net {net}: sink {sink} not reached")
            }
            Violation::StrandedNode { net, node } => {
                write!(f, "net {net}: node {node} unreachable from every source")
            }
            Violation::WireConflict { node, nets } => {
                write!(f, "wire {node} shared by nets {} and {}", nets.0, nets.1)
            }
            Violation::BandOutOfBounds {
                grid,
                row0,
                rows,
                grid_rows,
            } => {
                write!(
                    f,
                    "grid {grid}: band rows {row0}+{rows} exceed the grid's {grid_rows}"
                )
            }
            Violation::BandOverlap { grid, a, b } => {
                write!(f, "grid {grid}: bands {a:?} and {b:?} overlap")
            }
            Violation::EmptyBand { grid, row0 } => {
                write!(f, "grid {grid}: band at row {row0} holds no tenants")
            }
            Violation::LeaseWithoutBand { tenant } => {
                write!(f, "tenant {tenant}: no band lists it")
            }
            Violation::LeaseTooSmall {
                tenant,
                rows,
                needed,
            } => {
                write!(
                    f,
                    "tenant {tenant}: {rows} leased rows, demand needs {needed}"
                )
            }
            Violation::RegionMismatch {
                tenant,
                expected,
                got,
            } => {
                write!(
                    f,
                    "tenant {tenant}: compiled for region {got:?}, minimal is {expected:?}"
                )
            }
            Violation::MappingNodeCount {
                tenant,
                expected,
                got,
            } => {
                write!(
                    f,
                    "tenant {tenant}: mapping places {got} nodes, graph has {expected}"
                )
            }
            Violation::QueueLedgerDrift { queued, accounted } => {
                write!(f, "ledger drift: queued {queued}, accounted {accounted}")
            }
            Violation::QueuedAndLive { tenant } => {
                write!(f, "tenant {tenant} is both live and queued")
            }
            Violation::ResidentInvalid { grid, row0, tenant } => {
                write!(
                    f,
                    "band (grid {grid}, row {row0}): resident tenant {tenant} is not on it"
                )
            }
            Violation::CacheKeyCollision { a, b } => {
                write!(
                    f,
                    "tenants {a} and {b}: same cache key, different structure"
                )
            }
            Violation::CacheKeySplit { a, b } => {
                write!(
                    f,
                    "tenants {a} and {b}: same structure, different cache keys"
                )
            }
            Violation::PortOverlap { a, b, at_ns } => {
                write!(
                    f,
                    "configuration port double-booked at {at_ns} ns by lanes {a:?} and {b:?}"
                )
            }
            Violation::LaneOverlap { lane, at_ns } => {
                write!(f, "band lane {lane:?} double-booked at {at_ns} ns")
            }
            Violation::NotEquivalent { detail } => {
                write!(f, "mapping not equivalent: {detail}")
            }
        }
    }
}

/// Machine-readable result of one pass.
#[derive(Debug, Clone)]
pub struct VerifyReport {
    /// Stable pass name (`config`, `routes`, `sched`, `timeline`,
    /// `equiv`).
    pub pass: &'static str,
    /// Objects the pass examined (nets, bands, intervals... — the pass's own
    /// unit, documented per pass).
    pub checked: usize,
    /// Every violation found (empty means the invariants are proven for
    /// this artifact).
    pub violations: Vec<Violation>,
    /// Wall time the pass took.
    pub seconds: f64,
}

impl VerifyReport {
    /// True when no invariant was violated.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        if self.ok() {
            format!(
                "{}: {} checked, clean ({:.1} ms)",
                self.pass,
                self.checked,
                self.seconds * 1e3
            )
        } else {
            format!(
                "{}: {} checked, {} VIOLATIONS ({:.1} ms)",
                self.pass,
                self.checked,
                self.violations.len(),
                self.seconds * 1e3
            )
        }
    }

    /// Panics with every violation listed unless the report is clean.
    pub fn assert_ok(&self) {
        if !self.ok() {
            let mut msg = format!(
                "{} violations in pass '{}':",
                self.violations.len(),
                self.pass
            );
            for v in &self.violations {
                msg.push_str(&format!("\n  [{}] {v}", v.code()));
            }
            panic!("{msg}");
        }
    }
}

/// The facade: one entry point per pass, each producing a
/// [`VerifyReport`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Verifier;

impl Verifier {
    /// Creates a verifier.
    pub fn new() -> Self {
        Verifier
    }

    /// Pass 1a — overlay configuration linter. `checked` counts app nodes
    /// plus routed edges.
    pub fn verify_config(
        &self,
        app: &vcgra::app::AppGraph,
        mapping: &vcgra::flow::VcgraMapping,
    ) -> VerifyReport {
        let t0 = std::time::Instant::now();
        let violations = config::check_mapping(app, mapping);
        VerifyReport {
            pass: "config",
            checked: app.nodes.len() + mapping.routes.len(),
            violations,
            seconds: t0.elapsed().as_secs_f64(),
        }
    }

    /// Pass 1b — fabric route-tree linter. `checked` counts nets.
    pub fn verify_routes(
        &self,
        graph: &fabric::rrg::RouteGraph,
        nets: &[routes::NetTerminals],
        trees: &[Vec<u32>],
    ) -> VerifyReport {
        let t0 = std::time::Instant::now();
        let violations = routes::check_route_trees(graph, nets, trees);
        VerifyReport {
            pass: "routes",
            checked: nets.len(),
            violations,
            seconds: t0.elapsed().as_secs_f64(),
        }
    }

    /// Pass 2 — scheduler-state checker. `checked` counts bands plus
    /// tenants.
    pub fn verify_sched(&self, snap: &sched::SchedSnapshot) -> VerifyReport {
        let t0 = std::time::Instant::now();
        let violations = sched::check_sched(snap);
        VerifyReport {
            pass: "sched",
            checked: snap.bands.len() + snap.tenants.len(),
            violations,
            seconds: t0.elapsed().as_secs_f64(),
        }
    }

    /// Pass 2b — timeline checker over the runtime's modeled time axis
    /// (port exclusivity, lane exclusivity).
    /// `checked` counts scheduled intervals.
    pub fn verify_timeline(&self, snap: &timeline::TimelineSnapshot) -> VerifyReport {
        let t0 = std::time::Instant::now();
        let violations = timeline::check_timeline(snap);
        VerifyReport {
            pass: "timeline",
            checked: snap.intervals.len(),
            violations,
            seconds: t0.elapsed().as_secs_f64(),
        }
    }

    /// Equivalence pass — AIG vs mapped design over random parameter
    /// assignments. `checked` counts assignments.
    pub fn verify_equivalence(
        &self,
        aig: &logic::aig::Aig,
        design: &mapping::MappedDesign,
        param_draws: usize,
        seed: u64,
    ) -> VerifyReport {
        let t0 = std::time::Instant::now();
        let violations = match equiv::check_equivalent(aig, design, param_draws, seed) {
            Ok(()) => Vec::new(),
            Err(detail) => vec![Violation::NotEquivalent { detail }],
        };
        VerifyReport {
            pass: "equiv",
            checked: 2 + param_draws,
            violations,
            seconds: t0.elapsed().as_secs_f64(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_summary_and_json() {
        let clean = VerifyReport {
            pass: "routes",
            checked: 3,
            violations: vec![],
            seconds: 0.001,
        };
        assert!(clean.ok());
        assert!(clean.summary().contains("clean"));
        clean.assert_ok();

        let bad = VerifyReport {
            pass: "routes",
            checked: 3,
            violations: vec![Violation::WireConflict {
                node: 7,
                nets: (0, 2),
            }],
            seconds: 0.001,
        };
        assert!(!bad.ok());
        assert!(
            bad.summary().contains("routes: 3 checked, 1 VIOLATIONS"),
            "{}",
            bad.summary()
        );
    }

    #[test]
    #[should_panic(expected = "wire-conflict")]
    fn assert_ok_lists_codes() {
        VerifyReport {
            pass: "routes",
            checked: 1,
            violations: vec![Violation::WireConflict {
                node: 7,
                nets: (0, 2),
            }],
            seconds: 0.0,
        }
        .assert_ok();
    }
}
