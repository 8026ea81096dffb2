//! Pass 2 — the scheduler-state checker.
//!
//! The runtime exports a plain-data [`SchedSnapshot`] (no references into
//! live scheduler state), and this pass proves the admission layer's
//! invariants over it:
//!
//! * **lease/band disjointness** — bands stay inside their grids, never
//!   overlap, never sit empty; every live tenant is listed by a band,
//!   which is its lease (who shares a band is the band's tenant list
//!   alone), and a band's resident is one of its own tenants. An
//!   over-allocation shows here, as a band past its grid or two bands on
//!   one row: the pool derives its free rows from its bands, so there is
//!   no second count to compare;
//! * **queue/ledger reconciliation** — `queued` equals
//!   `queue_admitted + queue_dropped + queue_cancelled` plus the current
//!   queue depth, and no tenant is simultaneously live and queued;
//! * **region soundness** — every tenant's configuration was compiled for
//!   its *minimal* region (`rows_needed × cols`), places every graph
//!   node, and fits inside its band;
//! * **cache-key soundness** — tenants' cache-key fingerprints are
//!   compared against an *independently derived* [`StructureSig`]: equal
//!   fingerprints must mean equal structure (no `ConfigKey` hash/eq
//!   collision silently serving tenant A tenant B's circuit) and equal
//!   structure must mean equal fingerprints (no lost sharing). Every
//!   live tenant holds the cache's compile of its key, so checking the
//!   tenants checks every compile they run.

use crate::Violation;
use vcgra::app::{AppGraph, AppSource};

/// Independent structural signature of (region, graph) — a re-derivation
/// of what the runtime's `ConfigKey` encodes, canonical and comparable.
/// The sched pass compares *these* when two fingerprints agree, which is
/// the "full structural comparison on hash hit".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StructureSig(Vec<u64>);

impl StructureSig {
    /// Derives the signature of a graph compiled onto a region.
    pub fn of(
        region_rows: usize,
        region_cols: usize,
        channel_capacity: usize,
        app: &AppGraph,
    ) -> Self {
        let mut v: Vec<u64> = vec![
            region_rows as u64,
            region_cols as u64,
            channel_capacity as u64,
            app.format.we as u64,
            app.format.wf as u64,
            app.num_inputs as u64,
            app.nodes.len() as u64,
        ];
        let src = |s: AppSource| -> u64 {
            match s {
                AppSource::External(i) => (i as u64) << 2,
                AppSource::Node(j) => ((j as u64) << 2) | 1,
                AppSource::Zero => 2,
            }
        };
        for n in &app.nodes {
            let op = match n.op {
                vcgra::PeMode::Mac => 0u64,
                vcgra::PeMode::Mul => 1,
                vcgra::PeMode::Add => 2,
                vcgra::PeMode::Pass => 3,
            };
            v.push(op | (u64::from(n.coeff.is_some()) << 8));
            v.push(src(n.a));
            v.push(src(n.b));
        }
        v.extend(app.outputs.iter().map(|&o| o as u64));
        StructureSig(v)
    }
}

/// One grid's geometry.
#[derive(Debug, Clone, Default)]
pub struct GridSnap {
    /// PE rows.
    pub rows: usize,
    /// PE columns.
    pub cols: usize,
}

/// One allocated band.
#[derive(Debug, Clone)]
pub struct BandSnap {
    /// Grid index.
    pub grid: usize,
    /// First row.
    pub row0: usize,
    /// Rows tall.
    pub rows: usize,
    /// Tenants, in slot order.
    pub tenants: Vec<u64>,
    /// The tenant whose configuration the band holds.
    pub resident: Option<u64>,
}

/// One live tenant. Its lease is the band that lists it.
#[derive(Debug, Clone)]
pub struct TenantSnap {
    /// Tenant id.
    pub id: u64,
    /// The graph's PE demand.
    pub demand: usize,
    /// Region the configuration was compiled for.
    pub region: (usize, usize),
    /// Nodes the mapping places.
    pub placed_nodes: usize,
    /// Fingerprint of the runtime's `ConfigKey` (its hash).
    pub key_id: u64,
    /// Independently derived structural signature.
    pub sig: StructureSig,
}

/// Admission-ledger counters (the queue-flow subset the pass reconciles).
#[derive(Debug, Clone, Copy, Default)]
pub struct LedgerSnap {
    /// Submissions that went through the queue.
    pub queued: u64,
    /// Queued submissions later admitted.
    pub queue_admitted: u64,
    /// Queued submissions dropped on terminal failure.
    pub queue_dropped: u64,
    /// Queued submissions cancelled by release.
    pub queue_cancelled: u64,
}

/// Plain-data snapshot of the whole scheduler state.
#[derive(Debug, Clone, Default)]
pub struct SchedSnapshot {
    /// Grids, in pool order.
    pub grids: Vec<GridSnap>,
    /// Allocated bands.
    pub bands: Vec<BandSnap>,
    /// Live tenants.
    pub tenants: Vec<TenantSnap>,
    /// Queued tenant ids, head first.
    pub queue: Vec<u64>,
    /// Ledger counters.
    pub ledger: LedgerSnap,
}

/// Minimal region height for a PE demand on a grid `cols` wide — must
/// mirror the pool's `rows_needed` (bands are at least 2 rows so a region
/// is a legal sub-grid).
pub fn rows_needed(demand: usize, cols: usize) -> usize {
    demand.div_ceil(cols.max(1)).max(2)
}

/// Runs every scheduler-state check; returns all violations found.
pub fn check_sched(snap: &SchedSnapshot) -> Vec<Violation> {
    let mut out = Vec::new();

    // --- bands: bounds, non-overlap, non-empty ---
    for (g, grid) in snap.grids.iter().enumerate() {
        let mut bands: Vec<&BandSnap> = snap.bands.iter().filter(|b| b.grid == g).collect();
        bands.sort_by_key(|b| b.row0);
        for (i, b) in bands.iter().enumerate() {
            if b.row0 + b.rows > grid.rows {
                out.push(Violation::BandOutOfBounds {
                    grid: g,
                    row0: b.row0,
                    rows: b.rows,
                    grid_rows: grid.rows,
                });
            }
            if b.tenants.is_empty() {
                out.push(Violation::EmptyBand {
                    grid: g,
                    row0: b.row0,
                });
            }
            if let Some(prev) = i.checked_sub(1).map(|p| bands[p]) {
                if prev.row0 + prev.rows > b.row0 {
                    out.push(Violation::BandOverlap {
                        grid: g,
                        a: (prev.row0, prev.rows),
                        b: (b.row0, b.rows),
                    });
                }
            }
        }
    }

    // --- leases against bands, region soundness ---
    for t in &snap.tenants {
        if t.placed_nodes != t.demand {
            out.push(Violation::MappingNodeCount {
                tenant: t.id,
                expected: t.demand,
                got: t.placed_nodes,
            });
        }
        // A tenant's lease is the band that lists it, as the pool finds it.
        let Some(band) = snap.bands.iter().find(|b| b.tenants.contains(&t.id)) else {
            out.push(Violation::LeaseWithoutBand { tenant: t.id });
            continue;
        };
        let cols = snap.grids.get(band.grid).map_or(0, |g| g.cols);
        let needed = rows_needed(t.demand, cols);
        if band.rows < needed {
            out.push(Violation::LeaseTooSmall {
                tenant: t.id,
                rows: band.rows,
                needed,
            });
        }
        if t.region != (needed, cols) {
            out.push(Violation::RegionMismatch {
                tenant: t.id,
                expected: (needed, cols),
                got: t.region,
            });
        }
    }

    // --- queue/ledger reconciliation ---
    let accounted = snap.ledger.queue_admitted
        + snap.ledger.queue_dropped
        + snap.ledger.queue_cancelled
        + snap.queue.len() as u64;
    if snap.ledger.queued != accounted {
        out.push(Violation::QueueLedgerDrift {
            queued: snap.ledger.queued,
            accounted,
        });
    }
    for &q in &snap.queue {
        if snap.tenants.iter().any(|t| t.id == q) {
            out.push(Violation::QueuedAndLive { tenant: q });
        }
    }

    // --- residents ---
    for b in &snap.bands {
        if let Some(tenant) = b.resident.filter(|r| !b.tenants.contains(r)) {
            out.push(Violation::ResidentInvalid {
                grid: b.grid,
                row0: b.row0,
                tenant,
            });
        }
    }

    // --- cache-key soundness ---
    for (i, a) in snap.tenants.iter().enumerate() {
        for b in &snap.tenants[i + 1..] {
            let keys_eq = a.key_id == b.key_id;
            let sigs_eq = a.sig == b.sig;
            if keys_eq && !sigs_eq {
                out.push(Violation::CacheKeyCollision { a: a.id, b: b.id });
            }
            if !keys_eq && sigs_eq {
                out.push(Violation::CacheKeySplit { a: a.id, b: b.id });
            }
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use softfloat::FpFormat;

    fn sig(n: usize) -> StructureSig {
        let app = AppGraph::dot_product(FpFormat::PAPER, &vec![1.0; n]);
        StructureSig::of(rows_needed(app.pe_demand(), 4), 4, 2, &app)
    }

    /// One grid of 6x4, one dedicated tenant on rows 0..2.
    fn clean() -> SchedSnapshot {
        let app = AppGraph::dot_product(FpFormat::PAPER, &[1.0, 2.0, 3.0]);
        let demand = app.pe_demand();
        SchedSnapshot {
            grids: vec![GridSnap { rows: 6, cols: 4 }],
            bands: vec![BandSnap {
                grid: 0,
                row0: 0,
                rows: 2,
                tenants: vec![1],
                resident: Some(1),
            }],
            tenants: vec![TenantSnap {
                id: 1,
                demand,
                region: (rows_needed(demand, 4), 4),
                placed_nodes: demand,
                key_id: 0xabc,
                sig: StructureSig::of(rows_needed(demand, 4), 4, 2, &app),
            }],
            queue: vec![],
            ledger: LedgerSnap::default(),
        }
    }

    #[test]
    fn clean_snapshot_verifies() {
        let v = check_sched(&clean());
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn structure_sigs_separate_structures_not_coeffs() {
        assert_eq!(sig(3), sig(3));
        assert_ne!(sig(3), sig(4));
        let a = AppGraph::dot_product(FpFormat::PAPER, &[1.0, 2.0, 3.0]);
        let b = AppGraph::dot_product(FpFormat::PAPER, &[9.0, -1.0, 7.5]);
        assert_eq!(
            StructureSig::of(2, 4, 2, &a),
            StructureSig::of(2, 4, 2, &b),
            "coefficients must not affect the signature"
        );
    }
}
