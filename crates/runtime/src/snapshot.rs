//! Plain-data exports of the scheduler state and the time axis for the
//! `verify` crate, and the passes a caller runs over them. This is the
//! runtime's one door to the verifier: no operation checks itself, and
//! nothing here is derived ahead of a call (`tests/wall_clock_scan.rs`
//! keeps `verify::` out of every other runtime source).

use crate::pool::Lease;
use crate::runtime::Runtime;

impl Runtime {
    /// Exports the whole scheduler state as a plain-data snapshot for the
    /// `verify` crate's sched pass: grids, bands, leases, the admission
    /// queue, each band's resident, the queue-flow ledger counters, and every
    /// cache entry. Tenant snapshots carry both the runtime's own cache-key
    /// fingerprint and a structural signature derived here, from the graph,
    /// so the pass can prove key soundness without trusting `ConfigKey`.
    pub fn snapshot(&self) -> verify::SchedSnapshot {
        use verify::sched::{
            BandSnap, CacheEntrySnap, GridSnap, LedgerSnap, StructureSig, TenantSnap,
        };
        let archs = self.pool.grid_archs();
        let cap = self.pool.channel_capacity();
        let bands = self.pool.bands();
        verify::SchedSnapshot {
            grids: archs
                .iter()
                .enumerate()
                .map(|(g, a)| GridSnap {
                    rows: a.rows,
                    cols: a.cols,
                    free_rows: self.pool.free_rows(g),
                })
                .collect(),
            // Grids in index order, bands in row order: the resident list
            // comes out sorted by (grid, row0).
            resident: bands
                .iter()
                .filter_map(|b| Some((b.grid, b.row0, b.resident?)))
                .collect(),
            bands: bands
                .into_iter()
                .map(|b| BandSnap {
                    grid: b.grid,
                    row0: b.row0,
                    rows: b.rows,
                    tenants: b.tenants,
                })
                .collect(),
            tenants: self
                .tenants
                .values()
                .map(|t| {
                    // A tenant no band lists is exported on no grid: the
                    // pass reports it (`LeaseWithoutBand`), never a panic.
                    let lease = self.pool.lease(t.id).unwrap_or(Lease {
                        grid: usize::MAX,
                        row0: 0,
                        rows: 0,
                        cols: 0,
                    });
                    let region = (t.mapping.arch.rows, t.mapping.arch.cols);
                    TenantSnap {
                        id: t.id,
                        grid: lease.grid,
                        row0: lease.row0,
                        rows: lease.rows,
                        cols: lease.cols,
                        demand: t.graph.pe_demand(),
                        region,
                        placed_nodes: t.mapping.place.len(),
                        key_id: t.config_key().fingerprint(),
                        sig: StructureSig::of(region.0, region.1, cap, &t.graph),
                    }
                })
                .collect(),
            queue: self.queue.iter().map(|p| p.tenant).collect(),
            ledger: LedgerSnap {
                queued: self.ledger.queued as u64,
                queue_admitted: self.ledger.queue_admitted as u64,
                queue_dropped: self.ledger.queue_dropped as u64,
                queue_cancelled: self.ledger.queue_cancelled as u64,
            },
            cache: self
                .cache
                .entries()
                .map(|(k, mapping)| CacheEntrySnap {
                    key_id: k.fingerprint(),
                    region: k.region(),
                    mapping_region: (mapping.arch.rows, mapping.arch.cols),
                    key_nodes: k.node_count(),
                    placed_nodes: mapping.place.len(),
                })
                .collect(),
        }
    }

    /// Exports the time axis as a plain-data snapshot for the `verify`
    /// crate's timeline pass, carrying the ledger's summed port time and
    /// makespan so the pass can prove charge conservation and the
    /// published makespan against the interval log without trusting
    /// either side.
    pub fn timeline_snapshot(&self) -> verify::TimelineSnapshot {
        verify::TimelineSnapshot {
            intervals: self
                .timeline
                .intervals()
                .iter()
                .map(|iv| verify::timeline::PhaseSnap {
                    lane: iv.lane,
                    phase: iv.phase.name(),
                    uses_port: iv.phase.uses_port(),
                    tenant: iv.tenant,
                    start_ns: iv.start.as_nanos() as u64,
                    dur_ns: iv.dur.as_nanos() as u64,
                })
                .collect(),
            makespan_ns: self.ledger.modeled_makespan.as_nanos() as u64,
            ledger_port_ns: self.ledger.total_port_time().as_nanos() as u64,
        }
    }

    /// Runs the scheduler-state verifier over [`Runtime::snapshot`].
    pub fn verify(&self) -> verify::VerifyReport {
        verify::Verifier::new().verify_sched(&self.snapshot())
    }

    /// Runs the timeline checker over [`Runtime::timeline_snapshot`]:
    /// port exclusivity, lane exclusivity, charge conservation.
    pub fn verify_timeline(&self) -> verify::VerifyReport {
        verify::Verifier::new().verify_timeline(&self.timeline_snapshot())
    }

    /// The full invariant sweep: the sched pass plus the timeline pass,
    /// merged into one report.
    pub fn verify_all(&self) -> verify::VerifyReport {
        let mut report = self.verify();
        let timeline = self.verify_timeline();
        report.pass = "sched+timeline";
        report.checked += timeline.checked;
        report.seconds += timeline.seconds;
        report.violations.extend(timeline.violations);
        report
    }
}
