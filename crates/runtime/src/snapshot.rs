//! Plain-data exports of the scheduler state and the time axis for the
//! `verify` crate, and the passes a caller runs over them. This is the
//! runtime's one door to the verifier: no operation checks itself, and
//! nothing here is derived ahead of a call (`tests/wall_clock_scan.rs`
//! keeps `verify::` out of every other runtime source).

use crate::runtime::Runtime;

impl Runtime {
    /// Exports the whole scheduler state as a plain-data snapshot for the
    /// `verify` crate's sched pass: grids, bands with their tenants and
    /// resident, live tenants, the admission queue and the queue-flow
    /// ledger counters. A tenant's lease is the band that lists it, so it
    /// is not exported twice. Tenant snapshots carry both the runtime's own
    /// cache-key fingerprint and a structural signature derived here, from
    /// the graph, so the pass can prove key soundness without trusting
    /// `ConfigKey`.
    pub fn snapshot(&self) -> verify::SchedSnapshot {
        use verify::sched::{BandSnap, GridSnap, LedgerSnap, StructureSig, TenantSnap};
        let archs = self.pool.grid_archs();
        let cap = self.pool.channel_capacity();
        verify::SchedSnapshot {
            grids: archs
                .iter()
                .map(|a| GridSnap {
                    rows: a.rows,
                    cols: a.cols,
                })
                .collect(),
            bands: self
                .pool
                .bands()
                .into_iter()
                .map(|b| BandSnap {
                    grid: b.grid,
                    row0: b.row0,
                    rows: b.rows,
                    tenants: b.tenants,
                    resident: b.resident,
                })
                .collect(),
            tenants: self
                .tenants
                .values()
                .map(|t| {
                    let region = (t.mapping.arch.rows, t.mapping.arch.cols);
                    TenantSnap {
                        id: t.id,
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
        }
    }

    /// Exports the time axis's window of recent intervals as a
    /// plain-data snapshot for the `verify` crate's timeline pass. It
    /// carries no ledger value: the modeled totals are the ledger's alone.
    pub fn timeline_snapshot(&self) -> verify::TimelineSnapshot {
        verify::TimelineSnapshot {
            intervals: self
                .timeline
                .intervals()
                .iter()
                .map(|iv| verify::timeline::PhaseSnap {
                    lane: iv.lane,
                    uses_port: iv.phase.uses_port(),
                    start_ns: iv.start.as_nanos() as u64,
                    dur_ns: iv.dur.as_nanos() as u64,
                })
                .collect(),
        }
    }

    /// Runs the scheduler-state verifier over [`Runtime::snapshot`].
    pub fn verify(&self) -> verify::VerifyReport {
        verify::Verifier::new().verify_sched(&self.snapshot())
    }

    /// Runs the timeline checker over [`Runtime::timeline_snapshot`]:
    /// port exclusivity and lane exclusivity over the window.
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
