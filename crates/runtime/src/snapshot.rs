//! Plain-data exports of the scheduler state and the time axis for the
//! `verify` crate, and the `verify_on_admit` gate built on them.

use crate::config::RuntimeError;
use crate::runtime::Runtime;

impl Runtime {
    /// Exports the whole scheduler state as a plain-data snapshot for the
    /// `verify` crate's sched pass: grids, bands, leases, the admission
    /// queue, the resident map, the queue-flow ledger counters, and every
    /// cache entry. Tenant snapshots carry both the runtime's own cache-key
    /// fingerprint and an independently derived structural signature so
    /// the pass can prove key soundness without trusting `ConfigKey`.
    pub fn snapshot(&self) -> verify::SchedSnapshot {
        use verify::sched::{BandSnap, CacheEntrySnap, GridSnap, LedgerSnap, StructureSig, TenantSnap};
        let archs = self.pool.grid_archs();
        let cap = self.pool.channel_capacity();
        verify::SchedSnapshot {
            grids: archs
                .iter()
                .enumerate()
                .map(|(g, a)| GridSnap { rows: a.rows, cols: a.cols, free_rows: self.pool.free_rows(g) })
                .collect(),
            bands: self
                .pool
                .bands()
                .into_iter()
                .map(|b| BandSnap { grid: b.grid, row0: b.row0, rows: b.rows, tenants: b.tenants })
                .collect(),
            tenants: self
                .tenants
                .values()
                .map(|t| TenantSnap {
                    id: t.id,
                    grid: t.lease.grid,
                    row0: t.lease.row0,
                    rows: t.lease.rows,
                    cols: t.lease.cols,
                    demand: t.graph.pe_demand(),
                    region: (t.mapping.arch.rows, t.mapping.arch.cols),
                    placed_nodes: t.mapping.place.len(),
                    key_id: t.key.fingerprint(),
                    sig: {
                        // Served from the admission-time memo; a fresh
                        // derivation here would make every audited
                        // operation O(tenants × graph).
                        debug_assert_eq!(
                            t.sig,
                            StructureSig::of(
                                t.mapping.arch.rows,
                                t.mapping.arch.cols,
                                cap,
                                &t.graph
                            ),
                            "memoized StructureSig went stale for tenant {}",
                            t.id
                        );
                        t.sig.clone()
                    },
                })
                .collect(),
            queue: self.queue.iter().map(|p| p.tenant).collect(),
            resident: self.resident.iter().map(|(&(g, r), &t)| (g, r, t)).collect(),
            ledger: LedgerSnap {
                queued: self.ledger.queued as u64,
                queue_admitted: self.ledger.queue_admitted as u64,
                queue_dropped: self.ledger.queue_dropped as u64,
                queue_cancelled: self.ledger.queue_cancelled as u64,
            },
            cache: self
                .cache
                .entries()
                .map(|(k, cfg)| CacheEntrySnap {
                    key_id: k.fingerprint(),
                    region: k.region(),
                    mapping_region: (cfg.mapping.arch.rows, cfg.mapping.arch.cols),
                    key_nodes: k.node_count(),
                    placed_nodes: cfg.mapping.place.len(),
                })
                .collect(),
        }
    }

    /// Exports the time axis as a plain-data snapshot for the `verify`
    /// crate's timeline pass, carrying the ledger's summed port time so
    /// the pass can prove charge conservation without trusting either
    /// side.
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
                    charged: iv.phase.charged(),
                    tenant: iv.tenant,
                    start_ns: iv.start.as_nanos() as u64,
                    dur_ns: iv.dur.as_nanos() as u64,
                })
                .collect(),
            makespan_ns: self.timeline.makespan().as_nanos() as u64,
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

    /// With `verify_on_admit` set, fails the enclosing operation when the
    /// sched pass or the timeline pass finds a violated invariant.
    pub(crate) fn enforce_invariants(&self) -> Result<(), RuntimeError> {
        if !self.cfg.verify_on_admit {
            return Ok(());
        }
        let violations = self.verify_all().violations;
        if violations.is_empty() {
            Ok(())
        } else {
            let details: Vec<String> =
                violations.iter().map(|v| format!("[{}] {v}", v.code())).collect();
            Err(RuntimeError::Invariant(details.join("; ")))
        }
    }
}
