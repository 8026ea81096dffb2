//! Plain-data exports of the scheduler state and the time axis for the
//! `verify` crate, and the `verify_on_admit` gate built on them.

use crate::config::RuntimeError;
use crate::runtime::Runtime;

impl Runtime {
    /// Exports the whole scheduler state as a plain-data snapshot for the
    /// `verify` crate's sched pass: grids, bands, leases, the admission
    /// queue, each band's resident, the queue-flow ledger counters, and every
    /// cache entry. Tenant snapshots carry both the runtime's own cache-key
    /// fingerprint and an independently derived structural signature so
    /// the pass can prove key soundness without trusting `ConfigKey`.
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
            let details: Vec<String> = violations
                .iter()
                .map(|v| format!("[{}] {v}", v.code()))
                .collect();
            Err(RuntimeError::Invariant(details.join("; ")))
        }
    }
}

#[cfg(test)]
mod tests {
    use std::fmt::Debug;

    use softfloat::{FpFormat, FpValue};
    use vcgra::VcgraArch;

    use crate::kernels;
    use crate::{Runtime, RuntimeConfig, RuntimeError, StreamRequest};

    const F: FpFormat = FpFormat::PAPER;

    fn refused<T: Debug>(op: &str, result: Result<T, RuntimeError>) {
        assert!(
            matches!(result, Err(RuntimeError::Invariant(_))),
            "{op} must fail a broken invariant, got {result:?}"
        );
    }

    #[test]
    fn verify_on_admit_gates_every_mutating_operation() {
        // One 5x4 grid: two 2-row bands, and a 3-row FIR waiting behind
        // them (one free row, neither band tall enough to share).
        let mut rt = Runtime::new(RuntimeConfig {
            grids: vec![VcgraArch::new(5, 4, 2)],
            verify_on_admit: true,
            ..RuntimeConfig::default()
        });
        let fir = kernels::fir(F, &[0.5, 0.25]).graph;
        let live = rt.submit("live", fir.clone()).unwrap().tenant();
        let second = rt.submit("second", fir.clone()).unwrap().tenant();
        let waiter = rt.submit("waiting", kernels::fir_seeded(F, 5, 3).graph);
        assert!(waiter.unwrap().is_queued());

        // The queue-flow counters stop reconciling with the queue: each
        // operation below is refused, and what it did before the check
        // stays done.
        rt.ledger.queued += 1;
        let coeffs = [FpValue::from_f64(-1.5, F), FpValue::from_f64(2.0, F)];
        refused("swap_params", rt.swap_params(live, &coeffs));
        let request = StreamRequest {
            tenant: live,
            inputs: vec![vec![FpValue::from_f64(1.0, F); 2]],
        };
        refused("run", rt.run(vec![request]));
        // Behind the waiter, a submission queues.
        refused("a queued submit", rt.submit("late", fir.clone()));
        let late = rt.queued_tenants()[1];
        refused("a queued tenant's release", rt.release(late));
        assert_eq!(rt.queue_len(), 1, "the cancel took effect");
        // Releasing a live tenant drains the waiter onto its rows.
        refused("a live tenant's release", rt.release(second));
        assert_eq!(rt.queue_len(), 0, "the drain took effect");
        // With the queue empty, a submission is placed: it time-shares.
        refused("a placed submit", rt.submit("placed", fir));
        assert_eq!((rt.queue_len(), rt.tenants().count()), (0, 3));
    }
}
