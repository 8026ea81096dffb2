//! Parameter-only changes: the micro-reconfiguration fast path.

use softfloat::FpValue;
use vcgra::PeSettings;

use crate::config::RuntimeError;
use crate::pool::TenantId;
use crate::pricer::{PeChange, SwapReport};
use crate::runtime::Runtime;
use crate::timeline::Phase;

impl Runtime {
    /// Parameter-only change: new coefficients for the tenant's
    /// coefficient-bearing nodes, served by the micro-reconfiguration
    /// fast path (no recompile, dirty frames only).
    pub fn swap_params(
        &mut self,
        tenant: TenantId,
        coeffs: &[FpValue],
    ) -> Result<SwapReport, RuntimeError> {
        let t = self.live(tenant)?;
        let slots = t.graph.coeff_nodes();
        if slots.len() != coeffs.len() {
            return Err(RuntimeError::BadParamArity {
                expected: slots.len(),
                got: coeffs.len(),
            });
        }
        if let Some(c) = coeffs.iter().find(|c| c.format != t.graph.format) {
            return Err(RuntimeError::BadFormat {
                expected: t.graph.format,
                got: c.format,
            });
        }
        let changes: Vec<PeChange> = slots
            .iter()
            .zip(coeffs)
            .map(|(&node, &c)| {
                let (r, col) = t.mapping.place[node];
                let old = t.mapping.pe_settings[r * t.mapping.arch.cols + col]
                    .expect("placed node has settings");
                let new = PeSettings { coeff: c, ..old };
                PeChange {
                    cell: (t.lease.row0 + r, col),
                    old,
                    new,
                }
            })
            .collect();
        let report = self.apply_changes(tenant, changes);
        // Priced and booked: the graph follows its settings, in place.
        let t = self
            .tenants
            .get_mut(&tenant)
            .expect("the swap was applied to a live tenant");
        for (node, &c) in slots.into_iter().zip(coeffs) {
            t.graph.nodes[node].coeff = Some(c);
        }
        self.enforce_invariants()?;
        Ok(report)
    }

    /// Parameter-only change of one node's iteration counter (the other
    /// settings-register content the paper's applications retune).
    pub fn set_counter(
        &mut self,
        tenant: TenantId,
        node: usize,
        counter: u32,
    ) -> Result<SwapReport, RuntimeError> {
        let t = self.live(tenant)?;
        if node >= t.graph.nodes.len() {
            return Err(RuntimeError::NodeOutOfRange {
                node,
                nodes: t.graph.nodes.len(),
            });
        }
        let (r, col) = t.mapping.place[node];
        let old =
            t.mapping.pe_settings[r * t.mapping.arch.cols + col].expect("placed node has settings");
        let new = PeSettings { counter, ..old };
        let change = PeChange {
            cell: (t.lease.row0 + r, col),
            old,
            new,
        };
        let report = self.apply_changes(tenant, vec![change]);
        self.enforce_invariants()?;
        Ok(report)
    }

    /// Prices `changes`, writes them into the tenant's settings and books
    /// the swap. The tenant's graph is the caller's to update.
    fn apply_changes(&mut self, tenant: TenantId, changes: Vec<PeChange>) -> SwapReport {
        let mut request_span = trace::span("request");
        request_span.arg("tenant", tenant);
        request_span.arg("op", "swap");
        let grid_arch = self.pool.grid_archs()[self.tenants[&tenant].lease.grid];
        let mut pricing_span = trace::span("pricing");
        let report = self
            .pricer
            .price_swap((grid_arch.rows, grid_arch.cols), &changes);
        pricing_span.arg("frames", report.frames());
        pricing_span.arg("pes", report.dirty_pes);
        pricing_span.arg("sweeps", report.sweeps);
        drop(pricing_span);
        let t = self
            .tenants
            .get_mut(&tenant)
            .expect("caller verified the tenant is live");
        let cols = t.mapping.arch.cols;
        for ch in &changes {
            let (r, c) = (ch.cell.0 - t.lease.row0, ch.cell.1);
            t.mapping.pe_settings[r * cols + c] = Some(ch.new);
        }
        let lane = (t.lease.grid, t.lease.row0);
        self.ledger.swaps += 1;
        self.ledger.swap_frames += report.frames();
        self.charge(lane, Phase::Swap, Some(tenant), report.port_time);
        report
    }
}
