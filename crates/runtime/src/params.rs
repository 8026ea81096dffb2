//! Parameter-only changes: the micro-reconfiguration fast path.

use softfloat::FpValue;
use vcgra::PeSettings;

use crate::config::RuntimeError;
use crate::pool::TenantId;
use crate::pricer::{self, PeChange, SwapReport};
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
        let lease = self.lease(tenant);
        let slots = t.graph.coeff_nodes();
        if slots.len() != coeffs.len() {
            return Err(RuntimeError::BadParamArity {
                expected: slots.len(),
                got: coeffs.len(),
            });
        }
        let format = t.graph.format;
        for c in coeffs {
            c.bits_in(format)
                .map_err(|why| RuntimeError::BadValue { format, why })?;
        }
        let changes: Vec<PeChange> = slots
            .iter()
            .zip(coeffs)
            .map(|(&node, &c)| {
                let (r, col) = t.mapping.place[node];
                let old = t.graph.pe_settings(node);
                let new = PeSettings { coeff: c, ..old };
                PeChange {
                    cell: (lease.row0 + r, col),
                    old,
                    new,
                }
            })
            .collect();
        let mut request_span = trace::span("request");
        request_span.arg("tenant", tenant);
        request_span.arg("op", "swap");
        let grid_arch = self.pool.grid_archs()[lease.grid];
        let mut pricing_span = trace::span("pricing");
        let report = pricer::price_swap((grid_arch.rows, grid_arch.cols), &changes);
        pricing_span.arg("frames", report.frames());
        pricing_span.arg("pes", report.dirty_pes);
        pricing_span.arg("sweeps", report.sweeps);
        drop(pricing_span);
        // Priced: the graph — where every PE's settings live — follows,
        // in place, and the swap is booked.
        let t = self
            .tenants
            .get_mut(&tenant)
            .expect("the swap is priced for a live tenant");
        for (&node, &c) in slots.iter().zip(coeffs) {
            t.graph.nodes[node].coeff = Some(c);
        }
        let lane = (lease.grid, lease.row0);
        self.ledger.swaps += 1;
        self.ledger.swap_frames += report.frames();
        self.charge(lane, Phase::Swap, Some(tenant), report.port_time);
        drop(request_span);
        Ok(report)
    }
}
