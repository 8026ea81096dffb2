//! `ParEngine`: the incremental, parallel place-and-route facade.
//!
//! One object owns every knob of the PaR pipeline and exposes the three
//! granularities callers need:
//!
//! * [`ParEngine::run`] — netlist in, [`ParReport`] out (auto-sized
//!   fabric, multi-seed placement, warm-started width search);
//! * [`ParEngine::min_channel_width`] — the width search alone, with the
//!   per-probe effort log ([`ParEngine::min_channel_width_reference`] is
//!   the cold linear scan the tests compare it against);
//! * [`ParEngine::route`] — one routing run on a prebuilt graph,
//!   single-threaded by construction.
//!
//! The engine checks nothing it returns. A caller that wants a routing
//! result proven lints its trees against the terminals
//! [`crate::troute::terminals`] gives, through the `verify` crate's
//! route-tree pass, as `table1 --verify` and the tests do.
//!
//! Determinism contract: for a fixed netlist and options, every result is
//! `==` at any `threads`. A thread count changes one thing only: the
//! width search, with two or more threads, routes the cold `W−1`
//! certificate beside the binary phase — and the whole [`WidthSearch`] is
//! what one thread reports. Results hold what was computed, not when:
//! host time and the thread a probe ran on are the `par.*` trace spans'.
//! Placement anneals the seeds one after another on the calling thread
//! and keeps the lowest cost (ties broken by seed order). A routing run
//! reads no thread count at all: it reroutes the dirty nets in one
//! canonical wave order on the calling thread (`incr.rs`).

use crate::incr::route_core;
use crate::netlist::ParNetlist;
use crate::tplace::{place_best, Placement};
use crate::troute::{RouteResult, Unroutable};
use crate::warm::{self, WidthSearch};
use fabric::arch::FabricArch;
use fabric::rrg::RouteGraph;

/// Every knob of the engine. The PathFinder parameters are constants
/// beside the router core (`incr.rs`).
#[derive(Debug, Clone)]
pub struct EngineOptions {
    /// Placement seeds; all are annealed, the best placement wins.
    pub seeds: Vec<u64>,
    /// Worker threads for the width search's speculative cold probes.
    /// `0` = one per available CPU. Never changes results.
    pub threads: usize,
    /// Width search floor.
    pub min_width: usize,
    /// Width search ceiling; failing here aborts.
    pub max_width: usize,
}

impl Default for EngineOptions {
    fn default() -> Self {
        Self {
            seeds: vec![1],
            threads: 0,
            // The paper's designs need ~10 tracks; probing widths far below
            // that wastes PathFinder iterations on hopeless congestion.
            min_width: 6,
            max_width: 96,
        }
    }
}

/// End-to-end place & route report (one flow's PaR columns of Table I).
#[derive(Debug, Clone, PartialEq)]
pub struct ParReport {
    /// Fabric used (auto-sized to the netlist).
    pub arch: FabricArch,
    /// The placement.
    pub placement: Placement,
    /// The width search on that placement: the minimum channel width, the
    /// routing there, its certificate and the probe log.
    pub search: WidthSearch,
}

/// The place & route engine. See the module docs.
pub struct ParEngine {
    /// Configuration the engine was built with.
    pub opts: EngineOptions,
}

impl ParEngine {
    /// An engine with the given options.
    pub fn new(opts: EngineOptions) -> Self {
        Self { opts }
    }

    /// Resolved worker count (`threads == 0` → available parallelism).
    pub fn threads(&self) -> usize {
        if self.opts.threads > 0 {
            self.opts.threads
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }

    /// The best placement over [`EngineOptions::seeds`] (`place_best`).
    pub fn place(&self, netlist: &ParNetlist, arch: FabricArch) -> Placement {
        place_best(netlist, arch, &self.opts.seeds)
    }

    /// One routing run on a prebuilt graph, on the calling thread.
    pub fn route(
        &self,
        netlist: &ParNetlist,
        placement: &Placement,
        graph: &RouteGraph,
    ) -> Result<RouteResult, Unroutable> {
        route_core(netlist, placement, graph, None, None)
    }

    /// Minimum-channel-width search with the per-probe effort log:
    /// doubling + binary with warm-started probes, the reported minimum
    /// always certified (see [`crate::WidthCertificate`]).
    pub fn min_channel_width(
        &self,
        netlist: &ParNetlist,
        placement: &Placement,
        arch: FabricArch,
    ) -> Option<WidthSearch> {
        warm::search(netlist, placement, arch, &self.opts, self.threads())
    }

    /// The reference [`ParEngine::min_channel_width`] must agree with: a
    /// cold linear scan up from `min_width` — no lower bound, no estimate,
    /// no warm starts — which certifies itself because every verdict
    /// below its minimum is a cold failure.
    pub fn min_channel_width_reference(
        &self,
        netlist: &ParNetlist,
        placement: &Placement,
        arch: FabricArch,
    ) -> Option<WidthSearch> {
        warm::reference(netlist, placement, arch, &self.opts)
    }

    /// End-to-end: size a fabric, place, search the minimum width.
    /// `None` when nothing up to [`EngineOptions::max_width`] routes, as
    /// for [`ParEngine::min_channel_width`].
    pub fn run(&self, netlist: &ParNetlist) -> Option<ParReport> {
        let mut run_span = trace::span("par.run");
        run_span.arg("nets", netlist.nets.len());
        let arch = FabricArch::sized_for(netlist.logic_count(), netlist.io_count());
        let placement = self.place(netlist, arch);
        let search = self.min_channel_width(netlist, &placement, arch)?;
        run_span.arg("min_width", search.min_width);
        Some(ParReport {
            arch,
            placement,
            search,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::extract;
    use logic::aig::{Aig, InputKind};
    use mapping::{map_conventional, map_parameterized, MapOptions};
    use softfloat::gates;

    fn small_mul_aig() -> Aig {
        let mut g = Aig::new();
        let x = g.input_vec("x", 4, InputKind::Regular);
        let c = g.input_vec("c", 4, InputKind::Param);
        let p = gates::mul_carry_save(&mut g, &x, &c);
        g.add_output_vec("p", &p);
        g
    }

    #[test]
    fn conventional_small_design_pars() {
        let d = map_conventional(&small_mul_aig(), MapOptions::default());
        let nl = extract(&d);
        let rep = ParEngine::new(EngineOptions::default())
            .run(&nl)
            .expect("routable");
        assert!(rep.search.result.wirelength > 0);
        assert!(rep.search.min_width >= 2);
        assert_eq!(
            rep.search.result.tcon_switches, 0,
            "no tunable nets conventionally"
        );
    }

    #[test]
    fn parameterized_small_design_pars_with_less_wire() {
        let aig = small_mul_aig();
        let nl_c = extract(&map_conventional(&aig, MapOptions::default()));
        let nl_p = extract(&map_parameterized(&aig, MapOptions::default()));
        let engine = ParEngine::new(EngineOptions::default());
        let rc = engine.run(&nl_c).expect("conv routable");
        let rp = engine.run(&nl_p).expect("par routable");
        // The parameterized design has fewer LUT blocks; with TCONs moved
        // into routing its wirelength should not explode.
        assert!(nl_p.logic_count() < nl_c.logic_count());
        assert!(rp.search.result.wirelength > 0 && rc.search.result.wirelength > 0);
    }

    #[test]
    fn min_width_is_minimal() {
        let d = map_conventional(&small_mul_aig(), MapOptions::default());
        let nl = extract(&d);
        let engine = ParEngine::new(EngineOptions::default());
        let rep = engine.run(&nl).expect("routable");
        // Minimality is only guaranteed above the search floor.
        if rep.search.min_width > engine.opts.min_width {
            // One narrower must fail (that's what "minimum" means).
            let graph = RouteGraph::build(rep.arch, rep.search.min_width - 1);
            let narrower = engine.route(&nl, &rep.placement, &graph);
            assert!(narrower.is_err(), "width was not minimal");
        }
    }

    #[test]
    fn engine_runs_end_to_end_with_probe_log() {
        let d = map_parameterized(&small_mul_aig(), MapOptions::default());
        let nl = extract(&d);
        let rep = ParEngine::new(EngineOptions::default())
            .run(&nl)
            .expect("routable");
        assert!(rep.search.result.wirelength > 0);
        assert!(
            !rep.search.probes.is_empty(),
            "width search must log probes"
        );
        assert!(rep.search.probes.iter().any(|p| p.success));
        assert_eq!(
            rep.search
                .probes
                .iter()
                .filter(|p| p.success)
                .map(|p| p.width)
                .min()
                .unwrap(),
            rep.search.min_width
        );
        // The winning probe may be warm-started (only broken/congested
        // nets reroute), so the only safe lower bound is "some work ran".
        assert!(rep.search.result.ripups > 0);
    }

    #[test]
    fn thread_counts_are_bit_identical() {
        let d = map_parameterized(&small_mul_aig(), MapOptions::default());
        let nl = extract(&d);
        let run = |threads: usize| {
            ParEngine::new(EngineOptions {
                threads,
                ..Default::default()
            })
            .run(&nl)
            .expect("routable")
        };
        assert!(run(1) == run(4), "the report depends on threads");
    }
}
