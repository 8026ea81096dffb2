//! `overlay_build`: the paper's PE through the gate-level flow.
//!
//! The one workload on which `logic`, `mapping`, `par` and `dcs` do the
//! work: Table I. The timed operation is the *parameterized* flow, sweep
//! to specialized configurations; the conventional flow (the paper's
//! baseline) is timed in the traced run, where it shows the same `par`
//! layer used the other way (one cold route of a 1.6x larger netlist
//! instead of a warm-started width search).

use std::time::Instant;

use dcs::{ParamConfig, ReconfigInterface, Scg};
use fabric::{FabricArch, RouteGraph};
use logic::aig::Aig;
use mapping::{MapEffort, MapOptions, MappedDesign};
use par::{EngineOptions, ParEngine, ParNetlist, Placement, RouteResult, WidthSearch};
use softfloat::{FpFormat, FpValue};
use vcgra::{PeMode, PeSettings, VirtualPe, VirtualPeConfig};

use crate::report::Outcome;
use crate::rng::Rng;
use crate::spans::{self, span};
use crate::stats::median;
use crate::{probes, Args, Window};

/// Frozen sizes of the workload.
#[derive(Debug, Clone)]
pub struct Sizes {
    /// Format of the PE: half precision, (5,10). At the paper's (6,26) one
    /// flow takes 9 to 11 s (4.1 M BDD nodes, 500 MiB) and at (6,18) 4.3 s,
    /// so a window holds a handful of repetitions and one slowed by a
    /// neighbour moves the result: ten runs spread `op_ms` by 10 to 25 %.
    /// At (5,10) a flow takes 1.5 s through the same stages (mapping 10 %,
    /// placement 20 %, width search 70 %) and a 30 s window holds seventeen.
    pub format: FpFormat,
    /// Placement seed of every repetition. A CAD setting, part of the
    /// design input like the PE itself, and not derived from `--seed`: the
    /// width search takes 30 % longer on one placement than on another,
    /// which would otherwise be the spread of the metric.
    pub place_seed: u64,
    /// Repetitions at least; more while a further one fits in the window.
    pub min_reps: usize,
    /// Seeded `specialize` + `dirty_frames` pairs per repetition.
    pub specializations: usize,
    /// Random parameter draws of `verify_equivalence`.
    pub equiv_draws: usize,
}

impl Default for Sizes {
    fn default() -> Self {
        Sizes {
            format: FpFormat::new(5, 10),
            place_seed: 1,
            min_reps: 2,
            specializations: 256,
            equiv_draws: 8,
        }
    }
}

/// What set-up produces: both PE netlists and the seeded settings stream.
pub struct Inputs {
    cfg: VirtualPeConfig,
    param_pe: Aig,
    conv_pe: Aig,
    /// `specializations + 1` parameter vectors: consecutive pairs are the
    /// old and new settings of one micro-reconfiguration.
    settings: Vec<Vec<bool>>,
    /// Hash of the settings stream.
    hash: u64,
}

pub fn setup(seed: u64, sizes: &Sizes) -> Inputs {
    let cfg = VirtualPeConfig {
        format: sizes.format,
        hops: 2,
    };
    let mut rng = Rng::fork(seed, "overlay.settings");
    let settings = (0..=sizes.specializations)
        .map(|_| {
            let coeff = FpValue::from_f64(rng.range(-2.0, 2.0), sizes.format);
            let mode = [PeMode::Mac, PeMode::Mul, PeMode::Add, PeMode::Pass][rng.index(4)];
            PeSettings {
                coeff,
                counter: 1 + rng.index(64) as u32,
                mode,
            }
            .to_param_bits(&cfg)
        })
        .collect::<Vec<Vec<bool>>>();
    let mut h = crate::plan::Fnv::new();
    for bits in &settings {
        h.write(bits.len() as u64);
        bits.iter().for_each(|&b| h.write(u64::from(b)));
    }
    Inputs {
        hash: h.finish(),
        cfg,
        param_pe: VirtualPe::build(cfg, true).aig,
        conv_pe: VirtualPe::build(cfg, false).aig,
        settings,
    }
}

fn engine(place_seed: u64) -> ParEngine {
    ParEngine::new(EngineOptions {
        seeds: vec![place_seed],
        threads: crate::par_threads(),
        ..EngineOptions::default()
    })
}

/// Everything one parameterized flow produced.
pub struct ParamFlow {
    pub seconds: f64,
    pub swept: Aig,
    pub design: MappedDesign,
    pub effort: MapEffort,
    pub arch: FabricArch,
    pub search: WidthSearch,
    pub config: ParamConfig,
    /// Dirty frames of each micro-reconfiguration.
    pub dirty: Vec<usize>,
    /// Host time of each `specialize` + `dirty_frames`, microseconds.
    pub specialize_us: Vec<f64>,
}

/// sweep -> map -> extract -> place -> width search -> PPC -> SCG.
pub fn param_flow(inputs: &Inputs, place_seed: u64, rep: u64) -> Result<ParamFlow, String> {
    let t0 = Instant::now();
    let _flow = span("bench.flow.param", rep);
    let swept = {
        let _s = span("bench.logic.sweep", rep);
        logic::opt::sweep(&inputs.param_pe)
    };
    let (design, effort) = {
        let _s = span("bench.mapping.map_parameterized", rep);
        mapping::map_parameterized_with_effort(&swept, MapOptions::default())
    };
    let netlist = {
        let _s = span("bench.par.extract", rep);
        par::extract(&design)
    };
    let arch = FabricArch::sized_for(netlist.logic_count(), netlist.io_count());
    let engine = engine(place_seed);
    let placement = {
        let _s = span("bench.par.place", rep);
        engine.place(&netlist, arch)
    };
    let search = {
        let _s = span("bench.par.width_search", rep);
        engine
            .min_channel_width(&netlist, &placement, arch)
            .ok_or("parameterized PE unroutable up to the maximum width")?
    };
    let config = {
        let _s = span("bench.dcs.ppc_extract", rep);
        ParamConfig::extract(&design)
    };
    let (dirty, specialize_us) = {
        let _s = span("bench.dcs.scg", rep);
        let scg = Scg::new(&design, &config);
        let mut old = scg.specialize(&inputs.settings[0]);
        let mut dirty = Vec::with_capacity(inputs.settings.len() - 1);
        let mut us = Vec::with_capacity(inputs.settings.len() - 1);
        for params in &inputs.settings[1..] {
            let t = Instant::now();
            let new = scg.specialize(params);
            dirty.push(scg.dirty_frames(&old, &new).len());
            us.push(t.elapsed().as_secs_f64() * 1e6);
            old = new;
        }
        (dirty, us)
    };
    drop(_flow);
    Ok(ParamFlow {
        seconds: t0.elapsed().as_secs_f64(),
        swept,
        design,
        effort,
        arch,
        search,
        config,
        dirty,
        specialize_us,
    })
}

/// Everything one conventional flow produced.
pub struct ConvFlow {
    pub seconds: f64,
    pub swept: Aig,
    pub design: MappedDesign,
    pub netlist: ParNetlist,
    pub arch: FabricArch,
    pub placement: Placement,
    pub width: usize,
    pub routed: RouteResult,
}

/// sweep -> map -> extract -> place -> one cold route at the estimated
/// width plus four, doubling the width if the estimate undershoots.
pub fn conv_flow(inputs: &Inputs, place_seed: u64, rep: u64) -> Result<ConvFlow, String> {
    let t0 = Instant::now();
    let _flow = span("bench.flow.conv", rep);
    let swept = {
        let _s = span("bench.logic.sweep", rep);
        logic::opt::sweep(&inputs.conv_pe)
    };
    let design = {
        let _s = span("bench.mapping.map_conventional", rep);
        mapping::map_conventional(&swept, MapOptions::default())
    };
    let netlist = {
        let _s = span("bench.par.extract", rep);
        par::extract(&design)
    };
    let arch = FabricArch::sized_for(netlist.logic_count(), netlist.io_count());
    let engine = engine(place_seed);
    let placement = {
        let _s = span("bench.par.place", rep);
        engine.place(&netlist, arch)
    };
    let limits = EngineOptions::default();
    let mut width =
        (par::channel_width_estimate(&netlist, &placement, arch) + 4).max(limits.min_width);
    let routed = loop {
        let graph = {
            let _s = span("bench.fabric.rrg_build", rep);
            RouteGraph::build(arch, width)
        };
        let _s = span("bench.par.route", rep);
        match engine.route(&netlist, &placement, &graph) {
            Ok(r) => break r,
            Err(e) if width >= limits.max_width => {
                return Err(format!(
                    "conventional PE unroutable at width {width}: {e:?}"
                ))
            }
            Err(_) => width = (width * 2).min(limits.max_width),
        }
    };
    drop(_flow);
    Ok(ConvFlow {
        seconds: t0.elapsed().as_secs_f64(),
        swept,
        design,
        netlist,
        arch,
        placement,
        width,
        routed,
    })
}

/// Modeled configuration-port seconds of the flow's micro-reconfigurations.
fn port_seconds(dirty: &[usize]) -> f64 {
    dirty
        .iter()
        .map(|&f| dcs::timing::reconfig_cost(f, ReconfigInterface::Hwicap).as_secs_f64())
        .sum()
}

fn check_equivalence(
    out: &mut Outcome,
    what: &str,
    aig: &Aig,
    design: &MappedDesign,
    draws: usize,
) -> f64 {
    let report = verify::Verifier::new().verify_equivalence(aig, design, draws, 0x7AB1);
    out.check(report.ok(), || {
        format!("{what} design is not equivalent: {}", report.summary())
    });
    report.seconds
}

/// Records the facts of a parameterized flow that must repeat exactly.
fn record_facts(out: &mut Outcome, flow: &ParamFlow) {
    let stats = flow.design.stats();
    out.fact("param_luts", stats.luts);
    out.fact("param_min_width", flow.search.min_width);
    out.fact("param_wirelength", flow.search.result.wirelength);
    out.fact("dirty_frames", flow.dirty.iter().sum::<usize>());
}

pub fn run(args: &Args, sizes: &Sizes) -> Outcome {
    if args.trace {
        return run_traced(args, sizes);
    }
    let mut out = Outcome::default();
    let (inputs, first_setup) = crate::timed(|| setup(args.seed, sizes));

    let mut window = Window::open(args.seconds);
    let mut kept: Option<ParamFlow> = None;
    // The prefix is the first repetition: later ones do the same work, but
    // what the allocator keeps between them varies from run to run.
    let mut prefix = crate::Prefix::default();
    let mut rep = 0usize;
    loop {
        // Free the previous design first: its BDD nodes are hundreds of
        // MiB, and mapping beside them is measurably slower.
        drop(kept.take());
        let t0 = Instant::now();
        let flow = param_flow(&inputs, sizes.place_seed, rep as u64);
        window.record(t0);
        out.attempted += 1;
        match flow {
            Ok(f) => kept = Some(f),
            Err(e) => out.fail(e),
        }
        if rep == 0 {
            prefix = crate::Prefix::now(kept.as_ref().map_or(0.0, |f| port_seconds(&f.dirty)));
        }
        rep += 1;
        // A repetition is seconds long: stop once another would not fit.
        let mean = window.elapsed() / rep as f64;
        if rep >= sizes.min_reps && window.elapsed() + mean > args.seconds {
            break;
        }
    }

    // Repetitions of identical work have no tail.
    window.report(&mut out, 0.5, prefix);
    let setup_s = crate::setup_seconds(first_setup, || setup(args.seed, sizes), drop);
    out.metrics.set("setup_s", setup_s);
    out.fact("plan_hash", format!("{:016x}", inputs.hash));
    if let Some(flow) = &kept {
        check_equivalence(
            &mut out,
            "parameterized",
            &flow.swept,
            &flow.design,
            sizes.equiv_draws,
        );
        record_facts(&mut out, flow);
    }
    out
}

/// The traced run: one parameterized repetition untraced and one traced
/// (their difference is the tracing overhead), one traced conventional
/// flow, equivalence of both mapped designs, and the direct probes of the
/// layers this workload exercises.
fn run_traced(args: &Args, sizes: &Sizes) -> Outcome {
    let mut out = Outcome::default();
    let inputs = setup(args.seed, sizes);
    let seed = sizes.place_seed;

    let plain = param_flow(&inputs, seed, 0);
    trace::configure(trace::TraceConfig::On);
    let traced = param_flow(&inputs, seed, 0);
    let conv = conv_flow(&inputs, seed, 0);
    let times = spans::finish("overlay_build");
    out.attempted += 3;
    let (plain, flow, conv) = match (plain, traced, conv) {
        (Ok(p), Ok(t), Ok(c)) => (p, t, c),
        (p, t, c) => {
            for e in [p.err(), t.err(), c.err()].into_iter().flatten() {
                out.fail(e);
            }
            return out;
        }
    };
    out.check(
        plain.search.result.trees == flow.search.result.trees,
        || "tracing changed the routed trees".to_string(),
    );
    record_facts(&mut out, &flow);

    let m = &mut out.metrics;
    m.set("overlay.param_flow_s", flow.seconds);
    m.set("overlay.conv_flow_s", conv.seconds);
    // Self times of the bench spans under each flow against the flow's
    // own timer: what the spans do not explain.
    let own = |names: &[&str]| names.iter().map(|n| times.own_seconds(n)).sum::<f64>();
    let param_spans = own(&[
        "bench.mapping.map_parameterized",
        "bench.par.place",
        "bench.par.width_search",
        "bench.dcs.ppc_extract",
        "bench.dcs.scg",
    ]);
    let conv_spans = own(&[
        "bench.mapping.map_conventional",
        "bench.fabric.rrg_build",
        "bench.par.route",
    ]);
    // `sweep`, `extract` and `place` carry the same name in both flows.
    let shared = own(&["bench.logic.sweep", "bench.par.extract"]);
    let explained = param_spans + conv_spans + shared;
    let total = flow.seconds + conv.seconds;
    m.set(
        "trace.span_residual_pct",
        100.0 * (total - explained).abs() / total,
    );
    m.set(
        "trace.overhead_pct",
        100.0 * (flow.seconds - plain.seconds) / plain.seconds,
    );
    m.set("window.op_tail_ms", plain.seconds * 1e3);

    // logic
    let sweeps = times.durations("bench.logic.sweep");
    m.set("logic.sweep_ms", sweeps[0] / 1e6);
    m.set("logic.aig_ands", flow.swept.num_ands() as f64);
    probes::logic_kernels(m, args.seed, &flow.swept);
    // softfloat
    probes::pe_build(m, inputs.cfg);
    // mapping
    let pstats = flow.design.stats();
    let cstats = conv.design.stats();
    m.set(
        "mapping.param_map_s",
        times.total_seconds("bench.mapping.map_parameterized"),
    );
    m.set(
        "mapping.conv_map_s",
        times.total_seconds("bench.mapping.map_conventional"),
    );
    m.set("mapping.ptt_merges", flow.effort.ptt_merges as f64);
    m.set(
        "mapping.ptt_cache_hit_ratio",
        ratio(flow.effort.ptt_cache_hits, flow.effort.ptt_merges),
    );
    m.set("mapping.tcon_checks", flow.effort.tcon_checks as f64);
    m.set(
        "mapping.tcon_cache_hit_ratio",
        ratio(flow.effort.tcon_cache_hits, flow.effort.tcon_checks),
    );
    m.set("mapping.param_luts", pstats.luts as f64);
    m.set("mapping.param_tluts", pstats.tluts as f64);
    m.set("mapping.param_tcons", pstats.tcons as f64);
    m.set("mapping.param_depth", f64::from(pstats.depth));
    m.set("mapping.conv_luts", cstats.luts as f64);
    m.set("mapping.conv_depth", f64::from(cstats.depth));
    // fabric: one graph at the certified minimum width, as every probe of
    // the width search builds.
    let t = Instant::now();
    let graph = RouteGraph::build(flow.arch, flow.search.min_width);
    m.set("fabric.rrg_build_ms", t.elapsed().as_secs_f64() * 1e3);
    m.set("fabric.rrg_nodes", graph.node_count() as f64);
    // par
    let probes_log = &flow.search.probes;
    let param_ripups: usize = probes_log.iter().map(|p| p.ripups).sum();
    let param_place_s = times.durations("bench.par.place")[0] / 1e9;
    let conv_place_s = times.durations("bench.par.place")[1] / 1e9;
    let width_search_s = times.total_seconds("bench.par.width_search");
    let conv_route_s = times.total_seconds("bench.par.route");
    m.set(
        "par.extract_ms",
        times.durations("bench.par.extract")[0] / 1e6,
    );
    m.set("par.param_place_s", param_place_s);
    m.set("par.conv_place_s", conv_place_s);
    m.set("par.param_width_search_s", width_search_s);
    m.set("par.conv_route_s", conv_route_s);
    m.set("par.param_probes", probes_log.len() as f64);
    m.set(
        "par.param_route_iterations",
        probes_log.iter().map(|p| p.iterations).sum::<usize>() as f64,
    );
    m.set("par.param_ripups", param_ripups as f64);
    m.set("par.conv_route_iterations", conv.routed.iterations as f64);
    m.set("par.conv_ripups", conv.routed.ripups as f64);
    m.set(
        "par.ripups_per_s",
        (param_ripups + conv.routed.ripups) as f64 / (width_search_s + conv_route_s),
    );
    m.set("par.param_min_width", flow.search.min_width as f64);
    m.set("par.param_wirelength", flow.search.result.wirelength as f64);
    m.set("par.conv_wirelength", conv.routed.wirelength as f64);
    // dcs
    m.set(
        "dcs.ppc_extract_ms",
        times.total_seconds("bench.dcs.ppc_extract") * 1e3,
    );
    m.set("dcs.scg_specialize_us", median(&flow.specialize_us));
    m.set("dcs.ppc_bits", flow.config.ppc_bits() as f64);
    m.set("dcs.tunable_frames", flow.config.tunable_frames() as f64);
    m.set(
        "dcs.dirty_frames_mean",
        flow.dirty.iter().sum::<usize>() as f64 / flow.dirty.len() as f64,
    );
    probes::span_cost(m);

    // verify: outside every timer above.
    let equiv = check_equivalence(
        &mut out,
        "parameterized",
        &flow.swept,
        &flow.design,
        sizes.equiv_draws,
    ) + check_equivalence(
        &mut out,
        "conventional",
        &conv.swept,
        &conv.design,
        sizes.equiv_draws,
    );
    let graph = RouteGraph::build(conv.arch, conv.width);
    let nets = par::troute::terminals(&conv.netlist, &conv.placement, &graph);
    let routes = verify::Verifier::new().verify_routes(&graph, &nets, &conv.routed.trees);
    out.check(routes.ok(), || {
        format!("conventional routes: {}", routes.summary())
    });
    out.metrics.set("verify.equiv_s", equiv);
    out.metrics.set("verify.violations", out.failed as f64);
    out
}

fn ratio(part: usize, whole: usize) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}
