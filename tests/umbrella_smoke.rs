//! Smoke test of the umbrella crate: every member crate is reached
//! *through the `vcgra_repro` re-exports*, so a broken `pub use` in
//! `src/lib.rs` fails here even when the member crates themselves are
//! healthy.
//!
//! The flow mirrors the paper end-to-end at smoke scale: build a virtual
//! PE, map it with the parameterized flow, specialize it through the SCG,
//! place-and-route a reduced-format PE on the fabric, and simulate one
//! sample through the value-level model and a small VCGRA application.

use vcgra_repro::{dcs, fabric, logic, mapping, par, retina, softfloat, vcgra};

use softfloat::{FpFormat, FpValue};
use vcgra::{PeSettings, VirtualPe, VirtualPeConfig};

#[test]
fn every_reexport_carries_the_full_flow() {
    // logic: the default PE netlist is a live AIG with parameter inputs.
    let pe = VirtualPe::build(VirtualPeConfig::default(), true);
    let aig = logic::opt::sweep(&pe.aig);
    assert!(aig.live_ands() > 0, "PE netlist must contain gates");
    assert!(
        aig.num_inputs_of(logic::InputKind::Param) > 0,
        "parameterized PE must declare parameter inputs"
    );

    // mapping: the parameterized flow produces TLUTs/TCONs over it.
    let design = mapping::map_parameterized(&aig, mapping::MapOptions::default());
    let stats = design.stats();
    assert!(stats.luts > 0);
    assert_eq!(design.param_names.len(), pe.settings_bits());

    // dcs: extract the PPC and specialize via the SCG for one settings
    // register content.
    let cfg = dcs::ParamConfig::extract(&design);
    assert!(cfg.ppc_bits() > 0, "tunable bits must exist");
    let scg = dcs::Scg::new(&design, &cfg);
    let settings = PeSettings::mac(FpValue::from_f64(0.375, FpFormat::PAPER), 1);
    let bits = settings.to_param_bits(&pe.config);
    assert_eq!(bits.len(), design.param_names.len());
    let spec = scg.specialize(&bits);
    assert!(!scg.all_tunable_frames().is_empty());
    drop(spec);

    // par + fabric: place and route a reduced-format PE (fast enough for
    // the unoptimized test profile) on a sized fabric, driven through the
    // ParEngine facade.
    let small = VirtualPe::build(
        VirtualPeConfig {
            format: FpFormat::new(3, 4),
            hops: 2,
        },
        true,
    );
    let small_design = mapping::map_parameterized(
        &logic::opt::sweep(&small.aig),
        mapping::MapOptions::default(),
    );
    let netlist = par::extract(&small_design);
    let arch = fabric::FabricArch::sized_for(netlist.logic_count(), netlist.io_count());
    let engine = par::ParEngine::new(par::EngineOptions::default());
    let placement = engine.place(&netlist, arch);
    let graph = fabric::RouteGraph::build(arch, 20);
    let routed = engine
        .route(&netlist, &placement, &graph)
        .expect("reduced-format PE must route at a generous channel width");
    assert!(routed.wirelength > 0);
    assert!(routed.ripups >= netlist.nets.len());

    // vcgra sim: one sample through the value-level PE model...
    let x = FpValue::from_f64(2.0, FpFormat::PAPER);
    let fb = FpValue::from_f64(1.0, FpFormat::PAPER);
    let (out, _) = settings.evaluate(x, FpValue::zero(FpFormat::PAPER), fb);
    assert_eq!(out.to_f64(), 2.0 * 0.375 + 1.0);

    // ... and one sample through a mapped 3-tap application on the grid.
    let app = vcgra::app::AppGraph::dot_product(FpFormat::PAPER, &[0.25, 0.5, 0.25]);
    let m = vcgra::flow::map_app(&app, vcgra::VcgraArch::paper_4x4(), 11).expect("fits 4x4");
    let inputs: Vec<FpValue> = [1.0, 1.0, 1.0]
        .iter()
        .map(|&v| FpValue::from_f64(v, FpFormat::PAPER))
        .collect();
    let y = vcgra::sim::run_mapped(&m, &app, &inputs)[0];
    assert_eq!(y.to_f64(), 1.0, "low-pass of a flat signal is the signal");

    // retina: the synthetic fundus generator and the metrics close the
    // loop on the application side.
    let (img, truth) = retina::synth_fundus(
        &retina::SynthConfig {
            size: 32,
            ..Default::default()
        },
        2,
    );
    let seg = img.g.threshold(0.5);
    let metrics = retina::Metrics::evaluate(&seg, &truth);
    assert_eq!(metrics.tp + metrics.fp + metrics.fn_ + metrics.tn, 32 * 32);
}

#[test]
fn shard_reexport_serves_a_tiny_plan() {
    // shard (which pulls runtime, trace, and verify along): a two-shard
    // tier drives a minimal seeded plan end-to-end through the umbrella
    // re-export, closing with a verified drain.
    use vcgra_repro::shard::{synthesize, LoadSpec, ShardConfig, ShardServer};
    let spec = LoadSpec {
        waves: 1,
        tenants_per_wave: 2,
        items_per_tenant: 2,
        ..LoadSpec::default()
    };
    let plan = synthesize(FpFormat::PAPER, &spec);
    let mut tier = ShardServer::start(ShardConfig::new(2));
    let report = vcgra_repro::shard::loadgen::run(&mut tier, &plan).expect("tiny plan serves");
    // 1 wave after priming x 2 tenants x 2 items x 2 phases (pre/post swap).
    assert_eq!(report.total_items, 8);
    assert!(
        report.warm_hit_rate > 0.0,
        "priming wave must warm the caches"
    );
    for fin in tier.shutdown() {
        assert!(
            fin.verify.ok(),
            "shard {} invariants at shutdown",
            fin.shard
        );
    }
}
