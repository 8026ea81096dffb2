//! Integration: place & route of small mapped designs with full audits —
//! connectivity, wire exclusivity, channel-width minimality, and the
//! TCON-sharing claim (tunable nets add no channel-width overhead).

use logic::aig::{Aig, InputKind};
use mapping::{map_conventional, map_parameterized, MapOptions};
use par::troute::terminals;
use par::{EngineOptions, ParEngine, ParNetlist, ParReport};
use verify::Verifier;

fn engine() -> ParEngine {
    ParEngine::new(EngineOptions::default())
}

fn place_and_route(nl: &ParNetlist) -> Option<ParReport> {
    engine().run(nl)
}

fn coeff_mul_aig(bits: usize) -> Aig {
    let mut g = Aig::new();
    let x = g.input_vec("x", bits, InputKind::Regular);
    let c = g.input_vec("c", bits, InputKind::Param);
    let p = softfloat::gates::mul_carry_save(&mut g, &x, &c);
    g.add_output_vec("p", &p);
    g
}

#[test]
fn both_flows_route_and_audit_clean() {
    let aig = coeff_mul_aig(4);
    for (label, design) in [
        ("conv", map_conventional(&aig, MapOptions::default())),
        ("par", map_parameterized(&aig, MapOptions::default())),
    ] {
        let nl = par::extract(&design);
        let rep = place_and_route(&nl).unwrap_or_else(|| panic!("{label}: unroutable"));
        let graph = fabric::RouteGraph::build(rep.arch, rep.search.min_width);
        let routed = engine()
            .route(&nl, &rep.placement, &graph)
            .expect("re-route at min width");
        let nets = terminals(&nl, &rep.placement, &graph);
        for trees in [&rep.search.result.trees, &routed.trees] {
            Verifier::new()
                .verify_routes(&graph, &nets, trees)
                .assert_ok();
        }
    }
}

#[test]
fn tcons_do_not_increase_channel_width() {
    // The paper's key PaR claim: moving connections into tunable routing
    // does not raise the minimum channel width. Compare CW of the
    // parameterized design against the conventional one.
    let aig = coeff_mul_aig(5);
    let conv = map_conventional(&aig, MapOptions::default());
    let par_d = map_parameterized(&aig, MapOptions::default());
    let rep_c = place_and_route(&par::extract(&conv)).unwrap();
    let rep_p = place_and_route(&par::extract(&par_d)).unwrap();
    assert!(
        rep_p.search.min_width <= rep_c.search.min_width + 1,
        "parameterized CW {} vs conventional {}",
        rep_p.search.min_width,
        rep_c.search.min_width
    );
}

#[test]
fn wirelength_is_reported_and_positive() {
    let aig = coeff_mul_aig(3);
    let d = map_parameterized(&aig, MapOptions::default());
    let nl = par::extract(&d);
    let rep = place_and_route(&nl).unwrap();
    assert!(rep.search.result.wirelength > 0);
    assert!(rep.search.result.iterations >= 1);
    // Tunable wirelength is part of the total.
    assert!(rep.search.result.tunable_wirelength <= rep.search.result.wirelength);
}

#[test]
fn placement_seeds_are_deterministic() {
    let aig = coeff_mul_aig(3);
    let d = map_conventional(&aig, MapOptions::default());
    let nl = par::extract(&d);
    let arch = fabric::FabricArch::sized_for(nl.logic_count(), nl.io_count());
    let p1 = par::place(&nl, arch, 11);
    let p2 = par::place(&nl, arch, 11);
    assert_eq!(p1.site_of, p2.site_of, "same seed, same placement");
    assert_eq!(p1.cost, p2.cost);
}
