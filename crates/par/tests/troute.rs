//! The router on hand-built netlists: every routed result is linted by
//! the `verify` crate's route-tree pass, which the router never runs
//! itself, and a tunable net's alternatives share their wires.

use fabric::arch::FabricArch;
use fabric::rrg::RouteGraph;
use par::troute::{terminals, Unroutable};
use par::{
    place, Block, BlockKind, EngineOptions, Net, ParEngine, ParNetlist, Placement, RouteResult,
};
use verify::Verifier;

fn route(nl: &ParNetlist, p: &Placement, g: &RouteGraph) -> Result<RouteResult, Unroutable> {
    ParEngine::new(EngineOptions::default()).route(nl, p, g)
}

fn tiny() -> (ParNetlist, Placement, RouteGraph) {
    let blocks = vec![
        Block {
            name: "in0".into(),
            kind: BlockKind::InputPad,
        },
        Block {
            name: "in1".into(),
            kind: BlockKind::InputPad,
        },
        Block {
            name: "l0".into(),
            kind: BlockKind::Logic,
        },
        Block {
            name: "l1".into(),
            kind: BlockKind::Logic,
        },
        Block {
            name: "out".into(),
            kind: BlockKind::OutputPad,
        },
    ];
    let nets = vec![
        Net {
            sources: vec![0],
            sinks: vec![(2, 0), (3, 1)],
        },
        Net {
            sources: vec![1],
            sinks: vec![(2, 1)],
        },
        Net {
            sources: vec![2],
            sinks: vec![(3, 0)],
        },
        Net {
            sources: vec![3],
            sinks: vec![(4, 0)],
        },
    ];
    let nl = ParNetlist { blocks, nets };
    let arch = FabricArch::paper_4lut(3);
    let p = place(&nl, arch, 5);
    let g = RouteGraph::build(arch, 6);
    (nl, p, g)
}

#[test]
fn tiny_design_routes_and_audits() {
    let (nl, p, g) = tiny();
    let r = route(&nl, &p, &g).expect("routable");
    assert!(r.wirelength > 0);
    assert!(r.ripups >= nl.nets.len());
    Verifier::new()
        .verify_routes(&g, &terminals(&nl, &p, &g), &r.trees)
        .assert_ok();
}

#[test]
fn tunable_net_shares_wires() {
    // One tunable net with two sources; both reach the same sink.
    let blocks = vec![
        Block {
            name: "a".into(),
            kind: BlockKind::InputPad,
        },
        Block {
            name: "b".into(),
            kind: BlockKind::InputPad,
        },
        Block {
            name: "l".into(),
            kind: BlockKind::Logic,
        },
        Block {
            name: "out".into(),
            kind: BlockKind::OutputPad,
        },
    ];
    let nets = vec![
        Net {
            sources: vec![0, 1],
            sinks: vec![(2, 0)],
        },
        Net {
            sources: vec![2],
            sinks: vec![(3, 0)],
        },
    ];
    let nl = ParNetlist { blocks, nets };
    let arch = FabricArch::paper_4lut(3);
    let p = place(&nl, arch, 1);
    let g = RouteGraph::build(arch, 6);
    let r = route(&nl, &p, &g).expect("routable");
    Verifier::new()
        .verify_routes(&g, &terminals(&nl, &p, &g), &r.trees)
        .assert_ok();
    assert!(r.tunable_wirelength > 0);
    assert!(r.tcon_switches > 0);
}
