//! Table I's claims on the virtual PE, asserted: against the conventional
//! flow, the parameterized one needs at least 30 % fewer 4-LUTs and fewer
//! logic levels, maps tunable connections (TCONs), and routes at no wider
//! a minimum channel width. The reduced (5,10) PE checks the mapping
//! claims on every run; the paper's (6,26) PE, and place and route, are
//! `#[ignore]`d — run them with `cargo test --release -- --ignored`.

use mapping::{map_conventional, map_parameterized, MapOptions, MapStats, MappedDesign};
use softfloat::FpFormat;

/// The swept PE netlist of one flow, mapped by that flow's mapper.
fn mapped_pe(format: FpFormat, parameterized: bool) -> MappedDesign {
    let cfg = vcgra::VirtualPeConfig { format, hops: 2 };
    let aig = logic::opt::sweep(&vcgra::VirtualPe::build(cfg, parameterized).aig);
    if parameterized {
        map_parameterized(&aig, MapOptions::default())
    } else {
        map_conventional(&aig, MapOptions::default())
    }
}

/// The mapping half of Table I: ≥ 30 % fewer LUTs, fewer levels, TCONs.
fn assert_mapping_claims(conv: &MapStats, par: &MapStats) {
    let reduction = 1.0 - par.luts as f64 / conv.luts as f64;
    println!(
        "LUTs {} -> {} ({:.1} % fewer, paper: >= 30 %), depth {} -> {}, TCONs {}",
        conv.luts,
        par.luts,
        100.0 * reduction,
        conv.depth,
        par.depth,
        par.tcons
    );
    assert!(reduction >= 0.30, "{conv:?} -> {par:?}");
    assert!(par.depth < conv.depth, "{conv:?} -> {par:?}");
    assert!(par.tcons > 0, "{par:?}");
}

#[test]
fn reduced_pe_meets_the_mapping_claims() {
    let f = FpFormat::new(5, 10);
    let (conv, par) = (mapped_pe(f, false), mapped_pe(f, true));
    assert_mapping_claims(&conv.stats(), &par.stats());
}

#[test]
#[ignore = "paper-scale; run explicitly in release mode"]
fn table1_shape() {
    let t0 = std::time::Instant::now();
    let conv = mapped_pe(FpFormat::PAPER, false);
    println!("conventional mapped in {:?}", t0.elapsed());
    let t1 = std::time::Instant::now();
    let par = mapped_pe(FpFormat::PAPER, true);
    println!("parameterized mapped in {:?}", t1.elapsed());
    println!("paper: 2522 -> 1802 LUTs, depth 36 -> 33, 568 TCONs");
    assert_mapping_claims(&conv.stats(), &par.stats());
}

#[test]
#[ignore = "paper-scale PaR; run explicitly in release mode"]
fn table1_par_shape() {
    let conv = mapped_pe(FpFormat::PAPER, false);
    let par = mapped_pe(FpFormat::PAPER, true);
    assert_mapping_claims(&conv.stats(), &par.stats());
    let [width_conv, width_par] =
        [("conventional", conv), ("parameterized", par)].map(|(label, design)| {
            let nl = par::extract(&design);
            println!(
                "{label}: {} logic blocks, {} nets ({} tunable)",
                nl.logic_count(),
                nl.nets.len(),
                nl.tunable_net_count()
            );
            let t = std::time::Instant::now();
            let rep = par::ParEngine::new(par::EngineOptions::default())
                .run(&nl)
                .expect("routable");
            println!(
                "{label}: WL {} CW {} (tcon switches {}) in {:?}",
                rep.search.result.wirelength,
                rep.search.min_width,
                rep.search.result.tcon_switches,
                t.elapsed()
            );
            rep.search.min_width
        });
    assert!(
        width_par <= width_conv,
        "no channel-width overhead: parameterized {width_par} > conventional {width_conv}"
    );
}
