//! Paper-scale smoke test: maps the full (6,26) virtual PE through both
//! flows. Run with --release; prints the Table I quantities.

use mapping::{map_conventional, map_parameterized, MapOptions};

#[test]
#[ignore = "paper-scale; run explicitly in release mode"]
fn table1_shape() {
    let pe_par = vcgra::VirtualPe::build(vcgra::VirtualPeConfig::default(), true);
    let aig = logic::opt::sweep(&pe_par.aig);
    println!("AIG: {} live ANDs, depth {}", aig.live_ands(), aig.depth());
    let t0 = std::time::Instant::now();
    let conv = map_conventional(&aig, MapOptions::default());
    println!(
        "conventional mapped in {:?}: {:?}",
        t0.elapsed(),
        conv.stats()
    );
    let t1 = std::time::Instant::now();
    let par = map_parameterized(&aig, MapOptions::default());
    println!(
        "parameterized mapped in {:?}: {:?}",
        t1.elapsed(),
        par.stats()
    );
    let (sc, sp) = (conv.stats(), par.stats());
    let red = 100.0 * (1.0 - sp.luts as f64 / sc.luts as f64);
    println!("LUT reduction: {red:.1}% (paper: >=30%)");
    println!("TCONs: {} (paper: 568)", sp.tcons);
    println!("depth: {} -> {} (paper: 36 -> 33)", sc.depth, sp.depth);
}

#[test]
#[ignore = "paper-scale PaR; run explicitly in release mode"]
fn table1_par_shape() {
    let pe_par = vcgra::VirtualPe::build(vcgra::VirtualPeConfig::default(), true);
    let aig = logic::opt::sweep(&pe_par.aig);
    for (label, design) in [
        (
            "conventional",
            map_conventional(&aig, MapOptions::default()),
        ),
        (
            "parameterized",
            map_parameterized(&aig, MapOptions::default()),
        ),
    ] {
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
            rep.result.wirelength,
            rep.min_channel_width,
            rep.result.tcon_switches,
            t.elapsed()
        );
    }
}
