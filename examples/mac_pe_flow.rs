//! The Table I experiment at example scale: the virtual PE through both
//! tool flows, with mapping statistics and a (fast) PaR run on a reduced
//! floating-point format.
//!
//! ```text
//! cargo run --release --example mac_pe_flow
//! ```
//!
//! For the full-size (6,26) PE with minimum-channel-width search, run
//! `cargo run -p xbench --release --bin table1` instead (it takes minutes).

use logic::opt::sweep;
use mapping::{map_conventional, map_parameterized, MapOptions};
use softfloat::FpFormat;
use vcgra::{VirtualPe, VirtualPeConfig};

fn main() {
    // Reduced format so the example finishes in seconds.
    let cfg = VirtualPeConfig {
        format: FpFormat::new(5, 10),
        hops: 2,
    };
    println!("building virtual PE (FloPoCo we=5, wf=10, 2-hop intra-connect) ...");
    let conv_pe = VirtualPe::build(cfg, false);
    let par_pe = VirtualPe::build(cfg, true);
    let conv_aig = sweep(&conv_pe.aig);
    let par_aig = sweep(&par_pe.aig);
    println!(
        "netlist: {} AND gates; {} settings bits",
        par_aig.live_ands(),
        par_pe.settings_bits()
    );

    let conv = map_conventional(&conv_aig, MapOptions::default());
    let par = map_parameterized(&par_aig, MapOptions::default());
    let (sc, sp) = (conv.stats(), par.stats());
    println!("conventional:  {sc:?}");
    println!("parameterized: {sp:?}");
    println!(
        "LUT reduction {:.1}%, depth {} -> {}",
        100.0 * (1.0 - sp.luts as f64 / sc.luts as f64),
        sc.depth,
        sp.depth
    );

    // Place & route both (small enough to be quick).
    for (label, design) in [("conventional", &conv), ("parameterized", &par)] {
        let nl = par::extract(design);
        let t = std::time::Instant::now();
        let rep = par::ParEngine::new(par::EngineOptions::default())
            .run(&nl)
            .expect("routable");
        println!(
            "{label}: WL {} @ CW {} on a {}x{} fabric ({} TCON switch configs) in {:?}",
            rep.search.result.wirelength,
            rep.search.min_width,
            rep.arch.size,
            rep.arch.size,
            rep.search.result.tcon_switches,
            t.elapsed()
        );
    }

    // Verify the parameterized mapping against the netlist for a few
    // random settings.
    verify::Verifier::new()
        .verify_equivalence(&par_aig, &par, 3, 99)
        .assert_ok();
    println!("equivalence verified for random settings values");
}
