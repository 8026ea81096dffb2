//! Quickstart: the parameterized configuration flow end to end on a tiny
//! design.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Builds a small parameterized circuit (a coefficient-selectable filter
//! tap), runs the TCONMAP-style mapper, extracts the Template and Partial
//! Parameterized Configurations, specializes for two coefficient values
//! through the SCG, and shows that the specialized circuits behave exactly
//! like the original with the parameters frozen.

use logic::aig::{Aig, InputKind};
use mapping::{map_conventional, map_parameterized, MapOptions};

fn main() {
    // A 4-bit × 4-bit multiplier whose second operand is a parameter: the
    // core pattern of the paper's MAC PE (coefficient = infrequent input).
    let mut aig = Aig::new();
    let x = aig.input_vec("x", 4, InputKind::Regular);
    let c = aig.input_vec("c", 4, InputKind::Param);
    let prod = softfloat::gates::mul_carry_save(&mut aig, &x, &c);
    aig.add_output_vec("p", &prod);
    println!(
        "netlist: {} AND gates, {} regular + {} parameter inputs",
        aig.live_ands(),
        aig.num_inputs_of(InputKind::Regular),
        aig.num_inputs_of(InputKind::Param)
    );

    // Map it twice: the conventional way and the parameterized way.
    let conv = map_conventional(&aig, MapOptions::default());
    let par = map_parameterized(&aig, MapOptions::default());
    println!("conventional: {:?}", conv.stats());
    println!("parameterized: {:?}", par.stats());

    // Generic stage: TC + PPC.
    let cfg = dcs::ParamConfig::extract(&par);
    println!(
        "template: {} static bits; PPC: {} tunable bits ({} BDD nodes)",
        cfg.template_bits(),
        cfg.ppc_bits(),
        cfg.ppc_memory_nodes(&par)
    );

    // Specialization stage: two coefficient values.
    let scg = dcs::Scg::new(&par, &cfg);
    for coeff in [5u64, 11u64] {
        let params = par.params_from_bits(coeff);
        let spec = par.specialize(&params);
        let bits = scg.specialize(&params);
        let report = dcs::timing::specialization_report(
            &scg,
            &par.params_from_bits(0),
            &params,
            dcs::ReconfigInterface::Hwicap,
        );
        // Check the specialized circuit against plain integer math.
        let mut ok = true;
        for xv in 0..16u64 {
            let words: Vec<u64> = (0..4).map(|i| ((xv >> i) & 1) * u64::MAX).collect();
            let out = spec.simulate(&words);
            let got = out
                .iter()
                .enumerate()
                .fold(0u64, |acc, (i, &w)| acc | ((w & 1) << i));
            ok &= got == xv * coeff;
        }
        println!(
            "coeff={coeff}: specialized to {} LUTs, {} PPC bits evaluated, \
             {} frames to rewrite ({:?} on HWICAP) -> multiplier {}",
            spec.lut_count(),
            bits.values.len(),
            report.frames,
            report.port_time,
            if ok { "exact for all inputs" } else { "WRONG" }
        );
        assert!(ok);
    }

    // And the mapped designs are equivalent to the source netlist.
    verify::Verifier::new()
        .verify_equivalence(&aig, &par, 8, 42)
        .assert_ok();
    verify::Verifier::new()
        .verify_equivalence(&aig, &conv, 2, 43)
        .assert_ok();
    println!("equivalence checks passed — see README.md for the full flow");
}
