//! End-to-end check of the Fig. 2 / Fig. 3 tool flows: a parameterized
//! design goes through the generic stage (synthesis → TCONMAP → TC + PPC)
//! and the specialization stage (SCG → specialized bits), and the
//! specialized circuit must be cycle-exact with the source netlist whose
//! parameters are frozen to the same values.

use logic::aig::InputKind;
use logic::fxhash::FxHashMap;
use mapping::{map_conventional, map_parameterized, MapOptions};
use softfloat::gen::build_mac_pe;
use softfloat::{FpFormat, FpValue};

/// Medium format keeps the gate-level work fast in CI while exercising the
/// full datapath structure.
const FMT: FpFormat = FpFormat { we: 5, wf: 8 };

#[test]
fn generic_plus_specialization_stage_is_sound() {
    let aig = logic::opt::sweep(&build_mac_pe(FMT, InputKind::Param));
    let design = map_parameterized(&aig, MapOptions::default());
    let cfg = dcs::ParamConfig::extract(&design);
    assert!(
        cfg.ppc_bits() > 0,
        "a parameterized MAC must have tunable bits"
    );
    let scg = dcs::Scg::new(&design, &cfg);

    let mut rng = logic::SplitMix64::new(2024);
    for _ in 0..4 {
        // Random coefficient (the parameter word).
        let coeff = FpValue::from_f64((rng.unit_f64() - 0.5) * 8.0, FMT);
        let params = design.params_from_bits(coeff.bits);

        // SCG produces the specialized bits; the design specializes to a
        // concrete LUT/wire network; both must agree (checked inside the
        // dcs crate) and the network must match the AIG with the constant.
        let _bits = scg.specialize(&params);
        let spec = design.specialize(&params);

        // Reference: fold the parameters in the AIG itself.
        let mut fold = FxHashMap::default();
        for (idx, info) in aig.inputs().iter().enumerate() {
            if info.kind == InputKind::Param {
                // params are ordered like the design's param_names = AIG order.
                let v = design
                    .param_names
                    .iter()
                    .position(|n| n == &info.name)
                    .map(|p| params[p])
                    .unwrap();
                fold.insert(idx as u32, v);
            }
        }
        let frozen = aig.specialize(&fold);

        for round in 0..4 {
            let words: Vec<u64> = (0..frozen.num_inputs()).map(|_| rng.next_u64()).collect();
            let want = logic::sim::simulate_u64(&frozen, &words);
            let got = spec.simulate(&words);
            for (o, (w, g)) in want.iter().zip(&got).enumerate() {
                assert_eq!(w, g, "coeff {:#x}, output {o}, round {round}", coeff.bits);
            }
        }
    }
}

#[test]
fn conventional_and_parameterized_flows_agree_functionally() {
    // For any fixed coefficient the two flows implement the same function.
    let aig = logic::opt::sweep(&build_mac_pe(FMT, InputKind::Param));
    let conv = map_conventional(&aig, MapOptions::default());
    let par = map_parameterized(&aig, MapOptions::default());

    let coeff = FpValue::from_f64(2.5, FMT);
    let params = par.params_from_bits(coeff.bits);
    let spec_par = par.specialize(&params);
    let spec_conv = conv.specialize(&[]); // no parameters honored

    // The conventional design takes the coefficient as regular inputs:
    // order is the AIG input order (x, coeff, acc).
    let w = FMT.width() as usize;
    let mut rng = logic::SplitMix64::new(77);
    for _ in 0..8 {
        let x = rng.next_u64();
        let acc = rng.next_u64();
        // Parameterized design inputs: regular only (x, acc).
        let mut words_par = Vec::new();
        for i in 0..w {
            words_par.push(((x >> i) & 1) * u64::MAX);
        }
        for i in 0..w {
            words_par.push(((acc >> i) & 1) * u64::MAX);
        }
        // Conventional inputs: x, coeff, acc.
        let mut words_conv = Vec::new();
        for i in 0..w {
            words_conv.push(((x >> i) & 1) * u64::MAX);
        }
        for i in 0..w {
            words_conv.push(((coeff.bits >> i) & 1) * u64::MAX);
        }
        for i in 0..w {
            words_conv.push(((acc >> i) & 1) * u64::MAX);
        }
        let a = spec_par.simulate(&words_par);
        let b = spec_conv.simulate(&words_conv);
        assert_eq!(a, b, "flows disagree for x={x:#x} acc={acc:#x}");
    }
}

#[test]
fn specialized_mac_computes_flopoco_mac() {
    // The whole stack vs the value model: specialize for a coefficient,
    // drive random x/acc, compare against FpValue::mac bit-for-bit.
    let aig = logic::opt::sweep(&build_mac_pe(FMT, InputKind::Param));
    let design = map_parameterized(&aig, MapOptions::default());
    let coeff = FpValue::from_f64(-1.75, FMT);
    let spec = design.specialize(&design.params_from_bits(coeff.bits));

    let w = FMT.width() as usize;
    let mut rng = logic::SplitMix64::new(5);
    for _ in 0..40 {
        let x = FpValue::from_f64((rng.unit_f64() - 0.5) * 32.0, FMT);
        let acc = FpValue::from_f64((rng.unit_f64() - 0.5) * 32.0, FMT);
        let mut words = Vec::new();
        for i in 0..w {
            words.push(((x.bits >> i) & 1) * u64::MAX);
        }
        for i in 0..w {
            words.push(((acc.bits >> i) & 1) * u64::MAX);
        }
        let out = spec.simulate(&words);
        let got = out
            .iter()
            .enumerate()
            .fold(0u64, |a, (i, &wd)| a | ((wd & 1) << i));
        let want = x.mac(coeff, acc).bits;
        assert_eq!(got, want, "x={} acc={}", x.to_f64(), acc.to_f64());
    }
}

#[test]
fn specialized_virtual_pe_computes_pe_settings_evaluate() {
    // The same leg for the virtual PE — datapath plus settings-driven
    // routing muxes: every mode, specialized from its settings word,
    // against the value model on both outputs.
    use vcgra::{PeMode, PeSettings, VirtualPe, VirtualPeConfig};
    let cfg = VirtualPeConfig {
        format: FMT,
        hops: 2,
    };
    let pe = VirtualPe::build(cfg, true);
    let design = map_parameterized(&logic::opt::sweep(&pe.aig), MapOptions::default());
    // `to_param_bits` is in the netlist's parameter order and the regular
    // inputs are bus bits; the design's are looked up by name.
    let pe_params: Vec<&str> = pe
        .aig
        .inputs()
        .iter()
        .filter(|i| i.kind == InputKind::Param)
        .map(|i| i.name.as_str())
        .collect();
    let param_index: Vec<usize> = design
        .param_names
        .iter()
        .map(|n| {
            pe_params
                .iter()
                .position(|p| p == n)
                .expect("a PE parameter")
        })
        .collect();
    let input_bits: Vec<(&str, usize)> = design
        .input_names
        .iter()
        .map(|name| {
            let (bus, idx) = name.split_once('[').expect("a bus bit");
            (bus, idx.trim_end_matches(']').parse().expect("a bit index"))
        })
        .collect();

    let w = FMT.width() as usize;
    let mut rng = logic::SplitMix64::new(0x5E77);
    let mut rnd_fp = || FpValue::from_f64((rng.unit_f64() - 0.5) * 16.0, FMT);
    for mode in [PeMode::Mac, PeMode::Mul, PeMode::Add, PeMode::Pass] {
        for _ in 0..8 {
            let settings = PeSettings {
                coeff: rnd_fp(),
                counter: 1,
                mode,
            };
            let (a, b, fb) = (rnd_fp(), rnd_fp(), rnd_fp());
            let bits = settings.to_param_bits(&cfg);
            let params: Vec<bool> = param_index.iter().map(|&i| bits[i]).collect();
            let words: Vec<u64> = input_bits
                .iter()
                .map(|&(bus, idx)| {
                    let v = match bus {
                        "in_a" => a,
                        "in_b" => b,
                        "fb" => fb,
                        other => panic!("unexpected input {other}"),
                    };
                    ((v.bits >> idx) & 1) * u64::MAX
                })
                .collect();
            let out = design.specialize(&params).simulate(&words);
            let bus = |range: std::ops::Range<usize>| {
                out[range]
                    .iter()
                    .enumerate()
                    .fold(0u64, |acc, (i, &x)| acc | ((x & 1) << i))
            };
            let (want_out, want_fbn) = settings.evaluate(a, b, fb);
            assert_eq!(
                bus(0..w),
                want_out.bits,
                "{mode:?} out, coeff {:#x}",
                settings.coeff.bits
            );
            assert_eq!(
                bus(w..2 * w),
                want_fbn.bits,
                "{mode:?} fbn, coeff {:#x}",
                settings.coeff.bits
            );
        }
    }
}
