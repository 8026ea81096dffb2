//! The Processing Element (Fig. 4): a floating-point MAC datapath wrapped
//! in a *virtual intra-connect*.
//!
//! The paper's PE contains BLE groups (the MAC's multiplier and adder)
//! connected by virtual routing switches — "connection multiplexers with
//! configuration memory". In the conventional overlay those multiplexers
//! burn LUTs; in the fully parameterized overlay their select bits are
//! parameters, so TCONMAP turns every one of them into a TCON realized on
//! the FPGA's physical switch blocks. The coefficient and the route
//! selects together form the PE's **settings register** content; the
//! iteration counter (used by the MAC control) also lives there but is
//! sequential state and does not appear in the combinational netlist.
//!
//! Two implementations are provided and cross-checked:
//!
//! * [`VirtualPe::build`] — the gate-level netlist (for the CAD flows of
//!   Table I), with every settings bit annotated `--PARAM`;
//! * [`PeSettings::evaluate`] — the value-level functional model used by
//!   the VCGRA application simulator (bit-exact FloPoCo arithmetic).

use logic::aig::{Aig, InputKind, Lit};
use softfloat::gen::{gen_add, gen_mul};
use softfloat::{FpFormat, FpValue};

/// Configuration of the virtual PE generator.
#[derive(Debug, Clone, Copy)]
pub struct VirtualPeConfig {
    /// Floating-point format of the datapath (the paper uses (6, 26)).
    pub format: FpFormat,
    /// Virtual switch hops per word-level connection. Fig. 4 routes every
    /// BLE-to-BLE connection through a connection block *and* a switch
    /// block, i.e. two hops.
    pub hops: usize,
}

impl VirtualPeConfig {
    /// Number of settings (parameter) bits of a PE built with this
    /// configuration: the coefficient, then two select bits per route hop.
    pub fn settings_bits(&self) -> usize {
        self.format.width() as usize + ROUTE_NAMES.len() * self.hops * 2
    }
}

impl Default for VirtualPeConfig {
    fn default() -> Self {
        Self {
            format: FpFormat::PAPER,
            hops: 2,
        }
    }
}

/// The routed word-level connections inside the PE, in settings order.
/// The multiplier's coefficient operand is *not* routed: it feeds straight
/// from the settings register into the multiplier BLEs (Fig. 4), which is
/// what lets TCONMAP specialize the multiplier for the constant.
pub(crate) const ROUTE_NAMES: [&str; 6] = ["x", "acc", "adda", "addb", "out", "fbn"];

/// High-level PE operating modes (what the settings register encodes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeMode {
    /// `out = in_a * coeff + fb` (accumulating MAC — the filter kernel op).
    Mac,
    /// `out = in_a * coeff` (multiply only).
    Mul,
    /// `out = in_a + in_b` (add only).
    Add,
    /// `out = in_a` (route-through).
    Pass,
}

/// Settings-register content of one PE.
///
/// The paper stores a 32-bit settings word per PE (iteration counter) plus
/// the specialized coefficient; route selects configure the intra-connect.
#[derive(Debug, Clone, Copy)]
pub struct PeSettings {
    /// The (infrequently changing) filter coefficient — a parameter.
    pub coeff: FpValue,
    /// MAC iteration count (number of accumulations before emitting).
    pub counter: u32,
    /// Operating mode, compiled into route selects.
    pub mode: PeMode,
}

impl PeSettings {
    /// MAC settings with a coefficient.
    pub fn mac(coeff: FpValue, counter: u32) -> Self {
        Self {
            coeff,
            counter,
            mode: PeMode::Mac,
        }
    }

    /// Route selects for every connection of [`ROUTE_NAMES`], as 2-bit
    /// codes indexing the candidate list of the first hop (subsequent hops
    /// select "previous", code 0).
    fn route_selects(&self) -> [u8; 6] {
        // Candidate orders (see `VirtualPe::build`):
        //   x:    [in_a, in_b, fb, zero]
        //   acc:  [fb, in_a, in_b, zero]
        //   adda: [mul_out, x, fb, zero]
        //   addb: [acc, in_b, fb, zero]
        //   out:  [add_out, mul_out, acc, x]
        //   fbn:  [add_out, mul_out, in_b, zero]
        match self.mode {
            // x=in_a, acc=fb, addA=mul, addB=acc, out=add, fb=add
            PeMode::Mac => [0, 0, 0, 0, 0, 0],
            // out = mul_out = in_a * coeff
            PeMode::Mul => [0, 3, 0, 3, 1, 1],
            // addA = x = in_a, addB = acc = in_b, out = add_out
            PeMode::Add => [0, 2, 1, 0, 0, 0],
            // out = x = in_a
            PeMode::Pass => [0, 0, 0, 0, 3, 1],
        }
    }

    /// Flattens the settings into the netlist's parameter bit order:
    /// `coeff[0..w]` then, per route, `hops × 2` select bits (low bit
    /// first; hops beyond the first default to "previous" = 0).
    pub fn to_param_bits(&self, cfg: &VirtualPeConfig) -> Vec<bool> {
        let w = cfg.format.width() as usize;
        let mut bits = Vec::with_capacity(cfg.settings_bits());
        for i in 0..w {
            bits.push((self.coeff.bits >> i) & 1 == 1);
        }
        for sel in self.route_selects() {
            bits.push(sel & 1 == 1);
            bits.push(sel & 2 == 2);
            for _ in 1..cfg.hops {
                bits.push(false);
                bits.push(false);
            }
        }
        bits
    }

    /// [`PeSettings::to_param_bits`] written into one lane of a packed
    /// assignment set: sets bit `lane` of `lanes[v]` for every parameter
    /// `v` that is true (the lane is taken to be clear). What a sweep over
    /// many PEs' settings packs with, without a `Vec<bool>` per PE.
    ///
    /// # Panics
    /// If `lanes` is not one word per settings bit, or `lane` is not a
    /// bit of a word.
    pub fn set_param_lane(&self, cfg: &VirtualPeConfig, lane: usize, lanes: &mut [u64]) {
        assert_eq!(
            lanes.len(),
            cfg.settings_bits(),
            "one lane word per settings bit"
        );
        assert!(lane < u64::BITS as usize, "lane {lane} of a 64-bit word");
        let (coeff, selects) = lanes.split_at_mut(cfg.format.width() as usize);
        for (i, word) in coeff.iter_mut().enumerate() {
            *word |= ((self.coeff.bits >> i) & 1) << lane;
        }
        // Per route: the first hop's two select bits; later hops stay 0.
        for (hop_bits, sel) in selects
            .chunks_exact_mut(cfg.hops * 2)
            .zip(self.route_selects())
        {
            hop_bits[0] |= u64::from(sel & 1) << lane;
            hop_bits[1] |= u64::from(sel >> 1 & 1) << lane;
        }
    }

    /// Value-level semantics of the PE for one cycle, mirroring the
    /// netlist: returns `(out, fb_next)`.
    pub fn evaluate(&self, in_a: FpValue, in_b: FpValue, fb: FpValue) -> (FpValue, FpValue) {
        let fmt = in_a.format;
        let zero = FpValue::zero(fmt);
        let sel = self.route_selects();
        let pick4 = |s: u8, c: [FpValue; 4]| c[(s & 3) as usize];
        let x = pick4(sel[0], [in_a, in_b, fb, zero]);
        let acc = pick4(sel[1], [fb, in_a, in_b, zero]);
        let mul_out = x.mul(self.coeff);
        let adda = pick4(sel[2], [mul_out, x, fb, zero]);
        let addb = pick4(sel[3], [acc, in_b, fb, zero]);
        let add_out = adda.add(addb);
        let out = pick4(sel[4], [add_out, mul_out, acc, x]);
        let fbn = pick4(sel[5], [add_out, mul_out, in_b, zero]);
        (out, fbn)
    }
}

/// A generated PE netlist plus its parameter layout.
pub struct VirtualPe {
    /// The netlist: regular inputs `in_a`, `in_b`, `fb`; parameter inputs
    /// `coeff` and the route selects; outputs `out`, `fbn`.
    pub aig: Aig,
    /// Generator configuration.
    pub config: VirtualPeConfig,
}

impl VirtualPe {
    /// Builds the PE netlist. With `parameterized = false` every settings
    /// bit is declared a *regular* input — the conventional overlay, where
    /// the intra-connect multiplexers must be implemented in LUTs and the
    /// settings register in flip-flops.
    pub fn build(config: VirtualPeConfig, parameterized: bool) -> Self {
        let fmt = config.format;
        let w = fmt.width() as usize;
        let kind = if parameterized {
            InputKind::Param
        } else {
            InputKind::Regular
        };
        let mut g = Aig::new();

        let in_a = g.input_vec("in_a", w, InputKind::Regular);
        let in_b = g.input_vec("in_b", w, InputKind::Regular);
        let fb = g.input_vec("fb", w, InputKind::Regular);
        // Settings: coefficient first, then route selects (see
        // `PeSettings::to_param_bits` for the exact order).
        let coeff = g.input_vec("coeff", w, kind);
        let mut route_sels: Vec<Vec<Lit>> = Vec::new();
        for name in ROUTE_NAMES {
            let mut sels = Vec::with_capacity(config.hops * 2);
            for h in 0..config.hops {
                sels.push(g.input(format!("sel_{name}_h{h}[0]"), kind));
                sels.push(g.input(format!("sel_{name}_h{h}[1]"), kind));
            }
            route_sels.push(sels);
        }

        let zero: Vec<Lit> = vec![Lit::FALSE; w];

        // One virtual connection: `hops` 4:1 multiplexer stages per bit.
        // The first hop selects among the four candidates; each further hop
        // models the switch-block traversal (select 0 keeps the signal, the
        // other inputs are the PE ports, as a Fig. 4 ring would offer).
        let route = |g: &mut Aig,
                     sels: &[Lit],
                     cands: [&[Lit]; 4],
                     in_a: &[Lit],
                     in_b: &[Lit],
                     fb: &[Lit]|
         -> Vec<Lit> {
            let mux4 = |g: &mut Aig, s0: Lit, s1: Lit, c: [&[Lit]; 4]| -> Vec<Lit> {
                (0..c[0].len())
                    .map(|i| {
                        let lo = g.mux(s0, c[1][i], c[0][i]);
                        let hi = g.mux(s0, c[3][i], c[2][i]);
                        g.mux(s1, hi, lo)
                    })
                    .collect()
            };
            let mut cur = mux4(g, sels[0], sels[1], cands);
            let hops = sels.len() / 2;
            for h in 1..hops {
                let (s0, s1) = (sels[2 * h], sels[2 * h + 1]);
                cur = mux4(g, s0, s1, [&cur, in_a, in_b, fb]);
            }
            cur
        };

        let x = route(
            &mut g,
            &route_sels[0],
            [&in_a, &in_b, &fb, &zero],
            &in_a,
            &in_b,
            &fb,
        );
        let acc = route(
            &mut g,
            &route_sels[1],
            [&fb, &in_a, &in_b, &zero],
            &in_a,
            &in_b,
            &fb,
        );
        // The coefficient feeds the multiplier directly from the settings
        // register — no virtual routing in between (Fig. 4).
        let mul_out = gen_mul(&mut g, fmt, &x, &coeff);
        let adda = route(
            &mut g,
            &route_sels[2],
            [&mul_out, &x, &fb, &zero],
            &in_a,
            &in_b,
            &fb,
        );
        let addb = route(
            &mut g,
            &route_sels[3],
            [&acc, &in_b, &fb, &zero],
            &in_a,
            &in_b,
            &fb,
        );
        let add_out = gen_add(&mut g, fmt, &adda, &addb);
        let out = route(
            &mut g,
            &route_sels[4],
            [&add_out, &mul_out, &acc, &x],
            &in_a,
            &in_b,
            &fb,
        );
        let fbn = route(
            &mut g,
            &route_sels[5],
            [&add_out, &mul_out, &in_b, &zero],
            &in_a,
            &in_b,
            &fb,
        );
        g.add_output_vec("out", &out);
        g.add_output_vec("fbn", &fbn);

        VirtualPe { aig: g, config }
    }

    /// Number of settings (parameter) bits in the netlist.
    pub fn settings_bits(&self) -> usize {
        self.config.settings_bits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use logic::sim::simulate_u64;

    fn fmt() -> FpFormat {
        FpFormat::new(5, 8) // medium format keeps netlist tests fast
    }

    fn drive_pe(
        pe: &VirtualPe,
        settings: &PeSettings,
        in_a: FpValue,
        in_b: FpValue,
        fb: FpValue,
    ) -> (u64, u64) {
        let w = pe.config.format.width() as usize;
        let params = settings.to_param_bits(&pe.config);
        let mut words = Vec::new();
        let mut p_iter = params.iter();
        for info in pe.aig.inputs() {
            let word = match info.kind {
                InputKind::Param => {
                    if *p_iter.next().expect("param count") {
                        u64::MAX
                    } else {
                        0
                    }
                }
                InputKind::Regular => {
                    // Name-based: in_a[i], in_b[i], fb[i].
                    let (base, idx) = info
                        .name
                        .split_once('[')
                        .map(|(b, r)| (b, r.trim_end_matches(']').parse::<usize>().unwrap()))
                        .unwrap();
                    let v = match base {
                        "in_a" => in_a.bits,
                        "in_b" => in_b.bits,
                        "fb" => fb.bits,
                        other => panic!("unexpected input {other}"),
                    };
                    if (v >> idx) & 1 == 1 {
                        u64::MAX
                    } else {
                        0
                    }
                }
            };
            words.push(word);
        }
        let out = simulate_u64(&pe.aig, &words);
        let collect = |range: std::ops::Range<usize>| -> u64 {
            out[range]
                .iter()
                .enumerate()
                .fold(0u64, |acc, (i, &x)| acc | ((x & 1) << i))
        };
        (collect(0..w), collect(w..2 * w))
    }

    #[test]
    fn netlist_matches_value_model_in_all_modes() {
        let cfg = VirtualPeConfig {
            format: fmt(),
            hops: 2,
        };
        let pe = VirtualPe::build(cfg, true);
        let mut rng = logic::SplitMix64::new(99);
        for mode in [PeMode::Mac, PeMode::Mul, PeMode::Add, PeMode::Pass] {
            for _ in 0..20 {
                let rnd_fp = |rng: &mut logic::SplitMix64| {
                    FpValue::from_f64((rng.unit_f64() - 0.5) * 16.0, cfg.format)
                };
                let coeff = rnd_fp(&mut rng);
                let a = rnd_fp(&mut rng);
                let b = rnd_fp(&mut rng);
                let fb = rnd_fp(&mut rng);
                let s = PeSettings {
                    coeff,
                    counter: 1,
                    mode,
                };
                let (hw_out, hw_fbn) = drive_pe(&pe, &s, a, b, fb);
                let (sw_out, sw_fbn) = s.evaluate(a, b, fb);
                assert_eq!(hw_out, sw_out.bits, "{mode:?} out");
                assert_eq!(hw_fbn, sw_fbn.bits, "{mode:?} fbn");
            }
        }
    }

    #[test]
    fn mac_mode_semantics() {
        let f = fmt();
        let s = PeSettings::mac(FpValue::from_f64(2.5, f), 4);
        let (out, fbn) = s.evaluate(
            FpValue::from_f64(3.0, f),
            FpValue::from_f64(99.0, f), // ignored in MAC mode
            FpValue::from_f64(1.0, f),
        );
        assert_eq!(out.to_f64(), 8.5, "3 * 2.5 + 1");
        assert_eq!(fbn.to_f64(), 8.5, "accumulator follows");
    }

    #[test]
    fn pass_mode_is_identity() {
        let f = fmt();
        let s = PeSettings {
            coeff: FpValue::zero(f),
            counter: 0,
            mode: PeMode::Pass,
        };
        let a = FpValue::from_f64(-7.25, f);
        let (out, _) = s.evaluate(a, FpValue::from_f64(1.0, f), FpValue::zero(f));
        assert_eq!(out.bits, a.bits);
    }

    #[test]
    fn settings_bit_layout_is_stable() {
        let cfg = VirtualPeConfig {
            format: fmt(),
            hops: 2,
        };
        let pe = VirtualPe::build(cfg, true);
        let s = PeSettings::mac(FpValue::from_f64(1.5, cfg.format), 1);
        let bits = s.to_param_bits(&cfg);
        assert_eq!(bits.len(), pe.settings_bits());
        assert_eq!(
            pe.aig.num_inputs_of(InputKind::Param),
            pe.settings_bits(),
            "netlist param count must match the settings layout"
        );
    }

    #[test]
    fn a_packed_lane_is_the_param_bit_vector() {
        // Every mode, several coefficients, hops 1..=3, first, middle and
        // last lane: bit for bit `to_param_bits`, other lanes untouched.
        for hops in 1..=3 {
            let cfg = VirtualPeConfig {
                format: fmt(),
                hops,
            };
            for mode in [PeMode::Mac, PeMode::Mul, PeMode::Add, PeMode::Pass] {
                for (c, lane) in [(1.5, 0), (-0.375, 31), (0.0, 63), (6.0e4, 17)] {
                    let s = PeSettings {
                        coeff: FpValue::from_f64(c, cfg.format),
                        counter: 3,
                        mode,
                    };
                    let mut lanes = vec![0u64; cfg.settings_bits()];
                    s.set_param_lane(&cfg, lane, &mut lanes);
                    let packed: Vec<bool> = lanes.iter().map(|w| w >> lane & 1 == 1).collect();
                    assert_eq!(packed, s.to_param_bits(&cfg), "{mode:?} {c} hops {hops}");
                    assert!(
                        lanes.iter().all(|w| w & !(1 << lane) == 0),
                        "one lane written"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "one lane word per settings bit")]
    fn a_lane_vector_of_the_wrong_length_is_rejected() {
        let cfg = VirtualPeConfig {
            format: fmt(),
            hops: 2,
        };
        let s = PeSettings::mac(FpValue::from_f64(1.5, cfg.format), 1);
        s.set_param_lane(&cfg, 0, &mut vec![0u64; cfg.settings_bits() - 1]);
    }

    #[test]
    fn conventional_build_has_no_params() {
        let cfg = VirtualPeConfig {
            format: fmt(),
            hops: 2,
        };
        let pe = VirtualPe::build(cfg, false);
        assert_eq!(pe.aig.num_inputs_of(InputKind::Param), 0);
    }
}
