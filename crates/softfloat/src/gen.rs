//! Gate-level generators for the FloPoCo operators.
//!
//! Each generator emits the same rounding/normalization/exception algorithm
//! as the software model ([`crate::FpValue`]), so hardware and software are
//! bit-exact. The MAC builder [`build_mac_pe`] is the paper's Processing
//! Element: the coefficient input can be declared a *parameter*
//! ([`logic::InputKind::Param`]), which is what the parameterized tool flow
//! exploits — for a fixed coefficient the whole multiplier array collapses
//! under symbolic constant propagation into TLUTs and TCONs.

use crate::format::FpFormat;
use crate::gates::*;
use logic::aig::InputKind;
use logic::{Aig, Lit};

/// The fields of a FloPoCo word as wires (all LSB first).
#[derive(Debug, Clone)]
pub struct FpWires {
    /// Exception code, `exc[0]` = LSB. `00` zero, `01` normal, `10` inf, `11` NaN.
    pub exc: [Lit; 2],
    /// Sign bit.
    pub sign: Lit,
    /// Exponent field (`we` bits).
    pub exp: Vec<Lit>,
    /// Fraction field (`wf` bits).
    pub frac: Vec<Lit>,
}

impl FpWires {
    /// Zero test (`exc == 00`).
    pub fn is_zero(&self, g: &mut Aig) -> Lit {
        g.and(!self.exc[1], !self.exc[0])
    }
    /// Normal test (`exc == 01`).
    pub(crate) fn is_normal(&self, g: &mut Aig) -> Lit {
        g.and(!self.exc[1], self.exc[0])
    }
    /// Infinity test (`exc == 10`).
    pub(crate) fn is_inf(&self, g: &mut Aig) -> Lit {
        g.and(self.exc[1], !self.exc[0])
    }
    /// NaN test (`exc == 11`).
    pub fn is_nan(&self, g: &mut Aig) -> Lit {
        g.and(self.exc[1], self.exc[0])
    }
    /// Significand with hidden one: `[frac..., 1]` (`wf + 1` bits).
    pub fn sig(&self) -> Vec<Lit> {
        let mut s = self.frac.clone();
        s.push(Lit::TRUE);
        s
    }
}

/// Splits a flat LSB-first word into FloPoCo fields.
pub fn split(fmt: FpFormat, bits: &[Lit]) -> FpWires {
    assert_eq!(bits.len(), fmt.width() as usize);
    let wf = fmt.wf as usize;
    let we = fmt.we as usize;
    FpWires {
        frac: bits[..wf].to_vec(),
        exp: bits[wf..wf + we].to_vec(),
        sign: bits[wf + we],
        exc: [bits[wf + we + 1], bits[wf + we + 2]],
    }
}

/// Joins FloPoCo fields back into a flat LSB-first word.
pub fn join(fmt: FpFormat, w: &FpWires) -> Vec<Lit> {
    assert_eq!(w.exp.len(), fmt.we as usize);
    assert_eq!(w.frac.len(), fmt.wf as usize);
    let mut out = Vec::with_capacity(fmt.width() as usize);
    out.extend_from_slice(&w.frac);
    out.extend_from_slice(&w.exp);
    out.push(w.sign);
    out.push(w.exc[0]);
    out.push(w.exc[1]);
    out
}

/// Sign-extends/zero-extends a word to `width` bits (zero extension).
fn zext(word: &[Lit], width: usize) -> Vec<Lit> {
    let mut v = word.to_vec();
    assert!(v.len() <= width);
    v.resize(width, Lit::FALSE);
    v
}

/// Builds the exception-code output with the standard priority
/// NaN > Inf > Zero > Normal, as two bits `[lsb, msb]`.
fn exc_priority(g: &mut Aig, nan: Lit, inf: Lit, zero: Lit) -> [Lit; 2] {
    let inf_eff = g.and(inf, !nan);
    let not_nan_inf = g.and(!nan, !inf);
    let zero_eff = g.and(zero, not_nan_inf);
    let normal = g.and(not_nan_inf, !zero_eff);
    let msb = g.or(nan, inf_eff);
    let lsb = g.or(nan, normal);
    [lsb, msb]
}

/// Floating-point multiplier netlist: returns the product word.
///
/// Mirrors [`crate::FpValue::mul`]: array multiplication of the
/// significands, 1-bit normalization, round-to-nearest-even with sticky,
/// exponent arithmetic in `we + 2`-bit two's complement, flush-to-zero
/// underflow and saturate-to-infinity overflow.
pub fn gen_mul(g: &mut Aig, fmt: FpFormat, x: &[Lit], y: &[Lit]) -> Vec<Lit> {
    let (we, wf) = (fmt.we as usize, fmt.wf as usize);
    let a = split(fmt, x);
    let b = split(fmt, y);

    let (za, ia, na) = (a.is_zero(g), a.is_inf(g), a.is_nan(g));
    let (zb, ib, nb) = (b.is_zero(g), b.is_inf(g), b.is_nan(g));
    let sign = g.xor(a.sign, b.sign);

    let zi = g.and(za, ib);
    let iz = g.and(ia, zb);
    let nan_t = g.or(na, nb);
    let nan_t2 = g.or(zi, iz);
    let nan = g.or(nan_t, nan_t2);
    let inf_in = g.or(ia, ib);
    let zero_in = g.or(za, zb);
    let normal_in = {
        let an = a.is_normal(g);
        let bn = b.is_normal(g);
        g.and(an, bn)
    };

    // --- normal path ---
    let sig_a = a.sig();
    let sig_b = b.sig();
    let prod = mul_carry_save(g, &sig_a, &sig_b); // 2wf+2 bits
    let norm = prod[2 * wf + 1];

    let s_hi = &prod[wf + 1..2 * wf + 2]; // wf+1 bits (norm case)
    let s_lo = &prod[wf..2 * wf + 1]; // wf+1 bits
    let s = mux_word(g, norm, s_hi, s_lo);
    let guard = g.mux(norm, prod[wf], prod[wf - 1]);
    let st_hi = or_all(g, &prod[..wf]);
    let st_lo = or_all(g, &prod[..wf - 1]);
    let sticky = g.mux(norm, st_hi, st_lo);

    let tie_or_up = g.or(sticky, s[0]);
    let rnd = g.and(guard, tie_or_up);
    let (s_r, rc) = inc_prefix(g, &s, rnd);
    let frac_n: Vec<Lit> = s_r[..wf].to_vec();

    // Exponent: ea + eb - bias + norm + rc, in we+2-bit two's complement.
    let w2 = we + 2;
    let ea = zext(&a.exp, w2);
    let eb = zext(&b.exp, w2);
    let (e1, _) = add(g, &ea, &eb, Lit::FALSE);
    let neg_bias = const_word(
        ((1u64 << w2) as i64 - fmt.bias()) as u64 & ((1u64 << w2) - 1),
        w2,
    );
    let (e2, _) = add(g, &e1, &neg_bias, Lit::FALSE);
    let (e3, _) = add_bit(g, &e2, norm);
    let (e4, _) = add_bit(g, &e3, rc);
    let under = e4[w2 - 1]; // negative
    let over = g.and(!e4[w2 - 1], e4[we]);
    let exp_n: Vec<Lit> = e4[..we].to_vec();

    // --- result classification ---
    let norm_under = g.and(normal_in, under);
    let norm_over = g.and(normal_in, over);
    let out_inf = g.or(inf_in, norm_over);
    let out_zero = g.or(zero_in, norm_under);
    let exc = exc_priority(g, nan, out_inf, out_zero);

    let not_nan = !nan;
    let sign_out = g.and(sign, not_nan);
    let normal_out = {
        let t = g.and(normal_in, !norm_over);
        g.and(t, !norm_under)
    };
    let exp_out = mask_word(g, &exp_n, normal_out);
    let frac_out = mask_word(g, &frac_n, normal_out);

    join(
        fmt,
        &FpWires {
            exc,
            sign: sign_out,
            exp: exp_out,
            frac: frac_out,
        },
    )
}

/// Floating-point adder netlist, mirroring [`crate::FpValue::add`].
pub fn gen_add(g: &mut Aig, fmt: FpFormat, x: &[Lit], y: &[Lit]) -> Vec<Lit> {
    let (we, wf) = (fmt.we as usize, fmt.wf as usize);
    let a = split(fmt, x);
    let b = split(fmt, y);

    let (za, ia, na) = (a.is_zero(g), a.is_inf(g), a.is_nan(g));
    let (zb, ib, nb) = (b.is_zero(g), b.is_inf(g), b.is_nan(g));
    let (norm_a, norm_b) = (a.is_normal(g), b.is_normal(g));

    let opp = g.xor(a.sign, b.sign);
    let inf_inf = g.and(ia, ib);
    let inf_clash = g.and(inf_inf, opp);
    let nan_t = g.or(na, nb);
    let nan = g.or(nan_t, inf_clash);

    let both_zero = g.and(za, zb);
    let x_zero_only = g.and(za, norm_b); // pass through y
    let y_zero_only = g.and(zb, norm_a); // pass through x
    let normal_in = g.and(norm_a, norm_b);

    // --- magnitude ordering ---
    let mut mag_a: Vec<Lit> = a.frac.clone();
    mag_a.extend_from_slice(&a.exp);
    let mut mag_b: Vec<Lit> = b.frac.clone();
    mag_b.extend_from_slice(&b.exp);
    let a_ge_b = ge(g, &mag_a, &mag_b);
    let swap = !a_ge_b;

    let e_big = mux_word(g, swap, &b.exp, &a.exp);
    let e_small = mux_word(g, swap, &a.exp, &b.exp);
    let f_big = mux_word(g, swap, &b.frac, &a.frac);
    let f_small = mux_word(g, swap, &a.frac, &b.frac);
    let s_big = g.mux(swap, b.sign, a.sign);
    let s_small = g.mux(swap, a.sign, b.sign);

    let (d, _) = sub(g, &e_big, &e_small); // no borrow: e_big >= e_small

    let width = wf + 4;
    // A = significand << 3 (three guard bits below).
    let mut aa = vec![Lit::FALSE; 3];
    aa.extend_from_slice(&f_big);
    aa.push(Lit::TRUE);
    let mut bb0 = vec![Lit::FALSE; 3];
    bb0.extend_from_slice(&f_small);
    bb0.push(Lit::TRUE);
    debug_assert_eq!(aa.len(), width);

    let (mut bb, st) = shr_sticky(g, &bb0, &d);
    bb[0] = g.or(bb[0], st);

    let eff_sub = g.xor(s_big, s_small);

    // Add path.
    let (sum, carry) = add_prefix(g, &aa, &bb, Lit::FALSE);
    let mut shifted = Vec::with_capacity(width);
    shifted.push(g.or(sum[1], sum[0]));
    shifted.extend_from_slice(&sum[2..]);
    shifted.push(carry);
    let s_addsel = mux_word(g, carry, &shifted, &sum);
    let w2 = we + 2;
    let e_big_ext = zext(&e_big, w2);
    let (e_add, _) = add_bit(g, &e_big_ext, carry);

    // Subtract path.
    let (diff, _) = sub_prefix(g, &aa, &bb); // A >= B guaranteed
    let zero_res = is_zero(g, &diff);
    let lz = lzc(g, &diff);
    let s_sub = shl(g, &diff, &lz);
    let lz_ext = zext(&lz, w2);
    let (e_sub, _) = sub(g, &e_big_ext, &lz_ext);

    let s_fin = mux_word(g, eff_sub, &s_sub, &s_addsel);
    let e1 = mux_word(g, eff_sub, &e_sub, &e_add);

    // Round to nearest even: L = bit 3, G = bit 2, R|S = bits 1..0.
    let lsb = s_fin[3];
    let guard = s_fin[2];
    let rs = g.or(s_fin[1], s_fin[0]);
    let up = g.or(rs, lsb);
    let rnd = g.and(guard, up);
    let hi: Vec<Lit> = s_fin[3..].to_vec(); // wf+1 bits
    let (s_r, rc) = inc_prefix(g, &hi, rnd);
    let (e2, _) = add_bit(g, &e1, rc);
    let frac_n: Vec<Lit> = s_r[..wf].to_vec();

    let under = e2[w2 - 1];
    let over = g.and(!e2[w2 - 1], e2[we]);
    let exp_n: Vec<Lit> = e2[..we].to_vec();
    let cancel = g.and(eff_sub, zero_res);

    // --- result classification (same priority as the software model) ---
    let norm_over = g.and(normal_in, over);
    let inf_any = g.or(ia, ib);
    let out_inf = g.or(inf_any, norm_over);
    let under_or_cancel = g.or(under, cancel);
    let norm_zero = g.and(normal_in, under_or_cancel);
    let out_zero = g.or(both_zero, norm_zero);
    let exc = exc_priority(g, nan, out_inf, out_zero);

    // Sign, with software-model priority.
    let zz_sign = g.and(a.sign, b.sign);
    let sign_norm = {
        // cancel -> +0, else sign of bigger magnitude.
        g.and(s_big, !cancel)
    };
    let mut sign_out = sign_norm;
    sign_out = g.mux(x_zero_only, b.sign, sign_out);
    sign_out = g.mux(y_zero_only, a.sign, sign_out);
    sign_out = g.mux(both_zero, zz_sign, sign_out);
    sign_out = g.mux(ib, b.sign, sign_out);
    sign_out = g.mux(ia, a.sign, sign_out);
    sign_out = g.and(sign_out, !nan);

    // Exponent / fraction with passthrough for the zero+normal cases.
    let normal_out = {
        let t = g.and(normal_in, !norm_over);
        g.and(t, !norm_zero)
    };
    let mut exp_out = mask_word(g, &exp_n, normal_out);
    let mut frac_out = mask_word(g, &frac_n, normal_out);
    exp_out = mux_word(g, x_zero_only, &b.exp, &exp_out);
    frac_out = mux_word(g, x_zero_only, &b.frac, &frac_out);
    exp_out = mux_word(g, y_zero_only, &a.exp, &exp_out);
    frac_out = mux_word(g, y_zero_only, &a.frac, &frac_out);
    // Exception cases zero the payload (canonical encodings).
    let payload_live = {
        let t = g.or(normal_out, x_zero_only);
        g.or(t, y_zero_only)
    };
    exp_out = mask_word(g, &exp_out, payload_live);
    frac_out = mask_word(g, &frac_out, payload_live);

    join(
        fmt,
        &FpWires {
            exc,
            sign: sign_out,
            exp: exp_out,
            frac: frac_out,
        },
    )
}

/// Multiply-accumulate netlist: `x * c + acc` (mul then add, each rounded).
pub(crate) fn gen_mac(g: &mut Aig, fmt: FpFormat, x: &[Lit], c: &[Lit], acc: &[Lit]) -> Vec<Lit> {
    let prod = gen_mul(g, fmt, x, c);
    gen_add(g, fmt, &prod, acc)
}

/// Builds the paper's Processing Element as a standalone netlist:
/// `out = x * coeff + acc` with `x` and `acc` regular inputs and `coeff`
/// of the given kind (`Param` for the parameterized flow, `Regular` for the
/// conventional flow — the circuits are structurally identical, only the
/// annotation differs, exactly as in the paper's methodology).
pub fn build_mac_pe(fmt: FpFormat, coeff_kind: InputKind) -> Aig {
    let mut g = Aig::new();
    let w = fmt.width() as usize;
    let x = g.input_vec("x", w, InputKind::Regular);
    let c = g.input_vec("coeff", w, coeff_kind);
    let acc = g.input_vec("acc", w, InputKind::Regular);
    let out = gen_mac(&mut g, fmt, &x, &c, &acc);
    g.add_output_vec("out", &out);
    g
}

/// Builds a standalone multiplier netlist (`out = x * y`).
// Test-only: the fixture of the gen-vs-kernel cross-checks.
#[cfg(test)]
fn build_mul_op(fmt: FpFormat, y_kind: InputKind) -> Aig {
    let mut g = Aig::new();
    let w = fmt.width() as usize;
    let x = g.input_vec("x", w, InputKind::Regular);
    let y = g.input_vec("y", w, y_kind);
    let out = gen_mul(&mut g, fmt, &x, &y);
    g.add_output_vec("out", &out);
    g
}

/// Builds a standalone adder netlist (`out = x + y`).
// Test-only: the fixture of the gen-vs-kernel cross-checks.
#[cfg(test)]
fn build_add_op(fmt: FpFormat) -> Aig {
    let mut g = Aig::new();
    let w = fmt.width() as usize;
    let x = g.input_vec("x", w, InputKind::Regular);
    let y = g.input_vec("y", w, InputKind::Regular);
    let out = gen_add(&mut g, fmt, &x, &y);
    g.add_output_vec("out", &out);
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::FpValue;
    use logic::sim::simulate_u64;
    use logic::SplitMix64;

    /// Drives a 2-input operator AIG with up to 64 operand pairs of raw FP
    /// bit patterns, one per simulation lane, and returns each pair's raw
    /// output bits.
    fn drive2(g: &Aig, fmt: FpFormat, pairs: &[(u64, u64)]) -> Vec<u64> {
        assert!(
            pairs.len() <= 64,
            "one pair per lane of the simulation word"
        );
        let w = fmt.width() as usize;
        let mut words = vec![0u64; 2 * w];
        for (lane, &(va, vb)) in pairs.iter().enumerate() {
            for i in 0..w {
                words[i] |= ((va >> i) & 1) << lane;
                words[w + i] |= ((vb >> i) & 1) << lane;
            }
        }
        let out = simulate_u64(g, &words);
        (0..pairs.len())
            .map(|lane| {
                out.iter()
                    .enumerate()
                    .fold(0u64, |acc, (i, &x)| acc | ((x >> lane) & 1) << i)
            })
            .collect()
    }

    fn drive3(g: &Aig, fmt: FpFormat, va: u64, vb: u64, vc: u64) -> u64 {
        let w = fmt.width() as usize;
        let mut words = Vec::with_capacity(3 * w);
        for v in [va, vb, vc] {
            for i in 0..w {
                words.push(if (v >> i) & 1 == 1 { u64::MAX } else { 0 });
            }
        }
        let out = simulate_u64(g, &words);
        out.iter()
            .enumerate()
            .fold(0u64, |acc, (i, &x)| acc | ((x & 1) << i))
    }

    /// The software operator a netlist is compared with.
    type SoftOp = fn(FpValue, FpValue) -> FpValue;

    /// Every pair must come out of the netlist and of the software model
    /// with the same bits. Returns the software results.
    fn assert_netlist_agrees(
        g: &Aig,
        fmt: FpFormat,
        name: &str,
        soft: SoftOp,
        pairs: &[(u64, u64)],
    ) -> Vec<FpValue> {
        let mut results = Vec::with_capacity(pairs.len());
        for chunk in pairs.chunks(64) {
            for (&(va, vb), hw) in chunk.iter().zip(drive2(g, fmt, chunk)) {
                let sw = soft(FpValue::from_bits(va, fmt), FpValue::from_bits(vb, fmt));
                assert_eq!(
                    hw, sw.bits,
                    "{name} {va:#x}, {vb:#x} in ({}, {})",
                    fmt.we, fmt.wf
                );
                results.push(sw);
            }
        }
        results
    }

    fn all_tiny_pairs() -> Vec<(u64, u64)> {
        let n = 1u64 << FpFormat::TINY.width(); // 8-bit values -> 65536 pairs
        (0..n)
            .flat_map(|va| (0..n).map(move |vb| (va, vb)))
            .collect()
    }

    #[test]
    fn mul_exhaustive_tiny() {
        let fmt = FpFormat::TINY;
        let g = build_mul_op(fmt, InputKind::Regular);
        assert_netlist_agrees(&g, fmt, "mul", FpValue::mul, &all_tiny_pairs());
    }

    #[test]
    fn add_exhaustive_tiny() {
        let fmt = FpFormat::TINY;
        let g = build_add_op(fmt);
        assert_netlist_agrees(&g, fmt, "add", FpValue::add, &all_tiny_pairs());
    }

    fn random_fp_bits(rng: &mut SplitMix64, fmt: FpFormat) -> u64 {
        // Mostly normals, occasionally specials.
        let roll = rng.below(10);
        if roll < 8 {
            let sign = rng.coin() as u64;
            let exp = rng.below(1 << fmt.we);
            let frac = rng.below(1 << fmt.wf);
            fmt.pack(crate::FpClass::Normal, sign == 1, exp, frac)
        } else {
            let class = match rng.below(3) {
                0 => crate::FpClass::Zero,
                1 => crate::FpClass::Infinity,
                _ => crate::FpClass::NaN,
            };
            fmt.pack(class, rng.coin(), 0, 0)
        }
    }

    /// Two Normal operands with exponents within 2 of each other, over the
    /// whole exponent range, and in a quarter of the draws fractions that
    /// share their high bits: sums cancel (sometimes exactly, sometimes
    /// below the exponent range), carry out and saturate; products of two
    /// small or two large operands flush and saturate.
    fn close_normal_pair(rng: &mut SplitMix64, fmt: FpFormat) -> (u64, u64) {
        let ea = rng.below(1 << fmt.we);
        let eb = (ea + rng.below(5))
            .saturating_sub(2)
            .min(fmt.max_exp() as u64);
        let fa = rng.below(1 << fmt.wf);
        let fb = if rng.below(4) == 0 {
            let differing = rng.below(fmt.wf as u64 + 1);
            fa ^ rng.below(1 << differing)
        } else {
            rng.below(1 << fmt.wf)
        };
        (
            fmt.pack(crate::FpClass::Normal, rng.coin(), ea, fa),
            fmt.pack(crate::FpClass::Normal, rng.coin(), eb, fb),
        )
    }

    /// 10 240 independent draws and 10 240 close Normal pairs against the
    /// netlist; the close pairs must reach both ends of the exponent range.
    fn random_cross_check(g: &Aig, fmt: FpFormat, name: &str, soft: SoftOp, seed: u64) {
        const DRAWS: usize = 160 * 64;
        let mut rng = SplitMix64::new(seed);
        let mixed: Vec<(u64, u64)> = (0..DRAWS)
            .map(|_| (random_fp_bits(&mut rng, fmt), random_fp_bits(&mut rng, fmt)))
            .collect();
        assert_netlist_agrees(g, fmt, name, soft, &mixed);
        let close: Vec<(u64, u64)> = (0..DRAWS)
            .map(|_| close_normal_pair(&mut rng, fmt))
            .collect();
        let results = assert_netlist_agrees(g, fmt, name, soft, &close);
        for class in [
            crate::FpClass::Zero,
            crate::FpClass::Normal,
            crate::FpClass::Infinity,
        ] {
            assert!(
                results.iter().any(|r| r.class() == class),
                "{name} of close Normal pairs never gave {class:?}"
            );
        }
    }

    #[test]
    fn mul_random_paper_format() {
        let fmt = FpFormat::PAPER;
        let g = build_mul_op(fmt, InputKind::Regular);
        random_cross_check(&g, fmt, "mul", FpValue::mul, 123);
    }

    #[test]
    fn add_random_paper_format() {
        let fmt = FpFormat::PAPER;
        random_cross_check(&build_add_op(fmt), fmt, "add", FpValue::add, 321);
    }

    /// (8,40): the 82-bit significand product takes the kernel's `u128`
    /// path, which no narrower format reaches.
    #[test]
    fn mul_random_wide_product_format() {
        let fmt = FpFormat::new(8, 40);
        let g = build_mul_op(fmt, InputKind::Regular);
        random_cross_check(&g, fmt, "mul", FpValue::mul, 840);
    }

    #[test]
    fn add_random_wide_product_format() {
        let fmt = FpFormat::new(8, 40);
        random_cross_check(&build_add_op(fmt), fmt, "add", FpValue::add, 408);
    }

    #[test]
    fn mac_random_medium_format() {
        let fmt = FpFormat::new(5, 8);
        let g = build_mac_pe(fmt, InputKind::Regular);
        let mut rng = SplitMix64::new(555);
        for _ in 0..300 {
            let vx = random_fp_bits(&mut rng, fmt);
            let vc = random_fp_bits(&mut rng, fmt);
            let va = random_fp_bits(&mut rng, fmt);
            let hw = drive3(&g, fmt, vx, vc, va);
            let sw = FpValue::from_bits(vx, fmt)
                .mac(FpValue::from_bits(vc, fmt), FpValue::from_bits(va, fmt))
                .bits;
            assert_eq!(hw, sw, "mac x={vx:#x} c={vc:#x} acc={va:#x}");
        }
    }

    #[test]
    fn mac_pe_paper_format_spot_checks() {
        let fmt = FpFormat::PAPER;
        let g = build_mac_pe(fmt, InputKind::Param);
        // x*c + acc on human-readable values.
        let cases = [
            (1.5, 2.0, 0.5, 3.5),
            (3.0, -2.0, 1.0, -5.0),
            (0.0, 7.0, 2.5, 2.5),
        ];
        for (x, c, acc, expect) in cases {
            let vx = FpValue::from_f64(x, fmt).bits;
            let vc = FpValue::from_f64(c, fmt).bits;
            let va = FpValue::from_f64(acc, fmt).bits;
            let hw = drive3(&g, fmt, vx, vc, va);
            assert_eq!(
                FpValue::from_bits(hw, fmt).to_f64(),
                expect,
                "{x} * {c} + {acc}"
            );
        }
    }

    #[test]
    fn pe_has_paper_scale() {
        // The paper's conventional PE occupies 2522 4-LUTs; our gate-level
        // MAC should be in the same ballpark of AND gates (thousands, not
        // hundreds or hundreds of thousands).
        let g = build_mac_pe(FpFormat::PAPER, InputKind::Param);
        let ands = g.live_ands();
        assert!(
            (3_000..60_000).contains(&ands),
            "MAC PE has {ands} live AND gates"
        );
        assert_eq!(g.num_inputs(), 3 * FpFormat::PAPER.width() as usize);
        assert_eq!(
            g.num_inputs_of(InputKind::Param),
            FpFormat::PAPER.width() as usize
        );
    }
}
