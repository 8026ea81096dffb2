//! Word-level gate builders on top of [`logic::Aig`].
//!
//! All words are slices of literals, **LSB first**. These are the primitive
//! datapath blocks the FloPoCo operator generators are assembled from:
//! ripple-carry adders, comparators, barrel shifters with sticky collection,
//! leading-zero counters (via thermometer code + population count) and the
//! array multiplier. Nothing here uses dedicated arithmetic resources — as
//! in the paper, the operators are pure LUT fabric candidates.

use logic::{Aig, Lit};

/// Full adder: returns `(sum, carry)`.
pub(crate) fn full_adder(g: &mut Aig, a: Lit, b: Lit, c: Lit) -> (Lit, Lit) {
    let ab = g.xor(a, b);
    let sum = g.xor(ab, c);
    let t1 = g.and(a, b);
    let t2 = g.and(ab, c);
    let carry = g.or(t1, t2);
    (sum, carry)
}

/// Ripple-carry addition of two equal-width words plus carry-in.
/// Returns `(sum, carry_out)`; `sum` has the operand width.
pub fn add(g: &mut Aig, a: &[Lit], b: &[Lit], cin: Lit) -> (Vec<Lit>, Lit) {
    assert_eq!(a.len(), b.len());
    let mut carry = cin;
    let mut sum = Vec::with_capacity(a.len());
    for (&x, &y) in a.iter().zip(b) {
        let (s, c) = full_adder(g, x, y, carry);
        sum.push(s);
        carry = c;
    }
    (sum, carry)
}

/// Subtraction `a - b` via two's complement; returns `(difference, no_borrow)`.
/// `no_borrow` is true iff `a >= b` (unsigned).
pub fn sub(g: &mut Aig, a: &[Lit], b: &[Lit]) -> (Vec<Lit>, Lit) {
    let nb: Vec<Lit> = b.iter().map(|&l| !l).collect();
    add(g, a, &nb, Lit::TRUE)
}

/// Increment-by-condition: `a + inc` where `inc` is a single bit.
pub(crate) fn add_bit(g: &mut Aig, a: &[Lit], inc: Lit) -> (Vec<Lit>, Lit) {
    let mut carry = inc;
    let mut sum = Vec::with_capacity(a.len());
    for &x in a {
        sum.push(g.xor(x, carry));
        carry = g.and(x, carry);
    }
    (sum, carry)
}

/// Unsigned comparison `a >= b` (logarithmic depth via the prefix network).
pub(crate) fn ge(g: &mut Aig, a: &[Lit], b: &[Lit]) -> Lit {
    let (_, no_borrow) = sub_prefix(g, a, b);
    no_borrow
}

/// Word-wide 2:1 multiplexer: `sel ? t : e`.
pub(crate) fn mux_word(g: &mut Aig, sel: Lit, t: &[Lit], e: &[Lit]) -> Vec<Lit> {
    assert_eq!(t.len(), e.len());
    t.iter().zip(e).map(|(&x, &y)| g.mux(sel, x, y)).collect()
}

/// AND of every bit with one literal (masking).
pub(crate) fn mask_word(g: &mut Aig, word: &[Lit], bit: Lit) -> Vec<Lit> {
    word.iter().map(|&w| g.and(w, bit)).collect()
}

/// OR-reduction of a word.
pub(crate) fn or_all(g: &mut Aig, word: &[Lit]) -> Lit {
    g.or_many(word)
}

/// Is the word exactly zero?
pub fn is_zero(g: &mut Aig, word: &[Lit]) -> Lit {
    !or_all(g, word)
}

/// Logical right barrel shifter with sticky collection.
///
/// Shifts `a` right by the unsigned amount `amt` (LSB-first bits). Bits
/// shifted out are OR-ed into the returned `sticky`. Shift amounts `>=
/// a.len()` produce an all-zero word with all input bits in the sticky.
pub(crate) fn shr_sticky(g: &mut Aig, a: &[Lit], amt: &[Lit]) -> (Vec<Lit>, Lit) {
    let w = a.len();
    let mut cur: Vec<Lit> = a.to_vec();
    let mut sticky = Lit::FALSE;
    for (k, &sel) in amt.iter().enumerate() {
        let dist = 1usize.checked_shl(k as u32).unwrap_or(usize::MAX);
        if dist >= w {
            // Shifting by this stage empties the word entirely.
            let any = or_all(g, &cur);
            let gone = g.and(sel, any);
            sticky = g.or(sticky, gone);
            cur = cur.iter().map(|&b| g.and(b, !sel)).collect();
        } else {
            // Bits [0, dist) fall off when this stage is selected.
            let dropped = or_all(g, &cur[..dist]);
            let gone = g.and(sel, dropped);
            sticky = g.or(sticky, gone);
            let mut next = Vec::with_capacity(w);
            for i in 0..w {
                let shifted = if i + dist < w {
                    cur[i + dist]
                } else {
                    Lit::FALSE
                };
                next.push(g.mux(sel, shifted, cur[i]));
            }
            cur = next;
        }
    }
    (cur, sticky)
}

/// Logical left barrel shifter (bits shifted past the top are dropped).
pub(crate) fn shl(g: &mut Aig, a: &[Lit], amt: &[Lit]) -> Vec<Lit> {
    let w = a.len();
    let mut cur: Vec<Lit> = a.to_vec();
    for (k, &sel) in amt.iter().enumerate() {
        let dist = 1usize.checked_shl(k as u32).unwrap_or(usize::MAX);
        if dist >= w {
            cur = cur.iter().map(|&b| g.and(b, !sel)).collect();
        } else {
            let mut next = Vec::with_capacity(w);
            for i in 0..w {
                let shifted = if i >= dist { cur[i - dist] } else { Lit::FALSE };
                next.push(g.mux(sel, shifted, cur[i]));
            }
            cur = next;
        }
    }
    cur
}

/// Population count: number of set bits, as a binary word of
/// `ceil(log2(len+1))` bits.
pub fn popcount(g: &mut Aig, bits: &[Lit]) -> Vec<Lit> {
    match bits.len() {
        0 => vec![],
        1 => vec![bits[0]],
        n => {
            let (lo, hi) = bits.split_at(n / 2);
            let a = popcount(g, lo);
            let b = popcount(g, hi);
            let w = a.len().max(b.len()) + 1;
            let pad = |v: &[Lit], w: usize| {
                let mut v = v.to_vec();
                v.resize(w, Lit::FALSE);
                v
            };
            let (a, b) = (pad(&a, w), pad(&b, w));
            let (mut s, _) = add(g, &a, &b, Lit::FALSE);
            // Trim to the provably sufficient width.
            let need = usize::BITS as usize - n.leading_zeros() as usize;
            s.truncate(need.max(1));
            s
        }
    }
}

/// Leading-zero count of a word (MSB = last element of the slice).
///
/// Returns a binary word wide enough to hold `a.len()`. Logarithmic depth:
/// the thermometer code is built with a suffix-OR scan, then popcounted.
pub(crate) fn lzc(g: &mut Aig, a: &[Lit]) -> Vec<Lit> {
    let w = a.len();
    // Suffix OR scan: or_suf[i] = a[i] | a[i+1] | ... | a[w-1], log depth.
    let mut or_suf: Vec<Lit> = a.to_vec();
    let mut dist = 1;
    while dist < w {
        let prev = or_suf.clone();
        for i in 0..w {
            if i + dist < w {
                or_suf[i] = g.or(prev[i], prev[i + dist]);
            }
        }
        dist <<= 1;
    }
    // z[i] = "all of a[i..] are zero" — a thermometer code whose popcount
    // is the number of leading zeros.
    let z: Vec<Lit> = or_suf.iter().map(|&s| !s).collect();
    popcount(g, &z)
}

/// Kogge–Stone prefix adder: logarithmic depth, used for the wide
/// significand datapaths so the mapped logic depth matches an
/// FPGA-oriented operator generator (FloPoCo emits fast adders too).
/// Returns `(sum, carry_out)`.
pub(crate) fn add_prefix(g: &mut Aig, a: &[Lit], b: &[Lit], cin: Lit) -> (Vec<Lit>, Lit) {
    assert_eq!(a.len(), b.len());
    let n = a.len();
    if n == 0 {
        return (vec![], cin);
    }
    // Generate/propagate per bit.
    let mut gen: Vec<Lit> = Vec::with_capacity(n);
    let mut pro: Vec<Lit> = Vec::with_capacity(n);
    for i in 0..n {
        gen.push(g.and(a[i], b[i]));
        pro.push(g.xor(a[i], b[i]));
    }
    let p0 = pro.clone();
    // Parallel prefix (Kogge–Stone): after the scan, gen[i]/pro[i] describe
    // the group [0..=i].
    let mut dist = 1;
    while dist < n {
        let (prev_g, prev_p) = (gen.clone(), pro.clone());
        for i in dist..n {
            let t = g.and(prev_p[i], prev_g[i - dist]);
            gen[i] = g.or(prev_g[i], t);
            pro[i] = g.and(prev_p[i], prev_p[i - dist]);
        }
        dist <<= 1;
    }
    // Carries: c[0] = cin, c[i] = G[0..i-1] | P[0..i-1] & cin.
    let mut sum = Vec::with_capacity(n);
    sum.push(g.xor(p0[0], cin));
    for i in 1..n {
        let pc = g.and(pro[i - 1], cin);
        let c = g.or(gen[i - 1], pc);
        sum.push(g.xor(p0[i], c));
    }
    let pc = g.and(pro[n - 1], cin);
    let cout = g.or(gen[n - 1], pc);
    (sum, cout)
}

/// Prefix subtraction `a - b` (two's complement; returns `(diff, no_borrow)`).
pub(crate) fn sub_prefix(g: &mut Aig, a: &[Lit], b: &[Lit]) -> (Vec<Lit>, Lit) {
    let nb: Vec<Lit> = b.iter().map(|&l| !l).collect();
    add_prefix(g, a, &nb, Lit::TRUE)
}

/// Logarithmic-depth conditional incrementer `a + inc`.
pub(crate) fn inc_prefix(g: &mut Aig, a: &[Lit], inc: Lit) -> (Vec<Lit>, Lit) {
    let n = a.len();
    if n == 0 {
        return (vec![], inc);
    }
    // Inclusive AND-scan: scan[i] = a[0] & ... & a[i], log-depth.
    let mut scan: Vec<Lit> = a.to_vec();
    let mut dist = 1;
    while dist < n {
        let prev = scan.clone();
        for i in dist..n {
            scan[i] = g.and(prev[i], prev[i - dist]);
        }
        dist <<= 1;
    }
    // Carry into bit i is inc & a[0..i) = inc & scan[i-1].
    let mut sum = Vec::with_capacity(n);
    sum.push(g.xor(a[0], inc));
    for i in 1..n {
        let c = g.and(inc, scan[i - 1]);
        sum.push(g.xor(a[i], c));
    }
    let cout = g.and(inc, scan[n - 1]);
    (sum, cout)
}

/// Classic carry-save **array** multiplier with a fast final adder.
///
/// This is the structure FloPoCo emits for a LUT-only fabric (no DSP
/// blocks): one AND partial-product layer (n·m gates) and a linear chain of
/// carry-save rows whose carries flow to the next row, resolved by a single
/// carry-propagate adder at the bottom. Depth is O(n + m); the
/// partial-product layer is exactly what constant-coefficient
/// specialization folds away in the parameterized flow.
pub fn mul_carry_save(g: &mut Aig, a: &[Lit], b: &[Lit]) -> Vec<Lit> {
    let (n, m) = (a.len(), b.len());
    if n == 0 || m == 0 {
        return vec![];
    }
    let mut result = vec![Lit::FALSE; n + m];
    // Pending value in carry-save form, re-aligned to the current row:
    // before row j, (s + c) · 2^j is the not-yet-final part of the product.
    let mut s = vec![Lit::FALSE; n];
    let mut c = vec![Lit::FALSE; n];
    for (j, &bj) in b.iter().enumerate() {
        let pp = mask_word(g, a, bj);
        let mut ns = Vec::with_capacity(n);
        let mut nc = vec![Lit::FALSE; n + 1];
        for i in 0..n {
            let (si, ci) = full_adder(g, s[i], c[i], pp[i]);
            ns.push(si);
            nc[i + 1] = ci;
        }
        // Bit j of the product is final: no later row reaches it.
        result[j] = ns[0];
        // Shift the alignment down by one for the next row.
        s = ns[1..].to_vec();
        s.push(Lit::FALSE);
        c = nc[1..].to_vec();
    }
    // Resolve the remaining carry-save state with one fast adder; the
    // product fits n+m bits, so the final carry-out is always zero.
    let (fin, _zero_cout) = add_prefix(g, &s, &c, Lit::FALSE);
    result[m..m + n].copy_from_slice(&fin);
    result
}

/// Builds a word of constant bits.
pub(crate) fn const_word(value: u64, width: usize) -> Vec<Lit> {
    (0..width)
        .map(|i| {
            if (value >> i) & 1 == 1 {
                Lit::TRUE
            } else {
                Lit::FALSE
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use logic::aig::InputKind;
    use logic::sim::simulate_u64;
    use logic::SplitMix64;

    /// Builds a graph computing `f` over two input words and checks it
    /// against `reference` on random stimuli.
    fn check_binop(
        wa: usize,
        wb: usize,
        build: impl Fn(&mut Aig, &[Lit], &[Lit]) -> Vec<Lit>,
        reference: impl Fn(u64, u64) -> u64,
        out_width: usize,
    ) {
        let mut g = Aig::new();
        let a = g.input_vec("a", wa, InputKind::Regular);
        let b = g.input_vec("b", wb, InputKind::Regular);
        let r = build(&mut g, &a, &b);
        assert_eq!(r.len(), out_width);
        g.add_output_vec("r", &r);
        let mut rng = SplitMix64::new(42);
        for _ in 0..200 {
            let va = rng.next_u64() & ((1u64 << wa) - 1);
            let vb = rng.next_u64() & ((1u64 << wb) - 1);
            let mut words = Vec::new();
            for i in 0..wa {
                words.push(if (va >> i) & 1 == 1 { u64::MAX } else { 0 });
            }
            for i in 0..wb {
                words.push(if (vb >> i) & 1 == 1 { u64::MAX } else { 0 });
            }
            let out = simulate_u64(&g, &words);
            let got = out
                .iter()
                .enumerate()
                .fold(0u64, |acc, (i, &w)| acc | ((w & 1) << i));
            assert_eq!(got, reference(va, vb), "a={va:#x} b={vb:#x}");
        }
    }

    #[test]
    fn ripple_adder() {
        check_binop(
            16,
            16,
            |g, a, b| {
                let (mut s, c) = add(g, a, b, Lit::FALSE);
                s.push(c);
                s
            },
            |a, b| a + b,
            17,
        );
    }

    #[test]
    fn subtractor_and_ge() {
        check_binop(
            12,
            12,
            |g, a, b| {
                let (mut d, nb) = sub(g, a, b);
                d.push(nb);
                d
            },
            |a, b| (a.wrapping_sub(b) & 0xFFF) | (((a >= b) as u64) << 12),
            13,
        );
    }

    #[test]
    fn multiplier_small() {
        check_binop(8, 8, mul_carry_save, |a, b| a * b, 16);
    }

    #[test]
    fn multiplier_asymmetric() {
        check_binop(5, 9, mul_carry_save, |a, b| a * b, 14);
    }

    #[test]
    fn multiplier_27x27_random() {
        // The (6,26) PE's significand width.
        let mut g = Aig::new();
        let a = g.input_vec("a", 27, InputKind::Regular);
        let b = g.input_vec("b", 27, InputKind::Regular);
        let r = mul_carry_save(&mut g, &a, &b);
        g.add_output_vec("r", &r);
        let mut rng = SplitMix64::new(7);
        for _ in 0..50 {
            let va = rng.next_u64() & ((1 << 27) - 1);
            let vb = rng.next_u64() & ((1 << 27) - 1);
            let mut words = Vec::new();
            for i in 0..27 {
                words.push(if (va >> i) & 1 == 1 { u64::MAX } else { 0 });
            }
            for i in 0..27 {
                words.push(if (vb >> i) & 1 == 1 { u64::MAX } else { 0 });
            }
            let out = simulate_u64(&g, &words);
            let got = out
                .iter()
                .enumerate()
                .fold(0u64, |acc, (i, &w)| acc | ((w & 1) << i));
            assert_eq!(got, va * vb);
        }
    }

    #[test]
    fn prefix_adder_matches_ripple() {
        check_binop(
            20,
            20,
            |g, a, b| {
                let (mut s, c) = add_prefix(g, a, b, Lit::FALSE);
                s.push(c);
                s
            },
            |a, b| a + b,
            21,
        );
        // With carry-in set.
        check_binop(
            13,
            13,
            |g, a, b| {
                let (mut s, c) = add_prefix(g, a, b, Lit::TRUE);
                s.push(c);
                s
            },
            |a, b| a + b + 1,
            14,
        );
    }

    #[test]
    fn prefix_adder_depth_is_logarithmic() {
        let mut g = Aig::new();
        let a = g.input_vec("a", 32, InputKind::Regular);
        let b = g.input_vec("b", 32, InputKind::Regular);
        let (s, c) = add_prefix(&mut g, &a, &b, Lit::FALSE);
        g.add_output_vec("s", &s);
        g.add_output("c", c);
        assert!(g.depth() <= 16, "prefix adder depth {} too deep", g.depth());

        let mut g2 = Aig::new();
        let a2 = g2.input_vec("a", 32, InputKind::Regular);
        let b2 = g2.input_vec("b", 32, InputKind::Regular);
        let (s2, c2) = add(&mut g2, &a2, &b2, Lit::FALSE);
        g2.add_output_vec("s", &s2);
        g2.add_output("c", c2);
        assert!(g2.depth() >= 32, "ripple adder should be deep");
    }

    #[test]
    fn prefix_subtractor() {
        check_binop(
            16,
            16,
            |g, a, b| {
                let (mut d, nb) = sub_prefix(g, a, b);
                d.push(nb);
                d
            },
            |a, b| (a.wrapping_sub(b) & 0xFFFF) | (((a >= b) as u64) << 16),
            17,
        );
    }

    #[test]
    fn prefix_incrementer() {
        // inc as the LSB of operand b.
        check_binop(
            12,
            1,
            |g, a, b| {
                let (mut s, c) = inc_prefix(g, a, b[0]);
                s.push(c);
                s
            },
            |a, b| (a + b) & 0x1FFF,
            13,
        );
    }

    #[test]
    fn carry_save_array_multiplier() {
        check_binop(8, 8, mul_carry_save, |a, b| a * b, 16);
        check_binop(9, 5, mul_carry_save, |a, b| a * b, 14);
        check_binop(1, 7, mul_carry_save, |a, b| a * b, 8);
    }

    #[test]
    fn carry_save_array_depth_is_linear_not_quadratic() {
        let mut g = Aig::new();
        let a = g.input_vec("a", 27, InputKind::Regular);
        let b = g.input_vec("b", 27, InputKind::Regular);
        let r = mul_carry_save(&mut g, &a, &b);
        g.add_output_vec("r", &r);
        // ~4 AND levels per row + the final prefix adder — linear in n+m,
        // far from the O(n·m) of a row-ripple accumulation.
        assert!(
            g.depth() <= 130,
            "carry-save array depth {} should be O(n+m)",
            g.depth()
        );
    }

    #[test]
    fn shifter_right_with_sticky() {
        let mut g = Aig::new();
        let a = g.input_vec("a", 16, InputKind::Regular);
        let amt = g.input_vec("amt", 5, InputKind::Regular);
        let (r, sticky) = shr_sticky(&mut g, &a, &amt);
        g.add_output_vec("r", &r);
        g.add_output("sticky", sticky);
        let mut rng = SplitMix64::new(1);
        for _ in 0..300 {
            let va = rng.next_u64() & 0xFFFF;
            let vamt = rng.next_u64() & 0x1F;
            let mut words = Vec::new();
            for i in 0..16 {
                words.push(if (va >> i) & 1 == 1 { u64::MAX } else { 0 });
            }
            for i in 0..5 {
                words.push(if (vamt >> i) & 1 == 1 { u64::MAX } else { 0 });
            }
            let out = simulate_u64(&g, &words);
            let got = out[..16]
                .iter()
                .enumerate()
                .fold(0u64, |acc, (i, &w)| acc | ((w & 1) << i));
            let expect = if vamt >= 16 { 0 } else { va >> vamt };
            let exp_sticky = if vamt >= 16 {
                va != 0
            } else {
                va & ((1 << vamt) - 1) != 0
            };
            assert_eq!(got, expect, "a={va:#x} amt={vamt}");
            assert_eq!(out[16] & 1 == 1, exp_sticky, "sticky a={va:#x} amt={vamt}");
        }
    }

    #[test]
    fn shifter_left() {
        let mut g = Aig::new();
        let a = g.input_vec("a", 12, InputKind::Regular);
        let amt = g.input_vec("amt", 4, InputKind::Regular);
        let r = shl(&mut g, &a, &amt);
        g.add_output_vec("r", &r);
        let mut rng = SplitMix64::new(2);
        for _ in 0..200 {
            let va = rng.next_u64() & 0xFFF;
            let vamt = rng.next_u64() & 0xF;
            let mut words = Vec::new();
            for i in 0..12 {
                words.push(if (va >> i) & 1 == 1 { u64::MAX } else { 0 });
            }
            for i in 0..4 {
                words.push(if (vamt >> i) & 1 == 1 { u64::MAX } else { 0 });
            }
            let out = simulate_u64(&g, &words);
            let got = out
                .iter()
                .enumerate()
                .fold(0u64, |acc, (i, &w)| acc | ((w & 1) << i));
            assert_eq!(got, (va << vamt) & 0xFFF, "a={va:#x} amt={vamt}");
        }
    }

    #[test]
    fn lzc_counts_leading_zeros() {
        let mut g = Aig::new();
        let a = g.input_vec("a", 10, InputKind::Regular);
        let r = lzc(&mut g, &a);
        g.add_output_vec("r", &r);
        for va in 0..1024u64 {
            let mut words = Vec::new();
            for i in 0..10 {
                words.push(if (va >> i) & 1 == 1 { u64::MAX } else { 0 });
            }
            let out = simulate_u64(&g, &words);
            let got = out
                .iter()
                .enumerate()
                .fold(0u64, |acc, (i, &w)| acc | ((w & 1) << i));
            let expect = (va.leading_zeros() - 54) as u64; // 10-bit word
            assert_eq!(got, expect, "a={va:#b}");
        }
    }

    #[test]
    fn popcount_exhaustive_8() {
        let mut g = Aig::new();
        let a = g.input_vec("a", 8, InputKind::Regular);
        let r = popcount(&mut g, &a);
        g.add_output_vec("r", &r);
        for va in 0..256u64 {
            let mut words = Vec::new();
            for i in 0..8 {
                words.push(if (va >> i) & 1 == 1 { u64::MAX } else { 0 });
            }
            let out = simulate_u64(&g, &words);
            let got = out
                .iter()
                .enumerate()
                .fold(0u64, |acc, (i, &w)| acc | ((w & 1) << i));
            assert_eq!(got, va.count_ones() as u64);
        }
    }

    #[test]
    fn eq_and_zero_tests() {
        let mut g = Aig::new();
        let a = g.input_vec("a", 6, InputKind::Regular);
        let ones = g.and_many(&a);
        let z = is_zero(&mut g, &a);
        g.add_output("e", ones);
        g.add_output("z", z);
        for va in 0..64u64 {
            let mut words = Vec::new();
            for i in 0..6 {
                words.push(if (va >> i) & 1 == 1 { u64::MAX } else { 0 });
            }
            let out = simulate_u64(&g, &words);
            assert_eq!(out[0] & 1 == 1, va == 63);
            assert_eq!(out[1] & 1 == 1, va == 0);
        }
    }
}
