//! The FloPoCo arithmetic itself, on raw `u64` encodings.
//!
//! An [`FpKernel`] is a format with everything the operators derive from it
//! — field shifts, masks, bias, exponent range — computed once. Each
//! operator is written once, as two functions: its Normal × Normal path,
//! total on any bits, and its exception table, which resolves a zero,
//! infinite or NaN operand by comparing class codes. The scalar
//! [`mul`](FpKernel::mul)/[`add`](FpKernel::add) branch between the two
//! (`if both normal { path } else { table }`); [`crate::FpValue`]'s
//! operators check formats and delegate there.
//!
//! The column forms ([`mul_const_col`](FpKernel::mul_const_col),
//! [`mac_const_col`](FpKernel::mac_const_col),
//! [`add_col`](FpKernel::add_col)) are what the serve path feeds
//! (`vcgra::sim::ExecPlan`): one instruction stream over a column of
//! independent lanes, eight bytes a value. A branch per lane would keep
//! that loop scalar, so a column lane computes *both* functions and
//! selects one with a non-short-circuit `&` of its two class tests, and
//! the loop vectorizes. It is compiled in tiers: AVX-512 (`avx512f`,
//! `vl`, `dq`, `cd` with the AVX2 set) and AVX2 (`avx2`, `bmi1`, `bmi2`,
//! `lzcnt`). The first column call picks the best tier the CPU has, once
//! per process ([`column_tier`] names it); no option selects one. Other
//! hosts, and products wider than 64 bits (`wf > 31`), run the base tier:
//! the scalar functions lane by lane. Every tier is the scalar op bit for
//! bit — the tests sweep every pair of bit patterns of three small formats
//! through each tier the host has.
//!
//! The Normal × Normal paths mirror the gate-level generators in
//! [`crate::gen`] step by step; the tests there compare the two bit for
//! bit.

use crate::format::{FpClass, FpFormat};
use tier::Tier;

const ZERO: u64 = FpClass::Zero.code();
const NORMAL: u64 = FpClass::Normal.code();
const INFINITY: u64 = FpClass::Infinity.code();
const NAN: u64 = FpClass::NaN.code();

/// The `2·wf + 2`-bit product of two significands. `u64` holds it for
/// `wf <= 31` (the paper's 54-bit product fits); wider formats take `u128`.
/// The width is picked once per call of a kernel entry point, not per lane.
trait Product: Copy {
    fn of(a: u64, b: u64) -> Self;
    fn shl(self, n: u32) -> Self;
    /// Bits `shift..` of the product (at most 64 of them are set).
    fn bits_from(self, shift: u32) -> u64;
    /// Whether any of the low `n` bits is set.
    fn any_below(self, n: u32) -> bool;
}

impl Product for u64 {
    #[inline(always)]
    fn of(a: u64, b: u64) -> u64 {
        a * b
    }
    #[inline(always)]
    fn shl(self, n: u32) -> u64 {
        self << n
    }
    #[inline(always)]
    fn bits_from(self, shift: u32) -> u64 {
        self >> shift
    }
    #[inline(always)]
    fn any_below(self, n: u32) -> bool {
        self & ((1u64 << n) - 1) != 0
    }
}

impl Product for u128 {
    #[inline(always)]
    fn of(a: u64, b: u64) -> u128 {
        a as u128 * b as u128
    }
    #[inline(always)]
    fn shl(self, n: u32) -> u128 {
        self << n
    }
    #[inline(always)]
    fn bits_from(self, shift: u32) -> u64 {
        (self >> shift) as u64
    }
    #[inline(always)]
    fn any_below(self, n: u32) -> bool {
        self & ((1u128 << n) - 1) != 0
    }
}

/// A FloPoCo format prepared for arithmetic on raw bits.
///
/// Operands are encodings in the kernel's format; nothing here can tell a
/// value of another format apart, so callers holding [`crate::FpValue`]s
/// check `format` before handing `bits` over.
#[derive(Debug, Clone, Copy)]
pub struct FpKernel {
    format: FpFormat,
    /// Position of the two-bit exception field.
    class_shift: u32,
    sign_bit: u64,
    exp_mask: u64,
    frac_mask: u64,
    /// The significand's hidden leading one.
    hidden: u64,
    bias: i64,
    max_exp: i64,
    /// `exc = 01` / `exc = 10` / `exc = 11` with every other field clear.
    normal: u64,
    infinity: u64,
    nan: u64,
    /// The significand product fits `u64`.
    narrow: bool,
}

/// One column operation, as a tier receives it.
#[derive(Clone, Copy)]
enum Column<'a> {
    /// `xs[i] * c`.
    MulConst(&'a [u64], u64),
    /// `xs[i] * c + 0`.
    MacConst(&'a [u64], u64),
    /// `xs[i] + ys[i]`.
    Add(&'a [u64], &'a [u64]),
}

/// The tier the column forms run on in this process: `"avx512"`,
/// `"avx2"` or `"base"`, picked from the CPU's features on first use. A
/// format whose significand product is wider than 64 bits multiplies on
/// the base tier whatever this says.
pub fn column_tier() -> &'static str {
    Tier::best().name()
}

impl FpKernel {
    /// Prepares `format`.
    pub fn new(format: FpFormat) -> Self {
        let FpFormat { we, wf } = format;
        let class_shift = we + wf + 1;
        FpKernel {
            format,
            class_shift,
            sign_bit: 1 << (we + wf),
            exp_mask: (1 << we) - 1,
            frac_mask: (1 << wf) - 1,
            hidden: 1 << wf,
            bias: format.bias(),
            max_exp: format.max_exp(),
            normal: NORMAL << class_shift,
            infinity: INFINITY << class_shift,
            nan: NAN << class_shift,
            narrow: 2 * wf + 2 <= 64,
        }
    }

    /// The format the kernel computes in.
    pub fn format(&self) -> FpFormat {
        self.format
    }

    /// The two-bit exception code.
    #[inline(always)]
    fn class(&self, bits: u64) -> u64 {
        (bits >> self.class_shift) & 3
    }

    #[inline(always)]
    fn is_normal(&self, bits: u64) -> bool {
        self.class(bits) == NORMAL
    }

    #[inline(always)]
    fn exp(&self, bits: u64) -> u64 {
        (bits >> self.format.wf) & self.exp_mask
    }

    /// Significand with the hidden leading one (`wf + 1` bits).
    #[inline(always)]
    fn sig(&self, bits: u64) -> u64 {
        self.hidden | (bits & self.frac_mask)
    }

    /// Packs a rounded result: flushes to zero below the exponent range
    /// (FloPoCo has no subnormals), saturates to infinity above it.
    #[inline(always)]
    fn finish(&self, sign: u64, e: i64, sig: u64) -> u64 {
        if e < 0 {
            sign
        } else if e > self.max_exp {
            self.infinity | sign
        } else {
            self.normal | sign | (e as u64) << self.format.wf | (sig & self.frac_mask)
        }
    }

    /// Multiplication (RNE), mirroring [`crate::gen::gen_mul`].
    #[inline]
    pub fn mul(&self, a: u64, b: u64) -> u64 {
        if self.narrow {
            self.mul_lane::<u64>(a, b)
        } else {
            self.mul_lane::<u128>(a, b)
        }
    }

    #[inline(always)]
    fn mul_lane<P: Product>(&self, a: u64, b: u64) -> u64 {
        if self.is_normal(a) && self.is_normal(b) {
            self.mul_normal::<P>(a, b)
        } else {
            self.mul_table(a, b)
        }
    }

    /// The column lane of [`mul`](Self::mul) in a narrow format: both
    /// functions, one select.
    #[inline(always)]
    fn mul_select(&self, a: u64, b: u64) -> u64 {
        let (normal, table) = (self.mul_normal::<u64>(a, b), self.mul_table(a, b));
        if self.is_normal(a) & self.is_normal(b) {
            normal
        } else {
            table
        }
    }

    /// The product of two Normals. Reads only the sign, exponent and
    /// fraction fields, so it is defined on any bits.
    #[inline(always)]
    fn mul_normal<P: Product>(&self, a: u64, b: u64) -> u64 {
        let wf = self.format.wf;
        let prod = P::of(self.sig(a), self.sig(b)); // 2wf+2 bits
        let norm = prod.bits_from(2 * wf + 1) & 1; // product in [2,4)?
                                                   // Normalize: leading 1 at bit 2wf+1 either way.
        let prod = prod.shl(1 - norm as u32);
        let keep = prod.bits_from(wf + 1); // wf+1 bits incl. leading 1
        let guard = prod.bits_from(wf) & 1;
        let sticky = prod.any_below(wf);
        let round_up = guard & (sticky as u64 | keep);
        let mut s = keep + round_up;
        // Rounding up an all-ones significand carries into a new leading bit.
        let rcarry = s >> (wf + 1);
        s >>= rcarry;
        let e = self.exp(a) as i64 + self.exp(b) as i64 - self.bias + norm as i64 + rcarry as i64;
        self.finish((a ^ b) & self.sign_bit, e, s)
    }

    /// A product with an operand that is not Normal, resolved in the same
    /// priority order as the netlist. Two Normals give a signed zero that
    /// nobody reads.
    #[inline(always)]
    fn mul_table(&self, a: u64, b: u64) -> u64 {
        let (ca, cb) = (self.class(a), self.class(b));
        let sign = (a ^ b) & self.sign_bit;
        let zero_by_inf = (ca == ZERO) & (cb == INFINITY) | (ca == INFINITY) & (cb == ZERO);
        if (ca == NAN) | (cb == NAN) | zero_by_inf {
            self.nan
        } else if (ca == INFINITY) | (cb == INFINITY) {
            self.infinity | sign
        } else {
            sign // a zero operand: signed zero
        }
    }

    /// Addition (RNE), mirroring [`crate::gen::gen_add`].
    // Always inlined, like `mul_lane`: in a column loop the kernel's fields
    // then stay in registers and neighbouring lanes overlap.
    #[inline(always)]
    pub fn add(&self, a: u64, b: u64) -> u64 {
        if self.is_normal(a) && self.is_normal(b) {
            self.add_normal(a, b)
        } else {
            self.add_table(a, b)
        }
    }

    /// The column lane of [`add`](Self::add): both functions, one select.
    #[inline(always)]
    fn add_select(&self, a: u64, b: u64) -> u64 {
        let (normal, table) = (self.add_normal(a, b), self.add_table(a, b));
        if self.is_normal(a) & self.is_normal(b) {
            normal
        } else {
            table
        }
    }

    /// The sum of two Normals. Reads only the sign, exponent and fraction
    /// fields, so it is defined on any bits.
    #[inline(always)]
    fn add_normal(&self, a: u64, b: u64) -> u64 {
        let wf = self.format.wf;
        // Order by magnitude: compare exp:frac as one integer.
        let mag_mask = self.sign_bit - 1;
        let (big, small) = if b & mag_mask > a & mag_mask {
            (b, a)
        } else {
            (a, b)
        };
        let d = self.exp(big) - self.exp(small);
        let width = wf + 4; // significand + 3 guard bits
        let x = self.sig(big) << 3;
        let y_full = self.sig(small) << 3;
        // `dc <= wf + 4 <= 56` keeps the shifts below inside u64:
        // `FpFormat::new` caps `wf` at 52.
        let dc = d.min(width as u64) as u32;
        let sticky = y_full & ((1u64 << dc) - 1) != 0;
        let y = y_full >> dc | sticky as u64;
        // Effective subtraction adds the two's complement: signs differ in
        // half of all sums, so a branch here would be mispredicted.
        let negate = (((big ^ small) & self.sign_bit != 0) as u64).wrapping_neg();
        let r = x.wrapping_add((y ^ negate).wrapping_sub(negate));
        if r == 0 {
            return 0; // exact cancellation: +0
        }
        // Normalize to `width` bits, leading 1 at bit `width - 1`: a sum
        // may have carried one bit out (which stays in the sticky
        // position), a difference may have cancelled leading bits.
        let lz = r.leading_zeros();
        let carry = (64 - width).saturating_sub(lz); // 0 or 1
        let cancelled = lz.saturating_sub(64 - width);
        let s = (r << cancelled) >> carry | (r & carry as u64);
        let e = self.exp(big) as i64 + carry as i64 - cancelled as i64;
        // Round: L = bit 3, G = bit 2, R|S = bits 1..0.
        let round_up = (s >> 2) & ((s & 3 != 0) as u64 | (s >> 3)) & 1;
        let mut hi = (s >> 3) + round_up; // wf+1 bits
        let rcarry = hi >> (wf + 1);
        hi >>= rcarry;
        self.finish(big & self.sign_bit, e + rcarry as i64, hi)
    }

    /// A sum with an operand that is not Normal. Two Normals give the
    /// left one, which nobody reads.
    #[inline(always)]
    fn add_table(&self, a: u64, b: u64) -> u64 {
        let (ca, cb) = (self.class(a), self.class(b));
        let (sa, sb) = (a & self.sign_bit, b & self.sign_bit);
        if (ca == NAN) | (cb == NAN) | (ca == INFINITY) & (cb == INFINITY) & (sa != sb) {
            self.nan
        } else if ca == INFINITY {
            self.infinity | sa
        } else if cb == INFINITY {
            self.infinity | sb
        } else if (ca == ZERO) & (cb == ZERO) {
            sa & sb // -0 only when both are
        } else if ca == ZERO {
            b
        } else {
            a
        }
    }

    /// `add(p, +0)` for a product `p` of [`mul`](Self::mul): a MAC
    /// accumulating onto its zero feedback. A product is canonical — a
    /// zero is its bare sign, an infinity or NaN has no other field set —
    /// so the only row of the table that changes it is `zero + zero`
    /// (`-0` only when both are): `-0` becomes `+0`. The tests check this
    /// against `add` on every pair of three formats.
    #[inline(always)]
    fn plus_zero(&self, p: u64) -> u64 {
        let zero = (self.class(p) == ZERO) as u64;
        p & !(zero.wrapping_neg() & self.sign_bit)
    }

    /// `out[i] = xs[i] * c` — a column under one coefficient, the PE's
    /// multiplier with its parameter input fixed.
    ///
    /// Panics unless `xs` and `out` have the same length.
    pub fn mul_const_col(&self, xs: &[u64], c: u64, out: &mut [u64]) {
        assert_eq!(xs.len(), out.len(), "one output lane per input lane");
        self.column(Tier::best(), Column::MulConst(xs, c), out)
    }

    /// `out[i] = xs[i] * c + 0` — a dataflow MAC: the multiplier under
    /// one coefficient, accumulating onto the zero feedback. Lane for lane
    /// `add(mul(x, c), 0)`.
    ///
    /// Panics unless `xs` and `out` have the same length.
    pub fn mac_const_col(&self, xs: &[u64], c: u64, out: &mut [u64]) {
        assert_eq!(xs.len(), out.len(), "one output lane per input lane");
        self.column(Tier::best(), Column::MacConst(xs, c), out)
    }

    /// `out[i] = xs[i] + ys[i]`.
    ///
    /// Panics unless all three slices have the same length.
    pub fn add_col(&self, xs: &[u64], ys: &[u64], out: &mut [u64]) {
        assert!(
            xs.len() == out.len() && ys.len() == out.len(),
            "one output lane per input lane"
        );
        self.column(Tier::best(), Column::Add(xs, ys), out)
    }

    /// Runs `op` into `out` on `tier`. The select form multiplies in
    /// `u64`, so a wider product stays on the base tier.
    fn column(&self, tier: Tier, op: Column, out: &mut [u64]) {
        let tier = if self.narrow || matches!(op, Column::Add(..)) {
            tier
        } else {
            Tier::BASE
        };
        tier.run(self, op, out)
    }

    /// The base tier: the scalar functions, lane by lane.
    fn column_base(&self, op: Column, out: &mut [u64]) {
        match op {
            Column::MulConst(xs, c) | Column::MacConst(xs, c) => {
                if self.narrow {
                    self.mul_const_base::<u64>(xs, c, out)
                } else {
                    self.mul_const_base::<u128>(xs, c, out)
                }
                if let Column::MacConst(..) = op {
                    for o in out {
                        *o = self.plus_zero(*o);
                    }
                }
            }
            Column::Add(xs, ys) => {
                for ((o, &x), &y) in out.iter_mut().zip(xs).zip(ys) {
                    *o = self.add(x, y);
                }
            }
        }
    }

    fn mul_const_base<P: Product>(&self, xs: &[u64], c: u64, out: &mut [u64]) {
        for (o, &x) in out.iter_mut().zip(xs) {
            *o = self.mul_lane::<P>(x, c);
        }
    }

    /// The select form, lane by lane, for a narrow format: compiled under
    /// a tier's target features, these loops vectorize.
    #[inline(always)]
    fn column_select(&self, op: Column, out: &mut [u64]) {
        match op {
            Column::MulConst(xs, c) => {
                for (o, &x) in out.iter_mut().zip(xs) {
                    *o = self.mul_select(x, c);
                }
            }
            Column::MacConst(xs, c) => {
                for (o, &x) in out.iter_mut().zip(xs) {
                    *o = self.plus_zero(self.mul_select(x, c));
                }
            }
            Column::Add(xs, ys) => {
                for ((o, &x), &y) in out.iter_mut().zip(xs).zip(ys) {
                    *o = self.add_select(x, y);
                }
            }
        }
    }
}

/// The instruction sets the column loops are compiled for, and the one
/// place the crate calls into them.
mod tier {
    use super::{Column, FpKernel};
    use std::sync::OnceLock;

    /// A tier the column forms can run on. Only [`Tier::supported`] makes
    /// one other than [`Tier::BASE`], after the CPU has reported every
    /// feature that tier is compiled with: holding a `Tier` is what makes
    /// [`Tier::run`] sound.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(super) struct Tier(Isa);

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Isa {
        #[cfg(target_arch = "x86_64")]
        Avx512,
        #[cfg(target_arch = "x86_64")]
        Avx2,
        Base,
    }

    impl Tier {
        /// Today's scalar loop, on any host.
        pub(super) const BASE: Tier = Tier(Isa::Base);

        /// Every tier this CPU runs, best first, [`Tier::BASE`] last.
        pub(super) fn supported() -> Vec<Tier> {
            let mut tiers = Vec::new();
            #[cfg(target_arch = "x86_64")]
            {
                let avx2 = is_x86_feature_detected!("avx2")
                    && is_x86_feature_detected!("bmi1")
                    && is_x86_feature_detected!("bmi2")
                    && is_x86_feature_detected!("lzcnt");
                let avx512 = avx2
                    && is_x86_feature_detected!("avx512f")
                    && is_x86_feature_detected!("avx512vl")
                    && is_x86_feature_detected!("avx512dq")
                    && is_x86_feature_detected!("avx512cd");
                if avx512 {
                    tiers.push(Tier(Isa::Avx512));
                }
                if avx2 {
                    tiers.push(Tier(Isa::Avx2));
                }
            }
            tiers.push(Tier::BASE);
            tiers
        }

        /// The best tier this CPU runs, detected on the first call of the
        /// process. Not in `FpKernel::new`: every scalar `FpValue` op
        /// builds a kernel.
        pub(super) fn best() -> Tier {
            static BEST: OnceLock<Tier> = OnceLock::new();
            *BEST.get_or_init(|| Tier::supported()[0])
        }

        pub(super) fn name(self) -> &'static str {
            match self.0 {
                #[cfg(target_arch = "x86_64")]
                Isa::Avx512 => "avx512",
                #[cfg(target_arch = "x86_64")]
                Isa::Avx2 => "avx2",
                Isa::Base => "base",
            }
        }

        /// Runs `op` into `out` on this tier.
        #[allow(unsafe_code)]
        pub(super) fn run(self, kernel: &FpKernel, op: Column, out: &mut [u64]) {
            match self.0 {
                // SAFETY (both arms): `supported` made this `Tier` only
                // after `is_x86_feature_detected!` reported, on this CPU,
                // every feature the called function is compiled with.
                #[cfg(target_arch = "x86_64")]
                Isa::Avx512 => unsafe { avx512(kernel, op, out) },
                #[cfg(target_arch = "x86_64")]
                Isa::Avx2 => unsafe { avx2(kernel, op, out) },
                Isa::Base => kernel.column_base(op, out),
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512vl,avx512dq,avx512cd,avx2,bmi1,bmi2,lzcnt")]
    fn avx512(kernel: &FpKernel, op: Column, out: &mut [u64]) {
        kernel.column_select(op, out)
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2,bmi1,bmi2,lzcnt")]
    fn avx2(kernel: &FpKernel, op: Column, out: &mut [u64]) {
        kernel.column_select(op, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FpValue;
    use logic::SplitMix64;

    /// Normals over the whole exponent range, specials and arbitrary bit
    /// patterns mixed in.
    fn lane_bits(rng: &mut SplitMix64, f: FpFormat) -> u64 {
        match rng.below(8) {
            0 => f.pack(FpClass::Zero, rng.coin(), 0, 0),
            1 => f.pack(FpClass::Infinity, rng.coin(), 0, 0),
            2 => f.pack(FpClass::NaN, false, 0, 0),
            3 => FpValue::from_bits(rng.next_u64(), f).bits,
            _ => f.pack(
                FpClass::Normal,
                rng.coin(),
                rng.below(1 << f.we),
                rng.below(1 << f.wf),
            ),
        }
    }

    #[test]
    fn column_forms_equal_the_scalar_form_lane_for_lane() {
        let formats = [
            FpFormat::PAPER,
            FpFormat::new(5, 10),
            FpFormat::new(4, 6),
            FpFormat::new(8, 40),
            FpFormat::new(8, 52),
        ];
        let mut rng = SplitMix64::new(0xC01);
        let tiers = Tier::supported();
        assert_eq!(tiers[0], Tier::best());
        assert_eq!(column_tier(), Tier::best().name());
        for f in formats {
            let kernel = FpKernel::new(f);
            assert_eq!(kernel.format(), f);
            for lanes in [0, 1, 3, 64, 100] {
                let xs: Vec<u64> = (0..lanes).map(|_| lane_bits(&mut rng, f)).collect();
                let ys: Vec<u64> = (0..lanes).map(|_| lane_bits(&mut rng, f)).collect();
                let c = lane_bits(&mut rng, f);
                let mul: Vec<u64> = xs.iter().map(|&x| kernel.mul(x, c)).collect();
                let mac: Vec<u64> = mul.iter().map(|&p| kernel.add(p, 0)).collect();
                let add: Vec<u64> = xs
                    .iter()
                    .zip(&ys)
                    .map(|(&x, &y)| kernel.add(x, y))
                    .collect();
                let mut out = vec![u64::MAX; lanes];
                kernel.mul_const_col(&xs, c, &mut out);
                assert_eq!(
                    out, mul,
                    "mul_const_col in ({}, {}), c = {c:#x}",
                    f.we, f.wf
                );
                kernel.mac_const_col(&xs, c, &mut out);
                assert_eq!(
                    out, mac,
                    "mac_const_col in ({}, {}), c = {c:#x}",
                    f.we, f.wf
                );
                kernel.add_col(&xs, &ys, &mut out);
                assert_eq!(out, add, "add_col in ({}, {})", f.we, f.wf);
                for &tier in &tiers {
                    let at = format!("{} tier in ({}, {})", tier.name(), f.we, f.wf);
                    kernel.column(tier, Column::MulConst(&xs, c), &mut out);
                    assert_eq!(out, mul, "mul, {at}, c = {c:#x}");
                    kernel.column(tier, Column::MacConst(&xs, c), &mut out);
                    assert_eq!(out, mac, "mac, {at}, c = {c:#x}");
                    kernel.column(tier, Column::Add(&xs, &ys), &mut out);
                    assert_eq!(out, add, "add, {at}");
                }
            }
        }
    }

    /// Every pair of bit patterns of `f`, through every tier this CPU
    /// runs: each column form against its scalar op. The coefficient (and
    /// the right addend) is one pattern per column, the left operand
    /// column is every pattern.
    fn every_pair_at_every_tier(f: FpFormat) {
        let kernel = FpKernel::new(f);
        let all: Vec<u64> = (0..1u64 << f.width()).collect();
        let tiers = Tier::supported();
        let (mut want, mut got) = (vec![0; all.len()], vec![0; all.len()]);
        let mut check = |name: &str, c: u64, scalar: &dyn Fn(u64) -> u64, op: Column| {
            for (w, &x) in want.iter_mut().zip(&all) {
                *w = scalar(x);
            }
            for &tier in &tiers {
                kernel.column(tier, op, &mut got);
                if let Some(i) = (0..all.len()).find(|&i| got[i] != want[i]) {
                    panic!(
                        "{name} at the {} tier in ({}, {}): {:#x}, {c:#x} gives {:#x}, scalar {:#x}",
                        tier.name(),
                        f.we,
                        f.wf,
                        all[i],
                        got[i],
                        want[i]
                    );
                }
            }
        };
        for &c in &all {
            let splat = vec![c; all.len()];
            check("mul", c, &|x| kernel.mul(x, c), Column::MulConst(&all, c));
            check(
                "mac",
                c,
                &|x| kernel.add(kernel.mul(x, c), 0),
                Column::MacConst(&all, c),
            );
            check("add", c, &|x| kernel.add(x, c), Column::Add(&all, &splat));
        }
    }

    #[test]
    fn every_tier_equals_the_scalar_ops_on_every_pair_of_a_3_4_format() {
        every_pair_at_every_tier(FpFormat::new(3, 4));
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "2^26 pairs: runs in release")]
    fn every_tier_equals_the_scalar_ops_on_every_pair_of_a_4_6_format() {
        every_pair_at_every_tier(FpFormat::new(4, 6));
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "2^26 pairs: runs in release")]
    fn every_tier_equals_the_scalar_ops_on_every_pair_of_a_5_5_format() {
        every_pair_at_every_tier(FpFormat::new(5, 5));
    }

    #[test]
    #[should_panic(expected = "one output lane per input lane")]
    fn a_column_of_the_wrong_length_is_refused() {
        FpKernel::new(FpFormat::PAPER).add_col(&[0; 4], &[0; 3], &mut [0; 4]);
    }
}
