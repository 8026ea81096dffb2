//! The FloPoCo arithmetic itself, on raw `u64` encodings.
//!
//! An [`FpKernel`] is a format with everything the operators derive from it
//! — field shifts, masks, bias, exponent range — computed once. Its scalar
//! [`mul`](FpKernel::mul)/[`add`](FpKernel::add) are the only place the
//! rounding logic lives: [`crate::FpValue`]'s operators check formats and
//! delegate here, and the column forms apply the same scalar functions to
//! every lane of a slice. A column of independent lanes is what the serve
//! path feeds it (`vcgra::sim::ExecPlan`): one instruction stream, many
//! data lanes, eight bytes a value.
//!
//! The Normal × Normal paths mirror the gate-level generators in
//! [`crate::gen`] step by step; the tests there compare the two bit for
//! bit.

use crate::format::{FpClass, FpFormat};

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
            normal: FpClass::Normal.code() << class_shift,
            infinity: FpClass::Infinity.code() << class_shift,
            nan: FpClass::NaN.code() << class_shift,
            narrow: 2 * wf + 2 <= 64,
        }
    }

    /// The format the kernel computes in.
    pub fn format(&self) -> FpFormat {
        self.format
    }

    #[inline(always)]
    fn is_normal(&self, bits: u64) -> bool {
        (bits >> self.class_shift) & 3 == FpClass::Normal.code()
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
        if !(self.is_normal(a) && self.is_normal(b)) {
            return self.mul_exception(a, b);
        }
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
    /// priority order as the netlist.
    fn mul_exception(&self, a: u64, b: u64) -> u64 {
        use FpClass::*;
        let (ca, cb) = (self.format.class_of(a), self.format.class_of(b));
        let sign = (a ^ b) & self.sign_bit;
        if ca == NaN || cb == NaN || (ca == Zero && cb == Infinity) || (ca == Infinity && cb == Zero)
        {
            self.nan
        } else if ca == Infinity || cb == Infinity {
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
        if !(self.is_normal(a) && self.is_normal(b)) {
            return self.add_exception(a, b);
        }
        let wf = self.format.wf;
        // Order by magnitude: compare exp:frac as one integer.
        let mag_mask = self.sign_bit - 1;
        let (big, small) = if b & mag_mask > a & mag_mask { (b, a) } else { (a, b) };
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

    /// A sum with an operand that is not Normal.
    fn add_exception(&self, a: u64, b: u64) -> u64 {
        use FpClass::*;
        let (ca, cb) = (self.format.class_of(a), self.format.class_of(b));
        let (sa, sb) = (a & self.sign_bit, b & self.sign_bit);
        if ca == NaN || cb == NaN || (ca == Infinity && cb == Infinity && sa != sb) {
            self.nan
        } else if ca == Infinity {
            self.infinity | sa
        } else if cb == Infinity {
            self.infinity | sb
        } else if ca == Zero && cb == Zero {
            sa & sb // -0 only when both are
        } else if ca == Zero {
            b
        } else {
            a
        }
    }

    /// `out[i] = xs[i] * c` — a column under one coefficient, the PE's
    /// multiplier with its parameter input fixed.
    ///
    /// Panics unless `xs` and `out` have the same length.
    pub fn mul_const_col(&self, xs: &[u64], c: u64, out: &mut [u64]) {
        assert_eq!(xs.len(), out.len(), "one output lane per input lane");
        if self.narrow {
            self.mul_const_col_in::<u64>(xs, c, out)
        } else {
            self.mul_const_col_in::<u128>(xs, c, out)
        }
    }

    fn mul_const_col_in<P: Product>(&self, xs: &[u64], c: u64, out: &mut [u64]) {
        for (o, &x) in out.iter_mut().zip(xs) {
            *o = self.mul_lane::<P>(x, c);
        }
    }

    /// `out[i] = xs[i] + ys[i]`.
    ///
    /// Panics unless all three slices have the same length.
    pub fn add_col(&self, xs: &[u64], ys: &[u64], out: &mut [u64]) {
        assert!(xs.len() == out.len() && ys.len() == out.len(), "one output lane per input lane");
        for ((o, &x), &y) in out.iter_mut().zip(xs).zip(ys) {
            *o = self.add(x, y);
        }
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
            _ => f.pack(FpClass::Normal, rng.coin(), rng.below(1 << f.we), rng.below(1 << f.wf)),
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
        for f in formats {
            let kernel = FpKernel::new(f);
            assert_eq!(kernel.format(), f);
            for lanes in [0, 1, 3, 64, 100] {
                let xs: Vec<u64> = (0..lanes).map(|_| lane_bits(&mut rng, f)).collect();
                let ys: Vec<u64> = (0..lanes).map(|_| lane_bits(&mut rng, f)).collect();
                let c = lane_bits(&mut rng, f);
                let mut out = vec![u64::MAX; lanes];
                kernel.mul_const_col(&xs, c, &mut out);
                let want: Vec<u64> = xs.iter().map(|&x| kernel.mul(x, c)).collect();
                assert_eq!(out, want, "mul_const_col in ({}, {}), c = {c:#x}", f.we, f.wf);
                kernel.add_col(&xs, &ys, &mut out);
                let want: Vec<u64> = xs.iter().zip(&ys).map(|(&x, &y)| kernel.add(x, y)).collect();
                assert_eq!(out, want, "add_col in ({}, {})", f.we, f.wf);
            }
        }
    }

    #[test]
    #[should_panic(expected = "one output lane per input lane")]
    fn a_column_of_the_wrong_length_is_refused() {
        FpKernel::new(FpFormat::PAPER).add_col(&[0; 4], &[0; 3], &mut [0; 4]);
    }
}
