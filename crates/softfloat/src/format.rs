//! Software model of the FloPoCo floating-point format.
//!
//! A FloPoCo number with exponent width `we` and fraction width `wf` is a
//! bit vector `exc(2) | sign(1) | exp(we) | frac(wf)` (MSB first):
//!
//! * `exc = 00` → zero, `01` → normal, `10` → infinity, `11` → NaN;
//! * normal values are `(-1)^sign · 1.frac · 2^(exp - bias)` with
//!   `bias = 2^(we-1) - 1`;
//! * there are **no subnormals** — results below the minimum exponent flush
//!   to zero — and no reserved exponent codes (exceptions live in `exc`).
//!
//! The paper instantiates `we = 6`, `wf = 26` ([`FpFormat::PAPER`]).
//!
//! Rounding is round-to-nearest-even throughout. [`FpValue`] carries a
//! value together with its format; its `mul` and `add` check the formats
//! and hand the bits to [`FpKernel`], where the arithmetic lives.

use crate::kernel::FpKernel;

/// Exception class of a FloPoCo number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FpClass {
    /// `exc = 00`.
    Zero,
    /// `exc = 01`.
    Normal,
    /// `exc = 10`.
    Infinity,
    /// `exc = 11`.
    NaN,
}

impl FpClass {
    /// The two-bit exception code.
    pub const fn code(self) -> u64 {
        match self {
            FpClass::Zero => 0,
            FpClass::Normal => 1,
            FpClass::Infinity => 2,
            FpClass::NaN => 3,
        }
    }

    /// Decodes a two-bit exception code.
    pub(crate) fn from_code(c: u64) -> Self {
        match c & 3 {
            0 => FpClass::Zero,
            1 => FpClass::Normal,
            2 => FpClass::Infinity,
            _ => FpClass::NaN,
        }
    }
}

/// A FloPoCo floating-point format.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FpFormat {
    /// Exponent width in bits.
    pub we: u32,
    /// Fraction (mantissa) width in bits.
    pub wf: u32,
}

impl FpFormat {
    /// The format used in the paper: 6-bit exponent, 26-bit mantissa.
    pub const PAPER: FpFormat = FpFormat { we: 6, wf: 26 };

    /// A tiny format for exhaustive testing.
    pub const TINY: FpFormat = FpFormat { we: 3, wf: 2 };

    /// Creates a format; panics unless it [`is_valid`](Self::is_valid).
    pub fn new(we: u32, wf: u32) -> Self {
        let format = FpFormat { we, wf };
        assert!(format.is_valid(), "format ({we}, {wf}) out of range");
        format
    }

    /// The widths the arithmetic supports: `we` in 2..=11, `wf` in 1..=52,
    /// and all 3 + `we` + `wf` bits in the `u64` backing store. The fields
    /// are public, so a literal can hold any pair; [`FpFormat::new`]
    /// refuses the same ones this does.
    pub fn is_valid(self) -> bool {
        (2..=11).contains(&self.we) && (1..=52).contains(&self.wf) && self.width() <= 64
    }

    /// Total bit width: 2 exception + 1 sign + we + wf.
    pub fn width(self) -> u32 {
        3 + self.we + self.wf
    }

    /// Exponent bias `2^(we-1) - 1`.
    pub fn bias(self) -> i64 {
        (1i64 << (self.we - 1)) - 1
    }

    /// Largest storable exponent field value.
    pub fn max_exp(self) -> i64 {
        (1i64 << self.we) - 1
    }

    /// Packs fields into raw bits.
    pub fn pack(self, class: FpClass, sign: bool, exp: u64, frac: u64) -> u64 {
        debug_assert!(exp < (1 << self.we));
        debug_assert!(frac < (1 << self.wf));
        class.code() << (self.we + self.wf + 1)
            | (sign as u64) << (self.we + self.wf)
            | exp << self.wf
            | frac
    }

    /// Extracts the exception class.
    pub(crate) fn class_of(self, bits: u64) -> FpClass {
        FpClass::from_code(bits >> (self.we + self.wf + 1))
    }

    /// Extracts the sign bit.
    pub(crate) fn sign_of(self, bits: u64) -> bool {
        (bits >> (self.we + self.wf)) & 1 == 1
    }

    /// Extracts the exponent field.
    pub(crate) fn exp_of(self, bits: u64) -> u64 {
        (bits >> self.wf) & ((1 << self.we) - 1)
    }

    /// Extracts the fraction field.
    pub(crate) fn frac_of(self, bits: u64) -> u64 {
        bits & ((1 << self.wf) - 1)
    }
}

/// Why a value is not a value of a format ([`FpValue::bits_in`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NotIn {
    /// The value is tagged with this other format: its bits would be read
    /// as a different number.
    Format(FpFormat),
    /// The value is tagged with the format but holds these bits, wider
    /// than the format, which no value of it does.
    Bits(u64),
}

impl std::fmt::Display for NotIn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            NotIn::Format(got) => write!(f, "a value in format ({}, {})", got.we, got.wf),
            NotIn::Bits(bits) => write!(f, "bits {bits:#x}, wider than the format"),
        }
    }
}

/// A FloPoCo value: raw bits plus its format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FpValue {
    /// Raw encoding, LSB-aligned ( width() significant bits).
    pub bits: u64,
    /// The format the bits are encoded in.
    pub format: FpFormat,
}

impl FpValue {
    /// Positive zero.
    pub fn zero(format: FpFormat) -> Self {
        Self {
            bits: format.pack(FpClass::Zero, false, 0, 0),
            format,
        }
    }

    /// Signed zero.
    pub fn signed_zero(format: FpFormat, sign: bool) -> Self {
        Self {
            bits: format.pack(FpClass::Zero, sign, 0, 0),
            format,
        }
    }

    /// Signed infinity.
    pub fn infinity(format: FpFormat, sign: bool) -> Self {
        Self {
            bits: format.pack(FpClass::Infinity, sign, 0, 0),
            format,
        }
    }

    /// Canonical NaN.
    pub fn nan(format: FpFormat) -> Self {
        Self {
            bits: format.pack(FpClass::NaN, false, 0, 0),
            format,
        }
    }

    /// Wraps raw bits in a format.
    pub fn from_bits(bits: u64, format: FpFormat) -> Self {
        // Not `(1 << width) - 1`: a (9,52) value is 64 bits wide.
        Self {
            bits: bits & (u64::MAX >> (64 - format.width())),
            format,
        }
    }

    /// This value's bits, if it is a value of `format`: it is tagged
    /// `format`, and its bits fit `format.width()`. [`FpValue::from_bits`]
    /// and the arithmetic make only such values; the public fields can hold
    /// others, which every reader of outside values refuses by this one
    /// check, naming the reason it gives. A wrong format is named before
    /// wide bits.
    pub fn bits_in(self, format: FpFormat) -> Result<u64, NotIn> {
        if self.format != format {
            Err(NotIn::Format(self.format))
        } else if self.bits.checked_shr(format.width()).unwrap_or(0) != 0 {
            Err(NotIn::Bits(self.bits))
        } else {
            Ok(self.bits)
        }
    }

    /// Exception class.
    pub fn class(self) -> FpClass {
        self.format.class_of(self.bits)
    }

    /// Sign bit.
    pub fn sign(self) -> bool {
        self.format.sign_of(self.bits)
    }

    /// Exponent field.
    pub fn exp(self) -> u64 {
        self.format.exp_of(self.bits)
    }

    /// Fraction field.
    pub fn frac(self) -> u64 {
        self.format.frac_of(self.bits)
    }

    /// Converts an `f64` into the format with round-to-nearest-even.
    ///
    /// Overflow saturates to infinity, underflow flushes to (signed) zero —
    /// FloPoCo has no subnormals.
    pub fn from_f64(x: f64, format: FpFormat) -> Self {
        if x.is_nan() {
            return Self::nan(format);
        }
        let sign = x.is_sign_negative();
        if x.is_infinite() {
            return Self::infinity(format, sign);
        }
        if x == 0.0 {
            return Self::signed_zero(format, sign);
        }
        let bits = x.abs().to_bits();
        let mut raw_e = ((bits >> 52) & 0x7FF) as i64;
        let mut m52 = bits & ((1u64 << 52) - 1);
        let mut e2: i64;
        if raw_e == 0 {
            // subnormal f64: normalize manually
            let lz = m52.leading_zeros() as i64 - 11; // bits above position 52
            m52 <<= lz + 1;
            m52 &= (1u64 << 52) - 1;
            raw_e = 1 - (lz + 1);
            e2 = raw_e - 1023;
        } else {
            e2 = raw_e - 1023;
        }
        let wf = format.wf;
        // Round 52-bit fraction to wf bits (RNE).
        let mut frac;
        if wf >= 52 {
            frac = m52 << (wf - 52);
        } else {
            let shift = 52 - wf;
            let keep = m52 >> shift;
            let guard = (m52 >> (shift - 1)) & 1;
            let sticky = m52 & ((1u64 << (shift - 1)) - 1) != 0;
            frac = keep;
            if guard == 1 && (sticky || keep & 1 == 1) {
                frac += 1;
                if frac >> wf == 1 {
                    frac = 0;
                    e2 += 1;
                }
            }
        }
        let stored = e2 + format.bias();
        if stored < 0 {
            return Self::signed_zero(format, sign);
        }
        if stored > format.max_exp() {
            return Self::infinity(format, sign);
        }
        Self {
            bits: format.pack(FpClass::Normal, sign, stored as u64, frac),
            format,
        }
    }

    /// Converts to `f64` (always exact for `wf <= 52`).
    pub fn to_f64(self) -> f64 {
        match self.class() {
            FpClass::NaN => f64::NAN,
            FpClass::Infinity => {
                if self.sign() {
                    f64::NEG_INFINITY
                } else {
                    f64::INFINITY
                }
            }
            FpClass::Zero => {
                if self.sign() {
                    -0.0
                } else {
                    0.0
                }
            }
            FpClass::Normal => {
                let m = 1.0 + self.frac() as f64 / (1u64 << self.format.wf) as f64;
                let e = self.exp() as i64 - self.format.bias();
                let v = m * (e as f64).exp2();
                if self.sign() {
                    -v
                } else {
                    v
                }
            }
        }
    }

    /// Floating-point multiplication (RNE): [`FpKernel::mul`] on the
    /// operands' bits. Panics unless both are in the same format.
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, rhs: FpValue) -> FpValue {
        let format = self.format;
        assert_eq!(format, rhs.format);
        FpValue {
            bits: FpKernel::new(format).mul(self.bits, rhs.bits),
            format,
        }
    }

    /// Floating-point addition (RNE): [`FpKernel::add`] on the operands'
    /// bits. Panics unless both are in the same format.
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, rhs: FpValue) -> FpValue {
        let format = self.format;
        assert_eq!(format, rhs.format);
        FpValue {
            bits: FpKernel::new(format).add(self.bits, rhs.bits),
            format,
        }
    }

    /// Subtraction (`self - rhs`), via sign flip.
    #[allow(clippy::should_implement_trait)]
    pub fn sub(self, rhs: FpValue) -> FpValue {
        let f = rhs.format;
        let flipped = FpValue::from_bits(rhs.bits ^ (1u64 << (f.we + f.wf)), f);
        // A zero keeps class Zero; flipping its sign bit is still a zero.
        self.add(flipped)
    }

    /// Multiply-accumulate `self * coeff + acc`, with intermediate rounding
    /// after the multiplication — exactly like the PE netlist (the paper
    /// builds the MAC from separate FloPoCo mul and add operators).
    pub fn mac(self, coeff: FpValue, acc: FpValue) -> FpValue {
        self.mul(coeff).add(acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const F: FpFormat = FpFormat::PAPER;

    fn fp(x: f64) -> FpValue {
        FpValue::from_f64(x, F)
    }

    #[test]
    fn roundtrip_simple_values() {
        for &x in &[
            0.0,
            1.0,
            -1.0,
            0.5,
            2.0,
            3.25,
            -17.625,
            1000.0,
            2.0_f64.powi(-20),
        ] {
            let v = fp(x);
            assert_eq!(v.to_f64(), x, "{x} must be exactly representable");
        }
        // 1e-6 is not exact in wf=26; it must round to within half an ulp.
        let v = fp(1e-6);
        assert!((v.to_f64() - 1e-6).abs() <= 1e-6 / (1u64 << 26) as f64);
    }

    #[test]
    fn classes() {
        assert_eq!(fp(f64::NAN).class(), FpClass::NaN);
        assert_eq!(fp(f64::INFINITY).class(), FpClass::Infinity);
        assert_eq!(fp(0.0).class(), FpClass::Zero);
        assert_eq!(fp(-0.0).class(), FpClass::Zero);
        assert!(fp(-0.0).sign());
        assert_eq!(fp(1.5).class(), FpClass::Normal);
    }

    #[test]
    fn mul_matches_f64_on_exact_cases() {
        let cases = [
            (2.0, 3.0),
            (1.5, -2.5),
            (0.125, 8.0),
            (-4.0, -0.25),
            (3.0, 7.0),
        ];
        for (a, b) in cases {
            assert_eq!(fp(a).mul(fp(b)).to_f64(), a * b, "{a} * {b}");
        }
    }

    #[test]
    fn add_matches_f64_on_exact_cases() {
        let cases = [
            (1.0, 2.0),
            (1.5, -0.5),
            (100.0, 0.25),
            (-8.0, 8.0),
            (3.75, 3.75),
            (1.0, -3.0),
        ];
        for (a, b) in cases {
            assert_eq!(fp(a).add(fp(b)).to_f64(), a + b, "{a} + {b}");
        }
    }

    #[test]
    fn exceptions_propagate() {
        let inf = FpValue::infinity(F, false);
        let nan = FpValue::nan(F);
        let zero = FpValue::zero(F);
        assert_eq!(zero.mul(inf).class(), FpClass::NaN);
        assert_eq!(inf.mul(fp(2.0)).class(), FpClass::Infinity);
        assert_eq!(nan.add(fp(1.0)).class(), FpClass::NaN);
        assert_eq!(inf.add(inf).class(), FpClass::Infinity);
        assert_eq!(inf.sub(inf).class(), FpClass::NaN);
        assert_eq!(zero.add(fp(5.5)).to_f64(), 5.5);
    }

    #[test]
    fn overflow_and_underflow_saturate() {
        let big = fp(2.0f64.powi(30));
        assert_eq!(
            big.mul(big).class(),
            FpClass::Infinity,
            "2^60 overflows we=6"
        );
        let small = fp(2.0f64.powi(-30));
        assert_eq!(small.mul(small).class(), FpClass::Zero, "2^-60 underflows");
    }

    #[test]
    fn rounding_is_nearest_even() {
        // With wf=2: representables near 1.0 step by 0.25.
        let t = FpFormat::TINY;
        let x = FpValue::from_f64(1.125, t); // exactly between 1.0 and 1.25
        assert_eq!(x.to_f64(), 1.0, "ties to even (frac 00)");
        let y = FpValue::from_f64(1.375, t); // between 1.25 and 1.5
        assert_eq!(y.to_f64(), 1.5, "ties to even (frac 10)");
    }

    #[test]
    fn mac_is_mul_then_add() {
        let (a, c, acc) = (fp(1.5), fp(2.5), fp(10.0));
        assert_eq!(a.mac(c, acc).bits, a.mul(c).add(acc).bits);
        assert_eq!(a.mac(c, acc).to_f64(), 13.75);
    }

    #[test]
    fn add_error_is_bounded() {
        let mut rng = logic::SplitMix64::new(2024);
        for _ in 0..2000 {
            let a = (rng.unit_f64() - 0.5) * 100.0;
            let b = (rng.unit_f64() - 0.5) * 100.0;
            let exact = a + b;
            let got = fp(a).add(fp(b)).to_f64();
            // Inputs are themselves rounded, so allow a few ulp.
            let tol = exact.abs().max(a.abs().max(b.abs())) * 4.0 / (1u64 << 26) as f64;
            assert!(
                (got - exact).abs() <= tol + 1e-300,
                "a={a} b={b} got={got} exact={exact}"
            );
        }
    }

    #[test]
    fn mul_error_is_bounded() {
        let mut rng = logic::SplitMix64::new(77);
        for _ in 0..2000 {
            let a = (rng.unit_f64() - 0.5) * 8.0;
            let b = (rng.unit_f64() - 0.5) * 8.0;
            let exact = a * b;
            let got = fp(a).mul(fp(b)).to_f64();
            let tol = exact.abs() * 4.0 / (1u64 << 26) as f64;
            assert!(
                (got - exact).abs() <= tol + 1e-300,
                "a={a} b={b} got={got} exact={exact}"
            );
        }
    }

    #[test]
    fn sub_of_equal_is_positive_zero() {
        let v = fp(3.5);
        let r = v.sub(v);
        assert_eq!(r.class(), FpClass::Zero);
        assert!(!r.sign());
    }

    #[test]
    fn a_64_bit_wide_format_keeps_its_bits() {
        // (9,52) fills the u64: a mask built as `(1 << 64) - 1` panics
        // with overflow checks and is 0 without them.
        let f = FpFormat::new(9, 52);
        assert_eq!(f.width(), 64);
        let bits = f.pack(FpClass::Normal, true, 300, 0x000f_edcb_a987_6543);
        assert_eq!(FpValue::from_bits(bits, f).bits, bits);
        assert_eq!(FpValue::from_bits(u64::MAX, f).bits, u64::MAX);
        // Narrower formats still drop what lies above their width.
        assert_eq!(FpValue::from_bits(u64::MAX, F).bits, (1 << F.width()) - 1);
        // `sub` rebuilds its right operand through `from_bits`.
        let (a, b) = (FpValue::from_f64(5.5, f), FpValue::from_f64(2.25, f));
        assert_eq!(a.sub(b).to_f64(), 3.25);
        assert_eq!(b.sub(a).to_f64(), -3.25);
        assert_eq!(a.sub(a), FpValue::zero(f));
    }

    #[test]
    fn bits_in_accepts_exactly_the_bits_below_the_width() {
        let wide = FpFormat::new(9, 52);
        for format in [FpFormat::TINY, F, wide] {
            let other = if format == F { FpFormat::TINY } else { F };
            let value = |bits| FpValue { bits, format };
            let top = u64::MAX >> (64 - format.width());
            assert_eq!(value(top).bits_in(format), Ok(top), "{format:?}");
            assert_eq!(value(0).bits_in(format), Ok(0), "{format:?}");
            if format.width() < 64 {
                let over = top + 1;
                assert_eq!(
                    value(over).bits_in(format),
                    Err(NotIn::Bits(over)),
                    "{format:?}"
                );
            }
            // Fitting bits under another tag are another format's; so are
            // wide ones, whose format is named first.
            assert_eq!(
                value(1).bits_in(other),
                Err(NotIn::Format(format)),
                "{format:?}"
            );
            assert_eq!(
                value(u64::MAX).bits_in(other),
                Err(NotIn::Format(format)),
                "{format:?}"
            );
        }
        // A 64-bit-wide format has no bits above its width.
        assert_eq!(wide.width(), 64);
        for bits in [1 << 63, u64::MAX] {
            assert_eq!(FpValue { bits, format: wide }.bits_in(wide), Ok(bits));
        }
    }

    #[test]
    fn commutativity_of_add_and_mul() {
        let mut rng = logic::SplitMix64::new(5);
        for _ in 0..500 {
            let a = fp((rng.unit_f64() - 0.5) * 1e3);
            let b = fp((rng.unit_f64() - 0.5) * 1e3);
            assert_eq!(a.add(b).bits, b.add(a).bits);
            assert_eq!(a.mul(b).bits, b.mul(a).bits);
        }
    }
}
