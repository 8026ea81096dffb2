//! Small truth tables (up to 6 variables) backed by a single `u64`.
//!
//! Truth tables are the configuration payload of LUTs: a K-input LUT stores
//! `2^K` bits and the bit at position `m` is the function value on the input
//! minterm `m` (input `i` contributes bit `i` of `m`). The paper's
//! architecture uses K = 4, so 16 bits per LUT, but everything here is
//! generic up to 6.

/// Maximum number of variables representable (64 = 2^6 bits in a `u64`).
pub(crate) const MAX_VARS: usize = 6;

/// Projection masks: `PROJ[i]` is the truth table of variable `i` on 6 vars.
const PROJ: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

/// A truth table over `nvars` variables (`nvars <= 6`).
///
/// Only the low `2^nvars` bits of `bits` are significant; the rest are kept
/// zero as a canonical form so `==` works structurally.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct TruthTable {
    bits: u64,
    nvars: u8,
}

impl std::fmt::Debug for TruthTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TT{}({:#x})", self.nvars, self.bits)
    }
}

impl TruthTable {
    /// Mask of the significant bits for `nvars` variables.
    #[inline]
    pub fn mask(nvars: usize) -> u64 {
        if nvars >= 6 {
            u64::MAX
        } else {
            (1u64 << (1usize << nvars)) - 1
        }
    }

    /// Builds a table from raw bits (the high, insignificant bits are cleared).
    pub fn from_bits(bits: u64, nvars: usize) -> Self {
        assert!(nvars <= MAX_VARS, "at most {MAX_VARS} variables");
        Self {
            bits: bits & Self::mask(nvars),
            nvars: nvars as u8,
        }
    }

    /// The constant-zero function.
    pub fn zero(nvars: usize) -> Self {
        Self::from_bits(0, nvars)
    }

    /// The constant-one function.
    pub fn one(nvars: usize) -> Self {
        Self::from_bits(u64::MAX, nvars)
    }

    /// The projection (identity) function of variable `var`.
    pub fn var(var: usize, nvars: usize) -> Self {
        assert!(var < nvars);
        Self::from_bits(PROJ[var], nvars)
    }

    /// Number of variables.
    #[inline]
    pub(crate) fn nvars(&self) -> usize {
        self.nvars as usize
    }

    /// Raw bit payload (low `2^nvars` bits significant).
    #[inline]
    pub fn bits(&self) -> u64 {
        self.bits
    }

    /// Number of minterms (`2^nvars`).
    #[inline]
    pub fn len(&self) -> usize {
        1usize << self.nvars
    }

    /// Always false (tables have at least one minterm); provided for clippy.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Function value on minterm `m`.
    #[inline]
    pub fn get(&self, m: usize) -> bool {
        debug_assert!(m < self.len());
        (self.bits >> m) & 1 == 1
    }

    /// Sets the function value on minterm `m`.
    #[inline]
    pub fn set(&mut self, m: usize, v: bool) {
        debug_assert!(m < self.len());
        if v {
            self.bits |= 1u64 << m;
        } else {
            self.bits &= !(1u64 << m);
        }
    }

    /// Builds a table by evaluating `f` on every minterm.
    pub fn build(nvars: usize, mut f: impl FnMut(usize) -> bool) -> Self {
        let mut t = Self::zero(nvars);
        for m in 0..t.len() {
            if f(m) {
                t.bits |= 1u64 << m;
            }
        }
        t
    }

    /// Logical complement.
    #[must_use]
    pub fn not(&self) -> Self {
        Self::from_bits(!self.bits, self.nvars())
    }

    /// Pointwise AND (tables must have the same arity).
    #[must_use]
    pub fn and(&self, other: &Self) -> Self {
        assert_eq!(self.nvars, other.nvars);
        Self::from_bits(self.bits & other.bits, self.nvars())
    }

    /// Pointwise OR.
    #[must_use]
    pub fn or(&self, other: &Self) -> Self {
        assert_eq!(self.nvars, other.nvars);
        Self::from_bits(self.bits | other.bits, self.nvars())
    }

    /// Pointwise XOR.
    #[must_use]
    pub fn xor(&self, other: &Self) -> Self {
        assert_eq!(self.nvars, other.nvars);
        Self::from_bits(self.bits ^ other.bits, self.nvars())
    }

    /// True if the function is constant zero.
    pub fn is_zero(&self) -> bool {
        self.bits == 0
    }

    /// Positive cofactor with respect to `var` (result keeps the arity).
    #[must_use]
    pub fn cofactor1(&self, var: usize) -> Self {
        assert!(var < self.nvars());
        let hi = self.bits & PROJ[var];
        let shift = 1usize << var;
        Self::from_bits(hi | (hi >> shift), self.nvars())
    }

    /// Negative cofactor with respect to `var`.
    #[must_use]
    pub fn cofactor0(&self, var: usize) -> Self {
        assert!(var < self.nvars());
        let lo = self.bits & !PROJ[var];
        let shift = 1usize << var;
        Self::from_bits(lo | (lo << shift), self.nvars())
    }

    /// Evaluates the function on a full input assignment given as a bitmask
    /// (bit `i` of `assignment` is the value of variable `i`).
    #[inline]
    pub fn eval(&self, assignment: usize) -> bool {
        self.get(assignment & (self.len() - 1))
    }

    /// Number of satisfying minterms.
    pub fn popcount(&self) -> u32 {
        self.bits.count_ones()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn projections_are_correct() {
        for nv in 1..=6usize {
            for v in 0..nv {
                let t = TruthTable::var(v, nv);
                for m in 0..t.len() {
                    assert_eq!(t.get(m), (m >> v) & 1 == 1);
                }
            }
        }
    }

    #[test]
    fn demorgan() {
        let a = TruthTable::var(0, 3);
        let b = TruthTable::var(2, 3);
        assert_eq!(a.and(&b).not(), a.not().or(&b.not()));
    }

    #[test]
    fn xor_via_and_or() {
        let a = TruthTable::var(1, 4);
        let b = TruthTable::var(3, 4);
        let viaxor = a.xor(&b);
        let manual = a.and(&b.not()).or(&a.not().and(&b));
        assert_eq!(viaxor, manual);
    }

    #[test]
    fn cofactors_reconstruct_shannon() {
        // f = x0 & x1 | x2 on 3 vars; f = x * f1 + !x * f0 for each var.
        let f = TruthTable::var(0, 3)
            .and(&TruthTable::var(1, 3))
            .or(&TruthTable::var(2, 3));
        for v in 0..3 {
            let x = TruthTable::var(v, 3);
            let rebuilt = x.and(&f.cofactor1(v)).or(&x.not().and(&f.cofactor0(v)));
            assert_eq!(rebuilt, f);
        }
    }

    #[test]
    fn eval_matches_get() {
        let f = TruthTable::from_bits(0b1001_0110, 3);
        for m in 0..8 {
            assert_eq!(f.eval(m), f.get(m));
        }
    }

    #[test]
    fn constants() {
        assert!(TruthTable::zero(4).is_zero());
        assert_eq!(TruthTable::one(4).popcount(), 16);
    }
}
