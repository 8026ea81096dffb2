//! A reduced ordered binary decision diagram (ROBDD) manager.
//!
//! In the parameterized configuration tool flow, every configuration bit of
//! the Partial Parameterized Configuration (PPC) is a Boolean function *of
//! the parameter inputs only* (Fig. 3 of the paper). We represent those
//! functions as ROBDDs: canonical (so function equality is pointer
//! equality), cheap to evaluate inside the Specialized Configuration
//! Generator, and compact for the parameter structures that arise from
//! constant-coefficient arithmetic.
//!
//! The manager uses a fixed variable order (variable index = order), a
//! unique table for canonicity and memoization caches for `AND`/`XOR`/`NOT`.

use crate::fxhash::FxHashMap;

/// Handle to a BDD node inside a [`BddManager`].
///
/// Handles are only meaningful together with the manager that created them.
/// Because the manager is canonicalizing, two handles are equal **iff** the
/// functions are equal.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Bdd(u32);

impl std::fmt::Debug for Bdd {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.0 {
            0 => write!(f, "Bdd(F)"),
            1 => write!(f, "Bdd(T)"),
            n => write!(f, "Bdd(#{n})"),
        }
    }
}

impl Bdd {
    /// The constant-false function.
    pub const FALSE: Bdd = Bdd(0);
    /// The constant-true function.
    pub const TRUE: Bdd = Bdd(1);

    /// Raw index (stable within one manager; useful as a map key).
    #[inline]
    pub fn index(self) -> u32 {
        self.0
    }

    /// True if this is one of the two constant functions.
    #[inline]
    pub fn is_const(self) -> bool {
        self.0 < 2
    }

    /// True if this is the constant-true function.
    #[inline]
    pub fn is_true(self) -> bool {
        self.0 == 1
    }

    /// True if this is the constant-false function.
    #[inline]
    pub fn is_false(self) -> bool {
        self.0 == 0
    }
}

#[derive(Clone, Copy)]
struct Node {
    var: u32,
    lo: Bdd,
    hi: Bdd,
}

const TERMINAL_VAR: u32 = u32::MAX;

/// The BDD manager: owns all nodes and the operation caches.
pub struct BddManager {
    nodes: Vec<Node>,
    unique: FxHashMap<(u32, u32, u32), Bdd>,
    and_cache: FxHashMap<(u32, u32), Bdd>,
    xor_cache: FxHashMap<(u32, u32), Bdd>,
    not_cache: FxHashMap<u32, Bdd>,
}

impl Default for BddManager {
    fn default() -> Self {
        Self::new()
    }
}

impl BddManager {
    /// Creates an empty manager (just the two terminals).
    pub fn new() -> Self {
        let nodes = vec![
            Node { var: TERMINAL_VAR, lo: Bdd::FALSE, hi: Bdd::FALSE },
            Node { var: TERMINAL_VAR, lo: Bdd::TRUE, hi: Bdd::TRUE },
        ];
        Self {
            nodes,
            unique: FxHashMap::default(),
            and_cache: FxHashMap::default(),
            xor_cache: FxHashMap::default(),
            not_cache: FxHashMap::default(),
        }
    }

    /// Total number of nodes ever created (including terminals); a proxy for
    /// PPC memory footprint.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Constant function from a boolean.
    #[inline]
    pub fn constant(&self, v: bool) -> Bdd {
        if v {
            Bdd::TRUE
        } else {
            Bdd::FALSE
        }
    }

    fn mk(&mut self, var: u32, lo: Bdd, hi: Bdd) -> Bdd {
        if lo == hi {
            return lo;
        }
        debug_assert!(var < self.var_of(lo).min(self.var_of(hi)));
        *self.unique.entry((var, lo.0, hi.0)).or_insert_with(|| {
            let id = self.nodes.len() as u32;
            self.nodes.push(Node { var, lo, hi });
            Bdd(id)
        })
    }

    #[inline]
    fn var_of(&self, f: Bdd) -> u32 {
        self.nodes[f.0 as usize].var
    }

    /// The projection function of variable `v` (value of parameter bit `v`).
    pub fn var(&mut self, v: u32) -> Bdd {
        self.mk(v, Bdd::FALSE, Bdd::TRUE)
    }

    /// The negated projection of variable `v`.
    pub fn nvar(&mut self, v: u32) -> Bdd {
        self.mk(v, Bdd::TRUE, Bdd::FALSE)
    }

    /// Logical negation.
    pub fn not(&mut self, f: Bdd) -> Bdd {
        match f {
            Bdd::FALSE => Bdd::TRUE,
            Bdd::TRUE => Bdd::FALSE,
            _ => {
                if let Some(&r) = self.not_cache.get(&f.0) {
                    return r;
                }
                let n = self.nodes[f.0 as usize];
                let lo = self.not(n.lo);
                let hi = self.not(n.hi);
                let r = self.mk(n.var, lo, hi);
                self.not_cache.insert(f.0, r);
                r
            }
        }
    }

    /// Logical conjunction.
    pub fn and(&mut self, f: Bdd, g: Bdd) -> Bdd {
        // Terminal and trivial cases.
        if f == g {
            return f;
        }
        match (f, g) {
            (Bdd::FALSE, _) | (_, Bdd::FALSE) => return Bdd::FALSE,
            (Bdd::TRUE, x) | (x, Bdd::TRUE) => return x,
            _ => {}
        }
        let key = if f.0 <= g.0 { (f.0, g.0) } else { (g.0, f.0) };
        if let Some(&r) = self.and_cache.get(&key) {
            return r;
        }
        let nf = self.nodes[f.0 as usize];
        let ng = self.nodes[g.0 as usize];
        let var = nf.var.min(ng.var);
        let (f0, f1) = if nf.var == var { (nf.lo, nf.hi) } else { (f, f) };
        let (g0, g1) = if ng.var == var { (ng.lo, ng.hi) } else { (g, g) };
        let lo = self.and(f0, g0);
        let hi = self.and(f1, g1);
        let r = self.mk(var, lo, hi);
        self.and_cache.insert(key, r);
        r
    }

    /// Logical disjunction (via De Morgan).
    pub fn or(&mut self, f: Bdd, g: Bdd) -> Bdd {
        let nf = self.not(f);
        let ng = self.not(g);
        let a = self.and(nf, ng);
        self.not(a)
    }

    /// Logical exclusive-or.
    pub fn xor(&mut self, f: Bdd, g: Bdd) -> Bdd {
        if f == g {
            return Bdd::FALSE;
        }
        match (f, g) {
            (Bdd::FALSE, x) | (x, Bdd::FALSE) => return x,
            (Bdd::TRUE, x) | (x, Bdd::TRUE) => return self.not(x),
            _ => {}
        }
        let key = if f.0 <= g.0 { (f.0, g.0) } else { (g.0, f.0) };
        if let Some(&r) = self.xor_cache.get(&key) {
            return r;
        }
        let nf = self.nodes[f.0 as usize];
        let ng = self.nodes[g.0 as usize];
        let var = nf.var.min(ng.var);
        let (f0, f1) = if nf.var == var { (nf.lo, nf.hi) } else { (f, f) };
        let (g0, g1) = if ng.var == var { (ng.lo, ng.hi) } else { (g, g) };
        let lo = self.xor(f0, g0);
        let hi = self.xor(f1, g1);
        let r = self.mk(var, lo, hi);
        self.xor_cache.insert(key, r);
        r
    }

    /// Logical equivalence (XNOR).
    pub fn xnor(&mut self, f: Bdd, g: Bdd) -> Bdd {
        let x = self.xor(f, g);
        self.not(x)
    }

    /// If-then-else `c ? t : e`.
    pub fn ite(&mut self, c: Bdd, t: Bdd, e: Bdd) -> Bdd {
        let ct = self.and(c, t);
        let nc = self.not(c);
        let ce = self.and(nc, e);
        self.or(ct, ce)
    }

    /// Evaluates `f` under a parameter assignment; `assignment[v]` is the
    /// value of variable `v`. Variables beyond the slice default to `false`.
    pub fn eval(&self, f: Bdd, assignment: &[bool]) -> bool {
        let mut cur = f;
        while !cur.is_const() {
            let n = self.nodes[cur.0 as usize];
            let v = assignment.get(n.var as usize).copied().unwrap_or(false);
            cur = if v { n.hi } else { n.lo };
        }
        cur.is_true()
    }

    /// Collects the support (set of variables `f` depends on) into a sorted list.
    pub fn support(&self, f: Bdd) -> Vec<u32> {
        let mut seen = crate::fxhash::FxHashSet::default();
        let mut vars = crate::fxhash::FxHashSet::default();
        let mut stack = vec![f];
        while let Some(x) = stack.pop() {
            if x.is_const() || !seen.insert(x.0) {
                continue;
            }
            let n = self.nodes[x.0 as usize];
            vars.insert(n.var);
            stack.push(n.lo);
            stack.push(n.hi);
        }
        let mut v: Vec<u32> = vars.into_iter().collect();
        v.sort_unstable();
        v
    }

    /// Number of distinct internal nodes reachable from `f` (size of the
    /// function's representation; terminals excluded).
    pub fn size(&self, f: Bdd) -> usize {
        let mut seen = crate::fxhash::FxHashSet::default();
        let mut stack = vec![f];
        let mut count = 0;
        while let Some(x) = stack.pop() {
            if x.is_const() || !seen.insert(x.0) {
                continue;
            }
            count += 1;
            let n = self.nodes[x.0 as usize];
            stack.push(n.lo);
            stack.push(n.hi);
        }
        count
    }

    /// Combined node count of many functions with sharing (PPC memory model).
    pub fn shared_size(&self, fs: impl IntoIterator<Item = Bdd>) -> usize {
        let mut seen = crate::fxhash::FxHashSet::default();
        let mut stack: Vec<Bdd> = fs.into_iter().collect();
        let mut count = 0;
        while let Some(x) = stack.pop() {
            if x.is_const() || !seen.insert(x.0) {
                continue;
            }
            count += 1;
            let n = self.nodes[x.0 as usize];
            stack.push(n.lo);
            stack.push(n.hi);
        }
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assignments(nvars: u32) -> impl Iterator<Item = Vec<bool>> {
        (0..(1u32 << nvars)).map(move |m| (0..nvars).map(|v| (m >> v) & 1 == 1).collect())
    }

    #[test]
    fn canonical_equality() {
        let mut m = BddManager::new();
        let a = m.var(0);
        let b = m.var(1);
        let ab = m.and(a, b);
        let ba = m.and(b, a);
        assert_eq!(ab, ba);
        let not_ab = m.not(ab);
        let na = m.not(a);
        let nb = m.not(b);
        let dm = m.or(na, nb);
        assert_eq!(not_ab, dm, "De Morgan must canonicalize identically");
    }

    #[test]
    fn eval_matches_semantics() {
        let mut m = BddManager::new();
        let a = m.var(0);
        let b = m.var(1);
        let c = m.var(2);
        let bc = m.and(b, c);
        let f = m.xor(a, bc); // a ^ (b & c)
        for asg in assignments(3) {
            let expect = asg[0] ^ (asg[1] && asg[2]);
            assert_eq!(m.eval(f, &asg), expect, "{asg:?}");
        }
    }

    #[test]
    fn ite_is_mux() {
        let mut m = BddManager::new();
        let c = m.var(0);
        let t = m.var(1);
        let e = m.var(2);
        let f = m.ite(c, t, e);
        for asg in assignments(3) {
            let expect = if asg[0] { asg[1] } else { asg[2] };
            assert_eq!(m.eval(f, &asg), expect);
        }
    }

    #[test]
    fn tautology_and_contradiction() {
        let mut m = BddManager::new();
        let a = m.var(3);
        let na = m.not(a);
        assert_eq!(m.or(a, na), Bdd::TRUE);
        assert_eq!(m.and(a, na), Bdd::FALSE);
    }

    #[test]
    fn support_and_size() {
        let mut m = BddManager::new();
        let a = m.var(0);
        let c = m.var(5);
        let f = m.xor(a, c);
        assert_eq!(m.support(f), vec![0, 5]);
        assert!(m.size(f) >= 2);
        assert_eq!(m.support(Bdd::TRUE), Vec::<u32>::new());
        assert_eq!(m.size(Bdd::FALSE), 0);
    }

    #[test]
    fn xnor_of_equal_is_true() {
        let mut m = BddManager::new();
        let a = m.var(0);
        let b = m.var(1);
        let f = m.and(a, b);
        let g = m.and(b, a);
        assert_eq!(m.xnor(f, g), Bdd::TRUE);
    }

    #[test]
    fn shared_size_counts_once() {
        let mut m = BddManager::new();
        let a = m.var(0);
        let b = m.var(1);
        let f = m.and(a, b);
        let g = m.or(f, a); // shares structure with f
        let total = m.shared_size([f, g]);
        assert!(total <= m.size(f) + m.size(g));
        assert!(total >= m.size(g).max(m.size(f)));
    }

    #[test]
    fn deep_chain_is_linear() {
        // AND of 40 variables must produce exactly 40 internal nodes.
        let mut m = BddManager::new();
        let mut f = Bdd::TRUE;
        for v in 0..40 {
            let x = m.var(v);
            f = m.and(f, x);
        }
        assert_eq!(m.size(f), 40);
        let all = (0..40).map(|_| true).collect::<Vec<_>>();
        assert!(m.eval(f, &all));
        let mut one_off = all.clone();
        one_off[17] = false;
        assert!(!m.eval(f, &one_off));
    }
}
