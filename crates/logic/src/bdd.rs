//! A reduced ordered binary decision diagram (ROBDD) manager.
//!
//! In the parameterized configuration tool flow, every configuration bit of
//! the Partial Parameterized Configuration (PPC) is a Boolean function *of
//! the parameter inputs only* (Fig. 3 of the paper). We represent those
//! functions as ROBDDs: canonical (so function equality is handle
//! equality), cheap to evaluate inside the Specialized Configuration
//! Generator, and compact for the parameter structures that arise from
//! constant-coefficient arithmetic.
//!
//! The kernel, in the order a reader meets it:
//!
//! * **Fixed variable order** — variable index = order.
//! * **Complement edges.** A handle is a node plus a complement flag, so
//!   `f` and `¬f` are one node: [`BddManager::not`] is a bit flip,
//!   `or` and `ite` need no negation pass, and the same work makes
//!   about half the nodes. Canonical form: a node's `hi` edge is never
//!   complemented, and there is one terminal (false; true is its
//!   complement).
//! * **Two views per node.** The node array holds every node twice, as
//!   seen through its regular and through its complemented handle, and a
//!   handle is the index of its view. [`BddManager::eval`] — one root,
//!   one assignment: the mapper's counterexample filter, the tests'
//!   oracle — then has no flag to carry: its loop is the loop of a BDD
//!   without complement edges. (Carrying the flag instead, in the handle,
//!   in the variable word or in a field of its own, cost a thousand-root
//!   specialization 25–100 %: that loop retires a step in three cycles and
//!   every added µop shows.)
//! * **Children first.** A node is appended after both of its children —
//!   by `mk` as functions are built and by [`BddManager::compact`] as it
//!   renumbers — so a node's id is larger than its children's, always.
//! * **[`BddManager::eval_lanes`]** — the serve path — asks the other
//!   question: *every* function under up to 64 assignments. Because ids
//!   are children-first it is one forward sweep over the node array,
//!   `val[n] = x[var] ? val[hi] : val[lo]` on `u64` words whose bit *l* is
//!   assignment *l*; a complemented edge is an XOR with all-ones. A priced
//!   parameter swap is one sweep (1 389 nodes at the default pricing
//!   format) and a read per root, where root walks made ≈ 14 000 of them:
//!   the walk could not get faster, only rarer.
//! * **One unique table**, open-addressed over the regular views: a slot
//!   is a handle, the key is read from the view itself.
//! * **One computed table**, direct-mapped and lossy, one slot per 4–8
//!   nodes. Its size follows the node count because its job is to catch
//!   the *recent* sub-results a recursion meets again, which it does best
//!   from cache: the half-precision map gets its ≈ 205 k hits from a table
//!   1/64 the size of the unique table as from one the same size (lookups
//!   go from 428 k to 506 k), and runs fastest near the small end.
//!   A lost entry is recomputed into the same nodes — no result, and no
//!   node *number*, depends on what the table kept.
//! * **[`BddManager::compact`]** throws away everything a set of roots
//!   does not reach, tables included. The mapper builds 77 k nodes to
//!   keep 4.9 k at half precision; a design should own the 4.9 k.

/// Handle to a function inside a [`BddManager`]: a node and, in bit 0, a
/// complement flag.
///
/// Handles are only meaningful together with the manager that created them.
/// Because the manager is canonicalizing, two handles are equal **iff** the
/// functions are equal. Handle *numbers* carry no meaning beyond that:
/// [`BddManager::compact`] renumbers them.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Bdd(u32);

impl std::fmt::Debug for Bdd {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.0 {
            0 => write!(f, "Bdd(F)"),
            1 => write!(f, "Bdd(T)"),
            n if n & 1 == 1 => write!(f, "Bdd(!#{})", n >> 1),
            n => write!(f, "Bdd(#{})", n >> 1),
        }
    }
}

impl Bdd {
    /// The constant-false function.
    pub const FALSE: Bdd = Bdd(0);
    /// The constant-true function (the complement edge to the terminal).
    pub const TRUE: Bdd = Bdd(1);

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

    /// The handle as a plain number, as [`BddManager::nodes`] lists
    /// children and a table in source holds roots.
    #[inline]
    pub fn raw(self) -> u32 {
        self.0
    }

    /// The handle numbered `raw`: meaningful with the manager whose
    /// [`Bdd::raw`] gave it, or one [`BddManager::from_nodes`] rebuilt
    /// from that manager's nodes.
    #[inline]
    pub fn from_raw(raw: u32) -> Bdd {
        Bdd(raw)
    }

    /// The handle with the complement flag of `of` toggled in.
    #[inline]
    fn xor_flag(self, of: Bdd) -> Bdd {
        Bdd(self.0 ^ (of.0 & 1))
    }

    #[inline]
    fn complement(self) -> Bdd {
        Bdd(self.0 ^ 1)
    }

    /// The regular (even) handle of the same node.
    #[inline]
    fn regular(self) -> Bdd {
        Bdd(self.0 & !1)
    }
}

/// One *view* of a node: `var ? hi : lo` as seen through one polarity of
/// the handle that reaches it. Every node is stored twice, side by side —
/// `views[h]` through the regular handle `h` (even; its `hi` is regular,
/// which is the canonical form) and `views[h ^ 1]` through the complement
/// (both children complemented). A handle is therefore an index, and a
/// root walk reads `views[cur]` and follows `lo` or `hi` with no flag to
/// carry — instruction for instruction the walk of a BDD without
/// complement edges — while `¬f` is still `f ^ 1`.
#[derive(Clone, Copy, PartialEq, Eq)]
struct View {
    var: u32,
    lo: Bdd,
    hi: Bdd,
}

/// Variable of the terminal: below every real variable.
const TERMINAL_VAR: u32 = u32::MAX;

const OP_AND: u32 = 0;
const OP_XOR: u32 = 1;
const OP_NONE: u32 = u32::MAX;

/// One slot of the computed table: `op(f, g) = r`.
#[derive(Clone, Copy)]
struct Computed {
    f: Bdd,
    g: Bdd,
    op: u32,
    r: Bdd,
}

const EMPTY: Computed = Computed {
    f: Bdd::FALSE,
    g: Bdd::FALSE,
    op: OP_NONE,
    r: Bdd::FALSE,
};

/// Smallest unique table, in slots.
const MIN_SLOTS: usize = 1 << 8;

/// Computed-table slots for a unique table of `unique_slots` (at most half
/// full): one per 4–8 nodes. The unit tests of this crate get 16 slots
/// whatever the work, so that every non-trivial operation evicts — a lossy
/// table may cost time, never a result.
const fn computed_slots(unique_slots: usize) -> usize {
    if cfg!(test) {
        16
    } else {
        unique_slots / 8
    }
}

#[inline]
fn hash3(a: u32, b: u32, c: u32) -> u64 {
    let h = (a as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (b as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
        ^ (c as u64).wrapping_mul(0x1656_67B1_9E37_79F9);
    h.wrapping_mul(0xD6E8_FEB8_6659_FD93)
}

/// Work counters of a manager since it was created.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BddStats {
    /// Computed-table lookups (operations past their terminal cases).
    pub lookups: u64,
    /// Lookups answered from the table.
    pub hits: u64,
}

/// The BDD manager: owns all nodes and the operation tables.
pub struct BddManager {
    /// Two views per node, indexed by handle; `views[0]` and `views[1]`
    /// are the terminal seen as false and as true.
    views: Vec<View>,
    /// Open-addressed unique table over the regular views: a slot holds a
    /// regular handle (0 = empty; the terminal is never hashed), linear
    /// probing, at most half full. Empty until the first internal node is
    /// made — and again after [`BddManager::compact`].
    unique: Vec<u32>,
    /// Direct-mapped computed table: one slot per hash, a newer result
    /// overwrites an older one. Losing an entry costs a recomputation
    /// that ends in the same unique-table hits, never a different result.
    /// It grows with the unique table, so its size follows the work.
    computed: Vec<Computed>,
    /// One more than the largest variable any node tests (0: no node).
    num_vars: u32,
    stats: BddStats,
}

/// Every function of a manager under up to 64 assignments at once — what
/// [`BddManager::eval_lanes`] computed. Meaningful for the handles of that
/// manager as it was at the sweep.
pub struct LaneValues {
    /// Per node (id = handle / 2), the regular view's value in every lane.
    val: Vec<u64>,
}

impl LaneValues {
    /// `f` in every lane: bit `l` is `f` under assignment `l`.
    #[inline]
    pub fn of(&self, f: Bdd) -> u64 {
        self.val[(f.0 >> 1) as usize] ^ u64::from(f.0 & 1).wrapping_neg()
    }
}

impl Default for BddManager {
    fn default() -> Self {
        Self::new()
    }
}

impl BddManager {
    /// Creates an empty manager (just the terminal).
    pub fn new() -> Self {
        let views = vec![
            View {
                var: TERMINAL_VAR,
                lo: Bdd::FALSE,
                hi: Bdd::FALSE,
            },
            View {
                var: TERMINAL_VAR,
                lo: Bdd::TRUE,
                hi: Bdd::TRUE,
            },
        ];
        Self {
            views,
            unique: Vec::new(),
            computed: Vec::new(),
            num_vars: 0,
            stats: BddStats::default(),
        }
    }

    /// Number of nodes the manager holds, the terminal included. A node
    /// serves a function and its complement. For a manager that has done
    /// work this counts every intermediate result ever built; after
    /// [`BddManager::compact`] it is exactly what the kept roots reach.
    pub fn num_nodes(&self) -> usize {
        self.views.len() / 2
    }

    /// Work counters since creation.
    pub fn stats(&self) -> BddStats {
        self.stats
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

    #[inline]
    fn unique_slot(&self, n: View) -> usize {
        (hash3(n.var, n.lo.0, n.hi.0) >> (64 - self.unique.len().trailing_zeros())) as usize
    }

    /// Resizes the unique table to at least twice the node count
    /// (rehashing every node) and the computed table to match (rehashing
    /// its live entries).
    #[cold]
    fn grow(&mut self) {
        let slots = (self.num_nodes() * 2).next_power_of_two().max(MIN_SLOTS);
        self.unique.clear();
        self.unique.resize(slots, 0);
        let mask = slots - 1;
        for h in (2..self.views.len()).step_by(2) {
            let mut s = self.unique_slot(self.views[h]);
            while self.unique[s] != 0 {
                s = (s + 1) & mask;
            }
            self.unique[s] = h as u32;
        }
        if computed_slots(slots) > self.computed.len() {
            let old = std::mem::replace(&mut self.computed, vec![EMPTY; computed_slots(slots)]);
            for e in old {
                if e.op != OP_NONE {
                    let s = self.computed_slot(e.op, e.f, e.g);
                    self.computed[s] = e;
                }
            }
        }
    }

    /// The function `var ? hi : lo`; `var` is above both children.
    fn mk(&mut self, var: u32, lo: Bdd, hi: Bdd) -> Bdd {
        if lo == hi {
            return lo;
        }
        debug_assert!(
            var < self.views[lo.0 as usize]
                .var
                .min(self.views[hi.0 as usize].var)
        );
        // Canonical form: `hi` regular. Otherwise find (or make) the
        // complement and hand back its other view.
        let view = View {
            var,
            lo: lo.xor_flag(hi),
            hi: hi.regular(),
        };
        if self.num_nodes() * 2 > self.unique.len() {
            self.grow();
        }
        let mask = self.unique.len() - 1;
        let mut s = self.unique_slot(view);
        loop {
            let h = self.unique[s];
            if h == 0 {
                break;
            }
            if self.views[h as usize] == view {
                return Bdd(h).xor_flag(hi);
            }
            s = (s + 1) & mask;
        }
        let h = self.push_node(view);
        self.unique[s] = h;
        Bdd(h).xor_flag(hi)
    }

    /// Appends a node — its regular view, then the complemented one — and
    /// returns its regular handle. Both children are in the store already,
    /// so ids are children-first: what [`BddManager::eval_lanes`] sweeps on.
    fn push_node(&mut self, regular: View) -> u32 {
        let h = u32::try_from(self.views.len()).expect("BDD handles are 32 bits");
        debug_assert!(regular.lo.0 < h && regular.hi.0 < h && regular.hi.0 & 1 == 0);
        self.views.push(regular);
        self.views.push(View {
            var: regular.var,
            lo: regular.lo.complement(),
            hi: regular.hi.complement(),
        });
        self.num_vars = self.num_vars.max(regular.var + 1);
        h
    }

    #[inline]
    fn computed_slot(&self, op: u32, f: Bdd, g: Bdd) -> usize {
        (hash3(f.0, g.0, op) >> (64 - self.computed.len().trailing_zeros())) as usize
    }

    #[inline]
    fn lookup(&mut self, op: u32, f: Bdd, g: Bdd) -> Option<Bdd> {
        self.stats.lookups += 1;
        if self.computed.is_empty() {
            return None;
        }
        let e = self.computed[self.computed_slot(op, f, g)];
        if e.op == op && e.f == f && e.g == g {
            self.stats.hits += 1;
            Some(e.r)
        } else {
            None
        }
    }

    #[inline]
    fn remember(&mut self, op: u32, f: Bdd, g: Bdd, r: Bdd) {
        if !self.computed.is_empty() {
            let s = self.computed_slot(op, f, g);
            self.computed[s] = Computed { f, g, op, r };
        }
    }

    /// Top variable of `f` and `g`, and each one's cofactors on it.
    #[inline]
    fn cofactors(&self, f: Bdd, g: Bdd) -> (u32, (Bdd, Bdd), (Bdd, Bdd)) {
        let nf = self.views[f.0 as usize];
        let ng = self.views[g.0 as usize];
        let var = nf.var.min(ng.var);
        let split = |x: Bdd, n: View| if n.var == var { (n.lo, n.hi) } else { (x, x) };
        (var, split(f, nf), split(g, ng))
    }

    /// The projection function of variable `v` (value of parameter bit `v`).
    pub fn var(&mut self, v: u32) -> Bdd {
        assert!(v < TERMINAL_VAR, "variable index out of range");
        self.mk(v, Bdd::FALSE, Bdd::TRUE)
    }

    /// The negated projection of variable `v`.
    pub fn nvar(&mut self, v: u32) -> Bdd {
        self.var(v).complement()
    }

    /// Logical negation: the same node through a complement edge.
    #[inline]
    pub fn not(&mut self, f: Bdd) -> Bdd {
        f.complement()
    }

    /// Logical conjunction.
    pub fn and(&mut self, f: Bdd, g: Bdd) -> Bdd {
        // Terminal and trivial cases.
        if f == g {
            return f;
        }
        if f == g.complement() {
            return Bdd::FALSE;
        }
        let (f, g) = if f.0 <= g.0 { (f, g) } else { (g, f) };
        if f.is_const() {
            return if f.is_true() { g } else { Bdd::FALSE };
        }
        if let Some(r) = self.lookup(OP_AND, f, g) {
            return r;
        }
        let (var, (f0, f1), (g0, g1)) = self.cofactors(f, g);
        let lo = self.and(f0, g0);
        let hi = self.and(f1, g1);
        let r = self.mk(var, lo, hi);
        self.remember(OP_AND, f, g, r);
        r
    }

    /// Logical disjunction (De Morgan over complement edges).
    pub fn or(&mut self, f: Bdd, g: Bdd) -> Bdd {
        self.and(f.complement(), g.complement()).complement()
    }

    /// Logical exclusive-or.
    pub fn xor(&mut self, f: Bdd, g: Bdd) -> Bdd {
        // xor(f ⊕ a, g ⊕ b) = xor(f, g) ⊕ a ⊕ b: work on the regular
        // handles, so the four polarities share one table entry.
        let flag = Bdd((f.0 ^ g.0) & 1);
        let (f, g) = (f.regular(), g.regular());
        if f == g {
            return Bdd::FALSE.xor_flag(flag);
        }
        let (f, g) = if f.0 <= g.0 { (f, g) } else { (g, f) };
        if f.is_false() {
            return g.xor_flag(flag);
        }
        if let Some(r) = self.lookup(OP_XOR, f, g) {
            return r.xor_flag(flag);
        }
        let (var, (f0, f1), (g0, g1)) = self.cofactors(f, g);
        let lo = self.xor(f0, g0);
        let hi = self.xor(f1, g1);
        let r = self.mk(var, lo, hi);
        self.remember(OP_XOR, f, g, r);
        r.xor_flag(flag)
    }

    /// If-then-else `c ? t : e`.
    pub fn ite(&mut self, c: Bdd, t: Bdd, e: Bdd) -> Bdd {
        let ct = self.and(c, t);
        let ce = self.and(c.complement(), e);
        self.or(ct, ce)
    }

    /// Evaluates `f` under a parameter assignment; `assignment[v]` is the
    /// value of variable `v`. Variables beyond the slice default to `false`.
    pub fn eval(&self, f: Bdd, assignment: &[bool]) -> bool {
        let mut cur = f;
        while !cur.is_const() {
            let n = self.views[cur.0 as usize];
            let v = assignment.get(n.var as usize).copied().unwrap_or(false);
            cur = if v { n.hi } else { n.lo };
        }
        cur.is_true()
    }

    /// Evaluates every function of the manager under up to 64 assignments
    /// in one forward sweep: bit `l` of `lanes[v]` is the value of variable
    /// `v` in assignment `l`, and bit `l` of [`LaneValues::of`]`(f)` is `f`
    /// under it. Costs one step per node whatever the number of roots read
    /// afterwards — [`BddManager::eval`] costs a path per root — so it is
    /// the evaluator for "all functions of a design", and `eval` the one
    /// for a single root.
    ///
    /// # Panics
    /// If `lanes` is shorter than the variables the nodes test: a missing
    /// word is not an assignment of `false`.
    pub fn eval_lanes(&self, lanes: &[u64]) -> LaneValues {
        assert!(
            lanes.len() >= self.num_vars as usize,
            "one lane word per variable"
        );
        // Children-first ids: every child of node `i` is in `val[..i]` (a
        // forward reference would be out of bounds, not a stale read).
        // Written in place: growing `val` by `push` instead doubles the
        // sweep's time (2.0 → 4.3 µs over 1 389 nodes).
        let mut val = vec![0u64; self.num_nodes()];
        for (i, pair) in self.views.chunks_exact(2).enumerate().skip(1) {
            let n = pair[0];
            let x = lanes[n.var as usize];
            let (done, rest) = val.split_at_mut(i);
            let hi = done[(n.hi.0 >> 1) as usize];
            let lo = done[(n.lo.0 >> 1) as usize] ^ u64::from(n.lo.0 & 1).wrapping_neg();
            rest[0] = lo ^ (x & (lo ^ hi));
        }
        LaneValues { val }
    }

    /// Calls `visit` once per distinct internal node reachable from `roots`.
    fn for_each_node(&self, roots: impl IntoIterator<Item = Bdd>, mut visit: impl FnMut(View)) {
        let mut seen = crate::fxhash::FxHashSet::default();
        let mut stack: Vec<Bdd> = roots.into_iter().collect();
        while let Some(x) = stack.pop() {
            if x.is_const() || !seen.insert(x.regular()) {
                continue;
            }
            let n = self.views[x.0 as usize];
            visit(n);
            stack.push(n.lo);
            stack.push(n.hi);
        }
    }

    /// Collects the support (set of variables `f` depends on) into a sorted list.
    pub fn support(&self, f: Bdd) -> Vec<u32> {
        let mut vars = Vec::new();
        self.for_each_node([f], |n| vars.push(n.var));
        vars.sort_unstable();
        vars.dedup();
        vars
    }

    /// Number of distinct internal nodes reachable from `f` (size of the
    /// function's representation; the terminal excluded). A function and
    /// its complement have the same size: they are the same nodes.
    pub fn size(&self, f: Bdd) -> usize {
        self.shared_size([f])
    }

    /// Combined node count of many functions with sharing (PPC memory model).
    pub fn shared_size(&self, fs: impl IntoIterator<Item = Bdd>) -> usize {
        let mut count = 0;
        self.for_each_node(fs, |_| count += 1);
        count
    }

    /// Shrinks the manager to the nodes `roots` reach and rewrites each
    /// root to its new handle. Nodes are renumbered children-first in the
    /// order the roots are given, so the numbering depends only on the
    /// root functions, not on what else the manager ever built. Both
    /// operation tables are released (the next operation rebuilds the
    /// unique table from the nodes). Every handle not passed in is dead.
    pub fn compact<'a>(&mut self, roots: impl IntoIterator<Item = &'a mut Bdd>) {
        self.unique = Vec::new();
        self.computed = Vec::new();
        let terminal = self.views[..2].to_vec();
        let old = std::mem::replace(&mut self.views, terminal);
        self.num_vars = 0;
        // New regular handle per old node; 0 = not copied yet.
        let mut remap = vec![0u32; old.len() / 2];
        for root in roots {
            *root = self.copy_from(&old, &mut remap, *root);
        }
    }

    /// The handle of `f` in the new store, copying its node (children
    /// first, both views) if it is not there yet.
    fn copy_from(&mut self, old: &[View], remap: &mut [u32], f: Bdd) -> Bdd {
        if f.is_const() {
            return f;
        }
        let id = (f.0 >> 1) as usize;
        if remap[id] == 0 {
            let n = old[f.regular().0 as usize];
            let lo = self.copy_from(old, remap, n.lo);
            let hi = self.copy_from(old, remap, n.hi);
            remap[id] = self.push_node(View { var: n.var, lo, hi });
        }
        Bdd(remap[id]).xor_flag(f)
    }

    /// The node store as plain numbers: per internal node, in store order
    /// (children first), its variable and the raw handles ([`Bdd::raw`])
    /// of its `lo` and `hi` children as its regular handle sees them.
    /// [`BddManager::from_nodes`] rebuilds the same store from them — the
    /// same handles for the same functions — which is how a store built
    /// offline is checked into source.
    pub fn nodes(&self) -> Vec<[u32; 3]> {
        self.views
            .iter()
            .step_by(2)
            .skip(1)
            .map(|n| [n.var, n.lo.0, n.hi.0])
            .collect()
    }

    /// A manager holding `nodes`, as [`BddManager::nodes`] lists them:
    /// node `i` gets the regular handle `2 (i + 1)`. Its tables are empty,
    /// as after [`BddManager::compact`], and the next operation rebuilds
    /// the unique table from the nodes.
    ///
    /// # Panics
    /// If a node is not in the canonical, children-first form every
    /// manager keeps: a child at or past the node, a complemented `hi`,
    /// two equal children, or a variable not above its children's.
    pub fn from_nodes(nodes: &[[u32; 3]]) -> Self {
        let mut m = BddManager::new();
        m.views.reserve(2 * nodes.len());
        for &[var, lo, hi] in nodes {
            let h = m.views.len() as u32;
            let (lo, hi) = (Bdd(lo), Bdd(hi));
            assert!(lo.0 < h && hi.0 < h, "node #{}: children first", h >> 1);
            assert!(
                hi.0 & 1 == 0 && lo != hi,
                "node #{}: canonical form",
                h >> 1
            );
            let below = m.views[lo.0 as usize].var.min(m.views[hi.0 as usize].var);
            assert!(var < below, "node #{}: variable order", h >> 1);
            m.push_node(View { var, lo, hi });
        }
        m
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
        let x = m.xor(f, g);
        assert_eq!(m.not(x), Bdd::TRUE);
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

    // ---- property suite against the truth-table oracle ----

    use crate::rng::SplitMix64;
    use crate::tt::TruthTable;

    const NV: usize = 6;

    /// The subfunctions of `t` a BDD over the order 0, 1, … can reach —
    /// every cofactor on a prefix of the variables — non-constant ones
    /// only, a function and its complement counted once. Their number is
    /// the size of `t`'s complement-edge ROBDD.
    fn node_classes(t: &TruthTable, into: &mut std::collections::BTreeSet<u64>) {
        let mut level = vec![*t];
        for v in 0..=NV {
            for g in &level {
                if g.bits() != 0 && g.bits() != TruthTable::mask(NV) {
                    into.insert(g.bits().min(g.not().bits()));
                }
            }
            if v < NV {
                level = level
                    .iter()
                    .flat_map(|g| [g.cofactor0(v), g.cofactor1(v)])
                    .collect();
            }
        }
    }

    fn assert_same_function(m: &BddManager, f: Bdd, t: &TruthTable, what: &str) {
        for (i, asg) in assignments(NV as u32).enumerate() {
            assert_eq!(m.eval(f, &asg), t.get(i), "{what}: assignment {i:#08b}");
        }
    }

    /// Shannon expansion of `t` from variable `v` down, through `ite`.
    fn from_tt(m: &mut BddManager, t: &TruthTable, v: usize) -> Bdd {
        if v == NV {
            return m.constant(t.get(0));
        }
        let lo = from_tt(m, &t.cofactor0(v), v + 1);
        let hi = from_tt(m, &t.cofactor1(v), v + 1);
        let x = m.var(v as u32);
        m.ite(x, hi, lo)
    }

    /// A manager and a pool of random expressions over `NV` variables,
    /// each built through the kernel and through the oracle at once.
    fn random_pool(seed: u64, steps: usize) -> (BddManager, Vec<(Bdd, TruthTable)>) {
        let mut rng = SplitMix64::new(seed);
        let mut m = BddManager::new();
        let mut pool = vec![
            (Bdd::FALSE, TruthTable::zero(NV)),
            (Bdd::TRUE, TruthTable::one(NV)),
        ];
        for v in 0..NV {
            pool.push((m.var(v as u32), TruthTable::var(v, NV)));
            pool.push((m.nvar(v as u32), TruthTable::var(v, NV).not()));
        }
        for _ in 0..steps {
            let mut pick = || pool[rng.index(pool.len())];
            let ((f, tf), (g, tg), (h, th)) = (pick(), pick(), pick());
            let made = match rng.index(6) {
                0 => (m.and(f, g), tf.and(&tg)),
                1 => (m.or(f, g), tf.or(&tg)),
                2 => (m.xor(f, g), tf.xor(&tg)),
                3 => {
                    let x = m.xor(f, g);
                    (m.not(x), tf.xor(&tg).not())
                }
                4 => (m.ite(f, g, h), tf.and(&tg).or(&tf.not().and(&th))),
                _ => (m.not(f), tf.not()),
            };
            pool.push(made);
        }
        (m, pool)
    }

    #[test]
    fn random_expressions_match_the_truth_table_oracle() {
        for seed in 0..24 {
            let (m, pool) = random_pool(seed, 160);
            let mut handle_of = std::collections::BTreeMap::new();
            for (f, t) in &pool {
                assert_same_function(&m, *f, t, "expression");
                // Equal functions ⇒ equal handles (the converse is the
                // line above).
                assert_eq!(
                    *handle_of.entry(t.bits()).or_insert(*f),
                    *f,
                    "seed {seed}: {t:?}"
                );
                let support: Vec<u32> = (0..NV as u32)
                    .filter(|&v| t.cofactor0(v as usize) != t.cofactor1(v as usize))
                    .collect();
                assert_eq!(m.support(*f), support);
                let mut classes = std::collections::BTreeSet::new();
                node_classes(t, &mut classes);
                assert_eq!(m.size(*f), classes.len(), "seed {seed}: size of {t:?}");
                assert_eq!(
                    m.size(*f),
                    m.size(Bdd(f.0 ^ 1)),
                    "a complement is the same nodes"
                );
            }
            // Sharing: a set's size is the union of its members' nodes.
            let mut classes = std::collections::BTreeSet::new();
            for (_, t) in &pool[pool.len() - 12..] {
                node_classes(t, &mut classes);
            }
            let tail = pool[pool.len() - 12..].iter().map(|(f, _)| *f);
            assert_eq!(m.shared_size(tail), classes.len(), "seed {seed}");
        }
    }

    #[test]
    fn the_computed_table_of_this_suite_evicts() {
        // 16 slots (`computed_slots` under `cfg(test)`), thousands of
        // distinct operations: the suite above ran on a table that forgot
        // almost everything, and the oracle still agreed.
        let (m, _) = random_pool(7, 400);
        assert_eq!(m.computed.len(), 16);
        let s = m.stats();
        assert!(s.lookups > 1000, "{s:?}");
        assert!(s.hits < s.lookups, "{s:?}");
    }

    #[test]
    fn compact_keeps_exactly_what_the_roots_reach() {
        for seed in 0..24 {
            let (mut m, pool) = random_pool(100 + seed, 160);
            let mut rng = SplitMix64::new(seed);
            let picked: Vec<(Bdd, TruthTable)> =
                (0..10).map(|_| pool[rng.index(pool.len())]).collect();
            let reach = m.shared_size(picked.iter().map(|(f, _)| *f));
            assert!(m.num_nodes() > reach + 1, "seed {seed}: nothing to drop");

            let mut roots: Vec<Bdd> = picked.iter().map(|(f, _)| *f).collect();
            m.compact(roots.iter_mut());

            assert_eq!(
                m.num_nodes(),
                reach + 1,
                "seed {seed}: reachable nodes + terminal"
            );
            assert!(
                m.unique.is_empty() && m.computed.is_empty(),
                "tables released"
            );
            for (h, n) in m.views.iter().enumerate().skip(2) {
                assert!(
                    n.lo.0 < h as u32 & !1 && n.hi.0 < h as u32 & !1,
                    "children first"
                );
                assert_eq!(
                    n.hi.0 & 1,
                    h as u32 & 1,
                    "the regular view's `hi` is regular"
                );
            }
            for (r, (_, t)) in roots.iter().zip(&picked) {
                assert_same_function(&m, *r, t, "remapped root");
            }
            // Still a manager: the unique table comes back on demand, and
            // rebuilding a root's function finds the root's own nodes.
            for (r, (_, t)) in roots.iter().zip(&picked) {
                assert_eq!(
                    from_tt(&mut m, t, 0),
                    *r,
                    "seed {seed}: canonical after compaction"
                );
            }
        }
    }

    #[test]
    fn compact_numbers_by_function_not_by_history() {
        // The same roots out of two managers with different pasts get the
        // same handles — what lets a mapped design be compared node for
        // node across mapper options.
        let build = |noise: u64| {
            let mut m = BddManager::new();
            if noise > 0 {
                let mut rng = SplitMix64::new(noise);
                let mut acc = Bdd::TRUE;
                for _ in 0..40 {
                    let x = m.var(rng.index(12) as u32);
                    acc = if rng.coin() {
                        m.xor(acc, x)
                    } else {
                        m.or(acc, x)
                    };
                }
            }
            let (a, b, c) = (m.var(0), m.var(3), m.var(5));
            let ab = m.and(a, b);
            let mut roots = [m.xor(ab, c), m.ite(c, a, b), m.not(ab)];
            m.compact(roots.iter_mut());
            (roots, m.num_nodes())
        };
        assert_eq!(build(0), build(1));
        assert_eq!(build(0), build(2));
    }

    // ---- the lane sweep against the root walk ----

    /// `n` of the 64 assignments of `NV` variables, from a random start,
    /// as bit vectors and packed one per lane.
    fn packed_assignments(rng: &mut SplitMix64, n: usize) -> (Vec<Vec<bool>>, Vec<u64>) {
        // 5 is coprime to 64: the `n` assignments are distinct.
        let first = rng.index(64);
        let asgs: Vec<Vec<bool>> = (0..n)
            .map(|i| {
                (0..NV)
                    .map(|v| ((first + 5 * i) % 64) >> v & 1 == 1)
                    .collect()
            })
            .collect();
        let mut lanes = vec![0u64; NV];
        for (l, asg) in asgs.iter().enumerate() {
            for (word, &b) in lanes.iter_mut().zip(asg) {
                *word |= u64::from(b) << l;
            }
        }
        (asgs, lanes)
    }

    /// One sweep answers, for every pool function and its complement, what
    /// a root walk answers per assignment — with 1, 63 and 64 lanes in use.
    fn assert_sweep_matches_walk(m: &BddManager, fs: &[Bdd], seed: u64) {
        let mut rng = SplitMix64::new(seed);
        for n in [1, 63, 64] {
            let (asgs, lanes) = packed_assignments(&mut rng, n);
            let vals = m.eval_lanes(&lanes);
            for &f in fs.iter().chain(&[Bdd::FALSE, Bdd::TRUE]) {
                for g in [f, f.complement()] {
                    let word = vals.of(g);
                    for (l, asg) in asgs.iter().enumerate() {
                        assert_eq!(word >> l & 1 == 1, m.eval(g, asg), "{g:?}, lane {l} of {n}");
                    }
                }
            }
        }
    }

    #[test]
    fn lane_sweep_matches_the_root_walk_before_and_after_compaction() {
        for seed in 0..24 {
            let (mut m, pool) = random_pool(200 + seed, 160);
            let mut fs: Vec<Bdd> = pool.iter().map(|(f, _)| *f).collect();
            assert_sweep_matches_walk(&m, &fs, seed);
            // All 64 assignments at once is the truth table itself.
            let all: Vec<u64> = (0..NV).map(|v| TruthTable::var(v, NV).bits()).collect();
            let vals = m.eval_lanes(&all);
            for (f, t) in &pool {
                assert_eq!(vals.of(*f), t.bits(), "seed {seed}: {t:?}");
            }
            fs.truncate(fs.len() / 3);
            m.compact(fs.iter_mut());
            assert_sweep_matches_walk(&m, &fs, seed);
        }
    }

    #[test]
    fn node_ids_are_children_first() {
        // What `eval_lanes` sweeps on, for a manager that has worked and
        // for a compacted one.
        let children_first = |m: &BddManager| {
            for (h, n) in m.views.iter().enumerate().skip(2) {
                assert!(
                    (n.lo.0 >> 1) < (h as u32 >> 1) && (n.hi.0 >> 1) < (h as u32 >> 1),
                    "#{h}"
                );
                assert!((n.var as usize) < m.num_vars as usize);
            }
        };
        let (mut m, pool) = random_pool(11, 400);
        children_first(&m);
        let mut roots: Vec<Bdd> = pool.iter().rev().take(20).map(|(f, _)| *f).collect();
        m.compact(roots.iter_mut());
        children_first(&m);
    }

    #[test]
    fn a_store_rebuilt_from_its_nodes_is_the_same_manager() {
        for seed in 0..8 {
            let (mut m, pool) = random_pool(300 + seed, 160);
            let mut roots: Vec<Bdd> = pool.iter().step_by(3).map(|(f, _)| *f).collect();
            m.compact(roots.iter_mut());
            let mut rebuilt = BddManager::from_nodes(&m.nodes());
            assert!(rebuilt.views == m.views, "seed {seed}: the same views");
            assert_eq!(rebuilt.num_vars, m.num_vars, "seed {seed}");
            assert_eq!(rebuilt.nodes(), m.nodes());
            // The same handles by number, and still a manager: building a
            // root's function again finds the root's own nodes.
            let raw: Vec<Bdd> = roots.iter().map(|r| Bdd::from_raw(r.raw())).collect();
            assert_sweep_matches_walk(&rebuilt, &raw, seed);
            for (r, (_, t)) in raw.iter().zip(pool.iter().step_by(3)) {
                assert_same_function(&rebuilt, *r, t, "rebuilt root");
                assert_eq!(from_tt(&mut rebuilt, t, 0), *r, "seed {seed}: canonical");
            }
        }
    }

    #[test]
    #[should_panic(expected = "children first")]
    fn a_forward_reference_is_refused() {
        // Node #1 names node #2 as its `hi` child.
        BddManager::from_nodes(&[[0, 0, 4], [1, 0, 2]]);
    }

    #[test]
    #[should_panic(expected = "variable order")]
    fn a_child_above_its_parent_is_refused() {
        // Node #2 tests variable 1 over a child that tests variable 1.
        BddManager::from_nodes(&[[1, 1, 0], [1, 0, 2]]);
    }

    #[test]
    #[should_panic(expected = "one lane word per variable")]
    fn short_lane_vector_is_rejected() {
        // Variables 0..=4 are tested; four words would leave variable 4
        // to be read as false in every lane.
        let mut m = BddManager::new();
        let mut f = Bdd::TRUE;
        for v in 0..5 {
            let x = m.var(v);
            f = m.and(f, x);
        }
        m.eval_lanes(&[!0; 4]);
    }

    #[test]
    fn compaction_forgets_variables_nobody_tests() {
        let mut m = BddManager::new();
        let (a, z) = (m.var(0), m.var(9));
        let mut keep = [a];
        assert_eq!(m.eval_lanes(&[0b10; 10]).of(z), 0b10);
        m.compact(keep.iter_mut());
        assert_eq!(
            m.eval_lanes(&[0b10]).of(keep[0]),
            0b10,
            "one variable left, one word asked"
        );
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
