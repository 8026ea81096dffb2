//! Structurally hashed And-Inverter Graphs with parameter-annotated inputs.
//!
//! An application is *parameterized* when some of its inputs change
//! infrequently compared to the rest (Section II-B of the paper). In the
//! paper's VHDL flow those inputs are annotated `--PARAM`; here the
//! annotation is [`InputKind::Param`] on the primary input.
//!
//! The AIG is the exchange format between synthesis (`softfloat`'s
//! operator generators), logic optimization ([`crate::opt`]) and technology
//! mapping (the `mapping` crate). Construction is hash-consed: trivial
//! identities are rewritten away and structurally identical AND nodes are
//! shared, which stands in for the ABC optimization step of the paper's
//! flow.

use crate::fxhash::FxHashMap;

/// Index of a node inside an [`Aig`].
pub(crate) type NodeId = u32;

/// Classification of a primary input (Fig. 3: regular vs. `--PARAM`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InputKind {
    /// Changes every cycle (image samples, accumulator values, ...).
    Regular,
    /// Changes infrequently (filter coefficients, mode selects, ...); the
    /// parameterized flow folds these into the configuration.
    Param,
}

/// A literal: a node with an optional complement.
///
/// Encoding: `node_id << 1 | complemented`. The constant node is id 0, so
/// `Lit::FALSE == Lit(0)` and `Lit::TRUE == Lit(1)`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Lit(u32);

impl std::fmt::Debug for Lit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if *self == Lit::FALSE {
            write!(f, "0")
        } else if *self == Lit::TRUE {
            write!(f, "1")
        } else if self.is_neg() {
            write!(f, "!n{}", self.node())
        } else {
            write!(f, "n{}", self.node())
        }
    }
}

impl Lit {
    /// Constant false.
    pub const FALSE: Lit = Lit(0);
    /// Constant true.
    pub const TRUE: Lit = Lit(1);

    /// Builds a literal from a node id and a complement flag.
    #[inline]
    pub fn new(node: NodeId, neg: bool) -> Self {
        Lit(node << 1 | neg as u32)
    }

    /// The underlying node.
    #[inline]
    pub fn node(self) -> NodeId {
        self.0 >> 1
    }

    /// Whether the literal is complemented.
    #[inline]
    pub fn is_neg(self) -> bool {
        self.0 & 1 == 1
    }

    /// Raw encoding (node << 1 | neg); stable map key.
    #[inline]
    pub fn raw(self) -> u32 {
        self.0
    }

    /// True if this is one of the two constants.
    #[inline]
    pub fn is_const(self) -> bool {
        self.node() == 0
    }
}

impl std::ops::Not for Lit {
    type Output = Lit;
    #[inline]
    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

/// Payload of an AIG node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Node {
    /// The constant-false node (always id 0).
    Const,
    /// Primary input; the payload is the index into [`Aig::inputs`].
    Input(u32),
    /// Two-input AND of two literals.
    And(Lit, Lit),
}

/// Metadata of one primary input.
#[derive(Debug, Clone)]
pub struct InputInfo {
    /// Human-readable name, e.g. `coeff[3]`.
    pub name: String,
    /// Regular or parameter.
    pub kind: InputKind,
    /// The node realizing this input.
    pub node: NodeId,
}

/// A combinational And-Inverter Graph.
///
/// Nodes are created in topological order; `And` operands always reference
/// earlier nodes, so a plain forward scan is a valid evaluation order.
#[derive(Clone)]
pub struct Aig {
    nodes: Vec<Node>,
    inputs: Vec<InputInfo>,
    outputs: Vec<(String, Lit)>,
    strash: FxHashMap<(u32, u32), NodeId>,
}

impl Default for Aig {
    fn default() -> Self {
        Self::new()
    }
}

impl Aig {
    /// Creates an empty graph (just the constant node).
    pub fn new() -> Self {
        Self {
            nodes: vec![Node::Const],
            inputs: Vec::new(),
            outputs: Vec::new(),
            strash: FxHashMap::default(),
        }
    }

    /// Adds a primary input and returns its (positive) literal.
    pub fn input(&mut self, name: impl Into<String>, kind: InputKind) -> Lit {
        let node = self.nodes.len() as NodeId;
        self.nodes.push(Node::Input(self.inputs.len() as u32));
        self.inputs.push(InputInfo {
            name: name.into(),
            kind,
            node,
        });
        Lit::new(node, false)
    }

    /// Adds a vector of inputs named `name[0]`, `name[1]`, ... (LSB first).
    pub fn input_vec(&mut self, name: &str, width: usize, kind: InputKind) -> Vec<Lit> {
        (0..width)
            .map(|i| self.input(format!("{name}[{i}]"), kind))
            .collect()
    }

    /// Registers `lit` as a named primary output.
    pub fn add_output(&mut self, name: impl Into<String>, lit: Lit) {
        self.outputs.push((name.into(), lit));
    }

    /// Registers a vector of outputs named `name[0]`, ... (LSB first).
    pub fn add_output_vec(&mut self, name: &str, lits: &[Lit]) {
        for (i, &l) in lits.iter().enumerate() {
            self.add_output(format!("{name}[{i}]"), l);
        }
    }

    /// Hash-consed AND with constant folding and trivial simplification.
    pub fn and(&mut self, a: Lit, b: Lit) -> Lit {
        // Order operands for commutativity.
        let (a, b) = if a.raw() <= b.raw() { (a, b) } else { (b, a) };
        if a == Lit::FALSE || a == !b {
            return Lit::FALSE;
        }
        if a == Lit::TRUE {
            return b;
        }
        if a == b {
            return a;
        }
        let key = (a.raw(), b.raw());
        if let Some(&n) = self.strash.get(&key) {
            return Lit::new(n, false);
        }
        let node = self.nodes.len() as NodeId;
        self.nodes.push(Node::And(a, b));
        self.strash.insert(key, node);
        Lit::new(node, false)
    }

    /// OR via De Morgan.
    pub fn or(&mut self, a: Lit, b: Lit) -> Lit {
        !self.and(!a, !b)
    }

    /// XOR as two ANDs (`(a & !b) | (!a & b)`).
    pub fn xor(&mut self, a: Lit, b: Lit) -> Lit {
        let x = self.and(a, !b);
        let y = self.and(!a, b);
        self.or(x, y)
    }

    /// Multiplexer `sel ? t : e`.
    pub fn mux(&mut self, sel: Lit, t: Lit, e: Lit) -> Lit {
        if t == e {
            return t;
        }
        let a = self.and(sel, t);
        let b = self.and(!sel, e);
        self.or(a, b)
    }

    /// Balanced AND-reduction of a slice (keeps depth logarithmic).
    pub fn and_many(&mut self, lits: &[Lit]) -> Lit {
        self.reduce(lits, Lit::TRUE, Self::and)
    }

    /// Balanced OR-reduction.
    pub fn or_many(&mut self, lits: &[Lit]) -> Lit {
        self.reduce(lits, Lit::FALSE, Self::or)
    }

    fn reduce(&mut self, lits: &[Lit], empty: Lit, f: fn(&mut Self, Lit, Lit) -> Lit) -> Lit {
        match lits.len() {
            0 => empty,
            1 => lits[0],
            n => {
                let (lo, hi) = lits.split_at(n / 2);
                let l = self.reduce(lo, empty, f);
                let r = self.reduce(hi, empty, f);
                f(self, l, r)
            }
        }
    }

    /// Number of nodes (constant + inputs + ANDs).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of AND gates.
    pub fn num_ands(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, Node::And(..)))
            .count()
    }

    /// Number of primary inputs (all kinds).
    pub fn num_inputs(&self) -> usize {
        self.inputs.len()
    }

    /// Number of inputs of one kind.
    pub fn num_inputs_of(&self, kind: InputKind) -> usize {
        self.inputs.iter().filter(|i| i.kind == kind).count()
    }

    /// Access to input metadata.
    pub fn inputs(&self) -> &[InputInfo] {
        &self.inputs
    }

    /// Access to the named outputs.
    pub fn outputs(&self) -> &[(String, Lit)] {
        &self.outputs
    }

    /// Node payload.
    #[inline]
    pub fn node(&self, id: NodeId) -> Node {
        self.nodes[id as usize]
    }

    /// Iterates over `(id, node)` in topological order.
    pub fn iter_nodes(&self) -> impl Iterator<Item = (NodeId, Node)> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, &n)| (i as NodeId, n))
    }

    /// AND-gate depth of every node (inputs and constants at level 0).
    pub fn levels(&self) -> Vec<u32> {
        let mut lv = vec![0u32; self.nodes.len()];
        for (i, n) in self.nodes.iter().enumerate() {
            if let Node::And(a, b) = n {
                lv[i] = 1 + lv[a.node() as usize].max(lv[b.node() as usize]);
            }
        }
        lv
    }

    /// Maximum AND-depth over the outputs.
    pub fn depth(&self) -> u32 {
        let lv = self.levels();
        self.outputs
            .iter()
            .map(|(_, l)| lv[l.node() as usize])
            .max()
            .unwrap_or(0)
    }

    /// Fanout count per node, counting output references.
    pub fn fanouts(&self) -> Vec<u32> {
        let mut fo = vec![0u32; self.nodes.len()];
        for n in &self.nodes {
            if let Node::And(a, b) = n {
                fo[a.node() as usize] += 1;
                fo[b.node() as usize] += 1;
            }
        }
        for (_, l) in &self.outputs {
            fo[l.node() as usize] += 1;
        }
        fo
    }

    /// Specializes the graph for a parameter assignment: every `Param` input
    /// with an entry in `values` (keyed by *input index*) becomes a constant
    /// and the cone is re-folded. Regular inputs are preserved (same order,
    /// same names) so simulation vectors stay aligned.
    pub fn specialize(&self, values: &FxHashMap<u32, bool>) -> Aig {
        let mut out = Aig::new();
        // old node id -> literal in the new graph
        let mut map: Vec<Lit> = Vec::with_capacity(self.nodes.len());
        for (_id, node) in self.iter_nodes() {
            let lit = match node {
                Node::Const => Lit::FALSE,
                Node::Input(idx) => {
                    let info = &self.inputs[idx as usize];
                    match (info.kind, values.get(&idx)) {
                        (InputKind::Param, Some(&v)) => {
                            if v {
                                Lit::TRUE
                            } else {
                                Lit::FALSE
                            }
                        }
                        _ => out.input(info.name.clone(), info.kind),
                    }
                }
                Node::And(a, b) => {
                    let na = map[a.node() as usize] ^ a.is_neg();
                    let nb = map[b.node() as usize] ^ b.is_neg();
                    out.and(na, nb)
                }
            };
            map.push(lit);
        }
        for (name, l) in &self.outputs {
            let nl = map[l.node() as usize] ^ l.is_neg();
            out.add_output(name.clone(), nl);
        }
        out
    }

    /// Returns the ids of nodes in the transitive fanin of the outputs
    /// (i.e. the live logic), including inputs and the constant if used.
    pub fn live_nodes(&self) -> Vec<bool> {
        let mut live = vec![false; self.nodes.len()];
        let mut stack: Vec<NodeId> = self.outputs.iter().map(|(_, l)| l.node()).collect();
        while let Some(id) = stack.pop() {
            if live[id as usize] {
                continue;
            }
            live[id as usize] = true;
            if let Node::And(a, b) = self.nodes[id as usize] {
                stack.push(a.node());
                stack.push(b.node());
            }
        }
        live
    }

    /// Number of live AND gates (after an implicit sweep).
    pub fn live_ands(&self) -> usize {
        let live = self.live_nodes();
        self.iter_nodes()
            .filter(|(id, n)| live[*id as usize] && matches!(n, Node::And(..)))
            .count()
    }
}

/// XOR of a literal and a bool: flips the literal when `b` is true.
impl std::ops::BitXor<bool> for Lit {
    type Output = Lit;
    #[inline]
    fn bitxor(self, b: bool) -> Lit {
        Lit(self.0 ^ b as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_folding() {
        let mut g = Aig::new();
        let a = g.input("a", InputKind::Regular);
        assert_eq!(g.and(a, Lit::FALSE), Lit::FALSE);
        assert_eq!(g.and(a, Lit::TRUE), a);
        assert_eq!(g.and(a, a), a);
        assert_eq!(g.and(a, !a), Lit::FALSE);
        assert_eq!(g.or(a, !a), Lit::TRUE);
        assert_eq!(g.num_ands(), 0, "no gate should have been created");
    }

    #[test]
    fn structural_hashing_shares_nodes() {
        let mut g = Aig::new();
        let a = g.input("a", InputKind::Regular);
        let b = g.input("b", InputKind::Regular);
        let x = g.and(a, b);
        let y = g.and(b, a);
        assert_eq!(x, y);
        assert_eq!(g.num_ands(), 1);
    }

    #[test]
    fn xor_semantics() {
        let mut g = Aig::new();
        let a = g.input("a", InputKind::Regular);
        let b = g.input("b", InputKind::Regular);
        let x = g.xor(a, b);
        g.add_output("x", x);
        let vals = crate::sim::simulate_u64(&g, &[0b0011, 0b0101]);
        assert_eq!(vals[0] & 0xF, 0b0110);
    }

    #[test]
    fn mux_truthtable() {
        let mut g = Aig::new();
        let s = g.input("s", InputKind::Regular);
        let t = g.input("t", InputKind::Regular);
        let e = g.input("e", InputKind::Regular);
        let m = g.mux(s, t, e);
        g.add_output("m", m);
        for pat in 0..8u64 {
            let s_v = pat & 1 != 0;
            let t_v = pat & 2 != 0;
            let e_v = pat & 4 != 0;
            let vals = crate::sim::simulate_u64(&g, &[s_v as u64, t_v as u64, e_v as u64]);
            let expect = if s_v { t_v } else { e_v };
            assert_eq!(vals[0] & 1 == 1, expect, "pat={pat}");
        }
    }

    #[test]
    fn specialize_folds_params() {
        let mut g = Aig::new();
        let x = g.input("x", InputKind::Regular);
        let p = g.input("p", InputKind::Param);
        let f = g.mux(p, x, !x); // p ? x : !x
        g.add_output("f", f);

        let mut asg = FxHashMap::default();
        asg.insert(1u32, true); // p = 1 -> f = x
        let s = g.specialize(&asg);
        assert_eq!(s.num_inputs(), 1, "param input must be gone");
        assert_eq!(s.num_ands(), 0, "f collapses to a wire");
        assert_eq!(s.outputs()[0].1, Lit::new(1, false));

        asg.insert(1u32, false); // p = 0 -> f = !x
        let s0 = g.specialize(&asg);
        assert_eq!(s0.outputs()[0].1, !Lit::new(1, false));
    }

    #[test]
    fn levels_and_depth() {
        let mut g = Aig::new();
        let a = g.input("a", InputKind::Regular);
        let b = g.input("b", InputKind::Regular);
        let c = g.input("c", InputKind::Regular);
        let ab = g.and(a, b);
        let abc = g.and(ab, c);
        g.add_output("o", abc);
        assert_eq!(g.depth(), 2);
    }

    #[test]
    fn balanced_reduction_is_logarithmic() {
        let mut g = Aig::new();
        let xs: Vec<Lit> = (0..64)
            .map(|i| g.input(format!("x{i}"), InputKind::Regular))
            .collect();
        let all = g.and_many(&xs);
        g.add_output("o", all);
        assert_eq!(g.depth(), 6, "64-way AND should be depth log2(64)");
    }

    #[test]
    fn live_nodes_ignores_dangling() {
        let mut g = Aig::new();
        let a = g.input("a", InputKind::Regular);
        let b = g.input("b", InputKind::Regular);
        let _dead = g.and(a, b);
        let keep = g.or(a, b);
        g.add_output("keep", keep);
        // `or` creates one AND; `_dead` creates another.
        assert_eq!(g.num_ands(), 2);
        assert_eq!(g.live_ands(), 1);
    }
}
