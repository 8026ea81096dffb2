//! 64-way bit-parallel simulation of AIGs.
//!
//! Each primary input is assigned a 64-bit word; bit `k` of every word forms
//! the `k`-th simulation pattern, so one sweep over the graph evaluates 64
//! input vectors at once. This is the workhorse behind all the
//! equivalence checks in the workspace (original vs. mapped vs. specialized
//! netlists).

use crate::aig::{Aig, Node};
#[cfg(test)]
use crate::{aig::InputKind, fxhash::FxHashMap};

/// Simulates the graph on one 64-pattern batch.
///
/// `input_words[i]` is the pattern word of input `i` (in [`Aig::inputs`]
/// order). Returns one word per primary output, in output order.
pub fn simulate_u64(aig: &Aig, input_words: &[u64]) -> Vec<u64> {
    assert_eq!(
        input_words.len(),
        aig.num_inputs(),
        "one simulation word per primary input"
    );
    let mut val = vec![0u64; aig.num_nodes()];
    for (id, node) in aig.iter_nodes() {
        val[id as usize] = match node {
            Node::Const => 0,
            Node::Input(idx) => input_words[idx as usize],
            Node::And(a, b) => {
                let va = val[a.node() as usize] ^ if a.is_neg() { u64::MAX } else { 0 };
                let vb = val[b.node() as usize] ^ if b.is_neg() { u64::MAX } else { 0 };
                va & vb
            }
        };
    }
    aig.outputs()
        .iter()
        .map(|(_, l)| val[l.node() as usize] ^ if l.is_neg() { u64::MAX } else { 0 })
        .collect()
}

/// Outcome of an equivalence check.
// Test-only, as is `exhaustive_equiv`: the oracle of the `opt::sweep` tests.
#[cfg(test)]
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum EquivResult {
    /// No differing pattern found.
    Equivalent,
    /// Outputs differ; carries (output index, pattern number) of the first
    /// mismatch found.
    Mismatch { output: usize, pattern: usize },
}

#[cfg(test)]
impl EquivResult {
    /// True when no mismatch was found.
    pub(crate) fn is_equivalent(&self) -> bool {
        matches!(self, EquivResult::Equivalent)
    }
}

/// Exhaustive equivalence over all assignments of the regular inputs
/// (feasible for up to ~20 regular inputs), with parameters driven by
/// `param_bits` (keyed by input *name*, so the two graphs may order inputs
/// differently; a missing name is 0). Both graphs must expose the same
/// regular input names and the same output names.
// Test-only: the oracle of the `opt::sweep` tests.
#[cfg(test)]
pub(crate) fn exhaustive_equiv(
    a: &Aig,
    b: &Aig,
    param_bits: &FxHashMap<String, bool>,
) -> EquivResult {
    let reg_names: Vec<String> = a
        .inputs()
        .iter()
        .filter(|i| i.kind == InputKind::Regular)
        .map(|i| i.name.clone())
        .collect();
    let n = reg_names.len();
    assert!(n <= 20, "exhaustive check limited to 20 regular inputs");
    let total = 1usize << n;

    let out_index_b: FxHashMap<&str, usize> = b
        .outputs()
        .iter()
        .enumerate()
        .map(|(i, (nm, _))| (nm.as_str(), i))
        .collect();

    // Pack 64 consecutive assignments per batch: regular input i of
    // assignment (base + k) has value bit i of (base + k).
    let mut base = 0usize;
    while base < total {
        let mut words: FxHashMap<&str, u64> = FxHashMap::default();
        for (i, nm) in reg_names.iter().enumerate() {
            let mut w = 0u64;
            for k in 0..64usize.min(total - base) {
                if ((base + k) >> i) & 1 == 1 {
                    w |= 1 << k;
                }
            }
            words.insert(nm.as_str(), w);
        }
        let feed = |g: &Aig| -> Vec<u64> {
            g.inputs()
                .iter()
                .map(|i| match i.kind {
                    InputKind::Regular => *words.get(i.name.as_str()).unwrap_or(&0),
                    InputKind::Param => {
                        if *param_bits.get(&i.name).unwrap_or(&false) {
                            u64::MAX
                        } else {
                            0
                        }
                    }
                })
                .collect()
        };
        let oa = simulate_u64(a, &feed(a));
        let ob = simulate_u64(b, &feed(b));
        let valid_mask = if total - base >= 64 {
            u64::MAX
        } else {
            (1u64 << (total - base)) - 1
        };
        for (i, (name, _)) in a.outputs().iter().enumerate() {
            let j = out_index_b[name.as_str()];
            let diff = (oa[i] ^ ob[j]) & valid_mask;
            if diff != 0 {
                return EquivResult::Mismatch {
                    output: i,
                    pattern: base + diff.trailing_zeros() as usize,
                };
            }
        }
        base += 64;
    }
    EquivResult::Equivalent
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aig::{InputKind, Lit};

    fn adder_graph(xor_style: bool) -> Aig {
        // 1-bit full adder, two structurally different implementations.
        let mut g = Aig::new();
        let a = g.input("a", InputKind::Regular);
        let b = g.input("b", InputKind::Regular);
        let c = g.input("c", InputKind::Regular);
        let (s, co) = if xor_style {
            let ab = g.xor(a, b);
            let s = g.xor(ab, c);
            let t1 = g.and(a, b);
            let t2 = g.and(ab, c);
            (s, g.or(t1, t2))
        } else {
            // majority + parity via mux decomposition
            let nab = !g.xor(a, b);
            let s = g.mux(nab, c, !c);
            let co_t = g.mux(nab, a, c);
            (s, co_t)
        };
        g.add_output("sum", s);
        g.add_output("cout", co);
        g
    }

    #[test]
    fn adders_equivalent_exhaustive() {
        let a = adder_graph(true);
        let b = adder_graph(false);
        assert!(exhaustive_equiv(&a, &b, &FxHashMap::default()).is_equivalent());
    }

    #[test]
    fn mismatch_detected() {
        let mut a = Aig::new();
        let x = a.input("x", InputKind::Regular);
        let y = a.input("y", InputKind::Regular);
        let o = a.and(x, y);
        a.add_output("o", o);

        let mut b = Aig::new();
        let x2 = b.input("x", InputKind::Regular);
        let y2 = b.input("y", InputKind::Regular);
        let o2 = b.or(x2, y2);
        b.add_output("o", o2);

        assert!(!exhaustive_equiv(&a, &b, &FxHashMap::default()).is_equivalent());
    }

    #[test]
    fn constant_output() {
        let mut g = Aig::new();
        let _ = g.input("a", InputKind::Regular);
        g.add_output("t", Lit::TRUE);
        g.add_output("f", Lit::FALSE);
        let o = simulate_u64(&g, &[0xDEAD]);
        assert_eq!(o, vec![u64::MAX, 0]);
    }

    #[test]
    fn params_drive_equivalence() {
        // f = p ? x : y. With p=1 it must equal the wire x.
        let mut a = Aig::new();
        let x = a.input("x", InputKind::Regular);
        let y = a.input("y", InputKind::Regular);
        let p = a.input("p", InputKind::Param);
        let f = a.mux(p, x, y);
        a.add_output("f", f);

        let mut b = Aig::new();
        let xb = b.input("x", InputKind::Regular);
        let _yb = b.input("y", InputKind::Regular);
        b.add_output("f", xb);

        let mut pm = FxHashMap::default();
        pm.insert("p".to_string(), true);
        assert!(exhaustive_equiv(&a, &b, &pm).is_equivalent());
        pm.insert("p".to_string(), false);
        assert!(!exhaustive_equiv(&a, &b, &pm).is_equivalent());
    }
}
