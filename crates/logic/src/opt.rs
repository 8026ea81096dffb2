//! Logic optimization (the "ABC step" of the paper's flow).
//!
//! Construction of an [`Aig`] already performs constant folding and
//! structural hashing; [`sweep`] finishes the job by rebuilding the graph
//! with only the logic reachable from the outputs (dangling-node removal).

use crate::aig::{Aig, Lit, Node};

/// Removes dangling nodes by rebuilding the graph from its outputs.
///
/// The rebuilt graph has the same inputs (in the same order, so simulation
/// vectors remain aligned) and the same named outputs.
pub fn sweep(aig: &Aig) -> Aig {
    let mut out = Aig::new();
    let live = aig.live_nodes();
    let mut map: Vec<Lit> = vec![Lit::FALSE; aig.num_nodes()];
    for (id, node) in aig.iter_nodes() {
        match node {
            Node::Const => map[id as usize] = Lit::FALSE,
            // Inputs are always re-created to keep indexing stable.
            Node::Input(idx) => {
                let info = &aig.inputs()[idx as usize];
                map[id as usize] = out.input(info.name.clone(), info.kind);
            }
            Node::And(a, b) => {
                if live[id as usize] {
                    let na = map[a.node() as usize] ^ a.is_neg();
                    let nb = map[b.node() as usize] ^ b.is_neg();
                    map[id as usize] = out.and(na, nb);
                }
            }
        }
    }
    for (name, l) in aig.outputs() {
        out.add_output(name.clone(), map[l.node() as usize] ^ l.is_neg());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aig::InputKind;
    use crate::fxhash::FxHashMap;
    use crate::sim::exhaustive_equiv;

    #[test]
    fn sweep_removes_dead_logic() {
        let mut g = Aig::new();
        let a = g.input("a", InputKind::Regular);
        let b = g.input("b", InputKind::Regular);
        let _dead = g.and(a, b);
        let live = g.or(a, b);
        g.add_output("o", live);
        let s = sweep(&g);
        assert_eq!(s.num_ands(), 1);
        assert_eq!(s.outputs()[0].0, "o", "outputs keep their names");
        assert!(exhaustive_equiv(&g, &s, &FxHashMap::default()).is_equivalent());
    }
}
