//! Mapped-netlist representation shared by both flows.
//!
//! A [`MappedDesign`] is a DAG of [`MappedNode`]s over the regular primary
//! inputs. LUT truth-table bits and TCON selection conditions are Boolean
//! functions of the parameters, stored as BDDs in the design's own manager.
//! [`MappedDesign::specialize`] freezes a parameter assignment into a
//! [`SpecializedDesign`] with concrete truth tables and resolved
//! connections — that is precisely what the paper's Specialized
//! Configuration Generator does when it evaluates the PPC.

use logic::bdd::{Bdd, BddManager};
use logic::tt::TruthTable;

/// A signal source inside a mapped design.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Source {
    /// Regular primary input (index into [`MappedDesign::input_names`]).
    Input(u32),
    /// Output of mapped node `id`.
    Node(u32),
    /// A constant (only appears after specialization or on outputs).
    Const(bool),
}

/// A (possibly tunable) K-input LUT.
///
/// `ptt[m]` is the truth-table bit for input minterm `m`, as a function of
/// the parameters. If every entry is constant this is an ordinary LUT.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tlut {
    /// LUT input connections, LSB of the minterm first.
    pub inputs: Vec<Source>,
    /// `2^inputs.len()` truth-table coefficient functions.
    pub ptt: Vec<Bdd>,
}

impl Tlut {
    /// A LUT is *tunable* when at least one truth-table bit depends on a
    /// parameter.
    pub fn is_tunable(&self) -> bool {
        self.ptt.iter().any(|b| !b.is_const())
    }
}

/// A tunable connection: for every parameter assignment the node's function
/// equals one of the `choices` sources (whose condition evaluates true) or a
/// constant.
///
/// On the FPGA this is pure routing: the conditions become configuration
/// bits of physical switch blocks / connection blocks, not LUTs. Routing
/// cannot invert, so a TCON may carry the *complement* of its logical
/// function (`invert = true`); consumers absorb the static inversion into
/// their truth tables (LUTs) or their own polarity annotation (TCONs) —
/// this is the phase-assignment step of TCONMAP.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tcon {
    /// Candidate sources with their activation conditions (disjoint cover
    /// together with `const0`/`const1`; on overlap the first match wins).
    pub choices: Vec<(Source, Bdd)>,
    /// Condition under which the node is (logical) constant 0.
    pub const0: Bdd,
    /// Condition under which the node is (logical) constant 1.
    pub const1: Bdd,
    /// The wire physically carries the complement of the logical function.
    pub invert: bool,
}

/// One node of a mapped design.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MappedNode {
    /// A LUT (tunable or static).
    Lut(Tlut),
    /// A tunable connection (routing only).
    Tcon(Tcon),
}

impl MappedNode {
    /// Every [`Bdd`] handle the node holds, for [`BddManager::compact`].
    pub(crate) fn handles_mut(&mut self) -> Box<dyn Iterator<Item = &mut Bdd> + '_> {
        match self {
            MappedNode::Lut(l) => Box::new(l.ptt.iter_mut()),
            MappedNode::Tcon(t) => Box::new(
                [&mut t.const0, &mut t.const1]
                    .into_iter()
                    .chain(t.choices.iter_mut().map(|(_, c)| c)),
            ),
        }
    }
}

/// A primary output: named, with a source and an optional inversion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MappedOutput {
    /// Output name (matches the source AIG).
    pub name: String,
    /// Driving signal.
    pub source: Source,
    /// True if the output is the complement of the source.
    pub invert: bool,
}

/// Aggregate resource statistics (the quantities of Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MapStats {
    /// Total LUT count (static + tunable).
    pub luts: usize,
    /// LUTs whose truth table depends on parameters.
    pub tluts: usize,
    /// Tunable connections (mapped to physical routing).
    pub tcons: usize,
    /// Parameter-only nodes (settings bits held in configuration memory).
    pub tunable_constants: usize,
    /// LUT logic depth over the outputs (TCONs contribute no level).
    pub depth: u32,
}

/// A technology-mapped design.
pub struct MappedDesign {
    /// Nodes in topological order (node `i` only references nodes `< i`).
    pub nodes: Vec<MappedNode>,
    /// Primary outputs.
    pub outputs: Vec<MappedOutput>,
    /// Names of the regular inputs, aligned with [`Source::Input`] indices.
    pub input_names: Vec<String>,
    /// Names of the parameters; BDD variable `v` is parameter `v`.
    pub param_names: Vec<String>,
    /// Owner of every [`Bdd`] handle in the design.
    pub bdd: BddManager,
}

impl MappedDesign {
    /// Resource statistics.
    pub fn stats(&self) -> MapStats {
        let mut luts = 0;
        let mut tluts = 0;
        let mut tcons = 0;
        let mut tunable_constants = 0;
        for n in &self.nodes {
            match n {
                MappedNode::Lut(l) => {
                    luts += 1;
                    if l.is_tunable() {
                        tluts += 1;
                    }
                }
                MappedNode::Tcon(t) => {
                    if t.choices.is_empty() {
                        tunable_constants += 1;
                    } else {
                        tcons += 1;
                    }
                }
            }
        }
        MapStats {
            luts,
            tluts,
            tcons,
            tunable_constants,
            depth: self.depth(),
        }
    }

    /// LUT logic depth (levels) over the outputs; TCONs add no level.
    pub fn depth(&self) -> u32 {
        let mut level = vec![0u32; self.nodes.len()];
        let src_level = |level: &[u32], s: &Source| -> u32 {
            match s {
                Source::Node(id) => level[*id as usize],
                _ => 0,
            }
        };
        for (i, n) in self.nodes.iter().enumerate() {
            level[i] = match n {
                MappedNode::Lut(l) => {
                    1 + l
                        .inputs
                        .iter()
                        .map(|s| src_level(&level, s))
                        .max()
                        .unwrap_or(0)
                }
                MappedNode::Tcon(t) => t
                    .choices
                    .iter()
                    .map(|(s, _)| src_level(&level, s))
                    .max()
                    .unwrap_or(0),
            };
        }
        self.outputs
            .iter()
            .map(|o| src_level(&level, &o.source))
            .max()
            .unwrap_or(0)
    }

    /// Evaluates every node for a parameter assignment, producing concrete
    /// LUT truth tables and resolved connections.
    ///
    /// `params[v]` is the value of parameter (BDD variable) `v`.
    ///
    /// # Panics
    /// If `params` is not one value per parameter: a short vector would
    /// read its missing parameters as `false` and specialize the design
    /// for settings nobody asked for.
    pub fn specialize(&self, params: &[bool]) -> SpecializedDesign {
        assert_eq!(
            params.len(),
            self.param_names.len(),
            "one value per parameter"
        );
        // Every PTT bit and TCON condition under one assignment: one
        // one-lane sweep of the store, then a read per handle.
        let lanes: Vec<u64> = params.iter().map(|&p| u64::from(p)).collect();
        let vals = self.bdd.eval_lanes(&lanes);
        let holds = |f: Bdd| vals.of(f) & 1 == 1;
        let nodes = self
            .nodes
            .iter()
            .map(|n| match n {
                MappedNode::Lut(l) => {
                    let mut tt = TruthTable::zero(l.inputs.len());
                    for (m, b) in l.ptt.iter().enumerate() {
                        if holds(*b) {
                            tt.set(m, true);
                        }
                    }
                    SpecNode::Lut(SpecLut {
                        inputs: l.inputs.clone(),
                        tt,
                    })
                }
                MappedNode::Tcon(t) => {
                    // The wire carries the physical value: logical ^ invert.
                    if holds(t.const0) {
                        SpecNode::Wire(Source::Const(t.invert))
                    } else if holds(t.const1) {
                        SpecNode::Wire(Source::Const(!t.invert))
                    } else {
                        let chosen = t
                            .choices
                            .iter()
                            .find(|(_, c)| holds(*c))
                            .map(|(s, _)| *s)
                            .expect("TCON cover must be exhaustive over parameters");
                        SpecNode::Wire(chosen)
                    }
                }
            })
            .collect();
        SpecializedDesign {
            nodes,
            outputs: self.outputs.clone(),
            num_inputs: self.input_names.len(),
        }
    }

    /// Convenience: parameter assignment from the low bits of a `u64`
    /// (parameter `v` = bit `v`).
    pub fn params_from_bits(&self, bits: u64) -> Vec<bool> {
        (0..self.param_names.len())
            .map(|v| (bits >> v) & 1 == 1)
            .collect()
    }
}

/// A specialized (parameter-free) LUT.
#[derive(Debug, Clone)]
pub struct SpecLut {
    /// Input connections.
    pub inputs: Vec<Source>,
    /// Concrete truth table.
    pub tt: TruthTable,
}

/// A node of a specialized design.
#[derive(Debug, Clone)]
pub enum SpecNode {
    /// Concrete LUT.
    Lut(SpecLut),
    /// Resolved connection (what a TCON becomes for fixed parameters).
    Wire(Source),
}

/// A design frozen for one parameter assignment.
pub struct SpecializedDesign {
    /// Nodes, same indexing as the mapped design.
    pub nodes: Vec<SpecNode>,
    /// Primary outputs.
    pub outputs: Vec<MappedOutput>,
    /// Number of regular inputs.
    pub num_inputs: usize,
}

impl SpecializedDesign {
    /// 64-way bit-parallel simulation: `input_words[i]` drives regular
    /// input `i`; returns one word per output.
    pub fn simulate(&self, input_words: &[u64]) -> Vec<u64> {
        assert_eq!(input_words.len(), self.num_inputs);
        let mut val = vec![0u64; self.nodes.len()];
        let read = |val: &[u64], s: &Source| -> u64 {
            match s {
                Source::Input(i) => input_words[*i as usize],
                Source::Node(n) => val[*n as usize],
                Source::Const(true) => u64::MAX,
                Source::Const(false) => 0,
            }
        };
        for (i, n) in self.nodes.iter().enumerate() {
            val[i] = match n {
                SpecNode::Wire(s) => read(&val, s),
                SpecNode::Lut(l) => {
                    let ins: Vec<u64> = l.inputs.iter().map(|s| read(&val, s)).collect();
                    let mut out = 0u64;
                    // Evaluate the LUT for each of the 64 lanes.
                    for m in 0..l.tt.len() {
                        if !l.tt.get(m) {
                            continue;
                        }
                        // Lanes where the input minterm equals m.
                        let mut lanes = u64::MAX;
                        for (bit, &w) in ins.iter().enumerate() {
                            lanes &= if (m >> bit) & 1 == 1 { w } else { !w };
                        }
                        out |= lanes;
                    }
                    out
                }
            };
        }
        self.outputs
            .iter()
            .map(|o| {
                let v = read(&val, &o.source);
                if o.invert {
                    !v
                } else {
                    v
                }
            })
            .collect()
    }

    /// Number of LUTs after specialization (wires cost nothing).
    pub fn lut_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, SpecNode::Lut(_)))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use logic::bdd::BddManager;

    /// Hand-builds a tiny tunable design: out = p ? a : b as one TCON.
    fn mux_tcon_design() -> MappedDesign {
        let mut bdd = BddManager::new();
        let p = bdd.var(0);
        let np = bdd.nvar(0);
        MappedDesign {
            nodes: vec![MappedNode::Tcon(Tcon {
                choices: vec![(Source::Input(0), p), (Source::Input(1), np)],
                const0: Bdd::FALSE,
                const1: Bdd::FALSE,
                invert: false,
            })],
            outputs: vec![MappedOutput {
                name: "out".into(),
                source: Source::Node(0),
                invert: false,
            }],
            input_names: vec!["a".into(), "b".into()],
            param_names: vec!["p".into()],
            bdd,
        }
    }

    #[test]
    fn tcon_specializes_to_wire() {
        let d = mux_tcon_design();
        let s1 = d.specialize(&[true]);
        match &s1.nodes[0] {
            SpecNode::Wire(Source::Input(0)) => {}
            other => panic!("expected wire to input 0, got {other:?}"),
        }
        let s0 = d.specialize(&[false]);
        match &s0.nodes[0] {
            SpecNode::Wire(Source::Input(1)) => {}
            other => panic!("expected wire to input 1, got {other:?}"),
        }
        // Simulation follows the selected source.
        assert_eq!(s1.simulate(&[0xAB, 0xCD]), vec![0xAB]);
        assert_eq!(s0.simulate(&[0xAB, 0xCD]), vec![0xCD]);
    }

    #[test]
    #[should_panic(expected = "one value per parameter")]
    fn short_parameter_vector_is_rejected() {
        // `eval` would read the missing `p` as false and pick input 1.
        mux_tcon_design().specialize(&[]);
    }

    #[test]
    fn tlut_specialization_changes_function() {
        let mut bdd = BddManager::new();
        let p = bdd.var(0);
        let np = bdd.nvar(0);
        // 1-input LUT: identity when p, inverter when !p.
        let d = MappedDesign {
            nodes: vec![MappedNode::Lut(Tlut {
                inputs: vec![Source::Input(0)],
                ptt: vec![np, p], // tt(0) = !p, tt(1) = p
            })],
            outputs: vec![MappedOutput {
                name: "o".into(),
                source: Source::Node(0),
                invert: false,
            }],
            input_names: vec!["x".into()],
            param_names: vec!["p".into()],
            bdd,
        };
        assert_eq!(d.stats().tluts, 1);
        let ident = d.specialize(&[true]);
        assert_eq!(ident.simulate(&[0b01]), vec![0b01]);
        let inv = d.specialize(&[false]);
        assert_eq!(inv.simulate(&[0b01])[0] & 0b11, 0b10);
    }

    #[test]
    fn stats_counts() {
        let d = mux_tcon_design();
        let s = d.stats();
        assert_eq!(s.luts, 0);
        assert_eq!(s.tcons, 1);
        assert_eq!(s.depth, 0, "TCONs add no logic level");
    }

    #[test]
    fn depth_counts_lut_levels_only() {
        let mut bdd = BddManager::new();
        let tt_and = vec![Bdd::FALSE, Bdd::FALSE, Bdd::FALSE, Bdd::TRUE];
        let p = bdd.var(0);
        let d = MappedDesign {
            nodes: vec![
                MappedNode::Lut(Tlut {
                    inputs: vec![Source::Input(0), Source::Input(1)],
                    ptt: tt_and.clone(),
                }),
                // TCON forwarding node 0 (or const 0) — no extra level.
                MappedNode::Tcon(Tcon {
                    choices: vec![(Source::Node(0), p)],
                    const0: bdd.nvar(0),
                    const1: Bdd::FALSE,
                    invert: false,
                }),
                MappedNode::Lut(Tlut {
                    inputs: vec![Source::Node(1), Source::Input(2)],
                    ptt: tt_and,
                }),
            ],
            outputs: vec![MappedOutput {
                name: "o".into(),
                source: Source::Node(2),
                invert: false,
            }],
            input_names: vec!["a".into(), "b".into(), "c".into()],
            param_names: vec!["p".into()],
            bdd,
        };
        assert_eq!(d.depth(), 2);
    }
}
