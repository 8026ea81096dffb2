//! The Specialized Configuration Generator.
//!
//! The SCG runs on an embedded processor (PowerPC, ARM or MicroBlaze in
//! the paper); here it is a host-side evaluator with the same data flow:
//! take a parameter assignment, evaluate every PPC Boolean function,
//! produce specialized bits, diff against the currently loaded bits and
//! emit the set of frames that must be read-modified-written.

use crate::ppc::ParamConfig;
use logic::fxhash::FxHashSet;
use mapping::MappedDesign;

/// The result of one specialization run.
#[derive(Debug, Clone)]
pub struct SpecializedBits {
    /// Bit values in PPC order.
    pub values: Vec<bool>,
}

/// The SCG: owns the evaluation order over one design's PPC.
pub struct Scg<'a> {
    design: &'a MappedDesign,
    config: &'a ParamConfig,
}

impl<'a> Scg<'a> {
    /// Binds an SCG to a design and its extracted configuration.
    pub fn new(design: &'a MappedDesign, config: &'a ParamConfig) -> Self {
        assert_eq!(design.param_names.len(), config.param_names.len());
        Scg { design, config }
    }

    /// Evaluates every PPC function for a parameter assignment
    /// (`params[v]` drives BDD variable `v`).
    ///
    /// # Panics
    /// If `params` is not one value per parameter of the design: a short
    /// vector would read its missing parameters as `false` and produce a
    /// configuration for settings nobody asked for.
    pub fn specialize(&self, params: &[bool]) -> SpecializedBits {
        assert_eq!(params.len(), self.design.param_names.len(), "one value per parameter");
        let values = self
            .config
            .ppc
            .iter()
            .map(|(_, f, _)| self.design.bdd.eval(*f, params))
            .collect();
        SpecializedBits { values }
    }

    /// Frames whose content differs between two specializations — the
    /// micro-reconfiguration working set for this parameter change.
    pub fn dirty_frames(&self, old: &SpecializedBits, new: &SpecializedBits) -> FxHashSet<u32> {
        assert_eq!(old.values.len(), new.values.len());
        let mut frames = FxHashSet::default();
        for (i, (a, _, _)) in self.config.ppc.iter().enumerate() {
            if old.values[i] != new.values[i] {
                frames.insert(a.frame);
            }
        }
        frames
    }

    /// All frames containing tunable bits (worst-case working set; used
    /// for the first configuration after the template is loaded).
    pub fn all_tunable_frames(&self) -> FxHashSet<u32> {
        self.config.ppc.iter().map(|(a, _, _)| a.frame).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ppc::ConfigKind;
    use logic::aig::{Aig, InputKind};
    use mapping::{map_parameterized, MapOptions, MappedNode};

    fn demo() -> MappedDesign {
        let mut g = Aig::new();
        let a = g.input("a", InputKind::Regular);
        let b = g.input("b", InputKind::Regular);
        let p = g.input_vec("p", 3, InputKind::Param);
        let f = g.mux(p[0], a, b);
        let h = g.xor(a, p[1]);
        let k = g.and(p[1], p[2]);
        g.add_output("f", f);
        g.add_output("h", h);
        g.add_output("k", k);
        map_parameterized(&g, MapOptions::default())
    }

    #[test]
    fn scg_matches_design_specialization() {
        // The SCG's specialized LUT bits must agree with
        // MappedDesign::specialize for every parameter assignment.
        let d = demo();
        let cfg = ParamConfig::extract(&d);
        let scg = Scg::new(&d, &cfg);
        for bits in 0..8u64 {
            let params = d.params_from_bits(bits);
            let spec_bits = scg.specialize(&params);
            let spec_design = d.specialize(&params);
            // Walk LUT nodes in order; their PPC entries appear in the same
            // order within the LutBit addresses.
            let mut it = cfg
                .ppc
                .iter()
                .enumerate()
                .filter(|(_, (_, _, k))| *k == ConfigKind::LutBit);
            for (n, node) in d.nodes.iter().enumerate() {
                if let MappedNode::Lut(l) = node {
                    for (m, bit) in l.ptt.iter().enumerate() {
                        if bit.is_const() {
                            continue;
                        }
                        let (i, _) = it.next().expect("ppc bit for tunable entry");
                        let got = spec_bits.values[i];
                        let want = match &spec_design.nodes[n] {
                            mapping::design::SpecNode::Lut(sl) => sl.tt.get(m),
                            _ => unreachable!("LUT stays LUT"),
                        };
                        assert_eq!(got, want, "params {bits:#b}, node {n}, minterm {m}");
                    }
                }
            }
        }
    }

    #[test]
    fn dirty_frames_empty_for_same_params() {
        let d = demo();
        let cfg = ParamConfig::extract(&d);
        let scg = Scg::new(&d, &cfg);
        let s1 = scg.specialize(&[true, false, true]);
        let s2 = scg.specialize(&[true, false, true]);
        assert!(scg.dirty_frames(&s1, &s2).is_empty());
    }

    #[test]
    #[should_panic(expected = "one value per parameter")]
    fn short_parameter_vector_is_rejected() {
        // Two of three parameters: `eval` would read the third as false.
        let d = demo();
        let cfg = ParamConfig::extract(&d);
        Scg::new(&d, &cfg).specialize(&[true, true]);
    }

    #[test]
    fn dirty_frames_nonempty_for_different_params() {
        let d = demo();
        let cfg = ParamConfig::extract(&d);
        let scg = Scg::new(&d, &cfg);
        let s1 = scg.specialize(&[false, false, false]);
        let s2 = scg.specialize(&[true, true, true]);
        assert!(!scg.dirty_frames(&s1, &s2).is_empty());
    }
}
