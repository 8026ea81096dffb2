//! Template Configuration and Partial Parameterized Configuration.
//!
//! Every configurable bit of a mapped design gets an address in frame
//! space. Bits whose value is independent of the parameters go to the
//! template (TC); bits that are Boolean functions of the parameters go to
//! the PPC. The split is exactly Fig. 3's generic-stage output.

use logic::bdd::Bdd;
use mapping::{MappedDesign, MappedNode};

/// What kind of configurable element a bit belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConfigKind {
    /// A LUT truth-table bit.
    LutBit,
    /// A routing-switch selection bit (TCON).
    RoutingBit,
    /// A settings bit held directly in configuration memory (tunable
    /// constant — e.g. the VCGRA settings registers).
    SettingsBit,
}

/// Address of one configuration bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BitAddr {
    /// Configuration frame.
    pub frame: u32,
    /// Bit offset within the frame.
    pub offset: u32,
}

/// Bits per frame used when assigning addresses.
const FRAME_BITS: u32 = 64;

/// The generic-stage output: TC + PPC over one design.
pub struct ParamConfig {
    /// Static bits (template configuration).
    pub template: Vec<(BitAddr, bool, ConfigKind)>,
    /// Tunable bits: parameter functions (the PPC).
    pub ppc: Vec<(BitAddr, Bdd, ConfigKind)>,
    /// Parameter names, aligned with the design's BDD variables.
    pub param_names: Vec<String>,
    /// The distinct frames holding a tunable bit, ascending.
    pub(crate) frames: Vec<u32>,
    /// Per PPC entry, the index of its frame in `frames`. The PPC order
    /// interleaves LUT frames with routing frames (a TCON between two
    /// TLUTs), so a frame's entries are not one run: whoever accumulates
    /// per frame indexes by this, never by "same frame as the last entry".
    pub(crate) ppc_frame: Vec<u32>,
}

impl ParamConfig {
    /// Extracts TC and PPC from a mapped design.
    ///
    /// Frame addresses use an abstract column model: LUT bits pack
    /// `FRAME_BITS` (64) to a frame in node order; routing/settings bits
    /// live in a separate frame range. (The `fabric::frames` model refines
    /// this with placement information; the split and the counts are
    /// identical.)
    pub fn extract(design: &MappedDesign) -> ParamConfig {
        let mut template = Vec::new();
        let mut ppc = Vec::new();
        let mut lut_cursor: u32 = 0;
        let mut route_cursor: u32 = 0;
        const ROUTE_FRAME_BASE: u32 = 1 << 20;

        for node in &design.nodes {
            match node {
                MappedNode::Lut(l) => {
                    for &bit in &l.ptt {
                        let addr = BitAddr {
                            frame: lut_cursor / FRAME_BITS,
                            offset: lut_cursor % FRAME_BITS,
                        };
                        lut_cursor += 1;
                        if bit.is_const() {
                            template.push((addr, bit.is_true(), ConfigKind::LutBit));
                        } else {
                            ppc.push((addr, bit, ConfigKind::LutBit));
                        }
                    }
                }
                MappedNode::Tcon(t) => {
                    let kind = if t.choices.is_empty() {
                        ConfigKind::SettingsBit
                    } else {
                        ConfigKind::RoutingBit
                    };
                    // One selection bit per choice plus the two constant
                    // drivers (pull-0 / pull-1 switches).
                    let mut push_bit =
                        |b: Bdd,
                         template: &mut Vec<(BitAddr, bool, ConfigKind)>,
                         ppc: &mut Vec<(BitAddr, Bdd, ConfigKind)>| {
                            let addr = BitAddr {
                                frame: ROUTE_FRAME_BASE + route_cursor / FRAME_BITS,
                                offset: route_cursor % FRAME_BITS,
                            };
                            route_cursor += 1;
                            if b.is_const() {
                                template.push((addr, b.is_true(), kind));
                            } else {
                                ppc.push((addr, b, kind));
                            }
                        };
                    for (_, cond) in &t.choices {
                        push_bit(*cond, &mut template, &mut ppc);
                    }
                    push_bit(t.const0, &mut template, &mut ppc);
                    push_bit(t.const1, &mut template, &mut ppc);
                }
            }
        }
        let mut frames: Vec<u32> = ppc.iter().map(|(a, _, _)| a.frame).collect();
        frames.sort_unstable();
        frames.dedup();
        let ppc_frame = ppc
            .iter()
            .map(|(a, _, _)| frames.binary_search(&a.frame).expect("collected above") as u32)
            .collect();
        ParamConfig {
            template,
            ppc,
            param_names: design.param_names.clone(),
            frames,
            ppc_frame,
        }
    }

    /// Number of tunable bits.
    pub fn ppc_bits(&self) -> usize {
        self.ppc.len()
    }

    /// The distinct frames holding a tunable bit, ascending.
    pub fn frames(&self) -> &[u32] {
        &self.frames
    }

    /// Per PPC bit, the index of its frame in [`ParamConfig::frames`].
    pub fn ppc_frame(&self) -> &[u32] {
        &self.ppc_frame
    }

    /// Number of static bits.
    pub fn template_bits(&self) -> usize {
        self.template.len()
    }

    /// Distinct frames containing at least one tunable bit — the frame
    /// working set of a worst-case micro-reconfiguration.
    pub fn tunable_frames(&self) -> usize {
        self.frames.len()
    }

    /// PPC memory footprint: shared BDD nodes across all bit functions,
    /// counted as `logic::bdd` stores them — complement-edge nodes (a
    /// variable id and two links, one of which may carry a complement
    /// flag), so a function and its complement share every node. A plain
    /// ROBDD of the same functions has up to twice as many. At most
    /// `design.bdd.num_nodes() - 1`: the design's store also holds the
    /// TCON conditions' nodes.
    pub fn ppc_memory_nodes(&self, design: &MappedDesign) -> usize {
        design.bdd.shared_size(self.ppc.iter().map(|(_, b, _)| *b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use logic::aig::{Aig, InputKind};
    use mapping::{map_conventional, map_parameterized, MapOptions};

    fn demo_design() -> MappedDesign {
        let mut g = Aig::new();
        let a = g.input("a", InputKind::Regular);
        let b = g.input("b", InputKind::Regular);
        let p = g.input("p", InputKind::Param);
        let q = g.input("q", InputKind::Param);
        let f = g.mux(p, a, b);
        g.add_output("f", f);
        let h = g.xor(a, q);
        g.add_output("h", h);
        map_parameterized(&g, MapOptions::default())
    }

    #[test]
    fn tc_and_ppc_split() {
        let d = demo_design();
        let cfg = ParamConfig::extract(&d);
        assert!(cfg.ppc_bits() > 0, "tunable design must have PPC bits");
        let tunable = |kind| cfg.ppc.iter().any(|&(_, _, k)| k == kind);
        assert!(
            tunable(ConfigKind::RoutingBit),
            "TCON selections are routing bits"
        );
        assert!(tunable(ConfigKind::LutBit), "TLUT truth-table bits");
    }

    #[test]
    fn conventional_design_has_empty_ppc() {
        let mut g = Aig::new();
        let a = g.input("a", InputKind::Regular);
        let b = g.input("b", InputKind::Regular);
        let f = g.and(a, b);
        g.add_output("f", f);
        let d = map_conventional(&g, MapOptions::default());
        let cfg = ParamConfig::extract(&d);
        assert_eq!(cfg.ppc_bits(), 0);
        assert!(cfg.template_bits() > 0);
    }

    #[test]
    fn addresses_are_unique() {
        let d = demo_design();
        let cfg = ParamConfig::extract(&d);
        let mut seen = std::collections::HashSet::new();
        for (a, _, _) in &cfg.template {
            assert!(seen.insert(*a), "duplicate template address {a:?}");
        }
        for (a, _, _) in &cfg.ppc {
            assert!(seen.insert(*a), "duplicate PPC address {a:?}");
        }
    }

    #[test]
    fn ppc_memory_is_positive_and_shared() {
        let d = demo_design();
        let cfg = ParamConfig::extract(&d);
        let mem = cfg.ppc_memory_nodes(&d);
        assert!(mem >= 1);
        // Sharing: total shared size can't exceed the sum of individual sizes.
        let sum: usize = cfg.ppc.iter().map(|(_, b, _)| d.bdd.size(*b)).sum();
        assert!(mem <= sum);
    }
}
