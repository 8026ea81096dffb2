//! Physical netlist extraction from a mapped design.
//!
//! LUTs become logic blocks; regular inputs and primary outputs become I/O
//! pads. TCONs dissolve into **tunable nets**: each TCON contributes one
//! net whose source set is the flattened set of its (transitive) choice
//! drivers and whose sinks are the pins that consume the TCON's signal.
//! Because at most one alternative is active for any parameter assignment,
//! the router lets all alternatives of one tunable net share wires — the
//! mechanism by which the paper maps intra- and inter-connections onto the
//! physical switch blocks.

use logic::fxhash::{FxHashMap, FxHashSet};
use mapping::{MappedDesign, MappedNode, Source};

/// What a placeable block is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockKind {
    /// A K-LUT logic block.
    Logic,
    /// An input pad (drives a net, consumes nothing).
    InputPad,
    /// An output pad (one input pin).
    OutputPad,
}

/// A placeable block.
#[derive(Debug, Clone)]
pub struct Block {
    /// Debug name.
    pub name: String,
    /// Site class this block may occupy.
    pub kind: BlockKind,
}

/// A routing net: one or more candidate sources, a set of sinks.
///
/// `sources.len() > 1` marks a tunable net (TCON alternatives).
#[derive(Debug, Clone)]
pub struct Net {
    /// Driving blocks (indices into [`ParNetlist::blocks`]).
    pub sources: Vec<u32>,
    /// Sinks as `(block, pin)`.
    pub sinks: Vec<(u32, u8)>,
}

impl Net {
    /// Tunable nets carry TCON alternatives.
    pub fn is_tunable(&self) -> bool {
        self.sources.len() > 1
    }
}

/// Blocks + nets, ready for place & route.
#[derive(Debug, Clone)]
pub struct ParNetlist {
    /// Placeable blocks.
    pub blocks: Vec<Block>,
    /// Routing nets.
    pub nets: Vec<Net>,
}

impl ParNetlist {
    /// Number of logic blocks.
    pub fn logic_count(&self) -> usize {
        self.blocks
            .iter()
            .filter(|b| b.kind == BlockKind::Logic)
            .count()
    }

    /// Number of I/O pads.
    pub fn io_count(&self) -> usize {
        self.blocks.len() - self.logic_count()
    }

    /// Number of tunable nets (flattened TCONs with at least 2 sources).
    pub fn tunable_net_count(&self) -> usize {
        self.nets.iter().filter(|n| n.is_tunable()).count()
    }
}

/// Flattens a mapped design into a physical netlist.
pub fn extract(design: &MappedDesign) -> ParNetlist {
    let mut blocks = Vec::new();
    // Input pads.
    let input_block: Vec<u32> = design
        .input_names
        .iter()
        .map(|n| {
            let id = blocks.len() as u32;
            blocks.push(Block {
                name: format!("in:{n}"),
                kind: BlockKind::InputPad,
            });
            id
        })
        .collect();
    // Logic blocks for LUT nodes.
    let mut lut_block: FxHashMap<u32, u32> = FxHashMap::default();
    for (i, node) in design.nodes.iter().enumerate() {
        if matches!(node, MappedNode::Lut(_)) {
            let id = blocks.len() as u32;
            blocks.push(Block {
                name: format!("lut{i}"),
                kind: BlockKind::Logic,
            });
            lut_block.insert(i as u32, id);
        }
    }

    // Resolve a source into the set of driving blocks (flattening TCONs).
    fn resolve(
        design: &MappedDesign,
        input_block: &[u32],
        lut_block: &FxHashMap<u32, u32>,
        s: &Source,
        out: &mut FxHashSet<u32>,
        visited: &mut FxHashSet<u32>,
    ) {
        match s {
            Source::Const(_) => {}
            Source::Input(i) => {
                out.insert(input_block[*i as usize]);
            }
            Source::Node(n) => match &design.nodes[*n as usize] {
                MappedNode::Lut(_) => {
                    out.insert(lut_block[n]);
                }
                MappedNode::Tcon(t) => {
                    if !visited.insert(*n) {
                        return;
                    }
                    for (cs, _) in &t.choices {
                        resolve(design, input_block, lut_block, cs, out, visited);
                    }
                }
            },
        }
    }

    // Nets: keyed by driver (normal) or by TCON node (tunable).
    #[derive(Hash, PartialEq, Eq, Clone, Copy)]
    enum NetKey {
        Block(u32),
        Tcon(u32),
    }
    let mut net_of: FxHashMap<NetKey, usize> = FxHashMap::default();
    let mut nets: Vec<Net> = Vec::new();

    let add_sink = |design: &MappedDesign,
                    nets: &mut Vec<Net>,
                    net_of: &mut FxHashMap<NetKey, usize>,
                    src: &Source,
                    sink: (u32, u8)| {
        let key = match src {
            Source::Const(_) => return, // constants need no routing
            Source::Input(i) => NetKey::Block(input_block[*i as usize]),
            Source::Node(n) => match &design.nodes[*n as usize] {
                MappedNode::Lut(_) => NetKey::Block(lut_block[n]),
                MappedNode::Tcon(_) => NetKey::Tcon(*n),
            },
        };
        let idx = *net_of.entry(key).or_insert_with(|| {
            let mut sources = FxHashSet::default();
            let mut visited = FxHashSet::default();
            resolve(
                design,
                &input_block,
                &lut_block,
                src,
                &mut sources,
                &mut visited,
            );
            let mut sources: Vec<u32> = sources.into_iter().collect();
            sources.sort_unstable();
            nets.push(Net {
                sources,
                sinks: Vec::new(),
            });
            nets.len() - 1
        });
        nets[idx].sinks.push(sink);
    };

    // LUT input pins.
    for (i, node) in design.nodes.iter().enumerate() {
        if let MappedNode::Lut(l) = node {
            let b = lut_block[&(i as u32)];
            for (pin, src) in l.inputs.iter().enumerate() {
                add_sink(design, &mut nets, &mut net_of, src, (b, pin as u8));
            }
        }
    }
    // Output pads.
    for o in &design.outputs {
        let pad = blocks.len() as u32;
        blocks.push(Block {
            name: format!("out:{}", o.name),
            kind: BlockKind::OutputPad,
        });
        add_sink(design, &mut nets, &mut net_of, &o.source, (pad, 0));
    }

    // Drop degenerate nets (no sources — e.g. a TCON whose every choice is
    // constant; its consumers read configuration memory, not routing).
    let nets = nets
        .into_iter()
        .filter(|n| !n.sources.is_empty() && !n.sinks.is_empty())
        .collect();

    ParNetlist { blocks, nets }
}

#[cfg(test)]
mod tests {
    use super::*;
    use logic::aig::{Aig, InputKind};
    use mapping::{map_conventional, map_parameterized, MapOptions};

    fn param_mux_design() -> MappedDesign {
        let mut g = Aig::new();
        let a = g.input("a", InputKind::Regular);
        let b = g.input("b", InputKind::Regular);
        let p = g.input("p", InputKind::Param);
        let f = g.mux(p, a, b);
        g.add_output("f", f); // forces the mux to exist as a mapped node
        let h = g.and(f, a);
        g.add_output("h", h);
        map_parameterized(&g, MapOptions::default())
    }

    #[test]
    fn tcon_becomes_multi_source_net() {
        let d = param_mux_design();
        let n = extract(&d);
        assert_eq!(n.tunable_net_count(), 1, "one TCON -> one tunable net");
        let t = n.nets.iter().find(|n| n.is_tunable()).unwrap();
        assert_eq!(t.sources.len(), 2, "choices a and b");
    }

    #[test]
    fn conventional_design_has_single_source_nets() {
        let mut g = Aig::new();
        let a = g.input("a", InputKind::Regular);
        let b = g.input("b", InputKind::Regular);
        let c = g.input("c", InputKind::Regular);
        let ab = g.and(a, b);
        let f = g.xor(ab, c);
        g.add_output("f", f);
        let d = map_conventional(&g, MapOptions::default());
        let n = extract(&d);
        assert_eq!(n.tunable_net_count(), 0);
        for net in &n.nets {
            assert_eq!(net.sources.len(), 1);
        }
        // 3 input pads + LUTs + 1 output pad.
        assert!(n.logic_count() >= 1);
        assert_eq!(n.io_count(), 4);
    }

    #[test]
    fn every_lut_pin_is_driven_once() {
        let d = param_mux_design();
        let n = extract(&d);
        let mut seen = std::collections::HashSet::new();
        for net in &n.nets {
            for &(b, p) in &net.sinks {
                if n.blocks[b as usize].kind == BlockKind::Logic {
                    assert!(seen.insert((b, p)), "pin ({b},{p}) driven twice");
                }
            }
        }
    }

    #[test]
    fn tunable_constant_generates_no_net() {
        let mut g = Aig::new();
        let p = g.input_vec("p", 2, InputKind::Param);
        let x = g.input("x", InputKind::Regular);
        let f = g.and(p[0], p[1]);
        let h = g.and(f, x); // h = (p0 & p1) & x — TLUT absorbs or TCON const
        g.add_output("h", h);
        let d = map_parameterized(&g, MapOptions::default());
        let n = extract(&d);
        for net in &n.nets {
            assert!(!net.sources.is_empty());
        }
    }
}
