//! Application graphs: dataflow of PE-level operations.
//!
//! The VCGRA tool flow (Fig. 2, right side) starts from an application
//! description whose primitives are whole Processing Elements — this is
//! what makes the flow orders of magnitude faster than gate-level
//! compilation. An [`AppGraph`] is that netlist-of-PEs: nodes are MAC /
//! MUL / ADD / PASS operations with optional coefficients, edges are
//! word-level dataflow.
//!
//! The builders cover the workloads of the retinal-vessel-segmentation
//! pipeline: dot products (filter kernels as multiply + adder-tree) and
//! elementwise stages.

use crate::pe::{PeMode, PeSettings};
use softfloat::{FpFormat, FpValue, NotIn};

/// Where an operand of a PE node comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppSource {
    /// External stream input with the given index.
    External(usize),
    /// Output of another node.
    Node(usize),
    /// Constant zero (unconnected operand).
    Zero,
}

/// One PE-level operation.
#[derive(Debug, Clone, Copy)]
pub struct AppNode {
    /// The PE mode this node needs.
    pub op: PeMode,
    /// Coefficient for MAC/MUL nodes.
    pub coeff: Option<FpValue>,
    /// First operand (`in_a` of the PE).
    pub a: AppSource,
    /// Second operand (`in_b` of the PE).
    pub b: AppSource,
}

impl AppNode {
    /// A MAC/MUL without the coefficient it multiplies by: what `add`
    /// refuses and `validate` calls [`GraphError::MissingCoeff`].
    fn lacks_coeff(&self) -> bool {
        matches!(self.op, PeMode::Mac | PeMode::Mul) && self.coeff.is_none()
    }
}

/// A dataflow graph of PE operations.
#[derive(Debug, Clone)]
pub struct AppGraph {
    /// Floating-point format of the datapath.
    pub format: FpFormat,
    /// Nodes in topological order (a node only references earlier nodes).
    pub nodes: Vec<AppNode>,
    /// Number of external stream inputs.
    pub num_inputs: usize,
    /// Indices of the nodes whose outputs are the application outputs.
    pub outputs: Vec<usize>,
}

/// Why an [`AppGraph`] is not a well-formed dataflow of PE operations.
/// The builders cannot produce one, but the graph's fields are public.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphError {
    /// The graph's format is one [`FpFormat::new`] refuses: its values
    /// have no meaningful bits.
    FormatOutOfRange {
        /// The graph's format.
        format: FpFormat,
    },
    /// The graph has no nodes: there is nothing to place.
    Empty,
    /// An operand names the node itself, a later one, or one the graph
    /// does not have.
    OperandNotEarlier {
        /// The consuming node.
        node: usize,
        /// The node index its operand names.
        operand: usize,
    },
    /// An operand names an external input the graph does not declare.
    ExternalOutOfRange {
        /// The consuming node.
        node: usize,
        /// The external index its operand names.
        index: usize,
        /// External inputs the graph declares.
        num_inputs: usize,
    },
    /// An output names a node the graph does not have.
    OutputOutOfRange {
        /// The node index the output names.
        output: usize,
        /// Nodes in the graph.
        nodes: usize,
    },
    /// A MAC/MUL node has no coefficient: it would multiply by zero, and
    /// no parameter swap could ever set one.
    MissingCoeff {
        /// The offending node.
        node: usize,
    },
    /// The node's coefficient is not in the graph's format
    /// ([`FpValue::bits_in`]).
    CoeffFormat {
        /// The offending node.
        node: usize,
        /// Why its coefficient is not.
        why: NotIn,
    },
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            GraphError::FormatOutOfRange { format } => write!(
                f,
                "format ({}, {}) has widths no datapath supports",
                format.we, format.wf
            ),
            GraphError::Empty => write!(f, "application graph has no nodes"),
            GraphError::OperandNotEarlier { node, operand } => {
                write!(
                    f,
                    "node {node} reads node {operand}, which is not an earlier node"
                )
            }
            GraphError::ExternalOutOfRange {
                node,
                index,
                num_inputs,
            } => {
                write!(f, "node {node} reads external {index} of {num_inputs}")
            }
            GraphError::OutputOutOfRange { output, nodes } => {
                write!(f, "output names node {output} of {nodes}")
            }
            GraphError::MissingCoeff { node } => {
                write!(f, "node {node} is a MAC/MUL without a coefficient")
            }
            GraphError::CoeffFormat { node, why } => {
                write!(
                    f,
                    "node {node}'s coefficient is not in the graph's format: {why}"
                )
            }
        }
    }
}

impl std::error::Error for GraphError {}

impl AppGraph {
    /// Creates an empty graph.
    pub fn new(format: FpFormat, num_inputs: usize) -> Self {
        Self {
            format,
            nodes: Vec::new(),
            num_inputs,
            outputs: Vec::new(),
        }
    }

    fn check_source(&self, s: AppSource) {
        match s {
            AppSource::External(i) => assert!(i < self.num_inputs, "input {i} out of range"),
            AppSource::Node(n) => {
                assert!(
                    n < self.nodes.len(),
                    "node {n} referenced before definition"
                )
            }
            AppSource::Zero => {}
        }
    }

    /// Adds a node and returns its index.
    pub fn add(&mut self, op: PeMode, coeff: Option<FpValue>, a: AppSource, b: AppSource) -> usize {
        self.check_source(a);
        self.check_source(b);
        let node = AppNode { op, coeff, a, b };
        assert!(!node.lacks_coeff(), "MAC/MUL nodes need a coefficient");
        self.nodes.push(node);
        self.nodes.len() - 1
    }

    /// Marks a node as an application output.
    pub fn mark_output(&mut self, node: usize) {
        assert!(node < self.nodes.len());
        self.outputs.push(node);
    }

    /// The graph-shape rules, in one place: a format [`FpFormat::new`]
    /// would make (checked first), at least one node, every
    /// operand an earlier node or a declared external, every output a node
    /// of the graph, a coefficient on every MAC/MUL node and every
    /// coefficient in the graph's format. The runtime
    /// checks them at `submit`, before a lease is taken; `map_app` and
    /// `ExecPlan::lower` check them again for callers that come direct.
    /// A graph that passes has a well-formed [`Self::pe_settings`] for
    /// every node: the settings are read from the graph, so no other copy
    /// of them can disagree with it.
    pub fn validate(&self) -> Result<(), GraphError> {
        if !self.format.is_valid() {
            return Err(GraphError::FormatOutOfRange {
                format: self.format,
            });
        }
        if self.nodes.is_empty() {
            return Err(GraphError::Empty);
        }
        for (node, n) in self.nodes.iter().enumerate() {
            for s in [n.a, n.b] {
                match s {
                    AppSource::Node(operand) if operand >= node => {
                        return Err(GraphError::OperandNotEarlier { node, operand });
                    }
                    AppSource::External(index) if index >= self.num_inputs => {
                        return Err(GraphError::ExternalOutOfRange {
                            node,
                            index,
                            num_inputs: self.num_inputs,
                        });
                    }
                    _ => {}
                }
            }
            if n.lacks_coeff() {
                return Err(GraphError::MissingCoeff { node });
            }
            if let Some(Err(why)) = n.coeff.map(|c| c.bits_in(self.format)) {
                return Err(GraphError::CoeffFormat { node, why });
            }
        }
        match self
            .outputs
            .iter()
            .find(|&&output| output >= self.nodes.len())
        {
            Some(&output) => Err(GraphError::OutputOutOfRange {
                output,
                nodes: self.nodes.len(),
            }),
            None => Ok(()),
        }
    }

    /// The settings register of the PE that runs `node`: the node's op,
    /// its coefficient (zero for a node without one) and an iteration
    /// counter of 1. This is the one source of a PE's settings — a
    /// mapping holds placement and routes only, so a compile shared by
    /// every tenant of one structure carries no tenant's parameters.
    pub fn pe_settings(&self, node: usize) -> PeSettings {
        let n = &self.nodes[node];
        PeSettings {
            coeff: n.coeff.unwrap_or_else(|| FpValue::zero(self.format)),
            counter: 1,
            mode: n.op,
        }
    }

    /// Number of PEs this graph needs.
    pub fn pe_demand(&self) -> usize {
        self.nodes.len()
    }

    /// Dataflow depth (longest node chain) — the virtual pipeline latency.
    pub fn depth(&self) -> usize {
        let mut d = vec![0usize; self.nodes.len()];
        for (i, n) in self.nodes.iter().enumerate() {
            let src_d = |s: AppSource| match s {
                AppSource::Node(j) => d[j] + 1,
                _ => 1,
            };
            d[i] = src_d(n.a).max(src_d(n.b));
        }
        self.outputs.iter().map(|&o| d[o]).max().unwrap_or(0)
    }

    /// Indices of the coefficient-bearing nodes (MAC/MUL), in node order.
    /// This is the parameter vector of the graph: two graphs with the same
    /// structure differ only in the values stored at these nodes.
    pub fn coeff_nodes(&self) -> Vec<usize> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.coeff.is_some())
            .map(|(i, _)| i)
            .collect()
    }

    /// Clone of the graph with new coefficients written into the
    /// coefficient-bearing nodes (in [`Self::coeff_nodes`] order). This is a
    /// parameter-only change: the structure — and therefore any placement or
    /// routing computed from it — is untouched.
    pub fn with_coeffs(&self, coeffs: &[FpValue]) -> AppGraph {
        let slots = self.coeff_nodes();
        assert_eq!(
            coeffs.len(),
            slots.len(),
            "one coefficient per MAC/MUL node"
        );
        let mut g = self.clone();
        for (&node, &c) in slots.iter().zip(coeffs) {
            assert_eq!(c.format, self.format, "coefficient format must match");
            g.nodes[node].coeff = Some(c);
        }
        g
    }

    /// What makes two graphs share a compile, as one word sequence: format,
    /// arity, node count, then per node its op, both operands (kind, index)
    /// and whether it carries a coefficient, then the outputs. Coefficient
    /// *values* are not in it. [`Self::same_structure`], the
    /// runtime's cache key and the shard tier's routing hash are all read
    /// off this sequence, so a new structural field is added here once.
    pub fn structure_words(&self) -> impl Iterator<Item = u64> + '_ {
        fn source(s: AppSource) -> [u64; 2] {
            match s {
                AppSource::External(i) => [0, i as u64],
                AppSource::Node(j) => [1, j as u64],
                AppSource::Zero => [2, 0],
            }
        }
        let head = [
            u64::from(self.format.we),
            u64::from(self.format.wf),
            self.num_inputs as u64,
            self.nodes.len() as u64,
        ];
        let nodes = self.nodes.iter().flat_map(|n| {
            let op = match n.op {
                PeMode::Mac => 0,
                PeMode::Mul => 1,
                PeMode::Add => 2,
                PeMode::Pass => 3,
            };
            let ([ta, va], [tb, vb]) = (source(n.a), source(n.b));
            [op, ta, va, tb, vb, u64::from(n.coeff.is_some())]
        });
        let outputs = self.outputs.iter().map(|&o| o as u64);
        head.into_iter()
            .chain(nodes)
            .chain([self.outputs.len() as u64])
            .chain(outputs)
    }

    /// True when two graphs share structure (ops, wiring, outputs, format)
    /// and differ at most in coefficient values — the condition under which
    /// one compiled configuration serves both via micro-reconfiguration.
    pub fn same_structure(&self, other: &AppGraph) -> bool {
        self.structure_words().eq(other.structure_words())
    }

    /// Reduces a layer of node indices with a balanced binary adder tree
    /// and returns the root node. Kernel builders — here and in the
    /// runtime's kernel library — share this one reduction so structurally
    /// equal graphs stay cache-key equal.
    pub fn reduce_add(&mut self, mut layer: Vec<usize>) -> usize {
        assert!(!layer.is_empty());
        while layer.len() > 1 {
            let mut next = Vec::with_capacity(layer.len().div_ceil(2));
            for pair in layer.chunks(2) {
                if pair.len() == 2 {
                    next.push(self.add(
                        PeMode::Add,
                        None,
                        AppSource::Node(pair[0]),
                        AppSource::Node(pair[1]),
                    ));
                } else {
                    next.push(pair[0]);
                }
            }
            layer = next;
        }
        layer[0]
    }

    /// Adds a MUL layer over consecutive external inputs: node `i` scales
    /// input `first + i` by `coeffs[i]`. Returns the nodes in order. Kernel
    /// builders share it, as they share [`Self::reduce_add`].
    pub fn mul_layer(&mut self, first: usize, coeffs: &[f64]) -> Vec<usize> {
        let format = self.format;
        coeffs
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                self.add(
                    PeMode::Mul,
                    Some(FpValue::from_f64(c, format)),
                    AppSource::External(first + i),
                    AppSource::Zero,
                )
            })
            .collect()
    }

    /// Builds a dot product `Σ coeffs[i] · x_i` over `coeffs.len()` external
    /// inputs: one MUL layer followed by a binary adder tree. This is the
    /// shape of every filter kernel in the vessel-segmentation pipeline.
    pub fn dot_product(format: FpFormat, coeffs: &[f64]) -> AppGraph {
        assert!(!coeffs.is_empty());
        let mut g = AppGraph::new(format, coeffs.len());
        let layer = g.mul_layer(0, coeffs);
        let root = g.reduce_add(layer);
        g.mark_output(root);
        g
    }

    /// Builds the same dot product as a chain (`out_i = x_i · c_i +
    /// out_{i-1}`): n MUL nodes and n − 1 accumulating ADD nodes, the same
    /// 2n − 1 PEs as [`Self::dot_product`] but a linear chain of depth n
    /// instead of an adder tree — the systolic shape.
    pub fn mac_chain(format: FpFormat, coeffs: &[f64]) -> AppGraph {
        assert!(!coeffs.is_empty());
        let mut g = AppGraph::new(format, coeffs.len());
        let mut prev: Option<usize> = None;
        for (i, &c) in coeffs.iter().enumerate() {
            let b = prev.map_or(AppSource::Zero, AppSource::Node);
            // "MAC over the bus": out = a * coeff + b. Encoded as a MUL
            // followed by ADD when b exists, i.e. two PEs per tap — the
            // builder keeps PE modes primitive.
            let m = g.add(
                PeMode::Mul,
                Some(FpValue::from_f64(c, format)),
                AppSource::External(i),
                AppSource::Zero,
            );
            let node = if let Some(_p) = prev {
                g.add(PeMode::Add, None, AppSource::Node(m), b)
            } else {
                m
            };
            prev = Some(node);
        }
        g.mark_output(prev.unwrap());
        g
    }

    /// Elementwise chain `y = ((x·c0) · c1) · c2 ...` (cascade of scalings,
    /// e.g. gain + normalization stages).
    pub fn scaling_cascade(format: FpFormat, coeffs: &[f64]) -> AppGraph {
        assert!(!coeffs.is_empty());
        let mut g = AppGraph::new(format, 1);
        let mut prev = AppSource::External(0);
        let mut last = 0;
        for &c in coeffs {
            last = g.add(
                PeMode::Mul,
                Some(FpValue::from_f64(c, format)),
                prev,
                AppSource::Zero,
            );
            prev = AppSource::Node(last);
        }
        g.mark_output(last);
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const F: FpFormat = FpFormat::PAPER;

    #[test]
    fn dot_product_structure() {
        let g = AppGraph::dot_product(F, &[1.0, 2.0, 3.0, 4.0, 5.0]);
        // 5 muls + adds(2+1+1) = 9 nodes, depth: mul + 3 add levels.
        assert_eq!(g.pe_demand(), 9);
        assert_eq!(g.outputs.len(), 1);
        assert_eq!(g.depth(), 4);
    }

    #[test]
    fn mac_chain_structure() {
        let g = AppGraph::mac_chain(F, &[0.5, 0.25, 0.125]);
        assert_eq!(g.pe_demand(), 5, "3 muls + 2 accumulate adds");
        assert_eq!(g.depth(), 3);
    }

    #[test]
    fn cascade_is_linear() {
        let g = AppGraph::scaling_cascade(F, &[2.0, 2.0, 2.0, 2.0]);
        assert_eq!(g.pe_demand(), 4);
        assert_eq!(g.depth(), 4);
    }

    #[test]
    fn coeff_swap_is_structure_preserving() {
        let g = AppGraph::dot_product(F, &[1.0, 2.0, 3.0]);
        let slots = g.coeff_nodes();
        assert_eq!(slots.len(), 3, "three MUL taps");
        let new: Vec<FpValue> = [9.0, 8.0, 7.0]
            .iter()
            .map(|&c| FpValue::from_f64(c, F))
            .collect();
        let h = g.with_coeffs(&new);
        assert!(g.same_structure(&h));
        assert_eq!(h.nodes[slots[0]].coeff.map(|c| c.to_f64()), Some(9.0));
        // Different structure: an extra tap.
        let k = AppGraph::dot_product(F, &[1.0, 2.0, 3.0, 4.0]);
        assert!(!g.same_structure(&k));
    }

    #[test]
    fn validate_names_the_first_broken_rule() {
        // The public fields admit what `add` and `mark_output` refuse.
        let good = AppGraph::dot_product(F, &[1.0, 2.0]);
        assert_eq!(good.validate(), Ok(()));
        let broken = |edit: fn(&mut AppGraph)| {
            let mut g = good.clone();
            edit(&mut g);
            g.validate().unwrap_err()
        };
        assert_eq!(AppGraph::new(F, 1).validate(), Err(GraphError::Empty));
        assert_eq!(
            broken(|g| g.nodes[2].b = AppSource::Node(2)),
            GraphError::OperandNotEarlier {
                node: 2,
                operand: 2
            }
        );
        assert_eq!(
            broken(|g| g.nodes[1].a = AppSource::Node(99)),
            GraphError::OperandNotEarlier {
                node: 1,
                operand: 99
            }
        );
        assert_eq!(
            broken(|g| g.nodes[0].a = AppSource::External(2)),
            GraphError::ExternalOutOfRange {
                node: 0,
                index: 2,
                num_inputs: 2
            }
        );
        assert_eq!(
            broken(|g| g.outputs.push(3)),
            GraphError::OutputOutOfRange {
                output: 3,
                nodes: 3
            }
        );
        assert_eq!(
            broken(|g| g.nodes[1].coeff = None),
            GraphError::MissingCoeff { node: 1 }
        );
        assert_eq!(
            broken(|g| g.nodes[1].coeff = Some(FpValue::from_f64(2.0, FpFormat::TINY))),
            GraphError::CoeffFormat {
                node: 1,
                why: NotIn::Format(FpFormat::TINY)
            }
        );
        assert_eq!(
            broken(|g| g.nodes[1].coeff = Some(FpValue {
                bits: u64::MAX,
                format: F
            })),
            GraphError::CoeffFormat {
                node: 1,
                why: NotIn::Bits(u64::MAX)
            }
        );
    }

    #[test]
    #[should_panic(expected = "one coefficient per MAC/MUL node")]
    fn coeff_swap_arity_checked() {
        let g = AppGraph::dot_product(F, &[1.0, 2.0, 3.0]);
        g.with_coeffs(&[FpValue::from_f64(1.0, F)]);
    }

    #[test]
    #[should_panic(expected = "referenced before definition")]
    fn forward_reference_rejected() {
        let mut g = AppGraph::new(F, 1);
        g.add(PeMode::Add, None, AppSource::Node(5), AppSource::Zero);
    }

    #[test]
    #[should_panic(expected = "need a coefficient")]
    fn mul_without_coeff_rejected() {
        let mut g = AppGraph::new(F, 1);
        g.add(PeMode::Mul, None, AppSource::External(0), AppSource::Zero);
    }
}
