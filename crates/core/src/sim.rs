//! Functional simulation of applications on the VCGRA.
//!
//! Dataflow graphs execute through [`crate::PeSettings::evaluate`], so every
//! arithmetic result is bit-exact with the FloPoCo netlists the CAD flow
//! maps (this is cross-checked by integration tests).
//!
//! Serving does not interpret the graph per item: [`ExecPlan::lower`]
//! folds a mapped application into a flat op list once per job — the
//! software counterpart of the paper folding rarely-changing settings
//! into the configuration — and [`ExecPlan::run_chunk`] streams a chunk
//! of items through it **lane-major** and **in place**: the chunk is
//! checked (arity and format, an [`ItemError`] otherwise) while it is
//! transposed into one `u64` column per value slot, each op runs over a
//! whole column of raw encodings (one [`FpKernel`] call) before the next
//! op starts — one instruction stream, many data lanes, like the fabric
//! under one configuration — and each item's vector is overwritten with
//! its outputs, so a chunk allocates nothing. `run_chunk` is the only
//! loop over the op list. [`run_dataflow`] is the per-item reference the
//! plan is tested against; both end in the same `FpKernel` arithmetic.
//! A plan needs no placement: every PE's settings come from the graph
//! ([`AppGraph::pe_settings`]), wherever the mapping put the node.

use crate::app::{AppGraph, AppSource, GraphError};
use crate::flow::VcgraMapping;
use crate::pe::PeMode;
use softfloat::{FpKernel, FpValue, NotIn};

/// Runs a stateless dataflow graph on one input vector.
///
/// `inputs[i]` feeds `AppSource::External(i)`. Returns the output values in
/// the order the graph declared them.
pub fn run_dataflow(app: &AppGraph, inputs: &[FpValue]) -> Vec<FpValue> {
    assert_eq!(inputs.len(), app.num_inputs, "one value per external input");
    let zero = FpValue::zero(app.format);
    let mut value = Vec::with_capacity(app.nodes.len());
    for (i, node) in app.nodes.iter().enumerate() {
        let read = |s: AppSource, value: &[FpValue]| match s {
            AppSource::External(k) => inputs[k],
            AppSource::Node(j) => value[j],
            AppSource::Zero => zero,
        };
        let a = read(node.a, &value);
        let b = read(node.b, &value);
        // Dataflow nodes are stateless: fb is not used by Mul/Add/Pass.
        let (out, _) = app.pe_settings(i).evaluate(a, b, zero);
        value.push(out);
    }
    app.outputs.iter().map(|&o| value[o]).collect()
}

/// Runs a mapped application on one input vector: asserts that the mapping
/// places every node, then runs the graph's dataflow. A PE's settings are
/// the graph's ([`AppGraph::pe_settings`]) wherever the node sits, so the
/// result is [`run_dataflow`]'s.
///
/// Kept, with this signature, until the benchmark's per-layer probe that
/// calls it is repointed at [`ExecPlan::run_chunk`] (ROADMAP 1(b)); its
/// deletion is ROADMAP 1(k).
pub fn run_mapped(mapping: &VcgraMapping, app: &AppGraph, inputs: &[FpValue]) -> Vec<FpValue> {
    assert_eq!(
        mapping.place.len(),
        app.nodes.len(),
        "the mapping places every node"
    );
    run_dataflow(app, inputs)
}

/// Why [`ExecPlan::run_chunk`] refused a chunk: the first lane whose item
/// the plan cannot read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ItemError {
    /// The item does not hold one value per external input.
    Arity {
        /// The offending lane.
        lane: usize,
        /// Values the item holds.
        got: usize,
    },
    /// A value of the item is not in the graph's format.
    Value {
        /// The offending lane.
        lane: usize,
        /// Why the item's first such value is not.
        why: NotIn,
    },
}

impl ItemError {
    /// The lane the error names.
    pub fn lane(&self) -> usize {
        match *self {
            ItemError::Arity { lane, .. } | ItemError::Value { lane, .. } => lane,
        }
    }
}

impl std::fmt::Display for ItemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            ItemError::Arity { lane, got } => write!(f, "lane {lane} holds {got} values"),
            ItemError::Value { lane, why } => write!(f, "lane {lane} holds {why}"),
        }
    }
}

impl std::error::Error for ItemError {}

/// One lowered node. Operands are columns of the scratch buffer; each
/// variant keeps only the arithmetic its mode's route selects keep, and a
/// coefficient is the raw encoding the column is multiplied by.
#[derive(Debug, Clone, Copy)]
enum PlanOp {
    Mul { a: usize, coeff: u64 },
    Mac { a: usize, coeff: u64 },
    Add { a: usize, b: usize },
    Pass { a: usize },
}

/// An application lowered for streaming: everything that does not depend
/// on the item — operand resolution, the route selects, the format's
/// shifts and masks — is done once by [`ExecPlan::lower`].
///
/// The scratch buffer holds one column of `lanes` raw encodings per value
/// slot, laid out `[zero | external inputs | node values]`, so every
/// operand is one column index.
#[derive(Debug, Clone)]
pub struct ExecPlan {
    kernel: FpKernel,
    num_inputs: usize,
    ops: Vec<PlanOp>,
    outputs: Vec<usize>,
}

impl ExecPlan {
    /// Lowers `app`. Checks once that the graph is well-formed
    /// ([`AppGraph::validate`]: every operand and output resolves, every
    /// coefficient is in the graph's format) — past this point values are
    /// bare bits.
    pub fn lower(app: &AppGraph) -> Result<ExecPlan, GraphError> {
        app.validate()?;
        let first_node = 1 + app.num_inputs;
        let mut ops = Vec::with_capacity(app.nodes.len());
        for (node, n) in app.nodes.iter().enumerate() {
            let coeff = app.pe_settings(node).coeff.bits;
            let slot = |s: AppSource| match s {
                AppSource::Zero => 0,
                AppSource::External(index) => 1 + index,
                AppSource::Node(operand) => first_node + operand,
            };
            let (a, b) = (slot(n.a), slot(n.b));
            ops.push(match n.op {
                PeMode::Mul => PlanOp::Mul { a, coeff },
                PeMode::Mac => PlanOp::Mac { a, coeff },
                PeMode::Add => PlanOp::Add { a, b },
                PeMode::Pass => PlanOp::Pass { a },
            });
        }
        let outputs = app
            .outputs
            .iter()
            .map(|&output| first_node + output)
            .collect();
        Ok(ExecPlan {
            kernel: FpKernel::new(app.format),
            num_inputs: app.num_inputs,
            ops,
            outputs,
        })
    }

    /// Runs a chunk of items, one lane each, in place: every item's vector
    /// is overwritten with its outputs, in the order the graph declared
    /// them (it grows if the graph has more outputs than inputs, and keeps
    /// its capacity otherwise). `columns` is working storage the caller
    /// keeps between chunks (of this or any other plan) so that none is
    /// allocated per chunk; its content on entry is irrelevant.
    ///
    /// Every lane is checked — one value per external input, each in the
    /// graph's format ([`FpValue::bits_in`]) — while it is transposed, and
    /// before any lane is overwritten: on an error, which names the first
    /// bad lane, every item is as the caller left it.
    pub fn run_chunk(
        &self,
        items: &mut [Vec<FpValue>],
        columns: &mut Vec<u64>,
    ) -> Result<(), ItemError> {
        let format = self.kernel.format();
        let lanes = items.len();
        let first_node = 1 + self.num_inputs;
        let slots = first_node + self.ops.len();
        // Every column is written below before anything reads it, so a
        // long enough buffer is taken as it comes.
        if columns.len() < slots * lanes {
            columns.resize(slots * lanes, 0);
        }
        let zero = FpValue::zero(format).bits;
        columns[..lanes].fill(zero);
        for (lane, item) in items.iter().enumerate() {
            if item.len() != self.num_inputs {
                return Err(ItemError::Arity {
                    lane,
                    got: item.len(),
                });
            }
            for (input, value) in item.iter().enumerate() {
                columns[(1 + input) * lanes + lane] = value
                    .bits_in(format)
                    .map_err(|why| ItemError::Value { lane, why })?;
            }
        }
        for (node, op) in self.ops.iter().enumerate() {
            // `lower` resolved every operand to an earlier slot.
            let (earlier, rest) = columns.split_at_mut((first_node + node) * lanes);
            let out = &mut rest[..lanes];
            let col = |slot: usize| &earlier[slot * lanes..][..lanes];
            match *op {
                PlanOp::Mul { a, coeff } => self.kernel.mul_const_col(col(a), coeff, out),
                // A dataflow MAC accumulates onto a zero feedback.
                PlanOp::Mac { a, coeff } => self.kernel.mac_const_col(col(a), coeff, out),
                PlanOp::Add { a, b } => self.kernel.add_col(col(a), col(b), out),
                PlanOp::Pass { a } => out.copy_from_slice(col(a)),
            }
        }
        for (lane, item) in items.iter_mut().enumerate() {
            item.clear();
            item.extend(self.outputs.iter().map(|&o| FpValue {
                bits: columns[o * lanes + lane],
                format,
            }));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use softfloat::FpFormat;

    const F: FpFormat = FpFormat::PAPER;

    fn fp(x: f64) -> FpValue {
        FpValue::from_f64(x, F)
    }

    #[test]
    fn dot_product_computes_correctly() {
        let coeffs = [0.5, -1.0, 2.0, 0.25];
        let app = AppGraph::dot_product(F, &coeffs);
        let xs = [4.0, 3.0, 2.0, 8.0];
        let inputs: Vec<FpValue> = xs.iter().map(|&x| fp(x)).collect();
        let out = run_dataflow(&app, &inputs);
        let expect: f64 = coeffs.iter().zip(&xs).map(|(c, x)| c * x).sum();
        assert_eq!(out[0].to_f64(), expect, "2 - 3 + 4 + 2 = 5");
    }

    #[test]
    fn mac_chain_equals_dot_product() {
        let coeffs = [1.5, 2.5, -0.5];
        let xs: Vec<FpValue> = [1.0, 2.0, 4.0].iter().map(|&x| fp(x)).collect();
        let tree = AppGraph::dot_product(F, &coeffs);
        let chain = AppGraph::mac_chain(F, &coeffs);
        let a = run_dataflow(&tree, &xs)[0];
        let b = run_dataflow(&chain, &xs)[0];
        // Same association order in this case (left fold vs balanced tree
        // can differ in rounding for adversarial values; these are exact).
        assert_eq!(a.to_f64(), b.to_f64());
    }

    #[test]
    fn mapped_execution_matches_pure_dataflow() {
        let coeffs = [1.0, 0.5, 0.25, 0.125, 2.0];
        let app = AppGraph::dot_product(F, &coeffs);
        let mapping =
            crate::flow::map_app(&app, crate::grid::VcgraArch::paper_4x4(), 5).expect("mappable");
        let inputs: Vec<FpValue> = [1.0, 2.0, 3.0, 4.0, 5.0].iter().map(|&x| fp(x)).collect();
        let direct = run_dataflow(&app, &inputs);
        let mapped = run_mapped(&mapping, &app, &inputs);
        assert_eq!(direct[0].bits, mapped[0].bits);
        let plan = ExecPlan::lower(&app).expect("lowers");
        // Dirty columns left by another plan must not leak in, whether
        // the buffer is longer or shorter than this chunk needs.
        let mut columns = vec![fp(7.0).bits; 40];
        let want = vec![mapped; 3];
        for lanes in [1, 3, 1, 0] {
            let mut items = vec![inputs.clone(); lanes];
            plan.run_chunk(&mut items, &mut columns).unwrap();
            assert_eq!(items, want[..lanes]);
            assert!(
                items.iter().all(|item| item.capacity() >= inputs.len()),
                "an item keeps its vector"
            );
        }
    }

    #[test]
    fn a_chunk_with_a_bad_lane_is_refused_whole() {
        let app = AppGraph::dot_product(F, &[1.0, 0.5]);
        let plan = ExecPlan::lower(&app).expect("lowers");
        let other = FpFormat::new(5, 10);
        let good = vec![fp(1.0), fp(2.0)];
        let cases = [
            (vec![fp(1.0)], ItemError::Arity { lane: 2, got: 1 }),
            (vec![fp(1.0); 3], ItemError::Arity { lane: 2, got: 3 }),
            (
                vec![fp(1.0), FpValue::from_f64(2.0, other)],
                ItemError::Value {
                    lane: 2,
                    why: NotIn::Format(other),
                },
            ),
            (
                vec![
                    fp(1.0),
                    FpValue {
                        bits: u64::MAX,
                        format: F,
                    },
                ],
                ItemError::Value {
                    lane: 2,
                    why: NotIn::Bits(u64::MAX),
                },
            ),
        ];
        for (bad, want) in cases {
            // A later bad lane does not hide the first one, and no lane —
            // before or after it — is overwritten.
            let mut items = vec![good.clone(), good.clone(), bad, good.clone(), vec![]];
            let before = items.clone();
            assert_eq!(plan.run_chunk(&mut items, &mut Vec::new()), Err(want));
            assert_eq!(items, before);
        }
    }

    #[test]
    fn a_mac_chain_runs_as_the_dataflow_runs_it() {
        // Each MAC multiplies the node before it and accumulates onto the
        // zero feedback: the chain meets -0 products (+0 · -0.5, and a
        // negative product that underflows), overflow, 0 · inf and NaN.
        let coeffs = [-0.5, 2f64.powi(-30), -3.0, 2f64.powi(30), 0.0, 1.5];
        let mut app = AppGraph::new(F, 1);
        for (i, &c) in coeffs.iter().enumerate() {
            let a = if i == 0 {
                AppSource::External(0)
            } else {
                AppSource::Node(i - 1)
            };
            app.add(PeMode::Mac, Some(fp(c)), a, AppSource::Zero);
            app.mark_output(i);
        }
        let mapping =
            crate::flow::map_app(&app, crate::grid::VcgraArch::paper_4x4(), 5).expect("mappable");
        let plan = ExecPlan::lower(&app).expect("lowers");
        let specials = [
            FpValue::signed_zero(F, true),
            FpValue::zero(F),
            FpValue::infinity(F, false),
            FpValue::infinity(F, true),
            FpValue::nan(F),
        ];
        let normals = [1.0, -1.0, 1e-3, -7.25, 3e5, -2f64.powi(-20)].map(fp);
        let items: Vec<Vec<FpValue>> = specials
            .into_iter()
            .chain(normals)
            .map(|x| vec![x])
            .collect();
        let want: Vec<Vec<FpValue>> = items.iter().map(|item| run_dataflow(&app, item)).collect();
        let negative_zero = |v: &FpValue| v.class() == softfloat::FpClass::Zero && v.sign();
        assert!(
            negative_zero(&fp(1e-3).mul(fp(-0.5)).mul(fp(coeffs[1]))),
            "a product is -0"
        );
        assert!(
            !want.iter().flatten().any(negative_zero),
            "and the accumulate makes it +0"
        );
        for item in &items {
            assert_eq!(run_mapped(&mapping, &app, item), run_dataflow(&app, item));
        }
        // One input, six outputs: every item's vector grows in place.
        let mut items = items;
        plan.run_chunk(&mut items, &mut Vec::new()).unwrap();
        assert_eq!(items, want);
    }

    #[test]
    fn columns_that_turn_mixed_mid_graph_run_as_the_dataflow_runs_them() {
        // Every input is Normal, so the first ops see all-Normal columns.
        // One lane each then underflows to a signed zero, overflows to
        // infinity and cancels exactly, and the ops after them read mixed
        // columns; one Add reads the zero column.
        let mut app = AppGraph::new(F, 2);
        let (x, y) = (AppSource::External(0), AppSource::External(1));
        let tiny = app.add(PeMode::Mul, Some(fp(2f64.powi(-20))), x, AppSource::Zero);
        let huge = app.add(PeMode::Mul, Some(fp(2f64.powi(20))), y, AppSource::Zero);
        let sum = app.add(PeMode::Add, None, x, y);
        let mixed = app.add(
            PeMode::Add,
            None,
            AppSource::Node(sum),
            AppSource::Node(tiny),
        );
        let plus_zero = app.add(PeMode::Add, None, AppSource::Node(huge), AppSource::Zero);
        let mac = app.add(
            PeMode::Mac,
            Some(fp(-0.75)),
            AppSource::Node(mixed),
            AppSource::Zero,
        );
        let normal = app.add(PeMode::Mul, Some(fp(0.5)), x, AppSource::Zero);
        let last = app.add(
            PeMode::Add,
            None,
            AppSource::Node(mac),
            AppSource::Node(plus_zero),
        );
        // Every node is an output, in node order: a node's index is its
        // output's.
        for node in [tiny, huge, sum, mixed, plus_zero, mac, normal, last] {
            app.mark_output(node);
        }
        let mut items: Vec<Vec<FpValue>> = (0..64)
            .map(|i| {
                let x = (i as f64 - 31.5) / 16.0;
                vec![fp(x), fp(1.0 - x / 3.0)]
            })
            .collect();
        items[0][0] = fp(-2f64.powi(-20)); // x · 2^-20 underflows to -0
        items[31][1] = fp(2f64.powi(15)); // y · 2^20 overflows to +inf
        items[63][1] = fp(-items[63][0].to_f64()); // x + y cancels to +0
        let want: Vec<Vec<FpValue>> = items.iter().map(|item| run_dataflow(&app, item)).collect();
        assert_eq!(want[0][tiny], FpValue::signed_zero(F, true));
        assert_eq!(want[31][huge], FpValue::infinity(F, false));
        assert_eq!(want[63][sum], FpValue::zero(F));
        let specials = |output: usize| {
            want.iter()
                .filter(|item| item[output].class() != softfloat::FpClass::Normal)
                .count()
        };
        assert_eq!(
            [tiny, huge, sum, mixed, plus_zero, mac, normal, last].map(specials),
            [1, 1, 1, 0, 1, 0, 0, 1],
            "a special lane per column where one arises, none where the sum absorbs it"
        );
        let plan = ExecPlan::lower(&app).expect("lowers");
        plan.run_chunk(&mut items, &mut Vec::new()).unwrap();
        for (lane, (got, want)) in items.iter().zip(&want).enumerate() {
            assert_eq!(got, want, "lane {lane}");
        }
    }

    #[test]
    fn lowering_rejects_what_run_mapped_would_panic_on() {
        // The graph's fields are public, so a caller can hand over one
        // that `AppGraph::add` would have refused.
        let app = AppGraph::dot_product(F, &[1.0, 0.5]);
        let mut forward = app.clone();
        forward.nodes[2].b = AppSource::Node(2);
        assert_eq!(
            ExecPlan::lower(&forward).unwrap_err(),
            GraphError::OperandNotEarlier {
                node: 2,
                operand: 2
            }
        );
        let mut external = app.clone();
        external.nodes[0].a = AppSource::External(2);
        assert_eq!(
            ExecPlan::lower(&external).unwrap_err(),
            GraphError::ExternalOutOfRange {
                node: 0,
                index: 2,
                num_inputs: 2
            }
        );
        let mut output = app.clone();
        output.outputs.push(3);
        assert_eq!(
            ExecPlan::lower(&output).unwrap_err(),
            GraphError::OutputOutOfRange {
                output: 3,
                nodes: 3
            }
        );
    }
}
