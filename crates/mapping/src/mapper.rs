//! Cut-based K-LUT mapping with parameterized truth tables (TCONMAP).
//!
//! The engine enumerates priority cuts bottom-up over the live AIG. Cut
//! leaves are always *non-parameter* nodes — parameter inputs never become
//! leaves, they are folded into the cut's **parameterized truth table**
//! (PTT): a vector of `2^k` BDDs over the parameter variables, one Boolean
//! function per minterm of the `k` regular leaves.
//!
//! From the PTT the two tunable primitives of the paper fall out directly:
//!
//! * the cut is a **TLUT** if `k ≤ K`: the PTT entries become the LUT's
//!   configuration-bit functions (constant entries = ordinary LUT bits);
//! * the node is a **TCON** if, for every parameter assignment, its function
//!   equals one of the leaves (in either polarity) or a constant. With
//!   `C_i^q = ∧_m (ptt[m] ≡ bit_i(m) ⊕ q)` and `C_0/C_1` the constant
//!   conditions, the node is a TCON iff `C_0 ∨ C_1 ∨ ⋁_{i,q} C_i^q` is a
//!   tautology. The conditions are pairwise disjoint and become
//!   routing-switch configuration bits.
//!
//! The map runs in three phases:
//!
//! 1. the **forward pass** gives every node its priority cuts, kept in
//!    rank order — arrival, then area flow, then leaf count ([`by_rank`])
//!    — with the trivial cut `{node}` last, for parents only;
//! 2. the **cover** walks back from the outputs and implements each node it
//!    reaches by its first cut: a TCON if the cut is one, else a LUT over
//!    the leaves its PTT depends on;
//! 3. **one ascending pass** assigns polarity and emits. Physical routing
//!    cannot invert a signal, so every mapped node gets a static `inv` flag
//!    (its wire carries `f ⊕ inv`): LUT consumers absorb inverted inputs by
//!    permuting their truth tables, and a TCON whose choices would need
//!    inconsistent polarities is demoted to a TLUT. Leaves have lower ids
//!    than their consumers, so their flags are set by then.
//!
//! # Where the time goes, and what keeps it small
//!
//! The tautology check is the expensive question and almost always
//! answered "no". Per evaluated cut, cheapest first:
//!
//! 1. the **signature caches**: the PTT conjunction keyed by its two
//!    operand PTTs, the TCON verdict keyed by the PTT — 83 % and 85 % hits
//!    on the half-precision PE. Because every [`Bdd`] handle is canonical,
//!    a hit returns exactly the functions a recomputation would have, and
//!    `tests/identity.rs` pins the designs' function-level fingerprints
//!    and the cache counters. Signatures are shared (`Rc`) between cuts
//!    and cache entries, and the operand pair is assembled in one reused
//!    buffer, so a hit allocates nothing;
//! 2. on a miss, `refutes_tcon`: specialise the PTT under four fixed
//!    parameter assignments and look at the `2^k`-bit tables. One that is
//!    neither a constant nor a leaf is a counterexample to the cover —
//!    four fifths of the misses end here, without creating a BDD node;
//! 3. `tcon_check`, the exact cover, for what is left (nine in ten of
//!    these are accepted).
//!
//! # What the map holds, and until when
//!
//! The forward pass is where the map's memory peaks. A node's full cut
//! set (up to `cuts_per_node` ranked cuts plus the trivial one) is read
//! only by the AND nodes that merge it; the cover and the emit pass read
//! just its first cut. So the pass counts each node's live AND fanouts,
//! and when the last of them has merged the node's cuts, the set shrinks
//! to its first cut ([`MapEffort::cuts_held_peak`] counts the most cuts
//! held at once). The signature caches, the per-node arrays and the
//! first cuts live until the emit pass is done; the scratch BDD manager
//! lives on as the design's store, compacted.
//!
//! The BDD manager is scratch: [`BddManager::compact`] hands the design
//! the ≈ 6 % of the nodes its emitted handles reach, renumbered by
//! function, so two maps of one netlist agree handle for handle whatever
//! either of them computed on the way.

use crate::design::{MappedDesign, MappedNode, MappedOutput, Source, Tcon, Tlut};
use logic::aig::{Aig, InputKind, Node};
use logic::bdd::{Bdd, BddManager};
use logic::fxhash::{FxHashMap, FxHashSet};
use logic::tt::TruthTable;
use std::cmp::Ordering;
use std::rc::Rc;

/// LUT input count K: the paper's VPR 4-LUT architecture, the `k` of
/// `fabric::FabricArch::paper_4lut` that every mapped design is placed on.
const K: usize = 4;

/// Mapper options.
#[derive(Debug, Clone, Copy)]
pub struct MapOptions {
    /// Priority cuts kept per node.
    pub cuts_per_node: usize,
}

impl Default for MapOptions {
    fn default() -> Self {
        Self { cuts_per_node: 6 }
    }
}

/// Candidate cuts per node that receive the full (expensive) PTT
/// construction and TCON tautology check. Candidates beyond this budget —
/// pre-ranked by a cheap LUT-cost bound computed from leaf sets alone —
/// are discarded without touching the BDD manager. The value preserves
/// the mapping QoR of the test designs and the paper PE bit-for-bit
/// (verified against the unlimited enumeration) while cutting mapping
/// time ~20 % on the paper-scale PE.
const CUT_EVAL_LIMIT: usize = 12;

/// Work counters for one mapping run: how often the per-cut signature
/// caches (module doc) and the counterexample filter short-circuited BDD
/// work, and how much of the BDD work the design kept. The `map` span
/// carries the same numbers as end-args. The `bdd_*` fields but
/// `bdd_nodes_kept` are release-profile numbers: debug builds also run the
/// exact check behind every refutation, to cross-check the filter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MapEffort {
    /// TCON tautology checks requested (cache hits + misses).
    pub tcon_checks: usize,
    /// TCON checks answered from the cut-signature cache.
    pub tcon_cache_hits: usize,
    /// PTT conjunctions requested (cache hits + misses).
    pub ptt_merges: usize,
    /// PTT conjunctions answered from the signature cache.
    pub ptt_cache_hits: usize,
    /// Cache-miss TCON checks a counterexample refuted before the exact
    /// check (release builds skip it; debug builds run it to cross-check).
    pub tcon_refuted: usize,
    /// Cache-miss TCON checks the exact check accepted.
    pub tcon_accepted: usize,
    /// Evaluated cuts whose PTT is all constants (no parameter in the cone).
    pub const_ptt_cuts: usize,
    /// BDD nodes the map's scratch manager held when the map finished
    /// (terminal included).
    pub bdd_nodes_created: usize,
    /// BDD nodes the returned design's store holds (terminal included).
    pub bdd_nodes_kept: usize,
    /// Computed-table lookups of the BDD kernel during the map.
    pub bdd_lookups: u64,
    /// Lookups the computed table answered.
    pub bdd_hits: u64,
    /// The most cuts the forward pass held at once (trivial cuts
    /// included): each node's full cut set lives until its last AND
    /// fanout has merged it, then only its first cut stays.
    pub cuts_held_peak: usize,
}

/// Conventional flow: parameters are treated as regular inputs and the
/// result contains only plain LUTs (the Table I baseline).
pub fn map_conventional(aig: &Aig, opts: MapOptions) -> MappedDesign {
    run_map(aig, opts, false).0
}

/// Parameterized flow: honors `InputKind::Param`, extracts TLUTs and TCONs.
pub fn map_parameterized(aig: &Aig, opts: MapOptions) -> MappedDesign {
    run_map(aig, opts, true).0
}

/// [`map_parameterized`] plus the work counters.
pub fn map_parameterized_with_effort(aig: &Aig, opts: MapOptions) -> (MappedDesign, MapEffort) {
    run_map(aig, opts, true)
}

struct TconCand {
    /// (leaf position, polarity q, activation condition): under the
    /// condition, `f == leaf ⊕ q`. Conditions are pairwise disjoint.
    choices: Vec<(usize, bool, Bdd)>,
    const0: Bdd,
    const1: Bdd,
}

/// The cut order, best first: arrival, then area flow, then leaf count.
/// Takes [`Cut::rank`] and [`Cand::rank`].
fn by_rank(x: (u32, f32, usize), y: (u32, f32, usize)) -> Ordering {
    x.0.cmp(&y.0).then(x.1.total_cmp(&y.1)).then(x.2.cmp(&y.2))
}

struct Cut {
    /// Sorted AIG node ids of the regular leaves.
    leaves: Vec<u32>,
    /// `2^leaves.len()` parameter functions.
    ptt: Rc<[Bdd]>,
    /// Arrival (LUT levels) when implementing the node with this cut.
    arr: u32,
    /// Area flow: own cost (1 LUT / 0.35 TCON) + shared leaf cost estimate.
    af: f32,
    /// TCON candidacy (computed only in the parameterized flow).
    tcon: Option<Rc<TconCand>>,
}

impl Cut {
    /// The trivial cut `{node}`: it lets parents use the node as a leaf and
    /// never implements the node. Parents cost a leaf by its `arrival` and
    /// `aflow`, so this cut's own cost is never read.
    fn trivial(node: u32) -> Cut {
        Cut {
            leaves: vec![node],
            ptt: Rc::new([Bdd::FALSE, Bdd::TRUE]),
            arr: 0,
            af: 0.0,
            tcon: None,
        }
    }

    /// The cut of a node that is the parameter function `f` (a constant or
    /// a parameter input): no leaf, and a TCON onto the constants.
    fn leafless(f: Bdd, not_f: Bdd) -> Cut {
        Cut {
            leaves: vec![],
            ptt: Rc::new([f]),
            arr: 0,
            af: 0.0,
            tcon: Some(Rc::new(TconCand {
                choices: vec![],
                const0: not_f,
                const1: f,
            })),
        }
    }

    fn rank(&self) -> (u32, f32, usize) {
        (self.arr, self.af, self.leaves.len())
    }
}

/// A candidate leaf set of an AND node before its PTT is built: the
/// operand cuts it merges, costed as a plain LUT from its leaves alone.
struct Cand {
    leaves: Vec<u32>,
    /// Indices of the merged cuts in the two operands' cut sets.
    operands: (usize, usize),
    arr: u32,
    af: f32,
}

impl Cand {
    fn rank(&self) -> (u32, f32, usize) {
        (self.arr, self.af, self.leaves.len())
    }
}

/// The sorted union of two sorted leaf sets, or `None` past `K` leaves.
fn union_leaves(a: &[u32], b: &[u32]) -> Option<Vec<u32>> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() || j < b.len() {
        if out.len() == K {
            return None;
        }
        let x = a.get(i).copied().unwrap_or(u32::MAX);
        let y = b.get(j).copied().unwrap_or(u32::MAX);
        out.push(x.min(y));
        i += usize::from(x <= y);
        j += usize::from(y <= x);
    }
    Some(out)
}

/// Appends `child`'s PTT re-indexed over the `merged` leaf set (and
/// complemented if `negate`) to `out`.
fn expand_ptt(bdd: &mut BddManager, out: &mut Vec<Bdd>, child: &Cut, merged: &[u32], negate: bool) {
    // Position of every child leaf within the merged leaf set.
    let mut pos = [0usize; 6];
    for (p, l) in pos.iter_mut().zip(&child.leaves) {
        *p = merged.binary_search(l).expect("child leaves ⊆ merged");
    }
    let pos = &pos[..child.leaves.len()];
    for m in 0..1usize << merged.len() {
        let mut mc = 0usize;
        for (ci, &mp) in pos.iter().enumerate() {
            mc |= ((m >> mp) & 1) << ci;
        }
        let e = child.ptt[mc];
        out.push(if negate { bdd.not(e) } else { e });
    }
}

fn and_ptt(bdd: &mut BddManager, a: &[Bdd], b: &[Bdd]) -> Rc<[Bdd]> {
    a.iter().zip(b).map(|(&x, &y)| bdd.and(x, y)).collect()
}

/// The fixed parameter assignments [`refutes_tcon`] specialises a PTT
/// under: all-0, all-1 and the two alternating stripes.
fn refutation_probes(nparams: usize) -> [Vec<bool>; 4] {
    [
        vec![false; nparams],
        vec![true; nparams],
        (0..nparams).map(|v| v % 2 == 0).collect(),
        (0..nparams).map(|v| v % 2 == 1).collect(),
    ]
}

/// Refutes TCON candidacy by counterexample: true if, under one of the
/// `probes`, the specialised `2^k`-bit table is neither a constant nor a
/// leaf in either polarity — a parameter assignment outside the cover, so
/// [`tcon_check`] must answer `None`. False says nothing. Reads the
/// manager only: a refuted cut creates no node.
fn refutes_tcon(bdd: &BddManager, ptt: &[Bdd], k: usize, probes: &[Vec<bool>]) -> bool {
    let full = TruthTable::mask(k);
    probes.iter().any(|p| {
        let table = ptt
            .iter()
            .enumerate()
            .fold(0u64, |t, (m, &e)| t | (bdd.eval(e, p) as u64) << m);
        table != 0
            && table != full
            && !(0..k).any(|i| {
                let leaf = TruthTable::var(i, k).bits();
                table == leaf || table == leaf ^ full
            })
    })
}

/// The exact TCON check: builds the constant and per-leaf conditions of
/// the module doc and accepts iff they cover every parameter assignment.
fn tcon_check(bdd: &mut BddManager, ptt: &[Bdd], k: usize) -> Option<TconCand> {
    let mut const0 = Bdd::TRUE;
    let mut const1 = Bdd::TRUE;
    for &e in ptt {
        let ne = bdd.not(e);
        const0 = bdd.and(const0, ne);
        const1 = bdd.and(const1, e);
        if const0.is_false() && const1.is_false() {
            break;
        }
    }
    let mut cover = bdd.or(const0, const1);
    let mut choices = Vec::new();
    for i in 0..k {
        for q in [false, true] {
            let mut ci = Bdd::TRUE;
            for (m, &e) in ptt.iter().enumerate() {
                let bit = ((m >> i) & 1 == 1) ^ q;
                let term = if bit { e } else { bdd.not(e) };
                ci = bdd.and(ci, term);
                if ci.is_false() {
                    break;
                }
            }
            if !ci.is_false() {
                cover = bdd.or(cover, ci);
                choices.push((i, q, ci));
            }
        }
    }
    if cover.is_true() {
        Some(TconCand {
            choices,
            const0,
            const1,
        })
    } else {
        None
    }
}

/// TCON candidacy of a cut on the cache-miss path: the counterexample
/// filter, then the exact check. Debug builds run the exact check behind
/// every refutation too and assert the two agree, so every design a test
/// maps audits the filter.
fn tcon_candidate(
    bdd: &mut BddManager,
    ptt: &[Bdd],
    k: usize,
    probes: &[Vec<bool>],
    effort: &mut MapEffort,
) -> Option<Rc<TconCand>> {
    let refuted = refutes_tcon(bdd, ptt, k, probes);
    if refuted {
        effort.tcon_refuted += 1;
        if !cfg!(debug_assertions) {
            return None;
        }
    }
    let cand = tcon_check(bdd, ptt, k);
    debug_assert!(
        !(refuted && cand.is_some()),
        "counterexample against an accepted TCON"
    );
    effort.tcon_accepted += usize::from(cand.is_some());
    cand.map(Rc::new)
}

/// The polarity a TCON's wire carries so that it routes each choice's
/// leaf wire as it is: `q ⊕ inv[leaf]` for every choice `(leaf, q)`, false
/// without choices. `None` if the choices disagree.
fn tcon_invert(leaves: &[u32], cand: &TconCand, inv: &[bool]) -> Option<bool> {
    let mut req = cand
        .choices
        .iter()
        .map(|&(pos, q, _)| q ^ inv[leaves[pos] as usize]);
    let first = req.next().unwrap_or(false);
    req.all(|r| r == first).then_some(first)
}

/// A LUT over `leaves`, whose wires carry `inv`: it absorbs each inverted
/// leaf by permuting its PTT.
fn lut(leaves: &[u32], ptt: Vec<Bdd>, inv: &[bool], src: impl Fn(u32) -> Source) -> MappedNode {
    let flip = leaves
        .iter()
        .enumerate()
        .fold(0usize, |m, (i, &l)| m | usize::from(inv[l as usize]) << i);
    let ptt = if flip == 0 {
        ptt
    } else {
        (0..ptt.len()).map(|m| ptt[m ^ flip]).collect()
    };
    MappedNode::Lut(Tlut {
        inputs: leaves.iter().map(|&l| src(l)).collect(),
        ptt,
    })
}

/// Drops cut leaves the function does not depend on and compacts the PTT
/// accordingly. The cover calls it for the leaves a LUT needs, the emit
/// pass for the LUT itself — for a demoted TCON too, whose function
/// provably depends only on its *selected* leaves (the never-selected ones
/// were not covered and must not be emitted).
fn prune_lut(leaves: &[u32], ptt: &[Bdd]) -> (Vec<u32>, Vec<Bdd>) {
    let k = leaves.len();
    let needed: Vec<usize> = (0..k)
        .filter(|&i| (0..1usize << k).any(|m| (m >> i) & 1 == 0 && ptt[m] != ptt[m | 1 << i]))
        .collect();
    let pruned_ptt = (0..1usize << needed.len())
        .map(|m| {
            let full = needed
                .iter()
                .enumerate()
                .fold(0usize, |full, (new_i, &old_i)| {
                    full | ((m >> new_i) & 1) << old_i
                });
            ptt[full]
        })
        .collect();
    (needed.iter().map(|&i| leaves[i]).collect(), pruned_ptt)
}

/// Drops all but the first cut of a spent cut set — the one cut the cover
/// and the emit pass read — and returns how many cuts went.
fn keep_first_cut(cuts: &mut Vec<Cut>) -> usize {
    let dropped = cuts.len().saturating_sub(1);
    cuts.truncate(1);
    cuts.shrink_to_fit();
    dropped
}

/// The mapper. `honor_params` selects the flow: set, `InputKind::Param`
/// inputs fold into PTTs and TCONs are extracted; clear, every input is a
/// regular one and no TCON check runs.
fn run_map(aig: &Aig, opts: MapOptions, honor_params: bool) -> (MappedDesign, MapEffort) {
    let mut map_span = trace::span("map");
    map_span.arg("nodes", aig.num_nodes());
    map_span.arg("parameterized", honor_params);
    let mut bdd = BddManager::new();
    let n = aig.num_nodes();
    let live = aig.live_nodes();
    // Per-cut memo tables. Structurally repeated cones (ripple chains,
    // bit-sliced datapaths) reach the same PTT signature over and over.
    // Keys are vectors of canonical handles, so key equality is function
    // equality; values replay the exact handles the original computation
    // produced. The conjunction's key is its two operand PTTs back to
    // back, assembled in `operands` and looked up as a slice.
    let mut effort = MapEffort::default();
    let mut tcon_cache: FxHashMap<Rc<[Bdd]>, Option<Rc<TconCand>>> = FxHashMap::default();
    let mut ptt_cache: FxHashMap<Vec<Bdd>, Rc<[Bdd]>> = FxHashMap::default();
    let mut operands: Vec<Bdd> = Vec::new();

    // Per AIG input: its regular-input index, or its parameter's BDD var.
    let mut input_names = Vec::new();
    let mut param_names = Vec::new();
    let mut reg_index: Vec<Option<u32>> = vec![None; n];
    let mut param_var: Vec<Option<u32>> = vec![None; n];
    for info in aig.inputs() {
        if honor_params && info.kind == InputKind::Param {
            param_var[info.node as usize] = Some(param_names.len() as u32);
            param_names.push(info.name.clone());
        } else {
            reg_index[info.node as usize] = Some(input_names.len() as u32);
            input_names.push(info.name.clone());
        }
    }

    let probes = refutation_probes(param_names.len());

    // ---- forward pass: each node's priority cuts, in rank order ----
    let cuts_span = trace::span("map.cuts");
    let fanout = aig.fanouts();
    // pending[id]: live AND nodes that have yet to merge `id`'s cuts. At
    // zero, the node's cut set is spent but for the first cut.
    let mut pending = vec![0u32; n];
    for (_, node) in aig.iter_nodes().filter(|(id, _)| live[*id as usize]) {
        if let Node::And(a, b) = node {
            pending[a.node() as usize] += 1;
            pending[b.node() as usize] += 1;
        }
    }
    let mut cuts_held = 0usize;
    let mut cutsets: Vec<Vec<Cut>> = Vec::with_capacity(n);
    let mut arrival = vec![0u32; n];
    let mut aflow = vec![0f32; n];
    for (id, node) in aig.iter_nodes() {
        let idu = id as usize;
        if !live[idu] && !matches!(node, Node::Input(_)) {
            cutsets.push(Vec::new());
            continue;
        }
        let cuts = match node {
            Node::Const => vec![Cut::leafless(Bdd::FALSE, Bdd::TRUE)],
            Node::Input(_) => match param_var[idu] {
                Some(v) => vec![Cut::leafless(bdd.var(v), bdd.nvar(v))],
                None => vec![Cut::trivial(id)],
            },
            Node::And(a, b) => {
                let (cuts_a, cuts_b) = (&cutsets[a.node() as usize], &cutsets[b.node() as usize]);
                let leaf_cost =
                    |l: u32| -> f32 { aflow[l as usize] / (fanout[l as usize].max(1) as f32) };
                // Phase 1 — candidate leaf sets, each costed as a plain LUT
                // from its leaves alone; no BDD work yet.
                let mut cands: Vec<Cand> = Vec::new();
                let mut seen: FxHashSet<Vec<u32>> = FxHashSet::default();
                for (cai, ca) in cuts_a.iter().enumerate() {
                    for (cbi, cb) in cuts_b.iter().enumerate() {
                        let Some(leaves) = union_leaves(&ca.leaves, &cb.leaves) else {
                            continue;
                        };
                        if seen.contains(&leaves) {
                            continue;
                        }
                        seen.insert(leaves.clone());
                        let arr = 1 + leaves
                            .iter()
                            .map(|&l| arrival[l as usize])
                            .max()
                            .unwrap_or(0);
                        let af = 1.0 + leaves.iter().map(|&l| leaf_cost(l)).sum::<f32>();
                        cands.push(Cand {
                            leaves,
                            operands: (cai, cbi),
                            arr,
                            af,
                        });
                    }
                }
                // Phase 2 — run the expensive PTT construction and TCON
                // tautology check only on the best `CUT_EVAL_LIMIT`
                // candidates. The tie-break on the leaf vector keeps the
                // ranking fully deterministic.
                let eval_budget = CUT_EVAL_LIMIT.max(opts.cuts_per_node);
                if cands.len() > eval_budget {
                    cands.sort_by(|x, y| {
                        by_rank(x.rank(), y.rank()).then_with(|| x.leaves.cmp(&y.leaves))
                    });
                    cands.truncate(eval_budget);
                }
                let mut merged: Vec<Cut> = Vec::with_capacity(cands.len());
                for c in cands {
                    let (leaves, (cai, cbi)) = (c.leaves, c.operands);
                    // Both operand PTTs over the merged leaves, back to
                    // back: the conjunction's signature.
                    operands.clear();
                    expand_ptt(&mut bdd, &mut operands, &cuts_a[cai], &leaves, a.is_neg());
                    expand_ptt(&mut bdd, &mut operands, &cuts_b[cbi], &leaves, b.is_neg());
                    let (fa, fb) = operands.split_at(1 << leaves.len());
                    effort.ptt_merges += 1;
                    let ptt = match ptt_cache.get(operands.as_slice()) {
                        Some(p) => {
                            effort.ptt_cache_hits += 1;
                            p.clone()
                        }
                        None => {
                            let p = and_ptt(&mut bdd, fa, fb);
                            ptt_cache.insert(operands.clone(), p.clone());
                            p
                        }
                    };
                    effort.const_ptt_cuts += usize::from(ptt.iter().all(|e| e.is_const()));
                    let tcon = if !honor_params {
                        None
                    } else {
                        effort.tcon_checks += 1;
                        match tcon_cache.get(&*ptt) {
                            Some(c) => {
                                effort.tcon_cache_hits += 1;
                                c.clone()
                            }
                            None => {
                                let c = tcon_candidate(
                                    &mut bdd,
                                    &ptt,
                                    leaves.len(),
                                    &probes,
                                    &mut effort,
                                );
                                tcon_cache.insert(ptt.clone(), c.clone());
                                c
                            }
                        }
                    };
                    // A TCON is LUT-free: it arrives with its latest
                    // selectable leaf, whose costs it shares through the
                    // fanout estimate (classic area flow). It consumes
                    // routing switches, though: a small area cost makes
                    // the mapper absorb it into a TLUT cone when one is
                    // available at no extra LUTs (TCONMAP's preference).
                    let (arr, af) = match &tcon {
                        None => (c.arr, c.af),
                        Some(tc) => (
                            tc.choices
                                .iter()
                                .map(|&(pos, _, _)| arrival[leaves[pos] as usize])
                                .max()
                                .unwrap_or(0),
                            0.35 + tc
                                .choices
                                .iter()
                                .map(|&(pos, _, _)| leaf_cost(leaves[pos]))
                                .sum::<f32>(),
                        ),
                    };
                    merged.push(Cut {
                        leaves,
                        ptt,
                        arr,
                        af,
                        tcon,
                    });
                }
                debug_assert!(!merged.is_empty(), "AND node must have at least one cut");
                merged.sort_by(|x, y| by_rank(x.rank(), y.rank()));
                // Keep the best C cuts; if that would drop every TCON cut,
                // the best TCON cut replaces the last one kept.
                let keep = opts.cuts_per_node.max(1);
                if merged.len() > keep {
                    if !merged[..keep].iter().any(|c| c.tcon.is_some()) {
                        if let Some(r) = merged[keep..].iter().position(|c| c.tcon.is_some()) {
                            merged.swap(keep - 1, keep + r);
                        }
                    }
                    merged.truncate(keep);
                }
                // The first cut is the best: the rescued cut sits last,
                // and is first only when it is the one cut kept.
                arrival[idu] = merged[0].arr;
                aflow[idu] = merged.iter().map(|c| c.af).fold(f32::INFINITY, f32::min);
                merged.push(Cut::trivial(id));
                merged
            }
        };
        cuts_held += cuts.len();
        effort.cuts_held_peak = effort.cuts_held_peak.max(cuts_held);
        cutsets.push(cuts);
        if let Node::And(a, b) = node {
            for spent in [a.node() as usize, b.node() as usize] {
                pending[spent] -= 1;
                if pending[spent] == 0 {
                    cuts_held -= keep_first_cut(&mut cutsets[spent]);
                }
            }
        }
        // A node no live AND reads (an output's driver, an unused input)
        // is spent as soon as it has its cuts.
        if pending[idu] == 0 {
            cuts_held -= keep_first_cut(&mut cutsets[idu]);
        }
    }
    drop(cuts_span);

    // ---- cover pass: each required node by its first cut ----
    let cover_span = trace::span("map.cover");
    let is_and = |l: &u32| matches!(aig.node(*l), Node::And(..));
    let mut stack: Vec<u32> = aig
        .outputs()
        .iter()
        .map(|(_, l)| l.node())
        .filter(|id| is_and(id) || param_var[*id as usize].is_some())
        .collect();
    // chosen[id]: the cover implements AIG node `id` by its first cut.
    let mut chosen = vec![false; n];
    while let Some(id) = stack.pop() {
        if chosen[id as usize] {
            continue;
        }
        chosen[id as usize] = true;
        let best = &cutsets[id as usize][0];
        match &best.tcon {
            // Only leaves selectable under some parameter value stay
            // connected.
            Some(cand) => stack.extend(
                cand.choices
                    .iter()
                    .map(|&(pos, _, _)| best.leaves[pos])
                    .filter(is_and),
            ),
            // A LUT keeps only the leaves its PTT depends on.
            None => stack.extend(
                prune_lut(&best.leaves, &best.ptt)
                    .0
                    .into_iter()
                    .filter(is_and),
            ),
        }
    }
    drop(cover_span);

    // ---- one ascending pass: polarity, then the mapped node ----
    // Leaves have lower ids, so each leaf's polarity and mapped index are
    // known when its consumer is emitted.
    let emit_span = trace::span("map.emit");
    // inv[id]: the wire emitted for AIG node `id` carries its function ⊕ inv.
    let mut inv = vec![false; n];
    let mut node_of: Vec<Option<u32>> = vec![None; n];
    let mut nodes: Vec<MappedNode> = Vec::new();
    for id in (0..n).filter(|&id| chosen[id]) {
        let best = &cutsets[id][0];
        let src = |l: u32| match (reg_index[l as usize], node_of[l as usize]) {
            (Some(r), _) => Source::Input(r),
            (None, Some(m)) => Source::Node(m),
            (None, None) => unreachable!("leaf {l} neither input nor mapped node"),
        };
        let invert = best
            .tcon
            .as_ref()
            .and_then(|cand| tcon_invert(&best.leaves, cand, &inv));
        let mapped = match (&best.tcon, invert) {
            (Some(cand), Some(invert)) => {
                inv[id] = invert;
                MappedNode::Tcon(Tcon {
                    choices: cand
                        .choices
                        .iter()
                        .map(|&(pos, _, c)| (src(best.leaves[pos]), c))
                        .collect(),
                    const0: cand.const0,
                    const1: cand.const1,
                    invert,
                })
            }
            (tcon, _) => {
                // A LUT over the leaves its PTT depends on. A TCON whose
                // choices need inconsistent polarities is demoted to one
                // (always feasible: ≤ K leaves); pruning drops its
                // never-selected leaves, which were not covered.
                let (leaves, ptt) = prune_lut(&best.leaves, &best.ptt);
                debug_assert!(
                    tcon.as_ref().is_none_or(|cand| leaves.iter().all(|l| {
                        cand.choices
                            .iter()
                            .any(|&(pos, _, _)| best.leaves[pos] == *l)
                    })),
                    "demoted TLUT must only use selected leaves"
                );
                lut(&leaves, ptt, &inv, src)
            }
        };
        node_of[id] = Some(nodes.len() as u32);
        nodes.push(mapped);
    }

    // ---- outputs ----
    let mut outputs = Vec::with_capacity(aig.outputs().len());
    for (name, l) in aig.outputs() {
        let id = l.node() as usize;
        let (source, invert) = match (aig.node(l.node()), node_of[id]) {
            (Node::Const, _) => (Source::Const(l.is_neg()), false),
            (_, Some(m)) => (Source::Node(m), l.is_neg() ^ inv[id]),
            (Node::Input(_), None) => (
                Source::Input(reg_index[id].expect("regular input")),
                l.is_neg(),
            ),
            (Node::And(..), None) => unreachable!("output {name} not covered"),
        };
        outputs.push(MappedOutput {
            name: name.clone(),
            source,
            invert,
        });
    }
    drop(emit_span);

    effort.bdd_nodes_created = bdd.num_nodes();
    let kernel = bdd.stats();
    effort.bdd_lookups = kernel.lookups;
    effort.bdd_hits = kernel.hits;
    bdd.compact(nodes.iter_mut().flat_map(MappedNode::handles_mut));
    effort.bdd_nodes_kept = bdd.num_nodes();

    map_span.arg("luts", nodes.len());
    map_span.arg("ptt_merges", effort.ptt_merges);
    map_span.arg("ptt_cache_hits", effort.ptt_cache_hits);
    map_span.arg("tcon_checks", effort.tcon_checks);
    map_span.arg("tcon_cache_hits", effort.tcon_cache_hits);
    map_span.arg("tcon_refuted", effort.tcon_refuted);
    map_span.arg("tcon_accepted", effort.tcon_accepted);
    map_span.arg("const_ptt_cuts", effort.const_ptt_cuts);
    map_span.arg("bdd_nodes_created", effort.bdd_nodes_created);
    map_span.arg("bdd_nodes_kept", effort.bdd_nodes_kept);
    map_span.arg("bdd_lookups", effort.bdd_lookups);
    map_span.arg("bdd_hits", effort.bdd_hits);
    map_span.arg("cuts_held_peak", effort.cuts_held_peak);
    (
        MappedDesign {
            nodes,
            outputs,
            input_names,
            param_names,
            bdd,
        },
        effort,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::MappedNode;
    use logic::aig::{Aig, InputKind};

    fn small_param_circuit() -> Aig {
        // f = p ? (a & b) : (a | b); g = a ^ (q & b)
        let mut g = Aig::new();
        let a = g.input("a", InputKind::Regular);
        let b = g.input("b", InputKind::Regular);
        let p = g.input("p", InputKind::Param);
        let q = g.input("q", InputKind::Param);
        let ab = g.and(a, b);
        let aob = g.or(a, b);
        let f = g.mux(p, ab, aob);
        let qb = g.and(q, b);
        let x = g.xor(a, qb);
        g.add_output("f", f);
        g.add_output("g", x);
        g
    }

    #[test]
    fn conventional_maps_everything_to_luts() {
        let aig = small_param_circuit();
        let d = map_conventional(&aig, MapOptions::default());
        let s = d.stats();
        assert!(s.luts >= 1);
        assert_eq!(s.tcons, 0);
        assert_eq!(s.tluts, 0, "no parameters honored -> no tunable bits");
        assert!(d.param_names.is_empty());
        assert_eq!(d.input_names.len(), 4, "params become regular inputs");
    }

    #[test]
    fn parameterized_extracts_tunables() {
        let aig = small_param_circuit();
        let d = map_parameterized(&aig, MapOptions::default());
        let s = d.stats();
        assert_eq!(d.param_names.len(), 2);
        assert_eq!(d.input_names.len(), 2);
        assert!(s.tluts >= 1, "expected tunable LUTs, got {s:?}");
        assert!(s.luts <= 2, "two outputs, each one TLUT: {s:?}");
    }

    // The equivalence-asserting mapper tests live in
    // `tests/equivalence.rs`: they call `Verifier::verify_equivalence`,
    // whose `mapping` types only unify with the library build, not the
    // unit-test harness.

    /// The 6×6 constant multiplier of `tests/equivalence.rs`, mapped.
    fn mapped_multiplier() -> MappedDesign {
        let mut g = Aig::new();
        let x = g.input_vec("x", 6, InputKind::Regular);
        let c = g.input_vec("c", 6, InputKind::Param);
        let prod = softfloat::gates::mul_carry_save(&mut g, &x, &c);
        g.add_output_vec("p", &prod);
        map_parameterized(&g, MapOptions::default())
    }

    #[test]
    fn a_refuted_ptt_is_never_accepted_by_the_exact_check() {
        // Release builds trust `refutes_tcon` and skip `tcon_check`; here
        // both run, on parameter functions a real map produced: every
        // emitted LUT's PTT, every emitted TCON's cover written back as a
        // PTT, and a few thousand PTTs drawn from the design's handles.
        let mut d = mapped_multiplier();
        let probes = refutation_probes(d.param_names.len());
        let mut ptts: Vec<Vec<Bdd>> = Vec::new();
        let mut pool: Vec<Bdd> = vec![Bdd::FALSE, Bdd::TRUE];
        for n in &d.nodes {
            match n {
                MappedNode::Lut(l) => {
                    pool.extend(&l.ptt);
                    ptts.push(l.ptt.clone());
                }
                MappedNode::Tcon(t) => {
                    pool.extend(t.choices.iter().map(|&(_, c)| c));
                    // f = const1 ∨ ⋁ᵢ (condᵢ ∧ leafᵢ), one leaf per choice.
                    let k = t.choices.len();
                    if k > 6 {
                        continue;
                    }
                    ptts.push(
                        (0..1usize << k)
                            .map(|m| {
                                t.choices
                                    .iter()
                                    .enumerate()
                                    .fold(t.const1, |f, (i, &(_, c))| {
                                        if (m >> i) & 1 == 1 {
                                            d.bdd.or(f, c)
                                        } else {
                                            f
                                        }
                                    })
                            })
                            .collect(),
                    );
                }
            }
        }
        let mut rng = logic::SplitMix64::new(0x7C04);
        for _ in 0..4000 {
            let k = 1 + rng.index(4);
            // Few distinct entries per PTT, as in a real cut: most random
            // tables over many functions are trivially not TCONs.
            let palette: Vec<Bdd> = (0..2 + rng.index(2))
                .map(|_| pool[rng.index(pool.len())])
                .collect();
            ptts.push(
                (0..1usize << k)
                    .map(|_| palette[rng.index(palette.len())])
                    .collect(),
            );
        }

        let (mut refuted, mut accepted, mut slipped) = (0, 0, 0);
        for ptt in &ptts {
            let k = ptt.len().trailing_zeros() as usize;
            let no = refutes_tcon(&d.bdd, ptt, k, &probes);
            let exact = tcon_check(&mut d.bdd, ptt, k);
            assert!(!(no && exact.is_some()), "k = {k}, ptt = {ptt:?}");
            refuted += usize::from(no);
            accepted += usize::from(exact.is_some());
            slipped += usize::from(!no && exact.is_none());
        }
        // Not vacuous in either direction, and the filter is a filter:
        // it misses some non-TCONs (the exact check is still needed).
        assert!(
            refuted > 100 && accepted > 100 && slipped > 0,
            "{refuted} {accepted} {slipped}"
        );
    }

    #[test]
    fn mapped_node_enum_is_exported() {
        let aig = small_param_circuit();
        let d = map_parameterized(&aig, MapOptions::default());
        for n in &d.nodes {
            match n {
                MappedNode::Lut(l) => assert!(l.inputs.len() <= 4),
                MappedNode::Tcon(t) => {
                    assert!(t.choices.len() <= 8);
                }
            }
        }
    }
}
