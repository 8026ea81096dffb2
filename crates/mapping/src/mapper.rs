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
//! Because physical routing cannot invert a signal, polarity is resolved in
//! a final phase-assignment pass: every mapped node gets a static `inv`
//! flag (its wire carries `f ⊕ inv`), LUT consumers absorb inverted inputs
//! by permuting their truth tables, and a TCON whose choices would need
//! inconsistent polarities is demoted to a TLUT.
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
//! The BDD manager is scratch: [`BddManager::compact`] hands the design
//! the ≈ 6 % of the nodes its emitted handles reach, renumbered by
//! function, so two maps of one netlist agree handle for handle whatever
//! either of them computed on the way.

use crate::design::{MappedDesign, MappedNode, MappedOutput, Source, Tcon, Tlut};
use logic::aig::{Aig, InputKind, Node};
use logic::bdd::{Bdd, BddManager};
use logic::fxhash::FxHashMap;
use logic::tt::TruthTable;
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

struct Cut {
    /// Sorted AIG node ids of the regular leaves.
    leaves: Vec<u32>,
    /// `2^leaves.len()` parameter functions.
    ptt: Rc<[Bdd]>,
    /// Arrival (LUT levels) when implementing the node with this cut.
    arr: u32,
    /// Area flow: own cost (1 LUT / 0 TCON) + shared leaf cost estimate.
    af: f32,
    /// TCON candidacy (computed only in the parameterized flow).
    tcon: Option<Rc<TconCand>>,
    /// Trivial cut `{node}` — only usable by parents, not as an
    /// implementation of the node itself.
    trivial: bool,
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

enum Impl {
    Lut {
        leaves: Vec<u32>,
        ptt: Vec<Bdd>,
    },
    Tcon {
        leaves: Vec<u32>,
        /// Kept for possible demotion back to a LUT.
        ptt: Rc<[Bdd]>,
        cand: Rc<TconCand>,
    },
}

/// Drops cut leaves the function does not depend on and compacts the PTT
/// accordingly. Used at cover time and when demoting a TCON (whose
/// function provably depends only on its *selected* leaves — the
/// never-selected ones were not marked required and must not be emitted).
fn prune_lut(leaves: &[u32], ptt: &[Bdd]) -> (Vec<u32>, Vec<Bdd>) {
    let k = leaves.len();
    let mut needed = Vec::new();
    for i in 0..k {
        let mut dep = false;
        for m in 0..1usize << k {
            if (m >> i) & 1 == 0 && ptt[m] != ptt[m | (1 << i)] {
                dep = true;
                break;
            }
        }
        if dep {
            needed.push(i);
        }
    }
    let new_leaves: Vec<u32> = needed.iter().map(|&i| leaves[i]).collect();
    let kk = new_leaves.len();
    let new_ptt: Vec<Bdd> = (0..1usize << kk)
        .map(|m| {
            let mut full = 0usize;
            for (new_i, &old_i) in needed.iter().enumerate() {
                if (m >> new_i) & 1 == 1 {
                    full |= 1 << old_i;
                }
            }
            ptt[full]
        })
        .collect();
    (new_leaves, new_ptt)
}

/// The mapper. `honor_params` selects the flow: set, `InputKind::Param`
/// inputs fold into PTTs and TCONs are extracted; clear, every input is a
/// regular one and no TCON check runs.
fn run_map(aig: &Aig, opts: MapOptions, honor_params: bool) -> (MappedDesign, MapEffort) {
    let mut map_span = trace::span("map");
    map_span.arg("nodes", aig.num_nodes());
    map_span.arg("parameterized", honor_params);
    let mut bdd = BddManager::new();
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

    // Input bookkeeping: regular-input index per AIG input, param variable
    // per AIG input.
    let mut input_names = Vec::new();
    let mut param_names = Vec::new();
    let mut reg_index: FxHashMap<u32, u32> = FxHashMap::default(); // AIG node -> regular idx
    let mut param_var: FxHashMap<u32, u32> = FxHashMap::default(); // AIG node -> BDD var
    for info in aig.inputs() {
        let is_param = honor_params && info.kind == InputKind::Param;
        if is_param {
            param_var.insert(info.node, param_names.len() as u32);
            param_names.push(info.name.clone());
        } else {
            reg_index.insert(info.node, input_names.len() as u32);
            input_names.push(info.name.clone());
        }
    }

    let probes = refutation_probes(param_names.len());

    // ---- forward pass: priority cuts ----
    let cuts_span = trace::span("map.cuts");
    let n = aig.num_nodes();
    let fanout = aig.fanouts();
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
            Node::Const => vec![Cut {
                leaves: vec![],
                ptt: Rc::new([Bdd::FALSE]),
                arr: 0,
                af: 0.0,
                tcon: Some(Rc::new(TconCand {
                    choices: vec![],
                    const0: Bdd::TRUE,
                    const1: Bdd::FALSE,
                })),
                trivial: false,
            }],
            Node::Input(_) => {
                if let Some(&v) = param_var.get(&id) {
                    let p = bdd.var(v);
                    let np = bdd.nvar(v);
                    vec![Cut {
                        leaves: vec![],
                        ptt: Rc::new([p]),
                        arr: 0,
                        af: 0.0,
                        tcon: Some(Rc::new(TconCand {
                            choices: vec![],
                            const0: np,
                            const1: p,
                        })),
                        trivial: false,
                    }]
                } else {
                    vec![Cut {
                        leaves: vec![id],
                        ptt: Rc::new([Bdd::FALSE, Bdd::TRUE]),
                        arr: 0,
                        af: 0.0,
                        tcon: None,
                        trivial: true,
                    }]
                }
            }
            Node::And(a, b) => {
                let leaf_cost =
                    |l: u32| -> f32 { aflow[l as usize] / (fanout[l as usize].max(1) as f32) };
                // Phase 1 — candidate leaf sets only, no BDD work yet.
                // Each candidate carries a cheap LUT-cost bound (arrival,
                // area flow as if implemented by a plain LUT) computed
                // from the leaves alone.
                let mut cands: Vec<(Vec<u32>, usize, usize, u32, f32)> = Vec::new();
                let mut seen: FxHashMap<Vec<u32>, ()> = FxHashMap::default();
                for cai in 0..cutsets[a.node() as usize].len() {
                    for cbi in 0..cutsets[b.node() as usize].len() {
                        let ca = &cutsets[a.node() as usize][cai];
                        let cb = &cutsets[b.node() as usize][cbi];
                        // Union of sorted leaf sets, early reject over K.
                        let mut leaves = Vec::with_capacity(ca.leaves.len() + cb.leaves.len());
                        let (mut i, mut j) = (0, 0);
                        let ok = loop {
                            if leaves.len() > K {
                                break false;
                            }
                            match (ca.leaves.get(i), cb.leaves.get(j)) {
                                (Some(&x), Some(&y)) => {
                                    if x == y {
                                        leaves.push(x);
                                        i += 1;
                                        j += 1;
                                    } else if x < y {
                                        leaves.push(x);
                                        i += 1;
                                    } else {
                                        leaves.push(y);
                                        j += 1;
                                    }
                                }
                                (Some(&x), None) => {
                                    leaves.push(x);
                                    i += 1;
                                }
                                (None, Some(&y)) => {
                                    leaves.push(y);
                                    j += 1;
                                }
                                (None, None) => break true,
                            }
                        };
                        if !ok || leaves.len() > K || seen.contains_key(&leaves) {
                            continue;
                        }
                        let arr_lb = 1 + leaves
                            .iter()
                            .map(|&l| arrival[l as usize])
                            .max()
                            .unwrap_or(0);
                        let af_lb: f32 = 1.0 + leaves.iter().map(|&l| leaf_cost(l)).sum::<f32>();
                        seen.insert(leaves.clone(), ());
                        cands.push((leaves, cai, cbi, arr_lb, af_lb));
                    }
                }
                // Phase 2 — rank by the cheap bound and run the expensive
                // PTT construction + TCON tautology check only on the best
                // `CUT_EVAL_LIMIT` candidates. The tie-break on the leaf
                // vector keeps the ranking fully deterministic.
                let eval_budget = CUT_EVAL_LIMIT.max(opts.cuts_per_node);
                if cands.len() > eval_budget {
                    cands.sort_by(|x, y| {
                        x.3.cmp(&y.3)
                            .then(x.4.total_cmp(&y.4))
                            .then(x.0.len().cmp(&y.0.len()))
                            .then(x.0.cmp(&y.0))
                    });
                    cands.truncate(eval_budget);
                }
                let mut merged: Vec<Cut> = Vec::new();
                for (leaves, cai, cbi, _, _) in cands {
                    let ca = &cutsets[a.node() as usize][cai];
                    let cb = &cutsets[b.node() as usize][cbi];
                    // Both operand PTTs over the merged leaves, back to
                    // back: the conjunction's signature.
                    operands.clear();
                    expand_ptt(&mut bdd, &mut operands, ca, &leaves, a.is_neg());
                    expand_ptt(&mut bdd, &mut operands, cb, &leaves, b.is_neg());
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
                    let k = leaves.len();
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
                                let c = tcon_candidate(&mut bdd, &ptt, k, &probes, &mut effort);
                                tcon_cache.insert(ptt.clone(), c.clone());
                                c
                            }
                        }
                    };
                    // Arrival and area flow: TCONs are free logic-wise;
                    // their selected leaves' costs are shared through
                    // the fanout estimate (classic area flow).
                    let (arr, af) = if let Some(tc) = &tcon {
                        let arr = tc
                            .choices
                            .iter()
                            .map(|&(pos, _, _)| arrival[leaves[pos] as usize])
                            .max()
                            .unwrap_or(0);
                        // TCONs are LUT-free but consume routing
                        // switches: a small area cost makes the mapper
                        // absorb them into TLUT cones when a cone is
                        // available at no extra LUTs (TCONMAP's
                        // preference).
                        let af: f32 = 0.35
                            + tc.choices
                                .iter()
                                .map(|&(pos, _, _)| leaf_cost(leaves[pos]))
                                .sum::<f32>();
                        (arr, af)
                    } else {
                        let arr = 1 + leaves
                            .iter()
                            .map(|&l| arrival[l as usize])
                            .max()
                            .unwrap_or(0);
                        let af: f32 = 1.0 + leaves.iter().map(|&l| leaf_cost(l)).sum::<f32>();
                        (arr, af)
                    };
                    merged.push(Cut {
                        leaves,
                        ptt,
                        arr,
                        af,
                        tcon,
                        trivial: false,
                    });
                }
                debug_assert!(!merged.is_empty(), "AND node must have at least one cut");
                merged.sort_by(|x, y| {
                    x.arr
                        .cmp(&y.arr)
                        .then(x.af.total_cmp(&y.af))
                        .then(x.leaves.len().cmp(&y.leaves.len()))
                });
                // Keep the best C cuts, plus the best TCON cut if pruning
                // would drop every one of them.
                let keep = opts.cuts_per_node.max(1);
                if merged.len() > keep {
                    let has_tcon_kept = merged[..keep].iter().any(|c| c.tcon.is_some());
                    let rescue = if !has_tcon_kept {
                        merged[keep..].iter().position(|c| c.tcon.is_some())
                    } else {
                        None
                    };
                    if let Some(r) = rescue {
                        merged.swap(keep - 1, keep + r);
                    }
                    merged.truncate(keep);
                }
                arrival[idu] = merged.iter().map(|c| c.arr).min().unwrap_or(0);
                aflow[idu] = merged
                    .iter()
                    .map(|c| c.af)
                    .fold(f32::INFINITY, f32::min)
                    .min(1e30);
                // Trivial cut for parents.
                merged.push(Cut {
                    leaves: vec![id],
                    ptt: Rc::new([Bdd::FALSE, Bdd::TRUE]),
                    arr: arrival[idu],
                    af: aflow[idu],
                    tcon: None,
                    trivial: true,
                });
                merged
            }
        };
        cutsets.push(cuts);
    }
    drop(cuts_span);

    // ---- cover pass ----
    let cover_span = trace::span("map.cover");
    let mut required = vec![false; n];
    let mut stack: Vec<u32> = Vec::new();
    for (_, l) in aig.outputs() {
        let id = l.node();
        match aig.node(id) {
            Node::And(..) => stack.push(id),
            Node::Input(_) if param_var.contains_key(&id) => stack.push(id),
            _ => {}
        }
    }
    let mut chosen: FxHashMap<u32, Impl> = FxHashMap::default();
    while let Some(id) = stack.pop() {
        if required[id as usize] {
            continue;
        }
        required[id as usize] = true;
        let cuts = &cutsets[id as usize];
        let best = cuts
            .iter()
            .filter(|c| !c.trivial)
            .min_by(|x, y| {
                x.arr
                    .cmp(&y.arr)
                    .then(x.af.total_cmp(&y.af))
                    .then(x.leaves.len().cmp(&y.leaves.len()))
            })
            .expect("every required node has a non-trivial cut");
        let impl_ = if let Some(tc) = &best.tcon {
            // Only leaves actually selectable under some parameter value
            // stay connected.
            for &(pos, _, _) in &tc.choices {
                let leaf = best.leaves[pos];
                if matches!(aig.node(leaf), Node::And(..)) {
                    stack.push(leaf);
                }
            }
            Impl::Tcon {
                leaves: best.leaves.clone(),
                ptt: best.ptt.clone(),
                cand: tc.clone(),
            }
        } else {
            // Support-prune the LUT: drop leaves no entry pair depends on.
            let (leaves, ptt) = prune_lut(&best.leaves, &best.ptt);
            for &leaf in &leaves {
                if matches!(aig.node(leaf), Node::And(..)) {
                    stack.push(leaf);
                }
            }
            Impl::Lut { leaves, ptt }
        };
        chosen.insert(id, impl_);
    }
    drop(cover_span);

    // ---- phase assignment: static polarity per mapped node ----
    let emit_span = trace::span("map.emit");
    // inv[aig_id] = the emitted wire carries (logical function ⊕ inv).
    let mut ids: Vec<u32> = chosen.keys().copied().collect();
    ids.sort_unstable();
    let mut inv: FxHashMap<u32, bool> = FxHashMap::default();
    for &id in &ids {
        let entry = chosen.get(&id).unwrap();
        match entry {
            Impl::Lut { .. } => {
                inv.insert(id, false);
            }
            Impl::Tcon { leaves, ptt, cand } => {
                let choices = &cand.choices;
                // Physical polarity constraint: for every choice,
                // inv(node) = q ⊕ inv(leaf); all must agree.
                let mut req: Option<bool> = None;
                let mut consistent = true;
                for &(pos, q, _) in choices {
                    let leaf = leaves[pos];
                    let leaf_inv = inv.get(&leaf).copied().unwrap_or(false);
                    let r = q ^ leaf_inv;
                    match req {
                        None => req = Some(r),
                        Some(prev) if prev != r => {
                            consistent = false;
                            break;
                        }
                        _ => {}
                    }
                }
                if consistent {
                    inv.insert(id, req.unwrap_or(false));
                } else {
                    // Demote to a TLUT (always feasible: ≤ K leaves).
                    // Support pruning removes never-selected leaves, which
                    // were not covered and must not be referenced.
                    let (pl, pp) = prune_lut(leaves, ptt);
                    debug_assert!(
                        pl.iter()
                            .all(|l| { choices.iter().any(|&(pos, _, _)| leaves[pos] == *l) }),
                        "demoted TLUT must only use selected leaves"
                    );
                    inv.insert(id, false);
                    chosen.insert(
                        id,
                        Impl::Lut {
                            leaves: pl,
                            ptt: pp,
                        },
                    );
                }
            }
        }
    }

    // ---- emit in topological (ascending AIG id) order ----
    let mut nodes: Vec<MappedNode> = Vec::new();
    let mut node_of: FxHashMap<u32, u32> = FxHashMap::default();
    let src_of =
        |aig_id: u32, reg_index: &FxHashMap<u32, u32>, node_of: &FxHashMap<u32, u32>| -> Source {
            if let Some(&r) = reg_index.get(&aig_id) {
                Source::Input(r)
            } else if let Some(&m) = node_of.get(&aig_id) {
                Source::Node(m)
            } else {
                unreachable!("leaf {aig_id} neither input nor mapped node")
            }
        };
    for &id in &ids {
        let impl_ = &chosen[&id];
        let mapped = match impl_ {
            Impl::Lut { leaves, ptt } => {
                // Absorb inverted-polarity leaves by permuting the PTT.
                let mut flip_mask = 0usize;
                for (i, leaf) in leaves.iter().enumerate() {
                    if inv.get(leaf).copied().unwrap_or(false) {
                        flip_mask |= 1 << i;
                    }
                }
                let ptt_fixed: Vec<Bdd> = if flip_mask == 0 {
                    ptt.clone()
                } else {
                    (0..ptt.len()).map(|m| ptt[m ^ flip_mask]).collect()
                };
                MappedNode::Lut(Tlut {
                    inputs: leaves
                        .iter()
                        .map(|&l| src_of(l, &reg_index, &node_of))
                        .collect(),
                    ptt: ptt_fixed,
                })
            }
            Impl::Tcon { leaves, cand, .. } => MappedNode::Tcon(Tcon {
                choices: cand
                    .choices
                    .iter()
                    .map(|&(pos, _, c)| (src_of(leaves[pos], &reg_index, &node_of), c))
                    .collect(),
                const0: cand.const0,
                const1: cand.const1,
                invert: inv[&id],
            }),
        };
        node_of.insert(id, nodes.len() as u32);
        nodes.push(mapped);
    }

    // ---- outputs ----
    let mut outputs = Vec::with_capacity(aig.outputs().len());
    for (name, l) in aig.outputs() {
        let id = l.node();
        let node_inv = inv.get(&id).copied().unwrap_or(false);
        let (source, invert) = match aig.node(id) {
            Node::Const => (Source::Const(l.is_neg()), false),
            Node::Input(_) => {
                if let Some(&m) = node_of.get(&id) {
                    (Source::Node(m), l.is_neg() ^ node_inv)
                } else {
                    (
                        Source::Input(*reg_index.get(&id).expect("regular input")),
                        l.is_neg(),
                    )
                }
            }
            Node::And(..) => (
                Source::Node(*node_of.get(&id).expect("covered node")),
                l.is_neg() ^ node_inv,
            ),
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
        let prod = softfloat::gates::mul_array(&mut g, &x, &c);
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
