//! The Specialized Configuration Generator.
//!
//! The SCG runs on an embedded processor (PowerPC, ARM or MicroBlaze in
//! the paper); here it is a host-side evaluator with the same data flow:
//! take a parameter assignment, evaluate every PPC Boolean function,
//! produce specialized bits, diff against the currently loaded bits and
//! emit the set of frames that must be read-modified-written.
//!
//! The evaluation is *all functions, a few assignments* — the question
//! [`logic::bdd::BddManager::eval_lanes`] answers in one sweep of the
//! design's node store. [`Scg::specialize_lanes`] is that sweep for up to
//! 64 settings at once (one word per PPC bit, one lane per setting);
//! [`Scg::specialize`] is its one-lane case; [`Scg::pair_diff`] reads the
//! lanes as (old, new) pairs and counts what a change of settings dirties
//! — the one definition of "frames dirtied by a change" that the
//! runtime's pricer, [`crate::timing::specialization_report`] and the
//! `xbench reconfig` driver share.
//!
//! All an SCG reads is a node store, one root per PPC bit, each root's
//! frame index, the frames and the parameter count. [`Scg::new`] takes them from a mapped
//! design and its [`ParamConfig`]; [`Scg::from_parts`] takes them as they
//! are, which is how the runtime prices on a PPC mapped offline and
//! checked into source as a table ([`logic::BddManager::from_nodes`]
//! rebuilds its store).

use crate::ppc::ParamConfig;
use logic::fxhash::FxHashSet;
use logic::{Bdd, BddManager};
use mapping::MappedDesign;

/// Settings one sweep evaluates: the lanes of a `u64`.
pub const LANES: usize = 64;

/// The result of one specialization run.
#[derive(Debug, Clone)]
pub struct SpecializedBits {
    /// Bit values in PPC order.
    pub values: Vec<bool>,
}

/// What differs between the old and the new settings of the lane pairs of
/// one sweep, summed over the pairs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PairDiff {
    /// PPC bits whose value differs.
    pub bits_changed: usize,
    /// Frames holding at least one such bit — per pair, so a frame two
    /// pairs dirty counts twice: each is a read-modify-write of its own PE.
    pub dirty_frames: usize,
}

/// The SCG: owns the evaluation order over one PPC.
pub struct Scg<'a> {
    /// The store every PPC function lives in.
    bdd: &'a BddManager,
    /// Per PPC bit, its function of the parameters.
    roots: Vec<Bdd>,
    /// Per PPC bit, the index of its frame in `frames`.
    root_frame: &'a [u32],
    /// The distinct frames holding a tunable bit, ascending.
    frames: &'a [u32],
    /// Parameters an assignment sets: the BDD variables.
    params: usize,
}

impl<'a> Scg<'a> {
    /// Binds an SCG to a design and its extracted configuration.
    pub fn new(design: &'a MappedDesign, config: &'a ParamConfig) -> Self {
        assert_eq!(design.param_names.len(), config.param_names.len());
        Scg::from_parts(
            &design.bdd,
            config.ppc.iter().map(|&(_, f, _)| f).collect(),
            &config.ppc_frame,
            &config.frames,
            config.param_names.len(),
        )
    }

    /// An SCG over a PPC given by its parts: the node store, one root per
    /// PPC bit, per root the index of its frame in `frames` (the distinct
    /// frames holding a tunable bit, ascending), and the parameter count.
    ///
    /// # Panics
    /// If the roots and their frame indices differ in number, or an index
    /// is past `frames`.
    pub fn from_parts(
        bdd: &'a BddManager,
        roots: Vec<Bdd>,
        root_frame: &'a [u32],
        frames: &'a [u32],
        params: usize,
    ) -> Self {
        assert_eq!(roots.len(), root_frame.len(), "one frame per PPC bit");
        assert!(
            root_frame.iter().all(|&f| (f as usize) < frames.len()),
            "a PPC bit's frame is past the frame list"
        );
        Scg {
            bdd,
            roots,
            root_frame,
            frames,
            params,
        }
    }

    /// Packs up to [`LANES`] parameter assignments for one sweep: bit `l`
    /// of word `v` is `settings[l][v]`. Unused lanes read all-false.
    ///
    /// # Panics
    /// If an assignment is not one value per parameter of the design.
    pub fn pack_lanes(&self, settings: &[&[bool]]) -> Vec<u64> {
        assert!(
            settings.len() <= LANES,
            "at most {LANES} settings to a sweep"
        );
        let mut lanes = vec![0u64; self.params];
        for (l, params) in settings.iter().enumerate() {
            assert_eq!(params.len(), lanes.len(), "one value per parameter");
            for (word, &p) in lanes.iter_mut().zip(*params) {
                *word |= u64::from(p) << l;
            }
        }
        lanes
    }

    /// Evaluates every PPC function for up to [`LANES`] parameter
    /// assignments in one sweep (`lanes[v]` drives BDD variable `v`, one
    /// assignment per bit): word `i` of the result holds PPC bit `i`
    /// under each of them.
    ///
    /// # Panics
    /// If `lanes` is not one word per parameter of the design: a short
    /// vector would read its missing parameters as `false` and produce a
    /// configuration for settings nobody asked for.
    pub fn specialize_lanes(&self, lanes: &[u64]) -> Vec<u64> {
        assert_eq!(lanes.len(), self.params, "one lane word per parameter");
        let vals = self.bdd.eval_lanes(lanes);
        self.roots.iter().map(|&f| vals.of(f)).collect()
    }

    /// Evaluates every PPC function for a parameter assignment
    /// (`params[v]` drives BDD variable `v`): the one-lane sweep.
    ///
    /// # Panics
    /// If `params` is not one value per parameter of the design.
    pub fn specialize(&self, params: &[bool]) -> SpecializedBits {
        let words = self.specialize_lanes(&self.pack_lanes(&[params]));
        SpecializedBits {
            values: words.iter().map(|w| w & 1 == 1).collect(),
        }
    }

    /// Reads the lanes of `words` (from [`Scg::specialize_lanes`]) as
    /// `pairs` changes of settings — lane `2i` the old, lane `2i + 1` the
    /// new settings of change `i` — and counts what they dirty.
    pub fn pair_diff(&self, words: &[u64], pairs: usize) -> PairDiff {
        assert_eq!(words.len(), self.roots.len(), "one word per PPC bit");
        assert!(pairs <= LANES / 2, "at most {} pairs to a sweep", LANES / 2);
        // The low lane of each pair in use.
        let mask = if pairs == 0 {
            0
        } else {
            0x5555_5555_5555_5555u64 >> (LANES - 2 * pairs)
        };
        let mut per_frame = vec![0u64; self.frames.len()];
        let mut bits_changed = 0;
        for (v, &frame) in words.iter().zip(self.root_frame) {
            let d = (v ^ (v >> 1)) & mask;
            bits_changed += d.count_ones() as usize;
            per_frame[frame as usize] |= d;
        }
        let dirty_frames = per_frame.iter().map(|d| d.count_ones() as usize).sum();
        PairDiff {
            bits_changed,
            dirty_frames,
        }
    }

    /// Frames whose content differs between two specializations — the
    /// micro-reconfiguration working set for this parameter change.
    pub fn dirty_frames(&self, old: &SpecializedBits, new: &SpecializedBits) -> FxHashSet<u32> {
        assert_eq!(old.values.len(), self.roots.len(), "one value per PPC bit");
        assert_eq!(new.values.len(), self.roots.len(), "one value per PPC bit");
        let mut frames = FxHashSet::default();
        for ((a, b), &frame) in old.values.iter().zip(&new.values).zip(self.root_frame) {
            if a != b {
                frames.insert(self.frames[frame as usize]);
            }
        }
        frames
    }

    /// All frames containing tunable bits (worst-case working set; used
    /// for the first configuration after the template is loaded).
    pub fn all_tunable_frames(&self) -> FxHashSet<u32> {
        self.frames.iter().copied().collect()
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

    /// The (3,4) virtual PE, mapped: a PPC whose order interleaves LUT
    /// frames with routing frames.
    fn small_pe() -> MappedDesign {
        let cfg = vcgra::VirtualPeConfig {
            format: softfloat::FpFormat::new(3, 4),
            hops: 2,
        };
        let aig = logic::opt::sweep(&vcgra::VirtualPe::build(cfg, true).aig);
        map_parameterized(&aig, MapOptions::default())
    }

    /// `n` seeded assignments; every other one differs from its
    /// predecessor in a few parameters only, like a change of settings.
    fn seeded_assignments(d: &MappedDesign, seed: u64, n: usize) -> Vec<Vec<bool>> {
        let mut rng = logic::SplitMix64::new(seed);
        let mut out: Vec<Vec<bool>> = Vec::new();
        for i in 0..n {
            let mut params: Vec<bool> = match out.last() {
                Some(prev) if i % 2 == 1 => prev.clone(),
                _ => d.param_names.iter().map(|_| rng.coin()).collect(),
            };
            if i % 2 == 1 {
                for _ in 0..1 + rng.index(3) {
                    let v = rng.index(params.len());
                    params[v] = !params[v];
                }
            }
            out.push(params);
        }
        out
    }

    #[test]
    fn the_sweep_is_the_root_walk_on_every_ppc_root() {
        for d in [demo(), small_pe()] {
            let cfg = ParamConfig::extract(&d);
            let scg = Scg::new(&d, &cfg);
            let settings = seeded_assignments(&d, 5, LANES);
            let refs: Vec<&[bool]> = settings.iter().map(Vec::as_slice).collect();
            let words = scg.specialize_lanes(&scg.pack_lanes(&refs));
            for (l, params) in settings.iter().enumerate() {
                let one = scg.specialize(params);
                for (i, (_, f, _)) in cfg.ppc.iter().enumerate() {
                    let want = d.bdd.eval(*f, params);
                    assert_eq!(one.values[i], want, "one lane: PPC bit {i}, setting {l}");
                    assert_eq!(words[i] >> l & 1 == 1, want, "lane {l}: PPC bit {i}");
                }
            }
        }
    }

    #[test]
    fn the_pair_diff_is_dirty_frames_of_two_specializations() {
        for d in [demo(), small_pe()] {
            let cfg = ParamConfig::extract(&d);
            let scg = Scg::new(&d, &cfg);
            for (seed, pairs) in [0, 1, 31, 32].into_iter().enumerate() {
                let settings = seeded_assignments(&d, seed as u64, LANES);
                let refs: Vec<&[bool]> = settings.iter().map(Vec::as_slice).collect();
                // All 64 lanes are filled; only `pairs` pairs are read.
                let got = scg.pair_diff(&scg.specialize_lanes(&scg.pack_lanes(&refs)), pairs);
                let mut want = PairDiff::default();
                for pair in settings.chunks(2).take(pairs) {
                    let (old, new) = (scg.specialize(&pair[0]), scg.specialize(&pair[1]));
                    want.dirty_frames += scg.dirty_frames(&old, &new).len();
                    want.bits_changed += old
                        .values
                        .iter()
                        .zip(&new.values)
                        .filter(|(a, b)| a != b)
                        .count();
                }
                assert_eq!(got, want, "{pairs} pairs");
            }
        }
    }

    #[test]
    fn a_frame_of_the_pe_is_not_one_run_of_the_ppc() {
        // Why `pair_diff` accumulates per dense frame index: the PPC
        // visits some frame, leaves it, and comes back.
        let d = small_pe();
        let cfg = ParamConfig::extract(&d);
        let runs = 1 + cfg.ppc_frame.windows(2).filter(|w| w[0] != w[1]).count();
        assert!(
            runs > cfg.tunable_frames(),
            "{runs} runs over {} frames",
            cfg.tunable_frames()
        );
        assert_eq!(
            Scg::new(&d, &cfg).all_tunable_frames().len(),
            cfg.tunable_frames()
        );
    }

    #[test]
    #[should_panic(expected = "one lane word per parameter")]
    fn short_lane_vector_is_rejected() {
        let d = demo();
        let cfg = ParamConfig::extract(&d);
        Scg::new(&d, &cfg).specialize_lanes(&[0, 0]);
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
