//! The maps of the swept PE, pinned by what they *mean*.
//!
//! [`fingerprint`] hashes a [`MappedDesign`] without reading a single
//! `Bdd` handle number: names, node kinds, sources, inversion flags, and
//! every PTT entry / TCON condition as the 64 bits it evaluates to on 64
//! fixed parameter vectors. Two designs with the same fingerprint have
//! the same structure and (on those vectors) the same parameter
//! functions, however the BDD kernel numbers, shares or stores its nodes.
//!
//! The pinned values were recorded on `c788fcc` — the last commit whose
//! `logic::bdd` kept three growing hash-map caches and whose mapper ran
//! the exact TCON check on every cache miss — so they hold the kernel
//! rewrite, the counterexample filter and the design compaction to
//! "function-identical".
//!
//! The conventional pins and the parameterized pins at other cut budgets
//! were recorded on `5ddcf02`, the last commit before the mapper's cut
//! order, cover and emit pass were each restated once; they hold that
//! restatement to the same designs.

use logic::aig::Aig;
use logic::bdd::Bdd;
use logic::SplitMix64;
use mapping::{
    map_conventional, map_parameterized_with_effort, MapEffort, MapOptions, MapStats, MappedDesign,
    MappedNode, Source,
};
use softfloat::FpFormat;
use vcgra::{VirtualPe, VirtualPeConfig};

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn bytes(&mut self, bs: &[u8]) {
        for &b in bs {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }
    fn name(&mut self, s: &str) {
        self.word(s.len() as u64);
        self.bytes(s.as_bytes());
    }
    fn source(&mut self, s: Source) {
        match s {
            Source::Input(i) => self.word(1 << 32 | i as u64),
            Source::Node(n) => self.word(2 << 32 | n as u64),
            Source::Const(b) => self.word(3 << 32 | b as u64),
        }
    }
}

/// A handle-independent hash of `d` (see the module doc).
fn fingerprint(d: &MappedDesign) -> u64 {
    // 64 fixed parameter vectors: all-0, all-1, then seeded draws.
    let np = d.param_names.len();
    let mut rng = SplitMix64::new(0x1DE7_717F);
    let vectors: Vec<Vec<bool>> = (0..64)
        .map(|i| match i {
            0 => vec![false; np],
            1 => vec![true; np],
            _ => (0..np).map(|_| rng.coin()).collect(),
        })
        .collect();
    let column = |f: Bdd| -> u64 {
        vectors
            .iter()
            .enumerate()
            .fold(0u64, |w, (i, v)| w | (d.bdd.eval(f, v) as u64) << i)
    };

    let mut h = Fnv::new();
    for names in [&d.input_names, &d.param_names] {
        h.word(names.len() as u64);
        for n in names {
            h.name(n);
        }
    }
    h.word(d.nodes.len() as u64);
    for n in &d.nodes {
        match n {
            MappedNode::Lut(l) => {
                h.word(0x4c55_5400 | l.inputs.len() as u64);
                for &s in &l.inputs {
                    h.source(s);
                }
                for &e in &l.ptt {
                    h.word(column(e));
                }
            }
            MappedNode::Tcon(t) => {
                h.word(0x5443_4f00 | t.choices.len() as u64);
                h.word(t.invert as u64);
                h.word(column(t.const0));
                h.word(column(t.const1));
                for &(s, c) in &t.choices {
                    h.source(s);
                    h.word(column(c));
                }
            }
        }
    }
    h.word(d.outputs.len() as u64);
    for o in &d.outputs {
        h.name(&o.name);
        h.source(o.source);
        h.word(o.invert as u64);
    }
    h.0
}

/// What one format's parameterized map must reproduce.
struct Pin {
    format: (u32, u32),
    fingerprint: u64,
    /// LUTs, TLUTs, TCONs, depth.
    stats: [usize; 4],
    /// `tcon_checks`, `tcon_cache_hits`, `ptt_merges`, `ptt_cache_hits`.
    caches: [usize; 4],
    /// `tcon_refuted`, `tcon_accepted`, `const_ptt_cuts`, `bdd_nodes_kept`
    /// (introduced with the filter and the compaction; the same in debug
    /// and release builds, unlike `bdd_nodes_created`).
    filter: [usize; 4],
}

/// The swept two-hop PE of format `(we, wf)`.
fn swept_pe((we, wf): (u32, u32)) -> Aig {
    let cfg = VirtualPeConfig {
        format: FpFormat::new(we, wf),
        hops: 2,
    };
    logic::opt::sweep(&VirtualPe::build(cfg, true).aig)
}

/// [`check_at`] at the default cut budget, where the design also keeps
/// under a tenth of the BDD nodes the map created; returns the counters.
fn check(pin: &Pin) -> MapEffort {
    let e = check_at(pin, MapOptions::default());
    assert!(
        e.bdd_nodes_created > 10 * e.bdd_nodes_kept,
        "{:?} {e:?}",
        pin.format
    );
    e
}

/// Maps `pin`'s PE parameterized with `opts` and checks every pinned
/// number; returns the map's counters.
fn check_at(pin: &Pin, opts: MapOptions) -> MapEffort {
    let (we, wf) = pin.format;
    let aig = swept_pe(pin.format);
    let (d, e): (MappedDesign, MapEffort) = map_parameterized_with_effort(&aig, opts);
    let s: MapStats = d.stats();
    assert_eq!(
        [s.luts, s.tluts, s.tcons, s.depth as usize],
        pin.stats,
        "({we},{wf}) {s:?}"
    );
    assert_eq!(
        [
            e.tcon_checks,
            e.tcon_cache_hits,
            e.ptt_merges,
            e.ptt_cache_hits
        ],
        pin.caches,
        "({we},{wf}) {e:?}"
    );
    assert_eq!(
        [
            e.tcon_refuted,
            e.tcon_accepted,
            e.const_ptt_cuts,
            e.bdd_nodes_kept
        ],
        pin.filter,
        "({we},{wf}) {e:?}"
    );
    assert_eq!(
        fingerprint(&d),
        pin.fingerprint,
        "({we},{wf}): some PTT entry, TCON condition, source or flag changed function"
    );
    // The design owns what it references and nothing else.
    assert_eq!(d.bdd.num_nodes(), e.bdd_nodes_kept);
    assert!(e.tcon_refuted + e.tcon_accepted <= e.tcon_checks - e.tcon_cache_hits);
    e
}

#[test]
fn swept_pe_maps_to_the_recorded_design() {
    check(&Pin {
        format: (4, 6),
        fingerprint: 0xb802_b42e_0a25_baae,
        stats: [457, 62, 83, 38],
        caches: [20_093, 16_031, 20_093, 15_463],
        filter: [3_261, 734, 8_766, 1_389],
    });
    let e = check(&Pin {
        format: (5, 10),
        fingerprint: 0xe981_cc5e_ea0c_200a,
        stats: [804, 136, 118, 46],
        caches: [33_858, 28_613, 33_858, 28_009],
        filter: [4_245, 907, 15_167, 4_859],
    });
    // The forward pass's cut memory: 28 376 cuts were held at its end
    // before spent cut sets were dropped.
    assert_eq!(e.cuts_held_peak, 4_681);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "paper-scale (6,26) map: runs in release")]
fn paper_pe_maps_to_the_recorded_design() {
    let e = check(&Pin {
        format: (6, 26),
        fingerprint: 0xe3ce_fac8_4d00_c209,
        stats: [2_894, 982, 237, 70],
        caches: [114_302, 104_921, 114_302, 104_269],
        filter: [7_661, 1_512, 51_633, 62_483],
    });
    // 94 814 before spent cut sets were dropped.
    assert_eq!(e.cuts_held_peak, 14_741);
}

#[test]
fn swept_pe_maps_to_the_recorded_design_at_other_cut_budgets() {
    // One cut per node: pruning keeps a single cut, so a node whose best
    // cut is no TCON keeps its best TCON cut instead (the rescue branch).
    check_at(
        &Pin {
            format: (4, 6),
            fingerprint: 0xccab_4ebd_944c_59f6,
            stats: [649, 119, 76, 51],
            caches: [6_953, 6_102, 6_953, 5_954],
            filter: [588, 255, 3_858, 787],
        },
        MapOptions { cuts_per_node: 1 },
    );
    // The largest budget `xbench ablations` sweeps.
    check_at(
        &Pin {
            format: (4, 6),
            fingerprint: 0x1f15_a6a5_ff68_01a9,
            stats: [488, 76, 77, 39],
            caches: [25_022, 19_963, 25_022, 19_219],
            filter: [4_108, 692, 10_398, 1_422],
        },
        MapOptions { cuts_per_node: 12 },
    );
}

/// Maps the swept PE of `format` conventionally and checks its stats and
/// fingerprint.
fn check_conventional(format: (u32, u32), fingerprint_pin: u64, stats: MapStats) {
    let d = map_conventional(&swept_pe(format), MapOptions::default());
    assert_eq!(d.stats(), stats, "{format:?}");
    assert!(d.param_names.is_empty(), "{format:?}");
    assert_eq!(fingerprint(&d), fingerprint_pin, "{format:?}");
}

#[test]
fn swept_pe_maps_conventionally_to_the_recorded_design() {
    check_conventional(
        (4, 6),
        0xd96a_26fd_75a6_7038,
        MapStats {
            luts: 982,
            tluts: 0,
            tcons: 0,
            tunable_constants: 0,
            depth: 48,
        },
    );
    check_conventional(
        (5, 10),
        0xdf4a_2413_ed93_ba5c,
        MapStats {
            luts: 1_621,
            tluts: 0,
            tcons: 0,
            tunable_constants: 0,
            depth: 56,
        },
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "paper-scale (6,26) map: runs in release")]
fn paper_pe_maps_conventionally_to_the_recorded_design() {
    check_conventional(
        (6, 26),
        0x700f_eebf_3cf4_440a,
        MapStats {
            luts: 4_765,
            tluts: 0,
            tcons: 0,
            tunable_constants: 0,
            depth: 81,
        },
    );
}
