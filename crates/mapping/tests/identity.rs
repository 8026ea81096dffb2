//! The parameterized map of the swept PE, pinned by what it *means*.
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

use logic::bdd::Bdd;
use logic::SplitMix64;
use mapping::{
    map_parameterized_with_effort, MapEffort, MapOptions, MapStats, MappedDesign, MappedNode,
    Source,
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

fn check(pin: &Pin) {
    let (we, wf) = pin.format;
    let cfg = VirtualPeConfig {
        format: FpFormat::new(we, wf),
        hops: 2,
    };
    let aig = logic::opt::sweep(&VirtualPe::build(cfg, true).aig);
    let (d, e): (MappedDesign, MapEffort) =
        map_parameterized_with_effort(&aig, MapOptions::default());
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
    assert!(
        e.bdd_nodes_created > 10 * e.bdd_nodes_kept,
        "({we},{wf}) {e:?}"
    );
    assert!(e.tcon_refuted + e.tcon_accepted <= e.tcon_checks - e.tcon_cache_hits);
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
    check(&Pin {
        format: (5, 10),
        fingerprint: 0xe981_cc5e_ea0c_200a,
        stats: [804, 136, 118, 46],
        caches: [33_858, 28_613, 33_858, 28_009],
        filter: [4_245, 907, 15_167, 4_859],
    });
}

#[test]
#[cfg_attr(debug_assertions, ignore = "paper-scale (6,26) map: runs in release")]
fn paper_pe_maps_to_the_recorded_design() {
    check(&Pin {
        format: (6, 26),
        fingerprint: 0xe3ce_fac8_4d00_c209,
        stats: [2_894, 982, 237, 70],
        caches: [114_302, 104_921, 114_302, 104_269],
        filter: [7_661, 1_512, 51_633, 62_483],
    });
}
