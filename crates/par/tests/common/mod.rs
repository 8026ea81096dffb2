//! What the width-search test binaries share: the multiplier netlists
//! they route and the seven searches whose results are pinned.

use logic::aig::{Aig, InputKind};
use mapping::{map_conventional, map_parameterized, MapOptions};
use par::{extract, EngineOptions, ParEngine, ParNetlist, WidthSearch};

/// The `bits × bits` carry-save multiplier with a parameter operand,
/// mapped parameterized or conventionally and extracted for PaR.
pub fn mul_netlist(bits: usize, parameterized: bool) -> ParNetlist {
    let mut g = Aig::new();
    let x = g.input_vec("x", bits, InputKind::Regular);
    let c = g.input_vec("c", bits, InputKind::Param);
    let p = softfloat::gates::mul_carry_save(&mut g, &x, &c);
    g.add_output_vec("p", &p);
    let d = if parameterized {
        map_parameterized(&g, MapOptions::default())
    } else {
        map_conventional(&g, MapOptions::default())
    };
    extract(&d)
}

/// One pinned width search: `(bits, parameterized, placement seed,
/// search floor)`.
pub type Case = (usize, bool, u64, usize);

/// The pinned searches, in the order `determinism.rs` lists their golden
/// hashes and `speculation.rs` what their cold probe goes through: two
/// the floor certifies, two that take a failed cold `W−1` routed beside
/// the binary phase, two that adopt a successful one, and one whose
/// speculative probe the search moves past.
pub const CASES: [Case; 7] = [
    (5, true, 1, 6),
    (5, false, 1, 6),
    (5, true, 1, 2),
    (5, false, 1, 2),
    (5, true, 8, 2),
    (5, false, 38, 2),
    (6, false, 43, 2),
];

/// The width search of `case` on `nl` (its netlist) at `threads`.
pub fn search(nl: &ParNetlist, &(_, _, seed, min_width): &Case, threads: usize) -> WidthSearch {
    let arch = fabric::FabricArch::sized_for(nl.logic_count(), nl.io_count());
    let engine = ParEngine::new(EngineOptions {
        seeds: vec![seed],
        threads,
        min_width,
        ..Default::default()
    });
    let placement = engine.place(nl, arch);
    engine
        .min_channel_width(nl, &placement, arch)
        .expect("routable")
}
