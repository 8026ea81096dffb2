//! Mapper correctness against the `verify` crate's equivalence checker.
//!
//! These live as an integration test (not unit tests in `mapper.rs`)
//! because `verify` links the *library* build of `mapping` — calling the
//! checker from unit tests would pit the test harness's own types against
//! the library's and fail to unify. Each test pins both the structural
//! expectations (LUT/TLUT/TCON counts) and full AIG-vs-mapped
//! equivalence over random parameter draws.

use logic::aig::{Aig, InputKind};
use mapping::{map_conventional, map_parameterized, MapOptions};
use verify::Verifier;

fn small_param_circuit() -> Aig {
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
fn parameterized_equivalence_all_params() {
    let aig = small_param_circuit();
    let d = map_parameterized(&aig, MapOptions::default());
    Verifier::new()
        .verify_equivalence(&aig, &d, 4, 0xFEED)
        .assert_ok();
}

#[test]
fn conventional_equivalence() {
    let aig = small_param_circuit();
    let d = map_conventional(&aig, MapOptions::default());
    Verifier::new()
        .verify_equivalence(&aig, &d, 4, 0xBEEF)
        .assert_ok();
}

#[test]
fn pure_wire_mux_becomes_tcon() {
    // f = p ? a : b — the canonical TCON example from the paper.
    let mut g = Aig::new();
    let a = g.input("a", InputKind::Regular);
    let b = g.input("b", InputKind::Regular);
    let p = g.input("p", InputKind::Param);
    let f = g.mux(p, a, b);
    g.add_output("f", f);
    let d = map_parameterized(&g, MapOptions::default());
    let s = d.stats();
    assert_eq!(s.tcons, 1, "mux on a parameter is pure routing: {s:?}");
    assert_eq!(s.luts, 0);
    assert_eq!(s.depth, 0);
    Verifier::new().verify_equivalence(&g, &d, 4, 1).assert_ok();
}

#[test]
fn constant_multiplication_collapses() {
    // x * c for a 4-bit constant c: partial products are TCONs.
    let mut g = Aig::new();
    let x = g.input_vec("x", 4, InputKind::Regular);
    let c = g.input_vec("c", 4, InputKind::Param);
    let prod = softfloat::gates::mul_carry_save(&mut g, &x, &c);
    g.add_output_vec("p", &prod);
    let conv = map_conventional(&g, MapOptions::default());
    let par = map_parameterized(&g, MapOptions::default());
    let (sc, sp) = (conv.stats(), par.stats());
    assert!(
        sp.luts < sc.luts,
        "parameterized map must save LUTs: {} vs {}",
        sp.luts,
        sc.luts
    );
    assert!(sp.tcons > 0, "expected TCONs: {sp:?}");
    Verifier::new()
        .verify_equivalence(&g, &par, 6, 2)
        .assert_ok();
    Verifier::new()
        .verify_equivalence(&g, &conv, 3, 3)
        .assert_ok();
}

#[test]
fn param_only_output_is_tunable_constant() {
    let mut g = Aig::new();
    let p = g.input_vec("p", 2, InputKind::Param);
    let f = g.and(p[0], p[1]);
    g.add_output("f", f);
    let d = map_parameterized(&g, MapOptions::default());
    let s = d.stats();
    assert_eq!(s.luts, 0);
    assert_eq!(s.tunable_constants, 1, "{s:?}");
    Verifier::new().verify_equivalence(&g, &d, 4, 9).assert_ok();
}

#[test]
fn tcon_depth_is_free() {
    // Chain of param muxes: depth should stay 0 (pure routing).
    let mut g = Aig::new();
    let a = g.input("a", InputKind::Regular);
    let b = g.input("b", InputKind::Regular);
    let mut cur = a;
    for i in 0..5 {
        let p = g.input(format!("p{i}"), InputKind::Param);
        cur = g.mux(p, cur, b);
    }
    g.add_output("o", cur);
    let d = map_parameterized(&g, MapOptions::default());
    assert_eq!(d.stats().depth, 0, "{:?}", d.stats());
    Verifier::new().verify_equivalence(&g, &d, 8, 4).assert_ok();
}

#[test]
fn inverted_wire_is_still_a_tcon() {
    // f = !(p ? a : b): physical routing with invert absorbed at output.
    let mut g = Aig::new();
    let a = g.input("a", InputKind::Regular);
    let b = g.input("b", InputKind::Regular);
    let p = g.input("p", InputKind::Param);
    let f = g.mux(p, a, b);
    g.add_output("f", !f);
    let d = map_parameterized(&g, MapOptions::default());
    assert_eq!(d.stats().tcons, 1, "{:?}", d.stats());
    Verifier::new()
        .verify_equivalence(&g, &d, 4, 11)
        .assert_ok();
}

#[test]
fn xor_with_param_is_single_tlut() {
    // f = x ^ p: a 1-input tunable LUT (identity or inverter).
    let mut g = Aig::new();
    let x = g.input("x", InputKind::Regular);
    let p = g.input("p", InputKind::Param);
    let f = g.xor(x, p);
    g.add_output("f", f);
    let d = map_parameterized(&g, MapOptions::default());
    let s = d.stats();
    assert_eq!(s.luts, 1, "{s:?}");
    assert_eq!(s.tluts, 1, "{s:?}");
    assert_eq!(s.tcons, 0, "an inverting mux is not routable: {s:?}");
    Verifier::new()
        .verify_equivalence(&g, &d, 4, 12)
        .assert_ok();
}

#[test]
fn cut_caches_actually_hit() {
    // A bit-sliced constant multiplier: heavy structural repetition, so
    // the same PTT signatures recur across slices — exactly the designs
    // the mapper's signature caches exist for. That a hit changes nothing
    // is pinned by `identity.rs`, whose fingerprints were recorded before
    // the caches' BDD kernel changed.
    let mut g = Aig::new();
    let x = g.input_vec("x", 6, InputKind::Regular);
    let c = g.input_vec("c", 6, InputKind::Param);
    let prod = softfloat::gates::mul_carry_save(&mut g, &x, &c);
    g.add_output_vec("p", &prod);

    let (cached, effort) = mapping::map_parameterized_with_effort(&g, MapOptions::default());
    Verifier::new()
        .verify_equivalence(&g, &cached, 5, 0xCAFE)
        .assert_ok();

    // And it must actually be a cache, not dead weight.
    assert!(
        effort.tcon_cache_hits > 0,
        "no TCON-check hits on a bit-sliced design: {effort:?}"
    );
    assert!(effort.ptt_cache_hits > 0, "no PTT-merge hits: {effort:?}");
    assert!(effort.tcon_checks >= effort.tcon_cache_hits);
    assert!(effort.ptt_merges >= effort.ptt_cache_hits);
}
