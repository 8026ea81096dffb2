//! Property-based tests over the core invariants:
//!
//! * random parameterized circuits map equivalently through both flows;
//! * FloPoCo arithmetic is commutative, within rounding error of `f64`,
//!   and hardware-consistent;
//! * PE settings evaluate like the documented formulas;
//! * the lowered execution plan and the dataflow interpreter agree bit
//!   for bit, special values included, on a mapped graph too;
//! * a graph the runtime admits is a graph it can run, and a malformed
//!   one is refused at the door;
//! * `run` refuses a call if and only if some item is malformed, with the
//!   error of the first such item, at any worker count;
//! * `same_structure`, the cache key, the routing key and the verifier's
//!   signature agree on which graphs share a compile;
//! * the synthetic image generator and metrics behave sanely.

use logic::aig::{Aig, InputKind, Lit};
use mapping::{map_conventional, map_parameterized, MapOptions};
use proptest::prelude::*;
use runtime::{Runtime, RuntimeConfig, RuntimeError, StreamRequest};
use softfloat::{FpClass, FpFormat, FpValue, NotIn};
use vcgra::app::{AppGraph, AppSource, GraphError};
use vcgra::flow::FlowError;
use vcgra::sim::{run_dataflow, run_mapped, ExecPlan};
use vcgra::{PeMode, PeSettings, VcgraArch};

/// Builds a random parameterized circuit from a compact recipe: each gate
/// picks an operation and two earlier signals.
fn build_random_aig(ops: &[(u8, u8, u8)], n_reg: usize, n_param: usize) -> Aig {
    let mut g = Aig::new();
    let mut pool: Vec<Lit> = Vec::new();
    for i in 0..n_reg {
        pool.push(g.input(format!("x{i}"), InputKind::Regular));
    }
    for i in 0..n_param {
        pool.push(g.input(format!("p{i}"), InputKind::Param));
    }
    for &(op, a, b) in ops {
        let la = pool[a as usize % pool.len()];
        let lb = pool[b as usize % pool.len()];
        let out = match op % 5 {
            0 => g.and(la, lb),
            1 => g.or(la, lb),
            2 => g.xor(la, lb),
            3 => g.mux(la, lb, !la),
            _ => !g.and(la, !lb),
        };
        pool.push(out);
    }
    // Outputs: the last few signals.
    let n_out = pool.len().min(4);
    for (i, &l) in pool[pool.len() - n_out..].iter().enumerate() {
        g.add_output(format!("o{i}"), l);
    }
    g
}

/// The mapping-equivalence sweep dominates this binary's wall clock, so
/// its full 48-case budget hides behind the `proptest-full` feature
/// (CI's scheduled job turns it on); the default keeps `cargo test -q`
/// fast as the suite grows.
const MAP_CASES: u32 = if cfg!(feature = "proptest-full") {
    48
} else {
    12
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(MAP_CASES))]

    #[test]
    fn random_circuits_map_equivalently(
        ops in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..40),
        seed in any::<u64>(),
    ) {
        let aig = build_random_aig(&ops, 4, 3);
        let par = map_parameterized(&aig, MapOptions::default());
        let conv = map_conventional(&aig, MapOptions::default());
        verify::Verifier::new().verify_equivalence(&aig, &par, 4, seed).assert_ok();
        verify::Verifier::new().verify_equivalence(&aig, &conv, 1, seed).assert_ok();
        // The parameterized flow never uses more LUTs than the conventional
        // flow needs once its extra inputs are discounted — weaker, robust
        // invariant: LUT count is bounded by gate count.
        prop_assert!(par.stats().luts <= aig.num_ands() + 1);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn flopoco_commutativity(a in -1e4f64..1e4, b in -1e4f64..1e4) {
        let f = FpFormat::PAPER;
        let (x, y) = (FpValue::from_f64(a, f), FpValue::from_f64(b, f));
        prop_assert_eq!(x.add(y).bits, y.add(x).bits);
        prop_assert_eq!(x.mul(y).bits, y.mul(x).bits);
    }

    #[test]
    fn flopoco_add_error_bound(a in -1e3f64..1e3, b in -1e3f64..1e3) {
        let f = FpFormat::PAPER;
        let got = FpValue::from_f64(a, f).add(FpValue::from_f64(b, f)).to_f64();
        let exact = a + b;
        let scale = a.abs().max(b.abs()).max(exact.abs()).max(1e-30);
        prop_assert!((got - exact).abs() <= scale * 4.0 / (1u64 << 26) as f64);
    }

    #[test]
    fn flopoco_mul_error_bound(a in -1e3f64..1e3, b in -1e3f64..1e3) {
        // mul against the f64 reference (ROADMAP: fuzz add/mul/mac vs f64).
        let f = FpFormat::PAPER;
        let got = FpValue::from_f64(a, f).mul(FpValue::from_f64(b, f)).to_f64();
        let exact = a * b;
        // Inputs round once, the product rounds once: a few ulp suffice.
        let tol = exact.abs().max(1e-30) * 4.0 / (1u64 << 26) as f64;
        prop_assert!((got - exact).abs() <= tol, "a={a} b={b} got={got} exact={exact}");
    }

    #[test]
    fn flopoco_mac_error_bound(
        x in -1e2f64..1e2,
        c in -1e2f64..1e2,
        acc in -1e3f64..1e3,
    ) {
        // mac = mul-then-add with intermediate rounding, against f64.
        let f = FpFormat::PAPER;
        let got = FpValue::from_f64(x, f)
            .mac(FpValue::from_f64(c, f), FpValue::from_f64(acc, f))
            .to_f64();
        let exact = x * c + acc;
        let scale = (x * c).abs().max(acc.abs()).max(exact.abs()).max(1e-30);
        // Three roundings (two inputs' product, one sum) plus cancellation
        // headroom via the scale term.
        prop_assert!(
            (got - exact).abs() <= scale * 8.0 / (1u64 << 26) as f64,
            "x={x} c={c} acc={acc} got={got} exact={exact}"
        );
        // And mac must be exactly mul-then-add at the bit level.
        let lhs = FpValue::from_f64(x, f).mac(FpValue::from_f64(c, f), FpValue::from_f64(acc, f));
        let rhs = FpValue::from_f64(x, f).mul(FpValue::from_f64(c, f)).add(FpValue::from_f64(acc, f));
        prop_assert_eq!(lhs.bits, rhs.bits);
    }

    #[test]
    fn flopoco_mul_identity(a in -1e4f64..1e4) {
        let f = FpFormat::PAPER;
        let x = FpValue::from_f64(a, f);
        let one = FpValue::from_f64(1.0, f);
        prop_assert_eq!(x.mul(one).bits, x.bits);
        let zero = FpValue::zero(f);
        prop_assert_eq!(x.add(zero).bits, x.bits);
    }

    #[test]
    fn roundtrip_is_idempotent(a in -1e6f64..1e6) {
        let f = FpFormat::PAPER;
        let once = FpValue::from_f64(a, f);
        let twice = FpValue::from_f64(once.to_f64(), f);
        prop_assert_eq!(once.bits, twice.bits, "rounding must be idempotent");
    }

    #[test]
    fn pe_mac_mode_formula(x in -50f64..50.0, c in -50f64..50.0, fb in -50f64..50.0) {
        let f = FpFormat::PAPER;
        let s = vcgra::PeSettings::mac(FpValue::from_f64(c, f), 1);
        let (out, fbn) = s.evaluate(
            FpValue::from_f64(x, f),
            FpValue::zero(f),
            FpValue::from_f64(fb, f),
        );
        let want = FpValue::from_f64(x, f)
            .mac(FpValue::from_f64(c, f), FpValue::from_f64(fb, f));
        prop_assert_eq!(out.bits, want.bits);
        prop_assert_eq!(fbn.bits, want.bits);
    }

    #[test]
    fn truth_table_shannon_expansion(bits in any::<u16>(), var in 0usize..4) {
        let t = logic::TruthTable::from_bits(bits as u64, 4);
        let x = logic::TruthTable::var(var, 4);
        let rebuilt = x.and(&t.cofactor1(var)).or(&x.not().and(&t.cofactor0(var)));
        prop_assert_eq!(rebuilt, t);
    }

    #[test]
    fn bdd_or_of_cover_is_tautology(n in 1usize..6) {
        // The TCON condition machinery relies on disjoint covers OR-ing to
        // true: check with one-hot covers over n variables.
        let mut m = logic::BddManager::new();
        let mut cover = logic::Bdd::FALSE;
        for v in 0..n as u32 {
            // term: var v true, all earlier vars false.
            let mut term = m.var(v);
            for u in 0..v {
                let nu = m.nvar(u);
                term = m.and(term, nu);
            }
            cover = m.or(cover, term);
        }
        // plus the all-false corner
        let mut allf = logic::Bdd::TRUE;
        for v in 0..n as u32 {
            let nv = m.nvar(v);
            allf = m.and(allf, nv);
        }
        cover = m.or(cover, allf);
        prop_assert!(cover.is_true());
    }

    #[test]
    fn metrics_bounds(seed in any::<u64>()) {
        let cfg = retina::SynthConfig { size: 48, ..Default::default() };
        let (img, truth) = retina::synth_fundus(&cfg, seed);
        // Segment with a trivial threshold; metrics must stay in [0,1].
        let seg = img.g.threshold(0.5);
        let m = retina::Metrics::evaluate(&seg, &truth);
        for v in [m.precision(), m.recall(), m.f1(), m.accuracy()] {
            prop_assert!((0.0..=1.0).contains(&v));
        }
        prop_assert_eq!(m.tp + m.fp + m.fn_ + m.tn, 48 * 48);
    }
}

/// The formats the execution plan is checked in.
const PLAN_FORMATS: [FpFormat; 4] = [
    FpFormat::TINY,
    FpFormat { we: 4, wf: 6 },
    FpFormat { we: 5, wf: 10 },
    FpFormat::PAPER,
];

const PLAN_MODES: [PeMode; 4] = [PeMode::Mul, PeMode::Mac, PeMode::Add, PeMode::Pass];

/// A value for one draw: half the time one of the cases the arithmetic
/// special-cases (signed zeros and infinities, NaN, the largest and the
/// smallest normal magnitudes, whose products and sums overflow and
/// underflow, an arbitrary bit pattern), otherwise a normal number near
/// one.
fn plan_value(draw: u64, f: FpFormat) -> FpValue {
    let sign = draw & 1 == 1;
    let raw = draw >> 8;
    let top = f.max_exp() as u64;
    let frac = raw & ((1 << f.wf) - 1);
    let normal =
        |exp: u64, frac: u64| FpValue::from_bits(f.pack(FpClass::Normal, sign, exp, frac), f);
    match (draw >> 1) % 16 {
        0 => FpValue::signed_zero(f, sign),
        1 => FpValue::infinity(f, sign),
        2 => FpValue::nan(f),
        3 => normal(top, (1 << f.wf) - 1),
        4 => normal(top - 1, frac),
        5 => normal(0, 0),
        6 => normal(1, frac),
        7 => FpValue::from_bits(raw, f),
        _ => normal((f.bias() as u64 - 1) + (raw >> 52) % 3, frac),
    }
}

/// A graph over three external inputs from a recipe: each node draws its
/// mode, its two operands (zero, an input, or any earlier node) and its
/// coefficient. The last node and every third one are outputs.
fn plan_graph(recipe: &[(u8, u8, u8, u64)], f: FpFormat) -> AppGraph {
    let mut g = AppGraph::new(f, 3);
    for (i, &(mode, a, b, coeff)) in recipe.iter().enumerate() {
        let source = |pick: u8| match pick as usize % (4 + i) {
            0 => AppSource::Zero,
            k @ 1..=3 => AppSource::External(k - 1),
            k => AppSource::Node(k - 4),
        };
        let op = PLAN_MODES[mode as usize % 4];
        let coeff = matches!(op, PeMode::Mul | PeMode::Mac).then(|| plan_value(coeff, f));
        g.add(op, coeff, source(a), source(b));
        if i % 3 == 2 || i + 1 == recipe.len() {
            g.mark_output(i);
        }
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn exec_plan_matches_both_interpreters(
        recipe in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), any::<u64>()), 1..17),
        draws in prop::collection::vec((any::<u64>(), any::<u64>(), any::<u64>()), 64..65),
        seed in any::<u64>(),
    ) {
        for f in PLAN_FORMATS {
            let app = plan_graph(&recipe, f);
            let mapping = vcgra::flow::map_app(&app, VcgraArch::new(4, 4, 8), seed)
                .expect("sixteen nodes fit a 4x4 grid with eight tracks a channel");
            let plan = ExecPlan::lower(&app).expect("a valid graph lowers");
            // Every eighth lane draws from all of `plan_value`, specials
            // included; the lanes between are normal numbers near one, so
            // a special value sits alone among ordinary neighbours.
            let near_one = 8 << 1;
            let items: Vec<Vec<FpValue>> = draws
                .iter()
                .enumerate()
                .map(|(lane, &(x, y, z))| {
                    let force = if lane % 8 == 0 { 0 } else { near_one };
                    vec![plan_value(x | force, f), plan_value(y | force, f), plan_value(z | force, f)]
                })
                .collect();
            let mapped: Vec<Vec<FpValue>> =
                items.iter().map(|item| run_mapped(&mapping, &app, item)).collect();
            for (item, mapped) in items.iter().zip(&mapped) {
                prop_assert_eq!(mapped, &run_dataflow(&app, item));
            }
            // One column buffer across chunks, as an engine worker keeps
            // it; a lane's result must not depend on its neighbours or on
            // how many there are.
            let mut columns = Vec::new();
            for lanes in [1, 3, 64] {
                let mut got = items.clone();
                for chunk in got.chunks_mut(lanes) {
                    plan.run_chunk(chunk, &mut columns).expect("every item is well-formed");
                }
                prop_assert_eq!(&got, &mapped, "chunks of {} lanes", lanes);
            }
        }
    }

    #[test]
    fn whatever_submit_admits_run_lowers(
        recipe in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), any::<u64>()), 1..17),
        edits in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 6..7),
    ) {
        for (k, f) in PLAN_FORMATS.into_iter().enumerate() {
            // The recipe as drawn, then once per edit with one public
            // field overwritten: an operand, an output, a coefficient's
            // format, a coefficient dropped, or every node. Some edits
            // land on a legal value.
            let valid = plan_graph(&recipe, f);
            let mut graphs = vec![valid.clone()];
            for &(field, at, value) in &edits {
                let mut g = valid.clone();
                let (n, at) = (g.nodes.len(), at as usize % g.nodes.len());
                match field % 6 {
                    0 => g.nodes[at].a = AppSource::Node(value as usize % (n + 2)),
                    1 => g.nodes[at].b = AppSource::External(value as usize % 5),
                    2 => g.outputs.push(value as usize % (n + 2)),
                    3 => {
                        let other = PLAN_FORMATS[(k + 1) % PLAN_FORMATS.len()];
                        g.nodes[at].coeff = g.nodes[at].coeff.map(|_| plan_value(value as u64, other));
                    }
                    4 => g.nodes[at].coeff = None,
                    _ => g.nodes.clear(),
                }
                graphs.push(g);
            }
            let mut rt = Runtime::new(RuntimeConfig {
                grids: vec![VcgraArch::new(4, 4, 8)],
                ..RuntimeConfig::default()
            });
            for g in graphs {
                // What `validate` calls a graph, under the name the
                // runtime refuses it by.
                let well_formed = g.validate().map_err(|why| match why {
                    GraphError::CoeffFormat { node, .. } => RuntimeError::BadValue {
                        format: f,
                        why: NotIn::Format(g.nodes[node].coeff.expect("the coefficient named").format),
                    },
                    why => RuntimeError::Flow(FlowError::Graph(why)),
                });
                match rt.submit("g", g) {
                    Ok(admission) => {
                        prop_assert_eq!(well_formed, Ok(()));
                        let tenant = admission.expect_admitted("an empty 4x4 grid").tenant;
                        let item = vec![plan_value(1 << 5, f); 3];
                        let runs = rt.run(vec![StreamRequest { tenant, inputs: vec![item] }]);
                        prop_assert!(runs.is_ok(), "admitted, then refused by run: {:?}", runs.err());
                        rt.release(tenant).expect("live tenant");
                    }
                    Err(e) => {
                        prop_assert_eq!(Err(e), well_formed, "a well-formed recipe fits and routes");
                    }
                }
            }
            prop_assert_eq!(rt.pool().bands().len(), 0, "a refused graph holds no rows");
        }
    }

    #[test]
    fn run_refuses_exactly_at_the_first_bad_item(
        picks in prop::collection::vec((any::<u8>(), 0usize..150), 1..4),
        faults in prop::collection::vec((any::<u8>(), any::<u16>(), any::<u8>()), 0..3),
        workers in 1usize..9,
    ) {
        let f = FpFormat::PAPER;
        let other = FpFormat::new(5, 10);
        let mut rt = Runtime::new(RuntimeConfig { workers, ..RuntimeConfig::default() });
        let graphs = [
            runtime::kernels::fir(f, &[0.5, 0.25]).graph,
            AppGraph::dot_product(f, &[1.0, -2.0, 0.75]),
            runtime::kernels::tree_reduction(f, 4).graph,
        ];
        let ids: Vec<_> = graphs
            .iter()
            .map(|g| rt.submit("t", g.clone()).unwrap().expect_admitted("a free band").tenant)
            .collect();
        // Requests of 0 to 149 items, some tenants asked for twice, then
        // each fault drops a value, adds one, or puts one in another format.
        let mut requests: Vec<(usize, StreamRequest)> = picks
            .iter()
            .map(|&(t, n)| {
                let g = t as usize % graphs.len();
                let inputs = (0..n)
                    .map(|i| (0..graphs[g].num_inputs).map(|k| FpValue::from_f64((i * 3 + k) as f64 * 0.25, f)).collect())
                    .collect();
                (g, StreamRequest { tenant: ids[g], inputs })
            })
            .collect();
        for &(at, item, kind) in &faults {
            let r = at as usize % requests.len();
            let inputs = &mut requests[r].1.inputs;
            if inputs.is_empty() {
                continue;
            }
            let at = item as usize % inputs.len();
            let item = &mut inputs[at];
            match kind % 3 {
                0 => item.truncate(item.len().saturating_sub(1)),
                1 => item.push(FpValue::from_f64(1.0, f)),
                _ => {
                    if let Some(v) = item.first_mut() {
                        *v = FpValue::from_f64(1.0, other);
                    }
                }
            }
        }
        // The oracle, a serial check: request by request, item by item,
        // arity before format.
        let door = || -> Result<(), RuntimeError> {
            for (g, req) in &requests {
                let g = &graphs[*g];
                for item in &req.inputs {
                    if item.len() != g.num_inputs {
                        return Err(RuntimeError::BadInputArity { expected: g.num_inputs, got: item.len() });
                    }
                    if let Some(v) = item.iter().find(|v| v.format != g.format) {
                        return Err(RuntimeError::BadValue { format: g.format, why: NotIn::Format(v.format) });
                    }
                }
            }
            Ok(())
        };
        let want = door();
        // Runs come back in tenant order, a tenant's in request order.
        let mut served: Vec<(usize, Vec<Vec<FpValue>>)> =
            requests.iter().map(|(g, r)| (*g, r.inputs.clone())).collect();
        served.sort_by_key(|&(g, _)| ids[g]);
        let ran = rt.run(requests.into_iter().map(|(_, r)| r).collect());
        match want {
            Err(e) => {
                prop_assert_eq!(ran.err(), Some(e));
                prop_assert_eq!(rt.ledger().items, 0, "a refused call streams nothing");
            }
            Ok(()) => {
                let runs = ran.expect("no item is bad");
                prop_assert_eq!(runs.len(), served.len());
                for ((g, inputs), run) in served.iter().zip(&runs) {
                    prop_assert_eq!(run.outputs.len(), inputs.len());
                    for (input, output) in inputs.iter().zip(&run.outputs) {
                        prop_assert_eq!(output, &run_dataflow(&graphs[*g], input));
                    }
                }
            }
        }
    }

    #[test]
    fn every_reading_of_structure_agrees(
        recipe in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), any::<u64>()), 1..17),
        edits in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 12..13),
    ) {
        let f = PLAN_FORMATS[0];
        let region = VcgraArch::new(4, 4, 8);
        let key = |g: &AppGraph| runtime::ConfigKey::new(region, g);
        let sig = |g: &AppGraph| {
            verify::sched::StructureSig::of(region.rows, region.cols, region.channel_capacity, g)
        };
        let a = plan_graph(&recipe, f);
        for &(field, at, value) in &edits {
            // A copy with one public field overwritten. A coefficient's
            // value is not structure, and an operand or a mode can be
            // overwritten with what it already held.
            let mut b = a.clone();
            let (n, value) = (b.nodes.len(), value as usize);
            let node = &mut b.nodes[at as usize % n];
            match field % 9 {
                0 => node.op = PLAN_MODES[value % 4],
                1 => node.a = [AppSource::Zero, AppSource::External(value % 3)][value % 2],
                2 => node.b = AppSource::Node(value % n),
                3 => node.coeff = match node.coeff {
                    Some(_) => None,
                    None => Some(plan_value(value as u64, f)),
                },
                4 => node.coeff = node.coeff.map(|_| plan_value(value as u64, f)),
                5 => b.outputs.push(value % n),
                6 => b.num_inputs += value % 2,
                7 => b.format = PLAN_FORMATS[value % PLAN_FORMATS.len()],
                _ => b.nodes.truncate(n - value % 2),
            }
            let same = a.same_structure(&b);
            prop_assert_eq!(key(&a) == key(&b), same, "cache key, edit {}", field % 9);
            prop_assert_eq!(sig(&a) == sig(&b), same, "verifier signature, edit {}", field % 9);
            if same {
                prop_assert_eq!(shard::RouteKey::of(&a), shard::RouteKey::of(&b));
            }
        }
    }

    #[test]
    fn exec_plan_ops_match_pe_settings(a in any::<u64>(), b in any::<u64>(), c in any::<u64>()) {
        for f in PLAN_FORMATS {
            let (a, b, coeff) = (plan_value(a, f), plan_value(b, f), plan_value(c, f));
            for mode in PLAN_MODES {
                let mut app = AppGraph::new(f, 2);
                let takes_coeff = matches!(mode, PeMode::Mul | PeMode::Mac);
                let node = app.add(
                    mode,
                    takes_coeff.then_some(coeff),
                    AppSource::External(0),
                    AppSource::External(1),
                );
                app.mark_output(node);
                let plan = ExecPlan::lower(&app).expect("a valid graph lowers");
                let settings = PeSettings { coeff, counter: 1, mode };
                let (want, _) = settings.evaluate(a, b, FpValue::zero(f));
                let mut item = [vec![a, b]];
                prop_assert_eq!(plan.run_chunk(&mut item, &mut Vec::new()), Ok(()));
                prop_assert_eq!(&item[0], &vec![want]);
            }
        }
    }
}
