//! Plan synthesis: every graph, coefficient vector and input stream the
//! workloads feed the program, as a pure function of the seed.
//!
//! Graphs are built through `vcgra::app::AppGraph` and the
//! explicit-argument constructors of `runtime::kernels` only. The set of
//! graph *structures* is frozen (it fixes how much work one operation is);
//! the seed chooses coefficients, inputs, visiting order and the Zipf
//! draws.

use crate::rng::{Rng, Zipf};
use runtime::kernels;
use softfloat::{FpFormat, FpValue};
use vcgra::app::AppGraph;

/// Datapath format of every served graph: the paper's FloPoCo (6,26).
pub const FORMAT: FpFormat = FpFormat::PAPER;

/// FNV-1a over 64-bit words: the plan hash and the output fingerprint.
#[derive(Debug, Clone)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn write(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn write_values(&mut self, values: &[FpValue]) {
        self.write(values.len() as u64);
        for v in values {
            self.write(v.bits);
        }
    }

    pub fn write_outputs(&mut self, outputs: &[Vec<FpValue>]) {
        self.write(outputs.len() as u64);
        for o in outputs {
            self.write_values(o);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// One graph structure of the frozen family. Two shapes are two different
/// configuration-cache keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// `n`-tap FIR: multiply layer and adder tree, `2n - 1` PEs.
    Fir(usize),
    /// `n`-leaf tree reduction, no coefficients, `2n - 1` PEs.
    Reduce(usize),
    /// `r x c` matrix-vector product, `r (2c - 1)` PEs.
    Matvec(usize, usize),
    /// Separable stencil over an `r x c` window, `2rc + r - 1` PEs.
    Stencil(usize, usize),
    /// `n`-tap MAC chain, `2n - 1` PEs.
    MacChain(usize),
    /// `n` scalings in series, `n` PEs.
    Cascade(usize),
}

impl Shape {
    pub fn name(self) -> String {
        match self {
            Shape::Fir(n) => format!("fir{n}"),
            Shape::Reduce(n) => format!("reduce{n}"),
            Shape::Matvec(r, c) => format!("matvec{r}x{c}"),
            Shape::Stencil(r, c) => format!("stencil{r}x{c}"),
            Shape::MacChain(n) => format!("macchain{n}"),
            Shape::Cascade(n) => format!("cascade{n}"),
        }
    }

    /// Coefficient slots of the shape (MUL nodes).
    pub fn coeffs(self) -> usize {
        match self {
            Shape::Fir(n) | Shape::MacChain(n) | Shape::Cascade(n) => n,
            Shape::Reduce(_) => 0,
            Shape::Matvec(r, c) => r * c,
            Shape::Stencil(r, c) => r * c + r,
        }
    }

    /// Builds the graph with coefficients drawn from `rng`.
    pub fn build(self, rng: &mut Rng) -> AppGraph {
        let mut draw = |n: usize| -> Vec<f64> { (0..n).map(|_| rng.range(-1.0, 1.0)).collect() };
        match self {
            Shape::Fir(n) => kernels::fir(FORMAT, &draw(n)).graph,
            Shape::Reduce(n) => kernels::tree_reduction(FORMAT, n).graph,
            Shape::Matvec(r, c) => {
                let rows: Vec<Vec<f64>> = (0..r).map(|_| draw(c)).collect();
                kernels::matvec(FORMAT, &rows).graph
            }
            Shape::Stencil(r, c) => {
                let row = draw(c);
                let col = draw(r);
                kernels::separable_stencil(FORMAT, &row, &col).graph
            }
            Shape::MacChain(n) => AppGraph::mac_chain(FORMAT, &draw(n)),
            Shape::Cascade(n) => AppGraph::scaling_cascade(FORMAT, &draw(n)),
        }
    }
}

/// The frozen family: every shape of at most 64 PEs the workloads draw
/// from, in a fixed order.
pub fn family() -> Vec<Shape> {
    let mut f = Vec::new();
    f.extend((2..=20).map(Shape::Fir));
    f.extend((2..=32).map(Shape::Reduce));
    for r in 2..=8 {
        for c in 2..=8 {
            if r * (2 * c - 1) <= 64 {
                f.push(Shape::Matvec(r, c));
            }
        }
    }
    for r in 2..=5 {
        for c in 2..=5 {
            f.push(Shape::Stencil(r, c));
        }
    }
    f.extend((2..=32).map(Shape::MacChain));
    f.extend((2..=40).map(Shape::Cascade));
    f
}

/// Shapes in the `app_churn` pool. More than the configuration cache
/// holds (32), so a round-robin visit never finds its entry.
pub const CHURN_POOL: usize = 64;

/// The `app_churn` pool: a fixed stride through the family, so every
/// kind and size is represented.
pub fn churn_pool() -> Vec<Shape> {
    let f = family();
    // The family size (173) is prime, so the walk visits 64 distinct
    // members spread over all six kinds.
    (0..CHURN_POOL).map(|i| f[(i * 67) % f.len()]).collect()
}

/// The `shard_mixed` hot set: twelve small and medium shapes.
pub fn hot_set() -> Vec<Shape> {
    vec![
        Shape::Fir(5),
        Shape::Stencil(3, 3),
        Shape::Matvec(3, 4),
        Shape::Reduce(8),
        Shape::Fir(9),
        Shape::MacChain(6),
        Shape::Cascade(4),
        Shape::Matvec(2, 5),
        Shape::Fir(3),
        Shape::Reduce(16),
        Shape::Stencil(2, 3),
        Shape::MacChain(10),
    ]
}

/// The `shard_mixed` cold pool: the family without the hot set.
pub fn cold_pool() -> Vec<Shape> {
    let hot = hot_set();
    family().into_iter().filter(|s| !hot.contains(s)).collect()
}

/// `n` seeded values in `[-2, 2)`.
pub fn values(rng: &mut Rng, n: usize) -> Vec<FpValue> {
    (0..n)
        .map(|_| FpValue::from_f64(rng.range(-2.0, 2.0), FORMAT))
        .collect()
}

/// `items` seeded input vectors for a graph.
pub fn inputs(rng: &mut Rng, graph: &AppGraph, items: usize) -> Vec<Vec<FpValue>> {
    (0..items).map(|_| values(rng, graph.num_inputs)).collect()
}

/// `n` seeded coefficients in `[-1, 1)`.
pub fn coeffs(rng: &mut Rng, n: usize) -> Vec<FpValue> {
    (0..n)
        .map(|_| FpValue::from_f64(rng.range(-1.0, 1.0), FORMAT))
        .collect()
}

/// True when `got` is, bit for bit, what the reference interpreter
/// (`vcgra::sim::run_dataflow`, not `run_mapped`) computes for `x`.
pub fn interpreter_agrees(graph: &AppGraph, x: &[FpValue], got: &[FpValue]) -> bool {
    let want = vcgra::sim::run_dataflow(graph, x);
    want.len() == got.len() && want.iter().zip(got).all(|(a, b)| a.bits == b.bits)
}

/// [`interpreter_agrees`] over a whole batch of inputs and outputs.
pub fn interpreter_agrees_on(
    graph: &AppGraph,
    inputs: &[Vec<FpValue>],
    outputs: &[Vec<FpValue>],
) -> bool {
    inputs.len() == outputs.len()
        && inputs
            .iter()
            .zip(outputs)
            .all(|(x, got)| interpreter_agrees(graph, x, got))
}

/// Folds a graph (structure and coefficients) into a plan hash.
pub fn hash_graph(h: &mut Fnv, g: &AppGraph) {
    use vcgra::app::AppSource;
    h.write(g.num_inputs as u64);
    h.write(g.nodes.len() as u64);
    for n in &g.nodes {
        h.write(n.op as u64);
        h.write(n.coeff.map_or(u64::MAX, |c| c.bits));
        for s in [n.a, n.b] {
            match s {
                AppSource::External(i) => h.write(1 << 32 | i as u64),
                AppSource::Node(j) => h.write(2 << 32 | j as u64),
                AppSource::Zero => h.write(3 << 32),
            }
        }
    }
    h.write(g.outputs.len() as u64);
    for &o in &g.outputs {
        h.write(o as u64);
    }
}

/// One scripted tenant lifecycle of `shard_mixed`.
#[derive(Debug, Clone)]
pub struct Lifecycle {
    /// Index into [`ShardPlan::shapes`].
    pub shape: usize,
    /// Coefficients the tenant is admitted with.
    pub coeffs: Vec<FpValue>,
    /// Coefficients of the mid-life swap.
    pub swap: Vec<FpValue>,
}

/// The `shard_mixed` plan: a cycle of lifecycles the driver replays until
/// the window closes.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    /// One base graph per shape: the hot set first, then the cold pool.
    pub graphs: Vec<AppGraph>,
    /// One 64-item input batch per shape.
    pub inputs: Vec<Vec<Vec<FpValue>>>,
    pub cycle: Vec<Lifecycle>,
    /// One lifecycle per hot shape, run in set-up to warm the caches.
    pub priming: Vec<Lifecycle>,
    pub hash: u64,
}

/// Items per `run` of a `shard_mixed` lifecycle.
pub const SHARD_ITEMS: usize = 64;
/// Lifecycles in the `shard_mixed` cycle.
pub const SHARD_CYCLE: usize = 4096;
/// Share of lifecycles drawn uniformly from the cold pool, per mille.
pub const SHARD_COLD_PER_MILLE: u64 = 80;

pub fn shard_plan(seed: u64) -> ShardPlan {
    let hot = hot_set();
    let mut shapes = hot.clone();
    shapes.extend(cold_pool());
    let mut rng = Rng::fork(seed, "shard.graphs");
    let graphs: Vec<AppGraph> = shapes.iter().map(|s| s.build(&mut rng)).collect();
    let mut rng = Rng::fork(seed, "shard.inputs");
    let inputs: Vec<_> = graphs
        .iter()
        .map(|g| inputs(&mut rng, g, SHARD_ITEMS))
        .collect();
    let lifecycle = |shape: usize, rng: &mut Rng| {
        let n = shapes[shape].coeffs();
        Lifecycle {
            shape,
            coeffs: coeffs(rng, n),
            swap: coeffs(rng, n),
        }
    };
    let mut rng = Rng::fork(seed, "shard.priming");
    let priming: Vec<Lifecycle> = (0..hot.len())
        .map(|shape| lifecycle(shape, &mut rng))
        .collect();
    let mut rng = Rng::fork(seed, "shard.cycle");
    let zipf = Zipf::new(hot.len(), 1.0);
    let cycle: Vec<Lifecycle> = (0..SHARD_CYCLE)
        .map(|_| {
            let shape = if rng.next_u64() % 1000 < SHARD_COLD_PER_MILLE {
                hot.len() + rng.index(shapes.len() - hot.len())
            } else {
                zipf.sample(&mut rng)
            };
            lifecycle(shape, &mut rng)
        })
        .collect();
    let mut h = Fnv::new();
    for g in &graphs {
        hash_graph(&mut h, g);
    }
    for batch in &inputs {
        h.write_outputs(batch);
    }
    for l in priming.iter().chain(&cycle) {
        h.write(l.shape as u64);
        h.write_values(&l.coeffs);
        h.write_values(&l.swap);
    }
    ShardPlan {
        graphs,
        inputs,
        cycle,
        priming,
        hash: h.finish(),
    }
}

/// The `app_churn` plan: the pool visited round-robin in a seeded order,
/// each visit under fresh coefficients.
#[derive(Debug, Clone)]
pub struct ChurnPlan {
    pub shapes: Vec<Shape>,
    /// `CHURN_PASSES` graphs per shape (same structure, fresh
    /// coefficients), indexed `[pass][position in the permutation]`.
    pub visits: Vec<AppGraph>,
    /// Shape index of each visit of the cycle.
    pub visit_shape: Vec<usize>,
    /// One 16-item input batch per shape.
    pub inputs: Vec<Vec<Vec<FpValue>>>,
    pub hash: u64,
}

/// Items per `run` of an `app_churn` visit.
pub const CHURN_ITEMS: usize = 16;
/// Passes over the pool in the `app_churn` cycle.
pub const CHURN_PASSES: usize = 4;

pub fn churn_plan(seed: u64) -> ChurnPlan {
    let shapes = churn_pool();
    let order = Rng::fork(seed, "churn.order").permutation(shapes.len());
    let mut rng = Rng::fork(seed, "churn.graphs");
    let mut visits = Vec::with_capacity(CHURN_PASSES * shapes.len());
    let mut visit_shape = Vec::with_capacity(visits.capacity());
    for _ in 0..CHURN_PASSES {
        for &s in &order {
            visits.push(shapes[s].build(&mut rng));
            visit_shape.push(s);
        }
    }
    let mut rng = Rng::fork(seed, "churn.inputs");
    // The first pass holds one graph of every shape, at `order`'s position.
    let inputs: Vec<_> = (0..shapes.len())
        .map(|s| {
            let pos = order
                .iter()
                .position(|&o| o == s)
                .expect("order is a permutation");
            inputs(&mut rng, &visits[pos], CHURN_ITEMS)
        })
        .collect();
    let mut h = Fnv::new();
    for g in &visits {
        hash_graph(&mut h, g);
    }
    for batch in &inputs {
        h.write_outputs(batch);
    }
    ChurnPlan {
        shapes,
        visits,
        visit_shape,
        inputs,
        hash: h.finish(),
    }
}

/// The `serve_stream` plan: seven long-lived tenants, one large input
/// batch each, and a cycle of coefficient sets for the swaps.
#[derive(Debug, Clone)]
pub struct StreamPlan {
    pub names: Vec<String>,
    pub graphs: Vec<AppGraph>,
    /// `items` input vectors per tenant.
    pub inputs: Vec<Vec<Vec<FpValue>>>,
    /// `STREAM_SWAP_SETS` coefficient sets, one vector per tenant.
    pub swaps: Vec<Vec<Vec<FpValue>>>,
    pub hash: u64,
}

/// Items per tenant per `run` call of `serve_stream`.
pub const STREAM_ITEMS: usize = 4096;
/// A swap of every tenant precedes every this-many-th call.
pub const STREAM_SWAP_EVERY: usize = 10;
/// Coefficient sets in the swap cycle.
pub const STREAM_SWAP_SETS: usize = 16;

pub fn stream_plan(seed: u64, items: usize) -> StreamPlan {
    use retina::filters::{gaussian, matched_filter, texture_filter};
    let mut rng = Rng::fork(seed, "stream.graphs");
    let mut tenants = vec![
        Shape::Fir(5),
        Shape::Stencil(3, 3),
        Shape::Matvec(3, 4),
        Shape::Reduce(8),
    ]
    .into_iter()
    .map(|s| (s.name(), s.build(&mut rng)))
    .collect::<Vec<_>>();
    for kernel in [
        gaussian(3, 0.85),
        texture_filter(3, 1.2),
        matched_filter(5, 1.6, 4.0, 0.0),
    ] {
        let w = kernels::retina_stage(FORMAT, &kernel);
        tenants.push((w.name, w.graph));
    }
    let (names, graphs): (Vec<_>, Vec<_>) = tenants.into_iter().unzip();
    let mut rng = Rng::fork(seed, "stream.inputs");
    let inputs: Vec<_> = graphs.iter().map(|g| inputs(&mut rng, g, items)).collect();
    let mut rng = Rng::fork(seed, "stream.swaps");
    let swaps: Vec<Vec<Vec<FpValue>>> = (0..STREAM_SWAP_SETS)
        .map(|_| {
            graphs
                .iter()
                .map(|g| coeffs(&mut rng, g.coeff_nodes().len()))
                .collect()
        })
        .collect();
    let mut h = Fnv::new();
    for g in &graphs {
        hash_graph(&mut h, g);
    }
    for batch in &inputs {
        h.write_outputs(batch);
    }
    for set in &swaps {
        h.write_outputs(set);
    }
    StreamPlan {
        names,
        graphs,
        inputs,
        swaps,
        hash: h.finish(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn family_is_distinct_and_fits_64_pes() {
        let f = family();
        assert!(f.len() >= 160, "{}", f.len());
        let mut rng = Rng::new(1);
        let graphs: Vec<AppGraph> = f.iter().map(|s| s.build(&mut rng)).collect();
        for (s, g) in f.iter().zip(&graphs) {
            assert!(g.pe_demand() <= 64, "{s:?} needs {} PEs", g.pe_demand());
            assert_eq!(g.coeff_nodes().len(), s.coeffs(), "{s:?}");
        }
        for i in 0..graphs.len() {
            for j in i + 1..graphs.len() {
                assert!(
                    !graphs[i].same_structure(&graphs[j]),
                    "{:?} == {:?}",
                    f[i],
                    f[j]
                );
            }
        }
    }

    #[test]
    fn pools_are_distinct_and_disjoint() {
        let churn = churn_pool();
        assert_eq!(churn.len(), CHURN_POOL);
        for i in 0..churn.len() {
            assert!(!churn[i + 1..].contains(&churn[i]), "{:?} twice", churn[i]);
        }
        let (hot, cold) = (hot_set(), cold_pool());
        assert_eq!(hot.len(), 12);
        assert!(hot
            .iter()
            .all(|s| family().contains(s) && !cold.contains(s)));
        // The cold pool must overflow both shards' caches (2 x 32).
        assert!(cold.len() > 128, "{}", cold.len());
    }

    #[test]
    fn plans_are_pure_functions_of_the_seed() {
        assert_eq!(churn_plan(1).hash, churn_plan(1).hash);
        assert_ne!(churn_plan(1).hash, churn_plan(2).hash);
        assert_eq!(stream_plan(1, 8).hash, stream_plan(1, 8).hash);
        assert_ne!(stream_plan(1, 8).hash, stream_plan(2, 8).hash);
        assert_eq!(shard_plan(1).hash, shard_plan(1).hash);
        assert_ne!(shard_plan(1).hash, shard_plan(2).hash);
    }

    #[test]
    fn shard_cycle_mixes_hot_and_cold() {
        let p = shard_plan(1);
        let cold = p.cycle.iter().filter(|l| l.shape >= 12).count();
        let share = cold as f64 / p.cycle.len() as f64;
        assert!((0.06..0.10).contains(&share), "{share}");
        let top = p.cycle.iter().filter(|l| l.shape == 0).count();
        assert!(top as f64 / p.cycle.len() as f64 > 0.25);
    }

    #[test]
    fn stream_tenants_are_the_seven_named() {
        let p = stream_plan(1, 8);
        assert_eq!(p.graphs.len(), 7);
        assert_eq!(p.graphs[6].pe_demand(), 49, "5x5 matched filter");
        assert!(p.inputs.iter().all(|b| b.len() == 8));
    }
}
