//! Kernel library: the application workloads the runtime serves.
//!
//! Every kernel is an [`AppGraph`] builder, so each one goes through the
//! same compile path (`vcgra::flow::map_app`), the same configuration
//! cache, and the same bit-exact FloPoCo execution. The set is chosen to
//! exercise genuinely different dataflow shapes:
//!
//! * [`fir`] — 1-D filter: multiply layer + balanced adder tree;
//! * [`separable_stencil`] — 2-D stencil over a window, factored into
//!   per-row dot products followed by a column combine (the classic
//!   separable-convolution trick, here spatially unrolled);
//! * [`matvec`] — tiled dense matrix–vector product: one dot-product tile
//!   per output row, all rows sharing the input vector;
//! * [`tree_reduction`] — pure adder tree (no coefficients, so a
//!   parameter swap on it is a no-op — the degenerate cache case);
//! * [`retina_stage`] — the vessel-segmentation filter kernels from the
//!   `retina` crate (Gaussian denoise, matched filter, texture filter)
//!   re-exported as runtime workloads: a whole window as one dot product;
//! * [`row_pass`] — one kernel row accumulated into a running sum, the
//!   tenant [`convolve_served`] runs a whole image through, one
//!   `swap_params` per kernel row: the retina pipeline's hardware modules
//!   on the serve path.

use retina::filters::{gaussian, texture_filter, Kernel};
use retina::Image;
use softfloat::{FpFormat, FpValue};
use vcgra::app::{AppGraph, AppSource};
use vcgra::PeMode;

use crate::{Admission, Runtime, RuntimeError, StreamRequest};

/// A named application workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Display name (the tenant's name once submitted).
    pub name: String,
    /// The dataflow graph.
    pub graph: AppGraph,
}

impl Workload {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, graph: AppGraph) -> Self {
        Workload {
            name: name.into(),
            graph,
        }
    }
}

/// FIR filter over a `taps.len()`-sample window: multiply layer plus
/// balanced adder tree (the spatial mapping of the paper's filter kernels).
pub fn fir(format: FpFormat, taps: &[f64]) -> Workload {
    Workload::new(
        format!("fir{}", taps.len()),
        AppGraph::dot_product(format, taps),
    )
}

/// FIR whose `taps` coefficients are drawn from a seeded deterministic
/// stream (2·taps−1 nodes, so row demand is easy to steer).
pub fn fir_seeded(format: FpFormat, taps: usize, seed: u64) -> Workload {
    let mut rng = logic::SplitMix64::new(seed);
    let coeffs: Vec<f64> = (0..taps).map(|_| (rng.unit_f64() - 0.5) * 2.0).collect();
    fir(format, &coeffs)
}

/// Separable 2-D stencil over a `col.len() × row.len()` window.
///
/// External input `r * row.len() + c` is window pixel `(r, c)`. Each window
/// row is reduced with the horizontal taps, each row result is scaled by
/// its vertical tap, and a final adder tree combines the rows — exactly
/// `Σ_r col[r] · Σ_c row[c] · x[r][c]`.
pub fn separable_stencil(format: FpFormat, row: &[f64], col: &[f64]) -> Workload {
    assert!(!row.is_empty() && !col.is_empty());
    let mut g = AppGraph::new(format, row.len() * col.len());
    let mut scaled_rows = Vec::with_capacity(col.len());
    for (r, &cv) in col.iter().enumerate() {
        let muls = g.mul_layer(r * row.len(), row);
        let row_sum = g.reduce_add(muls);
        scaled_rows.push(g.add(
            PeMode::Mul,
            Some(FpValue::from_f64(cv, format)),
            AppSource::Node(row_sum),
            AppSource::Zero,
        ));
    }
    let out = g.reduce_add(scaled_rows);
    g.mark_output(out);
    Workload::new(format!("stencil{}x{}", col.len(), row.len()), g)
}

/// Tiled dense matrix–vector product `y = A·x` for an `M × N` matrix:
/// one dot-product tile per output row, all tiles reading the shared
/// input vector. The graph has `M` outputs.
pub fn matvec(format: FpFormat, a: &[Vec<f64>]) -> Workload {
    assert!(!a.is_empty());
    let n = a[0].len();
    assert!(a.iter().all(|row| row.len() == n), "rectangular matrix");
    let mut g = AppGraph::new(format, n);
    for row in a {
        let muls = g.mul_layer(0, row);
        let out = g.reduce_add(muls);
        g.mark_output(out);
    }
    Workload::new(format!("matvec{}x{}", a.len(), n), g)
}

/// Pure `n`-input tree reduction (sum). No coefficient-bearing nodes, so
/// its parameter vector is empty: the configuration cache serves every
/// instance of a given `n` from one entry.
pub fn tree_reduction(format: FpFormat, n: usize) -> Workload {
    assert!(n >= 2);
    let mut g = AppGraph::new(format, n);
    let leaves: Vec<usize> = (0..n)
        .map(|i| g.add(PeMode::Pass, None, AppSource::External(i), AppSource::Zero))
        .collect();
    let out = g.reduce_add(leaves);
    g.mark_output(out);
    Workload::new(format!("reduce{n}"), g)
}

/// A vessel-segmentation filter kernel as a runtime workload: the kernel's
/// taps become the coefficient vector of a dot product over the pixel
/// window ([`AppGraph::dot_product`]: a multiply layer followed by a
/// balanced adder tree). One MAC PE accumulating the same taps one at a
/// time sums in another order and rounds differently: the two agree to
/// within the format's rounding, not bit for bit.
pub fn retina_stage(format: FpFormat, kernel: &Kernel) -> Workload {
    let taps: Vec<f64> = kernel.taps.iter().map(|&t| t as f64).collect();
    Workload::new(
        format!("retina_{}", kernel.name),
        AppGraph::dot_product(format, &taps),
    )
}

/// One kernel row's pass over a pixel, `acc′ = acc + Σ taps·x`: external
/// inputs `0..k` are the row's samples and input `k` the running sum.
/// `k` multiplies and a balanced adder tree ([`AppGraph::dot_product`])
/// feed one `Add` that takes the running sum: `2k` nodes. The taps are
/// zero until a `swap_params` loads a row.
pub fn row_pass(format: FpFormat, k: usize) -> Workload {
    let mut g = AppGraph::dot_product(format, &vec![0.0; k]);
    g.num_inputs = k + 1;
    let row_sum = g.outputs.pop().expect("a dot product has one output");
    let acc = g.add(
        PeMode::Add,
        None,
        AppSource::Node(row_sum),
        AppSource::External(k),
    );
    g.mark_output(acc);
    Workload::new(format!("row_pass{k}"), g)
}

/// Convolves `img` with `kernel` on the runtime, with replication padding
/// (`Image::get_clamped`), as `retina::filters::convolve_f32` does in
/// `f32`. The tenant holding [`row_pass`] for the kernel's size is
/// submitted on first use and kept, so every kernel of one size after the
/// first is swaps, not a compile. For each kernel row, `swap_params` loads
/// that row's taps and one [`Runtime::run`] streams every pixel, the item
/// being the row's `k` samples and the pixel's running sum.
///
/// A pass the pool cannot place is the `submit` error; one it can only
/// queue is released again and reported as [`RuntimeError::Waiting`].
pub fn convolve_served(
    rt: &mut Runtime,
    format: FpFormat,
    img: &Image,
    kernel: &Kernel,
) -> Result<Image, RuntimeError> {
    let k = kernel.size;
    let pass = row_pass(format, k);
    let live = rt
        .tenants()
        .find(|t| t.name == pass.name && t.graph.same_structure(&pass.graph));
    let tenant = match live {
        Some(t) => t.id,
        None => match rt.submit(pass.name, pass.graph)? {
            Admission::Admitted(a) => a.tenant,
            Admission::Queued(q) => {
                rt.release(q.tenant)?;
                return Err(RuntimeError::Waiting(q.tenant));
            }
        },
    };
    let fp = |v: f32| FpValue::from_f64(v as f64, format);
    let half = k as i64 / 2;
    // Each item holds the pixel's running sum in its first value between
    // passes: a pass's outputs are the next pass's items, refilled in place.
    let mut items = vec![vec![fp(0.0)]; img.w * img.h];
    for (ky, taps) in kernel.taps.chunks(k).enumerate() {
        let coeffs: Vec<FpValue> = taps.iter().map(|&t| fp(t)).collect();
        rt.swap_params(tenant, &coeffs)?;
        for (i, item) in items.iter_mut().enumerate() {
            let (x0, y0) = ((i % img.w) as i64 - half, (i / img.w) as i64 - half);
            let sum = item[0];
            item.clear();
            item.extend((0..k as i64).map(|kx| fp(img.get_clamped(x0 + kx, y0 + ky as i64))));
            item.push(sum);
        }
        let request = StreamRequest {
            tenant,
            inputs: items,
        };
        items = rt.run(vec![request])?.remove(0).outputs;
    }
    Ok(Image {
        w: img.w,
        h: img.h,
        data: items.iter().map(|item| item[0].to_f64() as f32).collect(),
    })
}

/// The standard mixed-tenant set: one of each dataflow shape, sized to fit
/// comfortably on small grid regions. The integration tests, the
/// examples and the shard load generator drive exactly this library.
pub fn library(format: FpFormat) -> Vec<Workload> {
    vec![
        fir(format, &[0.0625, 0.25, 0.375, 0.25, 0.0625]),
        separable_stencil(format, &[0.25, 0.5, 0.25], &[0.25, 0.5, 0.25]),
        matvec(
            format,
            &[
                vec![1.0, 0.5, 0.25, 0.125],
                vec![-1.0, 2.0, -0.5, 0.75],
                vec![0.5, 0.5, 0.5, 0.5],
            ],
        ),
        tree_reduction(format, 8),
        retina_stage(format, &gaussian(3, 0.85)),
        retina_stage(format, &texture_filter(3, 1.2)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use retina::filters::matched_filter;
    use vcgra::sim::run_dataflow;

    const F: FpFormat = FpFormat::PAPER;

    fn fp(x: f64) -> FpValue {
        FpValue::from_f64(x, F)
    }

    #[test]
    fn stencil_matches_direct_sum() {
        let w = separable_stencil(F, &[0.25, 0.5, 0.25], &[1.0, 2.0, 1.0]);
        // Window values 1..9 row-major.
        let inputs: Vec<FpValue> = (1..=9).map(|v| fp(v as f64)).collect();
        let got = run_dataflow(&w.graph, &inputs)[0].to_f64();
        let rows: [f64; 3] = std::array::from_fn(|r| {
            (0..3)
                .map(|c| [0.25, 0.5, 0.25][c] * (r * 3 + c + 1) as f64)
                .sum()
        });
        let want = 1.0 * rows[0] + 2.0 * rows[1] + 1.0 * rows[2];
        assert!((got - want).abs() < 1e-6, "got {got}, want {want}");
    }

    #[test]
    fn matvec_produces_one_output_per_row() {
        let a = vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]];
        let w = matvec(F, &a);
        assert_eq!(w.graph.outputs.len(), 3);
        let out = run_dataflow(&w.graph, &[fp(10.0), fp(1.0)]);
        assert_eq!(out[0].to_f64(), 12.0);
        assert_eq!(out[1].to_f64(), 34.0);
        assert_eq!(out[2].to_f64(), 56.0);
    }

    #[test]
    fn tree_reduction_sums_and_has_no_params() {
        let w = tree_reduction(F, 8);
        assert!(w.graph.coeff_nodes().is_empty());
        let inputs: Vec<FpValue> = (0..8).map(|v| fp(v as f64)).collect();
        assert_eq!(run_dataflow(&w.graph, &inputs)[0].to_f64(), 28.0);
    }

    #[test]
    fn retina_stages_agree_with_the_mac_pe_convolution_to_rounding() {
        // The three stages the repo benchmark's `serve_stream` serves. On a
        // k×k image the centre pixel's window is the whole image, unclamped,
        // in the dot product's input order.
        for kernel in [
            gaussian(3, 0.85),
            texture_filter(3, 1.2),
            matched_filter(5, 1.6, 4.0, 0.0),
        ] {
            let k = kernel.size;
            let mut rng = logic::SplitMix64::new(k as u64);
            let mut img = retina::Image::new(k, k, 0.0);
            for px in &mut img.data {
                *px = rng.unit_f64() as f32;
            }
            let window: Vec<FpValue> = img.data.iter().map(|&px| fp(px as f64)).collect();
            // One MAC PE, one tap per step, accumulating in FloPoCo.
            let accumulated = window
                .iter()
                .zip(&kernel.taps)
                .fold(FpValue::zero(F), |acc, (&x, &t)| x.mac(fp(t as f64), acc))
                .to_f64();
            let tree = run_dataflow(&retina_stage(F, &kernel).graph, &window)[0].to_f64();
            assert!(
                (tree - accumulated).abs() < 1e-6,
                "{}: adder tree {tree}, accumulator {accumulated}",
                kernel.name
            );
        }
    }

    #[test]
    fn library_is_diverse_and_mappable() {
        let lib = library(F);
        assert!(lib.len() >= 4, "at least four distinct kernels");
        for w in &lib {
            // Every library kernel fits an 8x8 grid region.
            assert!(w.graph.pe_demand() <= 64, "{} too big", w.name);
            vcgra::flow::map_app(&w.graph, vcgra::VcgraArch::new(8, 8, 2), 1)
                .unwrap_or_else(|e| panic!("{} unmappable: {e}", w.name));
        }
    }
}
