//! The retina pipeline's hardware modules on the serve path: the served
//! convolution (`kernels::convolve_served`) against the `f32` reference,
//! one convolution and a whole segmentation, and its failure when no grid
//! holds a kernel row.

use retina::filters::{convolve_f32, gaussian, matched_filter};
use retina::pipeline::{run_pipeline, PipelineConfig};
use retina::synth::{synth_fundus, SynthConfig};
use retina::Image;
use runtime::{kernels, PoolError, Runtime, RuntimeConfig, RuntimeError};
use softfloat::FpFormat;
use vcgra::VcgraArch;

const F: FpFormat = FpFormat::PAPER;

#[test]
fn served_convolution_close_to_f32() {
    let mut img = Image::new(16, 16, 0.5);
    img.set(8, 8, 0.9);
    img.set(3, 12, 0.1);
    let k = gaussian(5, 1.2);
    let sw = convolve_f32(&img, &k);
    let mut rt = Runtime::new(RuntimeConfig::default());
    let hw = kernels::convolve_served(&mut rt, F, &img, &k).unwrap();
    for i in 0..sw.data.len() {
        let d = (sw.data[i] - hw.data[i]).abs();
        assert!(d < 2e-3, "pixel {i}: sw {} hw {}", sw.data[i], hw.data[i]);
    }
    // One compile, one swap per kernel row, one pixel per item per row.
    let ledger = rt.ledger();
    assert_eq!((ledger.cold_compiles, ledger.swaps), (1, 5));
    assert_eq!(ledger.items, 5 * 16 * 16);
}

#[test]
fn served_pipeline_agrees_with_f32_pipeline() {
    let (img, _) = synth_fundus(
        &SynthConfig {
            size: 48,
            ..Default::default()
        },
        9,
    );
    let cfg = PipelineConfig {
        matched_size: 8,
        ..Default::default()
    };
    let sw = run_pipeline(&img, &cfg, convolve_f32);
    let mut rt = Runtime::new(RuntimeConfig::default());
    let hw = run_pipeline(&img, &cfg, |image, k| {
        kernels::convolve_served(&mut rt, F, image, k).unwrap()
    });
    // The served stages agree with `f32` up to FloPoCo rounding; the
    // segmentations must overlap almost everywhere.
    let disagree = sw
        .segmented
        .data
        .iter()
        .zip(&hw.segmented.data)
        .filter(|(a, b)| a != b)
        .count();
    let frac = disagree as f64 / sw.segmented.data.len() as f64;
    assert!(frac < 0.02, "segmentations disagree on {frac:.3} of pixels");
    // One compile per kernel size (5 and 8); every kernel row a swap:
    // 5 denoise rows, then 7 matched filters and the texture filter of 8.
    let ledger = rt.ledger();
    assert_eq!(ledger.cold_compiles, 2);
    assert_eq!(ledger.swaps, 5 + 8 * 8);
    assert_eq!(rt.tenants().count(), 2);
}

#[test]
fn a_kernel_row_no_grid_holds_is_a_typed_error() {
    // A 16-tap row pass is 32 nodes; a 4×4 grid has 16 PEs.
    let mut rt = Runtime::new(RuntimeConfig {
        grids: vec![VcgraArch::new(4, 4, 2); 2],
        ..Default::default()
    });
    let img = Image::new(8, 8, 0.5);
    let err =
        kernels::convolve_served(&mut rt, F, &img, &matched_filter(16, 1.6, 9.0, 0.0)).unwrap_err();
    assert!(
        matches!(
            err,
            RuntimeError::Pool(PoolError::TooBig {
                needed: 32,
                largest: 16
            })
        ),
        "{err}"
    );
    assert_eq!(rt.tenants().count(), 0);
    assert_eq!(rt.queue_len(), 0);
    let report = rt.verify_all();
    assert_eq!(report.violations.len(), 0, "{report:?}");
}

#[test]
fn a_kernel_row_the_pool_can_only_queue_leaves_no_queued_tenant() {
    // Four 2-row bands fill the one grid and none is 3 rows tall, so the
    // 10-node 5-tap pass could only wait: it is cancelled and reported.
    let mut rt = Runtime::new(RuntimeConfig {
        grids: vec![VcgraArch::new(8, 4, 2)],
        ..Default::default()
    });
    for seed in 0..4 {
        let w = kernels::fir_seeded(F, 4, seed);
        assert!(!rt.submit(w.name, w.graph).unwrap().is_queued());
    }
    let img = Image::new(8, 8, 0.5);
    let err = kernels::convolve_served(&mut rt, F, &img, &gaussian(5, 1.2)).unwrap_err();
    assert!(matches!(err, RuntimeError::Waiting(4)), "{err}");
    assert_eq!(rt.queue_len(), 0);
    assert_eq!(rt.ledger().queue_cancelled, 1);
    assert_eq!(rt.tenants().count(), 4);
    let report = rt.verify_all();
    assert_eq!(report.violations.len(), 0, "{report:?}");
}
