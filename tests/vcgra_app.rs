//! Integration: applications through the VCGRA tool flow and the
//! functional simulator, including reconfiguration between filters.

use softfloat::{FpFormat, FpValue};
use vcgra::app::AppGraph;
use vcgra::flow::map_app;
use vcgra::sim::run_mapped;
use vcgra::VcgraArch;

const FMT: FpFormat = FpFormat::PAPER;

fn fp(x: f64) -> FpValue {
    FpValue::from_f64(x, FMT)
}

#[test]
fn gaussian_tap_row_on_grid_matches_reference() {
    // One row of the 5x5 Gaussian denoise kernel as a dot product.
    let row = [0.0625, 0.25, 0.375, 0.25, 0.0625];
    let app = AppGraph::dot_product(FMT, &row);
    let mapping = map_app(&app, VcgraArch::paper_4x4(), 9).expect("fits");
    let samples = [0.1, 0.9, 0.4, 0.9, 0.1];
    let inputs: Vec<FpValue> = samples.iter().map(|&x| fp(x)).collect();
    let out = run_mapped(&mapping, &app, &inputs)[0];
    let reference: f64 = row.iter().zip(&samples).map(|(c, x)| c * x).sum();
    assert!(
        (out.to_f64() - reference).abs() < 1e-5,
        "got {} want {reference}",
        out.to_f64()
    );
}

#[test]
fn all_grid_settings_words_are_generated() {
    let app = AppGraph::dot_product(FMT, &[1.0, -0.5, 0.25]);
    let arch = VcgraArch::paper_4x4();
    let m = map_app(&app, arch, 4).unwrap();
    let words = m.settings_words();
    assert_eq!(words.len(), 25, "16 PE + 9 VSB registers (Table II)");
    // Used PEs carry their counter; unused PEs are zero.
    let nonzero = words[..16].iter().filter(|&&w| w != 0).count();
    assert_eq!(nonzero, app.pe_demand());
}

#[test]
fn reconfiguring_coefficients_changes_the_filter() {
    // Same topology, two coefficient sets: only the graphs' coefficients
    // change — that is the paper's reconfiguration story (no re-synthesis,
    // no re-PaR). The whole mapping is the same: placement, every route,
    // wirelength and the settings words.
    let low_pass = [0.25, 0.5, 0.25];
    let edge = [-1.0, 2.0, -1.0];
    let app_a = AppGraph::dot_product(FMT, &low_pass);
    let app_b = AppGraph::dot_product(FMT, &edge);
    let arch = VcgraArch::paper_4x4();
    let ma = map_app(&app_a, arch, 5).unwrap();
    let mb = map_app(&app_b, arch, 5).unwrap();
    assert_eq!(ma, mb);
    assert_eq!(ma.settings_words(), mb.settings_words());
    let inputs: Vec<FpValue> = [1.0, 1.0, 1.0].iter().map(|&x| fp(x)).collect();
    let ya = run_mapped(&ma, &app_a, &inputs)[0].to_f64();
    let yb = run_mapped(&mb, &app_b, &inputs)[0].to_f64();
    assert_eq!(ya, 1.0, "low-pass of flat signal");
    assert_eq!(yb, 0.0, "edge detector on flat signal");
}

#[test]
fn larger_grids_accept_larger_kernels() {
    // A 9-tap kernel needs 17 PEs: too big for 4x4, fits on 6x6.
    let coeffs = [1.0f64; 9];
    let app = AppGraph::dot_product(FMT, &coeffs);
    assert!(map_app(&app, VcgraArch::paper_4x4(), 1).is_err());
    let m = map_app(&app, VcgraArch::new(6, 6, 2), 1).expect("fits 6x6");
    assert_eq!(m.place.len(), 17);
}
