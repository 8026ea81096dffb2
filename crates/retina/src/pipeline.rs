//! The full vessel-segmentation pipeline (Fig. 5) plus quality metrics.
//!
//! Software tasks: green-channel extraction, histogram equalization,
//! optic-disc removal, outer-region removal. Hardware modules: Gaussian
//! denoise, seven-orientation matched filtering, texture filtering — every
//! one a convolution the caller passes in: `filters::convolve_f32`, or the
//! VCGRA runtime's served convolution (`runtime::kernels::convolve_served`),
//! which loads each kernel as parameter swaps and whose ledger prices them.

use crate::filters::{gaussian, matched_bank, max_response, texture_filter, Kernel};
use crate::image::{Image, RgbImage};
use crate::synth::fov_mask;

/// Pipeline configuration.
#[derive(Debug, Clone, Copy)]
pub struct PipelineConfig {
    /// Denoise kernel size: 5 or 9 (the paper applies both variants).
    pub denoise_size: usize,
    /// Matched filter kernel size (paper: 16).
    pub matched_size: usize,
    /// Matched filter orientations (paper: 7).
    pub orientations: usize,
    /// Vessel profile sigma for the matched filters.
    pub sigma: f32,
    /// Along-vessel kernel length.
    pub length: f32,
    /// Segmentation threshold, as a percentile of the combined response
    /// inside the field of view (0.88 = top 12 % of pixels become vessel).
    pub threshold: f32,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            denoise_size: 5,
            matched_size: 16,
            orientations: 7,
            sigma: 1.6,
            length: 9.0,
            threshold: 0.88,
        }
    }
}

/// Segmentation quality versus ground truth.
#[derive(Debug, Clone, Copy)]
pub struct Metrics {
    /// True positives.
    pub tp: usize,
    /// False positives.
    pub fp: usize,
    /// False negatives.
    pub fn_: usize,
    /// True negatives.
    pub tn: usize,
}

impl Metrics {
    /// Compares a binary segmentation against the ground truth.
    pub fn evaluate(segmented: &Image, truth: &Image) -> Metrics {
        assert_eq!(segmented.data.len(), truth.data.len());
        let mut m = Metrics {
            tp: 0,
            fp: 0,
            fn_: 0,
            tn: 0,
        };
        for (s, t) in segmented.data.iter().zip(&truth.data) {
            match (*s > 0.5, *t > 0.5) {
                (true, true) => m.tp += 1,
                (true, false) => m.fp += 1,
                (false, true) => m.fn_ += 1,
                (false, false) => m.tn += 1,
            }
        }
        m
    }

    /// Sensitivity (recall).
    pub fn recall(&self) -> f64 {
        self.tp as f64 / (self.tp + self.fn_).max(1) as f64
    }

    /// Precision.
    pub fn precision(&self) -> f64 {
        self.tp as f64 / (self.tp + self.fp).max(1) as f64
    }

    /// F1 score.
    pub fn f1(&self) -> f64 {
        let p = self.precision();
        let r = self.recall();
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }

    /// Accuracy.
    pub fn accuracy(&self) -> f64 {
        (self.tp + self.tn) as f64 / (self.tp + self.tn + self.fp + self.fn_).max(1) as f64
    }
}

/// Output of a pipeline run.
pub struct PipelineResult {
    /// Preprocessed green channel.
    pub preprocessed: Image,
    /// After Gaussian denoising.
    pub denoised: Image,
    /// Maximum matched-filter response (normalized).
    pub response: Image,
    /// After texture filtering (normalized).
    pub textured: Image,
    /// Final binary segmentation.
    pub segmented: Image,
}

/// Runs the whole pipeline on an RGB fundus image, every hardware module
/// through `conv` (an image and a kernel in, the convolved image out).
/// `conv` is called once for the denoise, once per matched-filter
/// orientation, then once for the texture filter, in that order — a
/// caller that times its `conv` reads each stage's time from that order.
pub fn run_pipeline(
    img: &RgbImage,
    cfg: &PipelineConfig,
    mut conv: impl FnMut(&Image, &Kernel) -> Image,
) -> PipelineResult {
    // --- software preprocessing ---
    let green = img.green();
    let eq = green.equalized();
    // Optic disc removal: clamp the brightest tail (the disc) down.
    let disc_cut = percentile(&eq, 0.98);
    let mut pre = Image {
        w: eq.w,
        h: eq.h,
        data: eq.data.iter().map(|&v| v.min(disc_cut)).collect(),
    };
    // Outer region removal.
    let fov = fov_mask(pre.w, pre.h);
    for (p, f) in pre.data.iter_mut().zip(&fov.data) {
        *p *= f;
    }

    // --- hardware modules ---
    let dk = gaussian(cfg.denoise_size, cfg.denoise_size as f32 / 4.0);
    let denoised = conv(&pre, &dk);

    // The matched filters have a negative Gaussian valley: on dark vessels
    // over a bright background the response is positive at vessel centers
    // and ~zero on flat background (the kernels are zero-mean).
    let bank = matched_bank(cfg.matched_size, cfg.sigma, cfg.length, cfg.orientations);
    let responses: Vec<Image> = bank.iter().map(|k| conv(&denoised, k)).collect();
    let mut response = max_response(&responses).normalized();
    for (p, f) in response.data.iter_mut().zip(&fov.data) {
        *p *= f;
    }

    let tk = texture_filter(cfg.matched_size, cfg.sigma);
    let mut textured = conv(&response, &tk).normalized();
    for (p, f) in textured.data.iter_mut().zip(&fov.data) {
        *p *= f;
    }

    // --- threshold: combine the raw response with the texture evidence.
    // The cut is adaptive: a percentile of the response *inside the field
    // of view*, so the same configuration works across image sizes and
    // vessel densities.
    let combined = Image {
        w: textured.w,
        h: textured.h,
        data: response
            .data
            .iter()
            .zip(&textured.data)
            .map(|(&r, &t)| 0.6 * r + 0.4 * t)
            .collect(),
    };
    let mut in_fov: Vec<f32> = combined
        .data
        .iter()
        .zip(&fov.data)
        .filter(|(_, &f)| f > 0.5)
        .map(|(&v, _)| v)
        .collect();
    in_fov.sort_by(|a, b| a.total_cmp(b));
    let cut = in_fov[(((in_fov.len() - 1) as f32) * cfg.threshold.clamp(0.0, 1.0)) as usize];
    let segmented = combined.threshold(cut.max(1e-6));

    PipelineResult {
        preprocessed: pre,
        denoised,
        response,
        textured,
        segmented,
    }
}

fn percentile(img: &Image, p: f32) -> f32 {
    let mut v: Vec<f32> = img.data.clone();
    v.sort_by(|a, b| a.total_cmp(b));
    v[((v.len() - 1) as f32 * p) as usize]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filters::convolve_f32;
    use crate::synth::{synth_fundus, SynthConfig};

    fn small_cfg() -> PipelineConfig {
        PipelineConfig {
            matched_size: 12,
            ..Default::default()
        }
    }

    #[test]
    fn pipeline_beats_chance_on_synthetic_images() {
        let (img, truth) = synth_fundus(
            &SynthConfig {
                size: 96,
                ..Default::default()
            },
            11,
        );
        let res = run_pipeline(&img, &small_cfg(), convolve_f32);
        let m = Metrics::evaluate(&res.segmented, &truth);
        // Must be far better than random guessing at the same coverage.
        assert!(
            m.f1() > 0.35,
            "F1 {:.3} too low (p {:.2} r {:.2})",
            m.f1(),
            m.precision(),
            m.recall()
        );
        assert!(m.accuracy() > 0.8, "accuracy {:.3}", m.accuracy());
    }

    #[test]
    fn kernel_accounting_matches_config() {
        let (img, _) = synth_fundus(
            &SynthConfig {
                size: 64,
                ..Default::default()
            },
            5,
        );
        let mut sizes = Vec::new();
        run_pipeline(&img, &small_cfg(), |image, k| {
            sizes.push(k.size);
            convolve_f32(image, k)
        });
        // 1 denoise + 7 matched + 1 texture, in that order.
        assert_eq!(sizes, [5, 12, 12, 12, 12, 12, 12, 12, 12]);
    }

    #[test]
    fn metrics_arithmetic() {
        let mut seg = Image::new(2, 2, 0.0);
        seg.set(0, 0, 1.0);
        seg.set(1, 0, 1.0);
        let mut truth = Image::new(2, 2, 0.0);
        truth.set(0, 0, 1.0);
        truth.set(0, 1, 1.0);
        let m = Metrics::evaluate(&seg, &truth);
        assert_eq!((m.tp, m.fp, m.fn_, m.tn), (1, 1, 1, 1));
        assert_eq!(m.precision(), 0.5);
        assert_eq!(m.recall(), 0.5);
        assert_eq!(m.f1(), 0.5);
    }

    /// DRIVE's fundus images are 565 × 584: the field of view must cover
    /// the whole image and sit at its centre, whatever its aspect.
    #[test]
    fn a_non_square_image_is_masked_over_its_whole_area() {
        let (square, _) = synth_fundus(
            &SynthConfig {
                size: 48,
                ..Default::default()
            },
            13,
        );
        // 16 rows of background appended: 48 wide, 64 high.
        let taller = |c: &Image| {
            let mut data = c.data.clone();
            data.extend(std::iter::repeat_n(c.data[0], 16 * c.w));
            Image {
                w: c.w,
                h: c.h + 16,
                data,
            }
        };
        let img = RgbImage {
            r: taller(&square.r),
            g: taller(&square.g),
            b: taller(&square.b),
        };
        let res = run_pipeline(&img, &small_cfg(), convolve_f32);
        let fov = fov_mask(48, 64);
        assert_eq!((res.segmented.w, res.segmented.h), (48, 64));
        let outside: Vec<usize> = (0..fov.data.len()).filter(|&i| fov.data[i] < 0.5).collect();
        assert!(
            outside.iter().any(|&i| i >= 48 * 48),
            "the appended rows reach past the circle"
        );
        for i in outside {
            let (x, y) = (i % 48, i / 48);
            let at = format!("({x}, {y}) is outside the field of view");
            assert_eq!(res.preprocessed.data[i], 0.0, "preprocessed {at}");
            assert_eq!(res.segmented.data[i], 0.0, "segmented {at}");
        }
    }
}
