//! Synthetic fundus image generator.
//!
//! Substitutes the clinical retinal images the paper processes (see
//! README.md): a circular field of view over a dark border, a slowly
//! varying background, a bright optic-disc blob, and a branching vessel
//! tree grown by biased random walks with tapering width. Vessels darken
//! the green channel — the property the matched filters detect — and the
//! generator returns the exact ground-truth vessel mask, so segmentation
//! quality is measurable.

use crate::image::{Image, RgbImage};
use logic::SplitMix64;

/// Generator parameters.
#[derive(Debug, Clone, Copy)]
pub struct SynthConfig {
    /// Image side length (square images).
    pub size: usize,
    /// Number of primary vessels leaving the optic disc.
    pub primary_vessels: usize,
    /// Probability per step that a vessel spawns a branch.
    pub branch_prob: f64,
    /// Vessel-to-background contrast in the green channel (0..1).
    pub contrast: f32,
    /// Background noise amplitude.
    pub noise: f32,
}

impl Default for SynthConfig {
    fn default() -> Self {
        Self {
            size: 128,
            primary_vessels: 5,
            branch_prob: 0.02,
            contrast: 0.35,
            noise: 0.03,
        }
    }
}

/// Generates a fundus image and its ground-truth vessel mask.
pub fn synth_fundus(cfg: &SynthConfig, seed: u64) -> (RgbImage, Image) {
    let s = cfg.size;
    let mut rng = SplitMix64::new(seed);
    let center = (s as f32 / 2.0, s as f32 / 2.0);
    let fov_r = s as f32 * 0.47;

    // Background: radial falloff + smoothed noise.
    let mut green = Image::new(s, s, 0.0);
    let mut noise = Image::new(s, s, 0.0);
    for v in noise.data.iter_mut() {
        *v = rng.unit_f64() as f32;
    }
    let noise = box_blur(&noise, 4);
    for y in 0..s {
        for x in 0..s {
            let dx = x as f32 - center.0;
            let dy = y as f32 - center.1;
            let r = (dx * dx + dy * dy).sqrt();
            let base = 0.55 - 0.25 * (r / fov_r).powi(2);
            green.set(x, y, base + cfg.noise * (noise.get(x, y) - 0.5));
        }
    }

    // Optic disc: bright blob offset from center.
    let disc_angle = rng.unit_f64() as f32 * std::f32::consts::TAU;
    let disc = (
        center.0 + 0.55 * fov_r * disc_angle.cos(),
        center.1 + 0.55 * fov_r * disc_angle.sin(),
    );
    let disc_r = s as f32 * 0.07;
    for y in 0..s {
        for x in 0..s {
            let dx = x as f32 - disc.0;
            let dy = y as f32 - disc.1;
            let d2 = dx * dx + dy * dy;
            let boost = 0.35 * (-d2 / (disc_r * disc_r)).exp();
            let v = green.get(x, y) + boost;
            green.set(x, y, v);
        }
    }

    // Vessel tree: biased random walks from the disc.
    let mut truth = Image::new(s, s, 0.0);
    struct Walker {
        x: f32,
        y: f32,
        dir: f32,
        width: f32,
    }
    let mut stack: Vec<Walker> = (0..cfg.primary_vessels)
        .map(|i| {
            let a = disc_angle
                + std::f32::consts::PI
                + (i as f32 / cfg.primary_vessels as f32 - 0.5) * 2.2
                + rng.gauss() as f32 * 0.1;
            Walker {
                x: disc.0,
                y: disc.1,
                dir: a,
                width: 2.6,
            }
        })
        .collect();
    while let Some(mut w) = stack.pop() {
        loop {
            // Stamp a disc of the current width (vessel darkens green).
            let rad = w.width.max(0.6);
            let (xi, yi) = (w.x as i64, w.y as i64);
            let rr = rad.ceil() as i64;
            for oy in -rr..=rr {
                for ox in -rr..=rr {
                    let (px, py) = (xi + ox, yi + oy);
                    if px < 0 || py < 0 || px >= s as i64 || py >= s as i64 {
                        continue;
                    }
                    let d = ((ox * ox + oy * oy) as f32).sqrt();
                    if d <= rad {
                        let (ux, uy) = (px as usize, py as usize);
                        let fall = (1.0 - d / (rad + 0.5)).clamp(0.0, 1.0);
                        let dark = cfg.contrast * (0.55 + 0.45 * fall);
                        let cur = green.get(ux, uy);
                        green.set(ux, uy, cur - dark * fall.max(0.35));
                        truth.set(ux, uy, 1.0);
                    }
                }
            }
            // Advance.
            w.dir += rng.gauss() as f32 * 0.14;
            w.x += w.dir.cos();
            w.y += w.dir.sin();
            w.width *= 0.9985;
            // Maybe branch.
            if w.width > 1.0 && rng.unit_f64() < cfg.branch_prob {
                let split = rng.gauss() as f32 * 0.3 + 0.7;
                stack.push(Walker {
                    x: w.x,
                    y: w.y,
                    dir: w.dir + split,
                    width: w.width * 0.75,
                });
                w.dir -= 0.25;
                w.width *= 0.85;
            }
            // Stop at FOV edge or when too thin.
            let dx = w.x - center.0;
            let dy = w.y - center.1;
            if dx * dx + dy * dy > fov_r * fov_r * 0.92 || w.width < 0.55 {
                break;
            }
        }
    }

    // Outside the field of view everything is dark; truth is clipped too.
    for y in 0..s {
        for x in 0..s {
            let dx = x as f32 - center.0;
            let dy = y as f32 - center.1;
            if dx * dx + dy * dy > fov_r * fov_r {
                green.set(x, y, 0.02);
                truth.set(x, y, 0.0);
            }
        }
    }

    let g = green.normalized();
    // Red/blue carry little structure in fundus photography.
    let r = Image {
        w: s,
        h: s,
        data: g.data.iter().map(|&v| (v * 0.6 + 0.3).min(1.0)).collect(),
    };
    let b = Image {
        w: s,
        h: s,
        data: g.data.iter().map(|&v| v * 0.25).collect(),
    };
    (RgbImage { r, g, b }, truth)
}

/// Simple box blur used to produce smooth background noise.
fn box_blur(img: &Image, radius: i64) -> Image {
    let mut out = Image::new(img.w, img.h, 0.0);
    let norm = ((2 * radius + 1) * (2 * radius + 1)) as f32;
    for y in 0..img.h {
        for x in 0..img.w {
            let mut acc = 0.0;
            for oy in -radius..=radius {
                for ox in -radius..=radius {
                    acc += img.get_clamped(x as i64 + ox, y as i64 + oy);
                }
            }
            out.set(x, y, acc / norm);
        }
    }
    out
}

/// Mask of the circular field of view of a `w × h` image (1.0 inside):
/// centred on the image, radius 0.47 of its shorter side — on a square
/// image, the field of view [`synth_fundus`] draws.
pub(crate) fn fov_mask(w: usize, h: usize) -> Image {
    let mut m = Image::new(w, h, 0.0);
    let (cx, cy) = (w as f32 / 2.0, h as f32 / 2.0);
    let r = w.min(h) as f32 * 0.47;
    for y in 0..h {
        for x in 0..w {
            let dx = x as f32 - cx;
            let dy = y as f32 - cy;
            if dx * dx + dy * dy <= r * r {
                m.set(x, y, 1.0);
            }
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_deterministic() {
        let cfg = SynthConfig {
            size: 64,
            ..Default::default()
        };
        let (a, ta) = synth_fundus(&cfg, 42);
        let (b, tb) = synth_fundus(&cfg, 42);
        assert_eq!(a.g, b.g);
        assert_eq!(ta, tb);
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = SynthConfig {
            size: 64,
            ..Default::default()
        };
        let (a, _) = synth_fundus(&cfg, 1);
        let (b, _) = synth_fundus(&cfg, 2);
        assert_ne!(a.g, b.g);
    }

    #[test]
    fn vessels_exist_and_are_dark() {
        let cfg = SynthConfig {
            size: 96,
            ..Default::default()
        };
        let (img, truth) = synth_fundus(&cfg, 7);
        let cov = truth.coverage();
        assert!(cov > 0.01 && cov < 0.35, "vessel coverage {cov}");
        // Vessel pixels must be darker on average than non-vessel pixels
        // inside the FOV.
        let fov = fov_mask(96, 96);
        let mut vessel_sum = 0.0;
        let mut vessel_n = 0.0;
        let mut bg_sum = 0.0;
        let mut bg_n = 0.0;
        for i in 0..img.g.data.len() {
            if fov.data[i] < 0.5 {
                continue;
            }
            if truth.data[i] > 0.5 {
                vessel_sum += img.g.data[i] as f64;
                vessel_n += 1.0;
            } else {
                bg_sum += img.g.data[i] as f64;
                bg_n += 1.0;
            }
        }
        assert!(vessel_sum / vessel_n < bg_sum / bg_n - 0.05);
    }

    #[test]
    fn truth_restricted_to_fov() {
        let cfg = SynthConfig {
            size: 64,
            ..Default::default()
        };
        let (_, truth) = synth_fundus(&cfg, 3);
        let fov = fov_mask(64, 64);
        for i in 0..truth.data.len() {
            if truth.data[i] > 0.5 {
                assert!(fov.data[i] > 0.5, "vessel outside FOV at {i}");
            }
        }
    }
}
