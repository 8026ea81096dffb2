//! Filter kernels and the software reference convolution.
//!
//! Kernels follow the paper: Gaussian denoise (5×5 and 9×9), the
//! Chaudhuri-style matched filter bank (Gaussian-profile line detectors at
//! seven orientations, 16×16) and a thickness-selective texture filter.
//! [`convolve_f32`] is the `f32` reference; the hardware modules run on
//! the VCGRA runtime (`runtime::kernels::convolve_served`), which reads
//! its samples through the same [`Image::get_clamped`].

use crate::image::Image;

/// A dense convolution kernel.
#[derive(Debug, Clone)]
pub struct Kernel {
    /// Side length (kernels are square, odd or even).
    pub size: usize,
    /// Row-major taps.
    pub taps: Vec<f32>,
    /// Human-readable name (shows up in reports).
    pub name: String,
}

impl Kernel {
    /// Sum of taps (used to normalize smoothing kernels).
    pub fn sum(&self) -> f32 {
        self.taps.iter().sum()
    }
}

/// Isotropic Gaussian smoothing kernel, normalized to unit gain.
pub fn gaussian(size: usize, sigma: f32) -> Kernel {
    let c = (size as f32 - 1.0) / 2.0;
    let mut taps = Vec::with_capacity(size * size);
    for y in 0..size {
        for x in 0..size {
            let dx = x as f32 - c;
            let dy = y as f32 - c;
            taps.push((-(dx * dx + dy * dy) / (2.0 * sigma * sigma)).exp());
        }
    }
    let s: f32 = taps.iter().sum();
    for t in &mut taps {
        *t /= s;
    }
    Kernel {
        size,
        taps,
        name: format!("gauss{size}x{size}"),
    }
}

/// One matched filter: a Gaussian valley profile perpendicular to the
/// vessel direction, zero-mean (Chaudhuri et al. \[12\]), rotated by
/// `theta` radians. `size` is 16 in the paper; `sigma` controls the vessel
/// width the filter responds to and `length` the along-vessel extent.
pub fn matched_filter(size: usize, sigma: f32, length: f32, theta: f32) -> Kernel {
    let c = (size as f32 - 1.0) / 2.0;
    let (sin, cos) = theta.sin_cos();
    let mut taps = Vec::with_capacity(size * size);
    let mut live = Vec::with_capacity(size * size);
    for y in 0..size {
        for x in 0..size {
            let dx = x as f32 - c;
            let dy = y as f32 - c;
            // Rotate into the filter frame: `theta` is the vessel direction
            // from the x-axis; u runs across the vessel, v along it.
            let u = -dx * sin + dy * cos;
            let v = dx * cos + dy * sin;
            if u.abs() <= 3.0 * sigma && v.abs() <= length / 2.0 {
                taps.push(-(-u * u / (2.0 * sigma * sigma)).exp());
                live.push(true);
            } else {
                taps.push(0.0);
                live.push(false);
            }
        }
    }
    // Zero-mean over the live support so flat background gives 0 response.
    let n_live = live.iter().filter(|&&l| l).count().max(1);
    let mean: f32 = taps.iter().sum::<f32>() / n_live as f32;
    for (t, l) in taps.iter_mut().zip(&live) {
        if *l {
            *t -= mean;
        }
    }
    Kernel {
        size,
        taps,
        name: format!("matched{size}@{:.0}deg", theta.to_degrees()),
    }
}

/// The paper's seven-orientation matched filter bank (16×16 kernels).
pub(crate) fn matched_bank(
    size: usize,
    sigma: f32,
    length: f32,
    orientations: usize,
) -> Vec<Kernel> {
    (0..orientations)
        .map(|i| {
            let theta = std::f32::consts::PI * i as f32 / orientations as f32;
            matched_filter(size, sigma, length, theta)
        })
        .collect()
}

/// Texture/thickness filter: difference of Gaussians tuned so that only
/// line-like structures of at least the target thickness survive.
pub fn texture_filter(size: usize, thickness: f32) -> Kernel {
    let narrow = gaussian(size, thickness * 0.6);
    let wide = gaussian(size, thickness * 1.8);
    let taps = narrow
        .taps
        .iter()
        .zip(&wide.taps)
        .map(|(a, b)| a - b)
        .collect();
    Kernel {
        size,
        taps,
        name: format!("texture{size}"),
    }
}

/// Software reference convolution (replication padding).
pub fn convolve_f32(img: &Image, k: &Kernel) -> Image {
    let mut out = Image::new(img.w, img.h, 0.0);
    let half = k.size as i64 / 2;
    for y in 0..img.h {
        for x in 0..img.w {
            let mut acc = 0.0f32;
            for ky in 0..k.size {
                for kx in 0..k.size {
                    let sx = x as i64 + kx as i64 - half;
                    let sy = y as i64 + ky as i64 - half;
                    acc += k.taps[ky * k.size + kx] * img.get_clamped(sx, sy);
                }
            }
            out.set(x, y, acc);
        }
    }
    out
}

/// Pixel-wise maximum across a stack of images (matched filter responses).
pub(crate) fn max_response(stack: &[Image]) -> Image {
    assert!(!stack.is_empty());
    let mut out = stack[0].clone();
    for img in &stack[1..] {
        assert_eq!(img.data.len(), out.data.len());
        for (o, &v) in out.data.iter_mut().zip(&img.data) {
            *o = o.max(v);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gaussian_is_normalized_and_peaked() {
        let g = gaussian(5, 1.0);
        assert!((g.sum() - 1.0).abs() < 1e-5);
        let center = g.taps[2 * 5 + 2];
        assert!(g.taps.iter().all(|&t| t <= center));
    }

    #[test]
    fn matched_filter_is_zero_mean() {
        for i in 0..7 {
            let theta = std::f32::consts::PI * i as f32 / 7.0;
            let m = matched_filter(16, 2.0, 9.0, theta);
            assert!(m.sum().abs() < 1e-3, "orientation {i}: sum {}", m.sum());
        }
    }

    #[test]
    fn matched_filter_responds_to_aligned_line() {
        // Horizontal dark line responds strongest to theta=0 filter.
        let mut img = Image::new(32, 32, 1.0);
        for x in 0..32 {
            img.set(x, 16, 0.0);
            img.set(x, 15, 0.3);
            img.set(x, 17, 0.3);
        }
        let aligned = convolve_f32(&img, &matched_filter(16, 1.5, 9.0, 0.0));
        let crossed = convolve_f32(
            &img,
            &matched_filter(16, 1.5, 9.0, std::f32::consts::FRAC_PI_2),
        );
        assert!(
            aligned.get(16, 16) > crossed.get(16, 16) + 0.1,
            "aligned {} vs crossed {}",
            aligned.get(16, 16),
            crossed.get(16, 16)
        );
    }

    #[test]
    fn convolution_identity_kernel() {
        let mut img = Image::new(8, 8, 0.25);
        img.set(4, 4, 0.75);
        let mut taps = vec![0.0; 9];
        taps[4] = 1.0;
        let k = Kernel {
            size: 3,
            taps,
            name: "id".into(),
        };
        let out = convolve_f32(&img, &k);
        assert_eq!(out.get(4, 4), 0.75);
        assert_eq!(out.get(0, 0), 0.25);
    }

    #[test]
    fn max_response_takes_maximum() {
        let a = Image::new(2, 2, 0.3);
        let mut b = Image::new(2, 2, 0.1);
        b.set(1, 1, 0.9);
        let m = max_response(&[a, b]);
        assert_eq!(m.get(0, 0), 0.3);
        assert_eq!(m.get(1, 1), 0.9);
    }

    #[test]
    fn bank_has_requested_orientations() {
        let bank = matched_bank(16, 2.0, 9.0, 7);
        assert_eq!(bank.len(), 7);
        // All orientations distinct.
        for i in 0..7 {
            for j in i + 1..7 {
                assert_ne!(bank[i].taps, bank[j].taps, "{i} vs {j}");
            }
        }
    }
}
