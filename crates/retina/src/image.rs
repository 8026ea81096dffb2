//! Minimal grayscale/RGB image types used by the pipeline.

/// A row-major grayscale image with `f32` samples (0.0 = black).
#[derive(Debug, Clone, PartialEq)]
pub struct Image {
    /// Width in pixels.
    pub w: usize,
    /// Height in pixels.
    pub h: usize,
    /// Samples, row-major (`data[y * w + x]`).
    pub data: Vec<f32>,
}

impl Image {
    /// A constant-valued image.
    pub fn new(w: usize, h: usize, fill: f32) -> Self {
        Self {
            w,
            h,
            data: vec![fill; w * h],
        }
    }

    /// Sample accessor (no bounds clamping).
    #[inline]
    pub fn get(&self, x: usize, y: usize) -> f32 {
        self.data[y * self.w + x]
    }

    /// Clamped accessor: coordinates outside the image read the nearest
    /// edge pixel (replication padding for the convolutions).
    #[inline]
    pub fn get_clamped(&self, x: i64, y: i64) -> f32 {
        let xc = x.clamp(0, self.w as i64 - 1) as usize;
        let yc = y.clamp(0, self.h as i64 - 1) as usize;
        self.get(xc, yc)
    }

    /// Mutable sample accessor.
    #[inline]
    pub fn set(&mut self, x: usize, y: usize, v: f32) {
        self.data[y * self.w + x] = v;
    }

    /// Minimum and maximum sample.
    pub(crate) fn min_max(&self) -> (f32, f32) {
        let mut mn = f32::INFINITY;
        let mut mx = f32::NEG_INFINITY;
        for &v in &self.data {
            mn = mn.min(v);
            mx = mx.max(v);
        }
        (mn, mx)
    }

    /// Linearly rescales samples into `[0, 1]` (no-op for flat images).
    pub(crate) fn normalized(&self) -> Image {
        let (mn, mx) = self.min_max();
        let span = (mx - mn).max(1e-12);
        Image {
            w: self.w,
            h: self.h,
            data: self.data.iter().map(|&v| (v - mn) / span).collect(),
        }
    }

    /// Binary threshold: samples strictly above `t` become 1.0.
    pub fn threshold(&self, t: f32) -> Image {
        Image {
            w: self.w,
            h: self.h,
            data: self
                .data
                .iter()
                .map(|&v| if v > t { 1.0 } else { 0.0 })
                .collect(),
        }
    }

    /// Global histogram equalization over 256 bins (a preprocessing step
    /// of the pipeline).
    pub(crate) fn equalized(&self) -> Image {
        let n = self.data.len().max(1);
        let norm = self.normalized();
        let mut hist = [0u32; 256];
        for &v in &norm.data {
            hist[((v * 255.0) as usize).min(255)] += 1;
        }
        let mut cdf = [0f32; 256];
        let mut acc = 0u32;
        for (i, &h) in hist.iter().enumerate() {
            acc += h;
            cdf[i] = acc as f32 / n as f32;
        }
        Image {
            w: self.w,
            h: self.h,
            data: norm
                .data
                .iter()
                .map(|&v| cdf[((v * 255.0) as usize).min(255)])
                .collect(),
        }
    }

    /// Serializes to a binary PGM (P5) byte vector for visual inspection.
    pub fn to_pgm(&self) -> Vec<u8> {
        let norm = self.normalized();
        let mut out = format!("P5\n{} {}\n255\n", self.w, self.h).into_bytes();
        out.extend(norm.data.iter().map(|&v| (v * 255.0) as u8));
        out
    }

    /// Fraction of pixels above 0.5 (useful for sanity checks on masks).
    pub fn coverage(&self) -> f64 {
        let on = self.data.iter().filter(|&&v| v > 0.5).count();
        on as f64 / self.data.len().max(1) as f64
    }
}

/// An RGB image as three planes.
#[derive(Debug, Clone)]
pub struct RgbImage {
    /// Red plane.
    pub r: Image,
    /// Green plane (the informative one for fundus images).
    pub g: Image,
    /// Blue plane.
    pub b: Image,
}

impl RgbImage {
    /// The pipeline's first step: keep the green channel.
    pub(crate) fn green(&self) -> Image {
        self.g.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization_and_minmax() {
        let mut img = Image::new(4, 4, 0.5);
        img.set(0, 0, -1.0);
        img.set(3, 3, 3.0);
        let n = img.normalized();
        let (mn, mx) = n.min_max();
        assert_eq!(mn, 0.0);
        assert_eq!(mx, 1.0);
    }

    #[test]
    fn clamped_reads_replicate_edges() {
        let mut img = Image::new(2, 2, 0.0);
        img.set(0, 0, 7.0);
        assert_eq!(img.get_clamped(-5, -5), 7.0);
        assert_eq!(img.get_clamped(0, 0), 7.0);
    }

    #[test]
    fn threshold_binarizes() {
        let mut img = Image::new(2, 1, 0.0);
        img.set(1, 0, 0.9);
        let t = img.threshold(0.5);
        assert_eq!(t.get(0, 0), 0.0);
        assert_eq!(t.get(1, 0), 1.0);
        assert!((t.coverage() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn equalization_spreads_histogram() {
        // Two-level image: equalization maps levels to distinct CDF values.
        let mut img = Image::new(4, 1, 0.2);
        img.set(2, 0, 0.8);
        img.set(3, 0, 0.8);
        let e = img.equalized();
        assert!(e.get(0, 0) < e.get(2, 0));
    }

    #[test]
    fn pgm_roundtrip_header() {
        let img = Image::new(3, 2, 0.5);
        let pgm = img.to_pgm();
        assert!(pgm.starts_with(b"P5\n3 2\n255\n"));
        assert_eq!(pgm.len(), b"P5\n3 2\n255\n".len() + 6);
    }
}
