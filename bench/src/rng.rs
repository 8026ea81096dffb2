//! The benchmark's own random stream. Plan synthesis must not depend on
//! `logic::SplitMix64`: a later change to that type would silently change
//! every workload.

/// SplitMix64 (Vigna). Same seed, same stream, on every machine.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// An independent stream for one named purpose, so adding a draw to
    /// one part of a plan never shifts another part.
    pub fn fork(seed: u64, purpose: &str) -> Self {
        let mut h = crate::plan::Fnv::new();
        h.write(seed);
        for b in purpose.bytes() {
            h.write(u64::from(b));
        }
        Rng(h.finish())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform index in `[0, n)`; the modulo bias is below 2^-50 for the
    /// sizes used here.
    pub fn index(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.unit() * (hi - lo)
    }

    /// Fisher-Yates permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            p.swap(i, self.index(i + 1));
        }
        p
    }
}

/// Zipf(s) over ranks `0..n`: rank `k` has weight `1 / (k + 1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let cumulative = (1..=n)
            .map(|k| {
                acc += 1.0 / (k as f64).powf(s);
                acc
            })
            .collect();
        Zipf { cumulative }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let total = *self.cumulative.last().expect("zipf over at least one rank");
        let x = rng.unit() * total;
        self.cumulative
            .partition_point(|&c| c <= x)
            .min(self.cumulative.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_forks_differ() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        assert!((0..100).all(|_| a.next_u64() == b.next_u64()));
        let mut x = Rng::fork(1, "coeffs");
        let mut y = Rng::fork(1, "inputs");
        assert_ne!(x.next_u64(), y.next_u64());
    }

    #[test]
    fn permutation_is_a_permutation() {
        let mut p = Rng::new(3).permutation(64);
        p.sort_unstable();
        assert_eq!(p, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let z = Zipf::new(12, 1.0);
        let mut rng = Rng::new(1);
        let mut hist = [0usize; 12];
        for _ in 0..20_000 {
            hist[z.sample(&mut rng)] += 1;
        }
        assert!(hist[0] > hist[1] && hist[1] > hist[3] && hist[3] > hist[11]);
        // Rank 0 carries 1/H(12) = 32 % of the mass.
        let share = hist[0] as f64 / 20_000.0;
        assert!((share - 0.322).abs() < 0.02, "{share}");
    }
}
