//! Order statistics for the benchmark's timings.

/// Median of a sample (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank quantile `q` in `[0, 1]` of a sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The highest quantile of the ladder that still has at least ten samples
/// beyond it in a sample of `n`; the median when none has.
pub fn highest_supported_quantile(n: usize) -> f64 {
    // Per mille, so that "ten beyond" is decided in whole numbers.
    const LADDER: [usize; 4] = [999, 990, 950, 900];
    LADDER
        .into_iter()
        .find(|q| n * (1000 - q) / 1000 >= 10)
        .map_or(0.5, |q| q as f64 / 1000.0)
}

/// Work rate per segment: `done_at[i]` is the time, in seconds from the
/// start of the window, at which operation `i` completed. The operations
/// are cut into `segments` runs of equal count (a remainder at the end is
/// dropped) and each run's rate is its count over the time it spanned.
pub fn segment_rates(done_at: &[f64], segments: usize) -> Vec<f64> {
    let segments = segments.min(done_at.len()).max(1);
    let per = done_at.len() / segments;
    let mut rates = Vec::with_capacity(segments);
    let mut start = 0.0;
    for s in 0..segments {
        let end = done_at[(s + 1) * per - 1];
        rates.push(per as f64 / (end - start).max(1e-12));
        start = end;
    }
    rates
}

/// A latency figure that contention from neighbours on a shared host moves
/// as little as possible. The samples, in completion order, are cut into
/// `segments` runs of equal count; each run gives its `within`-quantile;
/// the result is the `across`-quantile of those. Contention only ever slows
/// a run down, so a low `across` (the fast side) estimates the program on a
/// quiet host. With fewer than `min_per_segment` samples per run the result
/// is the `within`-quantile of the whole sample.
pub fn segmented_quantile(
    values: &[f64],
    within: f64,
    across: f64,
    segments: usize,
    min_per_segment: usize,
) -> f64 {
    let per = values.len() / segments.max(1);
    if per < min_per_segment.max(1) {
        return quantile(values, within);
    }
    let runs: Vec<f64> = values
        .chunks_exact(per)
        .map(|run| quantile(run, within))
        .collect();
    quantile(&runs, across)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segmented_quantile_ignores_slow_stretches() {
        // 1000 samples at 1.0 with every 50th at 3.0; 600 of them, in two
        // stretches, slowed fivefold by a neighbour.
        let mut v: Vec<f64> = (0..1000)
            .map(|i| if i % 50 == 49 { 3.0 } else { 1.0 })
            .collect();
        for x in v.iter_mut().skip(100).take(400) {
            *x *= 5.0;
        }
        for x in v.iter_mut().skip(700).take(200) {
            *x *= 5.0;
        }
        assert_eq!(quantile(&v, 0.5), 5.0);
        assert_eq!(quantile(&v, 0.99), 15.0);
        assert_eq!(segmented_quantile(&v, 0.5, 0.25, 10, 20), 1.0);
        assert_eq!(segmented_quantile(&v, 0.99, 0.25, 10, 20), 3.0);
        // Too few samples per segment: the plain quantile of the sample.
        assert_eq!(segmented_quantile(&[1.0, 2.0, 9.0], 1.0, 0.25, 10, 20), 9.0);
        // One sample per segment: the across-quantile of the samples.
        assert_eq!(
            segmented_quantile(&[4.0, 2.0, 9.0, 3.0], 0.5, 0.1, 4, 1),
            2.0
        );
    }

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[5.0]), 5.0);
    }

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&[7.0, 9.0], 0.99), 9.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_quantile(5), 0.5);
        assert_eq!(highest_supported_quantile(100), 0.9);
        assert_eq!(highest_supported_quantile(199), 0.9);
        assert_eq!(highest_supported_quantile(200), 0.95);
        assert_eq!(highest_supported_quantile(1000), 0.99);
        assert_eq!(highest_supported_quantile(9_999), 0.99);
        assert_eq!(highest_supported_quantile(10_000), 0.999);
    }

    #[test]
    fn segments_are_equal_work() {
        // 10 ops at 1 op/s, then 10 ops at 2 ops/s.
        let mut t = Vec::new();
        for i in 1..=10 {
            t.push(f64::from(i));
        }
        for i in 1..=10 {
            t.push(10.0 + f64::from(i) * 0.5);
        }
        let r = segment_rates(&t, 2);
        assert_eq!(r, vec![1.0, 2.0]);
        // A burst in one of thirty segments does not move the median.
        let mut t: Vec<f64> = (1..=300).map(|i| f64::from(i) * 0.01).collect();
        for x in t.iter_mut().skip(150) {
            *x += 5.0;
        }
        let m = median(&segment_rates(&t, 30));
        assert!((m - 100.0).abs() < 1e-6, "{m}");
        // Fewer operations than segments: one segment per operation.
        assert_eq!(segment_rates(&[2.0, 4.0], 30).len(), 2);
    }
}
