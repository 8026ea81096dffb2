//! The metrics registry: named counters and log-linear-bucket
//! histograms with p50/p99/max readout.
//!
//! Handles ([`Counter`], [`Histogram`]) are cheap `Arc` clones
//! over atomics: get-or-create once, then record lock-free from any
//! thread. The registry itself only takes a lock on handle creation and
//! snapshot, never on the record path.
//!
//! Histogram buckets are log-linear (HDR-style): each power-of-two
//! octave is split into [`SUBS`] linear sub-buckets, so the relative
//! width of any bucket is at most `1/SUBS` (12.5 %) while the whole
//! `u64` range fits in `N_BUCKETS` slots. Values below `SUBS` get
//! exact unit buckets.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Linear sub-buckets per power-of-two octave.
pub const SUBS: u64 = 8;
const SUB_BITS: u32 = 3; // log2(SUBS)
/// Total bucket count covering all of `u64`.
pub(crate) const N_BUCKETS: usize = (SUBS + (64 - SUB_BITS as u64) * SUBS) as usize;

/// Bucket index for a value. Monotone in `v`; exact for `v < SUBS`.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < SUBS {
        v as usize
    } else {
        let e = 63 - v.leading_zeros(); // v in [2^e, 2^(e+1)), e >= SUB_BITS
        let sub = (v >> (e - SUB_BITS)) & (SUBS - 1);
        (SUBS + u64::from(e - SUB_BITS) * SUBS + sub) as usize
    }
}

/// Half-open value range `[lo, hi)` covered by a bucket. `hi` saturates
/// at `u64::MAX` for the topmost octave.
pub fn bucket_bounds(idx: usize) -> (u64, u64) {
    let idx = idx as u64;
    if idx < SUBS {
        (idx, idx + 1)
    } else {
        let e = SUB_BITS + ((idx - SUBS) / SUBS) as u32;
        let sub = (idx - SUBS) % SUBS;
        let width = 1u64 << (e - SUB_BITS);
        let lo = (1u64 << e) + sub * width;
        (lo, lo.saturating_add(width))
    }
}

/// Monotonically increasing counter.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    pub fn inc(&self) {
        self.add(1);
    }
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistInner {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for HistInner {
    fn default() -> Self {
        HistInner {
            buckets: (0..N_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

/// Log-linear-bucket histogram handle.
#[derive(Clone, Debug)]
pub struct Histogram(Arc<HistInner>);

impl Default for Histogram {
    fn default() -> Self {
        Histogram(Arc::new(HistInner::default()))
    }
}

impl Histogram {
    pub fn record(&self, v: u64) {
        let h = &*self.0;
        h.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        h.count.fetch_add(1, Ordering::Relaxed);
        h.sum.fetch_add(v, Ordering::Relaxed);
        h.min.fetch_min(v, Ordering::Relaxed);
        h.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Record a duration as nanoseconds.
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(d.as_nanos() as u64);
    }

    pub fn snapshot(&self) -> HistogramSnapshot {
        let h = &*self.0;
        // Bucket counts are read first: a racing record() can then
        // only make `count` >= the bucket sum, never smaller, so
        // quantile ranks stay within the captured distribution.
        let buckets: Vec<u64> = h
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count = h.count.load(Ordering::Relaxed);
        let min = h.min.load(Ordering::Relaxed);
        HistogramSnapshot {
            buckets,
            count,
            sum: h.sum.load(Ordering::Relaxed),
            // The running min starts at the u64::MAX sentinel; pin the
            // empty readout to 0 so consumers (bench JSON, tables) never
            // see the sentinel as a "minimum latency".
            min: if count == 0 { 0 } else { min },
            max: h.max.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time copy of a histogram, with quantile readout.
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    buckets: Vec<u64>,
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
}

impl HistogramSnapshot {
    /// Value at quantile `q` in `[0, 1]`: the midpoint of the bucket
    /// holding the rank-`ceil(q*count)` sample, clamped to the observed
    /// `[min, max]`. Always within one bucket width of the exact
    /// order-statistic (the proptest suite checks this bound).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // `count as f64` rounds once the count has more than 53
        // significant bits, so `ceil(q * count)` can land past `count`
        // for q near 1.0 — clamp the rank back into [1, count] instead
        // of trusting the float round-trip.
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        if rank == self.count {
            return self.max; // the top order-statistic is tracked exactly
        }
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let (lo, hi) = bucket_bounds(i);
                let mid = lo + (hi - lo) / 2;
                return mid.clamp(self.min, self.max);
            }
        }
        self.max
    }

    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

#[derive(Default)]
struct RegistryInner {
    counters: BTreeMap<String, Counter>,
    histograms: BTreeMap<String, Histogram>,
}

/// Named-metric registry. `Default`-constructible; share with `Arc` or
/// hand out handles.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<RegistryInner>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Registry { .. }")
    }
}

impl Registry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or create the counter `name`.
    pub fn counter(&self, name: &str) -> Counter {
        let mut g = self.inner.lock().expect("registry poisoned");
        g.counters.entry(name.to_string()).or_default().clone()
    }

    /// Get or create the histogram `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut g = self.inner.lock().expect("registry poisoned");
        g.histograms.entry(name.to_string()).or_default().clone()
    }

    /// Current value of counter `name` (0 if absent).
    pub fn counter_value(&self, name: &str) -> u64 {
        let g = self.inner.lock().expect("registry poisoned");
        g.counters.get(name).map_or(0, Counter::get)
    }

    /// Names and snapshots of every histogram, sorted by name.
    pub fn histograms(&self) -> Vec<(String, HistogramSnapshot)> {
        let g = self.inner.lock().expect("registry poisoned");
        g.histograms
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_bounds_cover() {
        let mut prev = 0usize;
        for v in [
            0u64,
            1,
            7,
            8,
            9,
            15,
            16,
            100,
            1_000,
            1 << 20,
            u64::MAX / 2,
            u64::MAX,
        ] {
            let i = bucket_index(v);
            assert!(i >= prev, "bucket index must be monotone in the value");
            let (lo, hi) = bucket_bounds(i);
            assert!(
                lo <= v && (v < hi || hi == u64::MAX),
                "bounds must contain v={v}: [{lo},{hi})"
            );
            prev = i;
        }
        assert!(bucket_index(u64::MAX) < N_BUCKETS);
    }

    #[test]
    fn small_values_are_exact_quantiles() {
        let h = Histogram::default();
        for v in [1u64, 2, 3, 4, 5, 6, 7] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.quantile(0.0), 1);
        assert_eq!(s.p50(), 4);
        assert_eq!(s.quantile(1.0), 7);
        assert_eq!(s.max, 7);
        assert_eq!(s.min, 1);
        assert_eq!(s.count, 7);
        assert_eq!(s.sum, 28);
    }

    #[test]
    fn empty_histogram_readout_is_pinned() {
        let s = Histogram::default().snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.min, 0, "the u64::MAX running-min sentinel must not leak");
        assert_eq!(s.max, 0);
        assert_eq!(s.sum, 0);
        assert_eq!(s.quantile(0.0), 0);
        assert_eq!(s.quantile(0.5), 0);
        assert_eq!(s.quantile(1.0), 0);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn quantile_rank_clamps_at_count_boundaries() {
        // A count with more than 53 significant bits: `count as f64`
        // rounds up to 2^54, so the unclamped rank exceeds `count` for
        // q = 1.0. Nearly all mass in the bucket of value 4, one sample
        // at the tracked max, so the two return paths are
        // distinguishable.
        let count = (1u64 << 54) - 1;
        let mut buckets = vec![0u64; N_BUCKETS];
        buckets[bucket_index(4)] = count - 1;
        buckets[bucket_index(1000)] = 1;
        let s = HistogramSnapshot {
            buckets,
            count,
            sum: 0,
            min: 4,
            max: 1000,
        };
        assert_eq!(
            s.quantile(1.0),
            1000,
            "rank clamps to count, the exact top statistic"
        );
        assert_eq!(s.p50(), 4, "interior ranks still walk the buckets");
        // Saturated rank arithmetic: a count whose f64 image exceeds
        // u64::MAX must not walk past the distribution either.
        let mut buckets = vec![0u64; N_BUCKETS];
        buckets[bucket_index(4)] = u64::MAX;
        let s = HistogramSnapshot {
            buckets,
            count: u64::MAX,
            sum: 0,
            min: 4,
            max: 7,
        };
        assert_eq!(s.quantile(1.0), 7);
        // Rank 1 floor: q = 0.0 on a one-sample histogram.
        let mut buckets = vec![0u64; N_BUCKETS];
        buckets[bucket_index(5)] = 1;
        let s = HistogramSnapshot {
            buckets,
            count: 1,
            sum: 5,
            min: 5,
            max: 5,
        };
        assert_eq!(s.quantile(0.0), 5);
        assert_eq!(s.quantile(1.0), 5);
        // A racing record() can leave `count` ahead of the captured
        // bucket sum; the walk's fallthrough pins those ranks to `max`
        // instead of reading past the last occupied bucket.
        let s = HistogramSnapshot {
            buckets: vec![0; N_BUCKETS],
            count: 5,
            sum: 0,
            min: 1,
            max: 9,
        };
        assert_eq!(s.quantile(0.5), 9);
    }

    #[test]
    fn registry_handles_share_state() {
        let r = Registry::new();
        let a = r.counter("hits");
        let b = r.counter("hits");
        a.add(3);
        b.inc();
        assert_eq!(r.counter_value("hits"), 4);
        let h = r.histogram("lat_ns");
        h.record(10);
        assert_eq!(r.histogram("lat_ns").snapshot().count, 1);
    }
}
