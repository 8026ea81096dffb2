//! The specialized-configuration cache.
//!
//! A compiled configuration (placement + routing) is keyed by the pair
//! **(region architecture, graph structure)** — the coefficient *values*
//! are deliberately excluded, and no coefficient is in the entry. Two
//! applications that differ only in parameters (new filter taps) hit the
//! same entry and share it: the expensive `map_app` compile is skipped,
//! and each tenant's PE settings come from its own graph, which is the
//! micro-reconfiguration fast path.
//! A structural change (different wiring, different ops, different region)
//! misses and triggers a full recompile.
//!
//! Eviction is least-recently-used over a fixed capacity.

use std::collections::HashMap;
use std::sync::Arc;

use vcgra::app::AppGraph;
use vcgra::flow::VcgraMapping;
use vcgra::VcgraArch;

/// Cache key: region architecture + graph structure, coefficients excluded.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ConfigKey {
    rows: usize,
    cols: usize,
    channel_capacity: usize,
    /// `AppGraph::structure_words`, collected.
    structure: Vec<u64>,
}

impl ConfigKey {
    /// Stable-within-a-process fingerprint of the key: the hash the cache
    /// map buckets by. The verifier cross-checks these against an
    /// independently derived structural signature, so an `Eq`/`Hash`
    /// inconsistency here cannot silently serve one tenant another's
    /// circuit.
    pub fn fingerprint(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.hash(&mut h);
        h.finish()
    }

    /// Builds the key for a graph compiled onto a region architecture.
    pub fn new(region: VcgraArch, app: &AppGraph) -> Self {
        ConfigKey {
            rows: region.rows,
            cols: region.cols,
            channel_capacity: region.channel_capacity,
            structure: app.structure_words().collect(),
        }
    }
}

/// Hit/miss/eviction counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a structurally identical configuration.
    pub hits: u64,
    /// Lookups that required a compile.
    pub misses: u64,
    /// Entries evicted by the LRU policy.
    pub evictions: u64,
}

impl CacheStats {
    /// Warm-hit rate: hits over all lookups (0 when nothing was looked
    /// up). This is the number cache-aware placement exists to raise.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// LRU cache of compiled configurations. An entry's mapping holds no
/// coefficient, so every tenant of its key holds the same `Arc` as it is;
/// eviction drops only the cache's reference.
pub(crate) struct ConfigCache {
    capacity: usize,
    tick: u64,
    entries: HashMap<ConfigKey, (Arc<VcgraMapping>, u64)>,
    stats: CacheStats,
}

impl ConfigCache {
    /// Creates a cache holding at most `capacity` configurations.
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(capacity >= 1);
        ConfigCache {
            capacity,
            tick: 0,
            entries: HashMap::new(),
            stats: CacheStats::default(),
        }
    }

    /// True when `key` is cached, **without** touching the LRU recency or
    /// the hit/miss counters. Cache-aware placement probes candidate
    /// region shapes with this before committing to a grid; counting
    /// those probes as hits would inflate the very statistic the policy
    /// is judged by.
    pub(crate) fn contains(&self, key: &ConfigKey) -> bool {
        self.entries.contains_key(key)
    }

    /// Looks a configuration up, refreshing its recency on a hit.
    pub(crate) fn get(&mut self, key: &ConfigKey) -> Option<Arc<VcgraMapping>> {
        self.tick += 1;
        match self.entries.get_mut(key) {
            Some((mapping, used)) => {
                *used = self.tick;
                self.stats.hits += 1;
                Some(Arc::clone(mapping))
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Inserts a freshly compiled configuration, evicting the least
    /// recently used entry if the cache is full.
    pub(crate) fn insert(&mut self, key: ConfigKey, mapping: VcgraMapping) -> Arc<VcgraMapping> {
        self.tick += 1;
        if self.entries.len() >= self.capacity && !self.entries.contains_key(&key) {
            if let Some(victim) = self
                .entries
                .iter()
                .min_by_key(|(_, (_, used))| *used)
                .map(|(k, _)| k.clone())
            {
                self.entries.remove(&victim);
                self.stats.evictions += 1;
            }
        }
        let arc = Arc::new(mapping);
        self.entries.insert(key, (Arc::clone(&arc), self.tick));
        arc
    }

    /// Counter snapshot.
    pub(crate) fn stats(&self) -> CacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use softfloat::{FpFormat, FpValue};
    use vcgra::flow::map_app;

    const F: FpFormat = FpFormat::PAPER;

    fn compile(app: &AppGraph, arch: VcgraArch) -> VcgraMapping {
        map_app(app, arch, 7).expect("mappable")
    }

    #[test]
    fn parameter_only_variants_share_a_key() {
        let arch = VcgraArch::paper_4x4();
        let a = AppGraph::dot_product(F, &[1.0, 2.0, 3.0]);
        let b = a.with_coeffs(&[9.0, -1.0, 0.5].map(|c| FpValue::from_f64(c, F)));
        assert_eq!(ConfigKey::new(arch, &a), ConfigKey::new(arch, &b));
        // Structural change: different key.
        let c = AppGraph::dot_product(F, &[1.0, 2.0, 3.0, 4.0]);
        assert_ne!(ConfigKey::new(arch, &a), ConfigKey::new(arch, &c));
        // Same graph, different region: different key.
        assert_ne!(
            ConfigKey::new(arch, &a),
            ConfigKey::new(VcgraArch::new(2, 4, 2), &a)
        );
    }

    #[test]
    fn hit_miss_and_lru_eviction() {
        let arch = VcgraArch::paper_4x4();
        let apps: Vec<AppGraph> = (2..=5)
            .map(|n| AppGraph::dot_product(F, &vec![1.0; n]))
            .collect();
        let mut cache = ConfigCache::new(2);
        for app in &apps[..2] {
            let key = ConfigKey::new(arch, app);
            assert!(cache.get(&key).is_none());
            cache.insert(key, compile(app, arch));
        }
        // Touch the first entry so the second becomes LRU.
        assert!(cache.get(&ConfigKey::new(arch, &apps[0])).is_some());
        cache.insert(ConfigKey::new(arch, &apps[2]), compile(&apps[2], arch));
        let live = apps
            .iter()
            .filter(|app| cache.contains(&ConfigKey::new(arch, app)));
        assert_eq!(live.count(), 2);
        assert!(cache.get(&ConfigKey::new(arch, &apps[0])).is_some(), "kept");
        assert!(
            cache.get(&ConfigKey::new(arch, &apps[1])).is_none(),
            "evicted"
        );
        let s = cache.stats();
        assert_eq!(s.evictions, 1);
        assert!(s.hits >= 2 && s.misses >= 3);
    }
}
