//! Cache-affine admission routing.
//!
//! The runtime's configuration cache is keyed by *(region, structure)*
//! with coefficient values excluded, so the natural affinity key for a
//! request is its graph's **structure**: route every structurally
//! identical submission to the same shard and that shard's cache serves
//! all of them from one compile. [`RouteKey`] is that identity as a
//! 64-bit FNV-1a hash — stable across processes and machines (no
//! `DefaultHasher` seeding, no pointer values), so routing decisions are
//! reproducible wherever the same workload runs.
//!
//! [`Router`] layers load balancing on top: the primary shard is
//! `key mod shards`; when the primary's outstanding load runs ahead of
//! the least-loaded shard by at least `spill_margin`, the request spills
//! to the least-loaded shard instead. The load signal is the number of
//! **uncollected tickets** per shard (incremented at dispatch,
//! decremented when the caller collects or drops the ticket) — a value
//! that depends only on the caller's own submit/collect order, never on
//! worker timing, which is what makes a seeded load-generator run
//! reproducible down to per-shard admission order.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use vcgra::app::AppGraph;

/// 64-bit FNV-1a, the crate's stable structural hash.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fnv(u64);

impl Fnv {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    pub(crate) fn new() -> Self {
        Fnv(Self::OFFSET)
    }

    #[inline]
    pub(crate) fn write(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    pub(crate) fn finish(self) -> u64 {
        self.0
    }
}

/// Structure-only routing key: hashes everything the runtime's
/// `ConfigKey` keys a compile by *except* the region shape (which the
/// shard's own scheduler picks) — `AppGraph::structure_words`: format,
/// arity, per-node op/wiring/has-coefficient flags, and outputs.
/// Coefficient **values** are excluded, so a warm re-admission routes to
/// the shard that compiled the structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RouteKey(u64);

impl RouteKey {
    /// Derives the routing key for a graph.
    pub fn of(graph: &AppGraph) -> Self {
        let mut h = Fnv::new();
        graph.structure_words().for_each(|w| h.write(w));
        RouteKey(h.finish())
    }

    /// The raw hash (recorded in `shard.route` spans).
    pub fn hash(&self) -> u64 {
        self.0
    }

    /// The affine (primary) shard under `shards` shards.
    pub fn shard(&self, shards: usize) -> usize {
        debug_assert!(shards > 0);
        (self.0 % shards as u64) as usize
    }
}

/// Why the router picked the shard it picked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutePick {
    /// The affine shard was within the load margin.
    Affinity,
    /// The affine shard ran ahead of the least-loaded one by at least
    /// the spill margin; the request went to the least-loaded shard.
    Spilled {
        /// The affine shard the request was diverted from.
        from: usize,
    },
}

/// The admission router: affinity hash + spill-on-imbalance.
#[derive(Debug)]
pub struct Router {
    /// Outstanding (dispatched, uncollected) tickets per shard. Shared
    /// with the [`crate::Ticket`]s, which decrement on collect.
    outstanding: Vec<Arc<AtomicU64>>,
    /// Spill when `load(primary) - min(load) >= spill_margin`.
    /// `u64::MAX` disables spilling entirely (pure affinity).
    spill_margin: u64,
}

impl Router {
    /// A router over `shards` shards with the given spill margin.
    pub fn new(shards: usize, spill_margin: u64) -> Self {
        assert!(shards > 0, "router needs at least one shard");
        Router {
            outstanding: (0..shards).map(|_| Arc::new(AtomicU64::new(0))).collect(),
            spill_margin: spill_margin.max(1),
        }
    }

    /// Number of shards routed over.
    pub fn shards(&self) -> usize {
        self.outstanding.len()
    }

    /// Shared load cell for one shard (held by tickets).
    pub(crate) fn load_cell(&self, shard: usize) -> Arc<AtomicU64> {
        Arc::clone(&self.outstanding[shard])
    }

    /// Picks the shard for a new admission: the affine shard unless its
    /// outstanding load runs ahead of the least-loaded shard by at least
    /// the spill margin. Ties in the least-loaded scan break to the
    /// lowest shard index, so the decision is a pure function of the
    /// load vector.
    pub fn route(&self, key: RouteKey) -> (usize, RoutePick) {
        let primary = key.shard(self.shards());
        let mut primary_load = 0;
        let (mut min_load, mut min_shard) = (u64::MAX, 0);
        for (i, cell) in self.outstanding.iter().enumerate() {
            let load = cell.load(Ordering::SeqCst);
            if i == primary {
                primary_load = load;
            }
            if load < min_load {
                (min_load, min_shard) = (load, i);
            }
        }
        if self.spill_margin != u64::MAX
            && primary_load >= min_load.saturating_add(self.spill_margin)
        {
            (min_shard, RoutePick::Spilled { from: primary })
        } else {
            (primary, RoutePick::Affinity)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use softfloat::{FpFormat, FpValue};

    const F: FpFormat = FpFormat::PAPER;

    #[test]
    fn route_key_ignores_coefficient_values() {
        let a = AppGraph::dot_product(F, &[1.0, 2.0, 3.0]);
        let b = a.with_coeffs(&[9.0, -1.0, 0.5].map(|c| FpValue::from_f64(c, F)));
        assert_eq!(RouteKey::of(&a), RouteKey::of(&b));
        // Structural change: different key.
        let c = AppGraph::dot_product(F, &[1.0, 2.0, 3.0, 4.0]);
        assert_ne!(RouteKey::of(&a), RouteKey::of(&c));
    }

    #[test]
    fn route_key_hash_is_pinned() {
        // Shard assignment is part of every recorded plan (the benchmark
        // pins `shard_mixed`'s), so the hash of a structure may not move.
        let key = RouteKey::of(&AppGraph::dot_product(F, &[1.0, 2.0, 3.0]));
        assert_eq!(key.hash(), 0xb855_1d84_4a15_b7bb);
    }

    #[test]
    fn router_spills_only_past_the_margin() {
        let router = Router::new(4, 3);
        let key = RouteKey::of(&AppGraph::dot_product(F, &[1.0, 2.0]));
        let primary = key.shard(4);
        let (shard, pick) = router.route(key);
        assert_eq!((shard, pick), (primary, RoutePick::Affinity));
        // Load the primary to just under the margin: still affine.
        router.load_cell(primary).store(2, Ordering::SeqCst);
        assert_eq!(router.route(key).1, RoutePick::Affinity);
        // At the margin: spill to the least-loaded (lowest index wins).
        router.load_cell(primary).store(3, Ordering::SeqCst);
        let (shard, pick) = router.route(key);
        assert_eq!(pick, RoutePick::Spilled { from: primary });
        assert_ne!(shard, primary);
        assert_eq!(
            shard,
            if primary == 0 { 1 } else { 0 },
            "least-loaded, lowest index"
        );
    }

    #[test]
    fn disabled_margin_never_spills() {
        let router = Router::new(2, u64::MAX);
        let key = RouteKey::of(&AppGraph::dot_product(F, &[1.0]));
        router
            .load_cell(key.shard(2))
            .store(1_000_000, Ordering::SeqCst);
        assert_eq!(router.route(key).1, RoutePick::Affinity);
    }
}
