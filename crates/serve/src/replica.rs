//! Model replicas: N independent serving lanes over one shared model.
//!
//! Each replica owns its own bounded [`Batcher`] queue (served by
//! `min(rayon threads, workers)` executor threads, one page per take),
//! its own LRU response cache and its own circuit breaker; the model
//! weights themselves are shared read-only (`brief_batch` takes `&self`
//! and is pure), so replicas cost threads and cache memory, not model
//! copies. Requests are routed
//! by a consistent-hash ring over the page-content hash: the same page
//! always lands on the same replica, so each per-replica cache stays hot
//! on its shard of the page population instead of every cache holding a
//! diluted copy of everything, and one replica's model panics trip only
//! its own breaker.
//!
//! The ring uses virtual nodes (64 per replica) so the key space splits
//! evenly; routing is a binary search over the sorted point list.

use std::sync::{Arc, Mutex};

use crate::batch::Batcher;
use crate::breaker::{BreakerConfig, CircuitBreaker};
use crate::cache::{fnv1a, LruCache};

/// Virtual-node count per replica; 64 keeps the largest shard within a
/// few percent of the smallest for any replica count this server runs.
const VNODES: usize = 64;

/// One serving lane: queue + cache + breaker.
pub struct Replica {
    /// This replica's job queue, served by its own executor threads.
    pub batcher: Batcher,
    /// This replica's response cache (keys consistent-hashed here).
    pub cache: Mutex<LruCache<Arc<String>>>,
    /// This replica's circuit breaker.
    pub breaker: CircuitBreaker,
    /// `serve.replica.{index}.requests` — resolved once here because the
    /// `wb_obs::counter!` macro caches its handle per call site, which
    /// would alias every replica to whichever name registered first.
    requests: Arc<wb_obs::metrics::Counter>,
}

impl Replica {
    /// Counts a routed request against this replica.
    pub fn count_request(&self) {
        if wb_obs::enabled() {
            self.requests.add(1);
        }
    }
}

/// The full replica set plus its consistent-hash ring.
pub struct ReplicaSet {
    replicas: Vec<Replica>,
    /// `(point, replica_index)` sorted by point; keys route to the first
    /// point clockwise (binary search, wrapping past the last point).
    ring: Vec<(u64, usize)>,
}

impl ReplicaSet {
    /// Builds `n` replicas (at least 1), each with its own
    /// `cache_capacity`-entry cache, a queue of at most `queue_capacity`
    /// jobs and a breaker tuned by `breaker_cfg`.
    pub fn new(
        n: usize,
        cache_capacity: usize,
        queue_capacity: usize,
        breaker_cfg: BreakerConfig,
    ) -> ReplicaSet {
        let n = n.max(1);
        let replicas = (0..n)
            .map(|index| Replica {
                batcher: Batcher::new(queue_capacity),
                cache: Mutex::new(LruCache::new(cache_capacity)),
                breaker: CircuitBreaker::new(breaker_cfg),
                requests: wb_obs::metrics::registry()
                    .counter(&format!("serve.replica.{index}.requests")),
            })
            .collect();
        let mut ring: Vec<(u64, usize)> = (0..n)
            .flat_map(|index| {
                (0..VNODES).map(move |v| {
                    let point = fnv1a(format!("replica-{index}-vnode-{v}").as_bytes());
                    (point, index)
                })
            })
            .collect();
        ring.sort_unstable();
        ReplicaSet { replicas, ring }
    }

    /// Number of replicas (≥ 1).
    pub fn len(&self) -> usize {
        self.replicas.len()
    }

    /// All replicas, in index order.
    pub fn all(&self) -> &[Replica] {
        &self.replicas
    }

    /// The replica owning `key` (a page-content hash) on the ring.
    pub fn route(&self, key: u64) -> &Replica {
        &self.replicas[self.shard(key)]
    }

    /// Index of the replica owning `key`: the first ring point at or
    /// after it, wrapping past the last.
    fn shard(&self, key: u64) -> usize {
        let i = self.ring.partition_point(|&(point, _)| point < key);
        self.ring[if i == self.ring.len() { 0 } else { i }].1
    }

    /// Closes every batcher (pending jobs still run; executors exit once
    /// their queue is drained).
    pub fn close_all(&self) {
        for r in &self.replicas {
            r.batcher.close();
        }
    }

    /// Total cached responses across replicas (for `/varz`).
    pub fn cache_len(&self) -> usize {
        self.replicas.iter().map(|r| r.cache.lock().unwrap().len()).sum()
    }

    /// Worst breaker state across replicas (`open` > `half-open` >
    /// `closed`) — the one-word answer to "is the model healthy".
    pub fn breaker_summary(&self) -> &'static str {
        let mut summary = "closed";
        for r in &self.replicas {
            match r.breaker.state_name() {
                "open" => return "open",
                "half-open" => summary = "half-open",
                _ => {}
            }
        }
        summary
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(n: usize) -> ReplicaSet {
        ReplicaSet::new(n, 8, 8, BreakerConfig { threshold: 0, ..BreakerConfig::default() })
    }

    #[test]
    fn routing_is_deterministic_and_stable() {
        let a = set(4);
        let b = set(4);
        for key in (0..10_000u64).map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15)) {
            assert_eq!(a.shard(key), b.shard(key), "key {key}");
        }
    }

    #[test]
    fn ring_spreads_keys_roughly_evenly() {
        let s = set(4);
        let mut counts = [0usize; 4];
        for key in (0..40_000u64).map(|i| fnv1a(&i.to_le_bytes())) {
            counts[s.shard(key)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (4_000..=20_000).contains(&c),
                "replica {i} owns {c} of 40000 keys — ring is badly skewed: {counts:?}"
            );
        }
    }

    #[test]
    fn adding_a_replica_moves_only_a_fraction_of_keys() {
        let before = set(3);
        let after = set(4);
        let keys: Vec<u64> = (0..20_000u64).map(|i| fnv1a(&i.to_le_bytes())).collect();
        let moved = keys
            .iter()
            .filter(|&&k| {
                let b = before.shard(k);
                let a = after.shard(k);
                b != a
            })
            .count();
        // Consistent hashing: ~1/4 of keys move to the new replica; naive
        // modulo hashing would reshuffle ~3/4. Allow generous slack.
        assert!(
            moved < keys.len() / 2,
            "{moved} of {} keys moved when adding one replica",
            keys.len()
        );
    }

    #[test]
    fn single_replica_owns_everything() {
        let s = set(1);
        for key in [0u64, 1, u64::MAX, 0xdead_beef] {
            assert_eq!(s.shard(key), 0);
        }
    }

    #[test]
    fn breaker_summary_reports_worst_state() {
        let s = ReplicaSet::new(
            2,
            0,
            8,
            BreakerConfig {
                threshold: 1,
                window: std::time::Duration::from_secs(30),
                cooldown: std::time::Duration::from_secs(60),
            },
        );
        assert_eq!(s.breaker_summary(), "closed");
        s.all()[1].breaker.record_failure();
        assert_eq!(s.breaker_summary(), "open");
    }
}
