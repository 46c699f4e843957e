//! Thread-safe sharded LRU, used by the demo server to answer concurrent
//! requests without a single global lock.

use crate::lru::LruCache;
use crate::stats::CacheStats;
use parking_lot::Mutex;
use std::hash::{BuildHasher, Hash, RandomState};
use std::sync::Arc;

/// A sharded, mutex-protected LRU with shared telemetry.
///
/// Values are stored behind `Arc` so `get` returns a clone-cheap handle
/// without holding the shard lock.
pub struct ShardedCache<K, V> {
    shards: Vec<Mutex<LruCache<K, Arc<V>>>>,
    hasher: RandomState,
    stats: Arc<CacheStats>,
}

impl<K: Hash + Eq + Clone, V> ShardedCache<K, V> {
    /// Creates a cache with `shards` shards of `per_shard` capacity each.
    ///
    /// # Panics
    /// Panics if either parameter is zero.
    pub fn new(shards: usize, per_shard: usize) -> Self {
        assert!(shards > 0, "need at least one shard");
        ShardedCache {
            shards: (0..shards)
                .map(|_| Mutex::new(LruCache::new(per_shard)))
                .collect(),
            hasher: RandomState::new(),
            stats: Arc::new(CacheStats::new()),
        }
    }

    fn shard_for(&self, key: &K) -> &Mutex<LruCache<K, Arc<V>>> {
        let idx = (self.hasher.hash_one(key) as usize) % self.shards.len();
        &self.shards[idx]
    }

    /// Whether a key is resident, without touching recency or telemetry
    /// (used by background warmers probing for work).
    pub fn contains(&self, key: &K) -> bool {
        self.shard_for(key).lock().peek(key).is_some()
    }

    /// Looks up a key without touching recency or telemetry (used by
    /// single-flight leaders re-checking after winning leadership, where
    /// a second hit/miss record would double-count the request).
    pub fn peek(&self, key: &K) -> Option<Arc<V>> {
        self.shard_for(key).lock().peek(key).cloned()
    }

    /// Looks up a key.
    pub fn get(&self, key: &K) -> Option<Arc<V>> {
        let result = self.shard_for(key).lock().get(key).cloned();
        match &result {
            Some(_) => self.stats.hit(),
            None => self.stats.miss(),
        }
        result
    }

    /// Inserts a value.
    pub fn put(&self, key: K, value: V) -> Arc<V> {
        self.put_if(key, value, || true)
    }

    /// Inserts a value only if `admit` returns `true`, evaluated under the
    /// key's shard lock; returns the value's handle either way. A writer
    /// racing [`ShardedCache::retain`] uses it: a sweep of the shard either
    /// runs after the insert (and judges the entry) or before the check
    /// (whose condition the sweeper changed first), so a rejected entry is
    /// never resident, not even briefly.
    pub fn put_if(&self, key: K, value: V, admit: impl FnOnce() -> bool) -> Arc<V> {
        let value = Arc::new(value);
        let mut shard = self.shard_for(&key).lock();
        if admit() {
            let evicted = shard.put(key, Arc::clone(&value)).is_some();
            drop(shard);
            self.stats.insert(evicted);
        }
        value
    }

    /// Looks up, or computes-and-inserts on miss.
    ///
    /// The computation runs *outside* the shard lock; under a race the
    /// first writer wins and later writers return the cached value.
    pub fn get_or_insert_with(&self, key: K, compute: impl FnOnce() -> V) -> Arc<V> {
        if let Some(v) = self.get(&key) {
            return v;
        }
        let computed = Arc::new(compute());
        let mut shard = self.shard_for(&key).lock();
        if let Some(existing) = shard.get(&key) {
            return Arc::clone(existing);
        }
        let evicted = shard.put(key, Arc::clone(&computed)).is_some();
        drop(shard);
        self.stats.insert(evicted);
        computed
    }

    /// Total entries across shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// Whether every shard is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Removes one key; returns the value if it was present. Recorded as
    /// an invalidation in [`CacheStats`].
    pub fn remove(&self, key: &K) -> Option<Arc<V>> {
        let removed = self.shard_for(key).lock().remove(key);
        if removed.is_some() {
            self.stats.invalidate(1);
        }
        removed
    }

    /// Keeps only entries for which `keep` returns `true`; returns how
    /// many were dropped (recorded as invalidations in [`CacheStats`]).
    ///
    /// Each shard is swept under its own lock, so concurrent readers of
    /// other shards are never blocked. Used for partition-scoped
    /// invalidation after a dataset hot-swap.
    pub fn retain(&self, mut keep: impl FnMut(&K, &V) -> bool) -> usize {
        let mut dropped = 0;
        for shard in &self.shards {
            dropped += shard.lock().retain(|k, v| keep(k, &**v));
        }
        if dropped > 0 {
            self.stats.invalidate(dropped as u64);
        }
        dropped
    }

    /// Clears every shard.
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.lock().clear();
        }
    }

    /// Shared telemetry handle.
    pub fn stats(&self) -> Arc<CacheStats> {
        Arc::clone(&self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn get_put_across_shards() {
        let c: ShardedCache<u32, String> = ShardedCache::new(4, 8);
        for i in 0..20 {
            c.put(i, format!("v{i}"));
        }
        assert!(c.len() <= 32);
        assert_eq!(c.get(&5).as_deref(), Some(&"v5".to_string()));
        assert!(c.stats().hits() >= 1);
    }

    #[test]
    fn get_or_insert_computes_once_per_key() {
        let c: ShardedCache<u32, u32> = ShardedCache::new(2, 16);
        let calls = AtomicUsize::new(0);
        let v1 = c.get_or_insert_with(7, || {
            calls.fetch_add(1, Ordering::SeqCst);
            70
        });
        let v2 = c.get_or_insert_with(7, || {
            calls.fetch_add(1, Ordering::SeqCst);
            71
        });
        assert_eq!(*v1, 70);
        assert_eq!(*v2, 70);
        assert_eq!(calls.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn concurrent_access_is_safe() {
        use std::sync::Arc as StdArc;
        let c: StdArc<ShardedCache<u32, u32>> = StdArc::new(ShardedCache::new(4, 32));
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let c = StdArc::clone(&c);
                std::thread::spawn(move || {
                    for i in 0..500u32 {
                        let key = (i * 7 + t) % 64;
                        let v = c.get_or_insert_with(key, || key * 2);
                        assert_eq!(*v, key * 2);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(c.len() <= 4 * 32);
    }

    #[test]
    fn retain_and_remove_record_invalidations() {
        let c: ShardedCache<u32, u32> = ShardedCache::new(4, 8);
        for i in 0..10 {
            c.put(i, i);
        }
        assert_eq!(c.remove(&3).as_deref(), Some(&3));
        assert_eq!(c.remove(&3), None, "second remove is a no-op");
        let dropped = c.retain(|k, _| k % 2 == 0);
        assert_eq!(dropped, 4, "odd keys dropped (3 already removed)");
        assert_eq!(c.len(), 5);
        assert_eq!(c.stats().invalidations(), 5);
        assert!(c.get(&5).is_none());
        assert!(c.get(&4).is_some());
    }

    #[test]
    fn put_if_inserts_only_when_admitted() {
        let c: ShardedCache<u32, u32> = ShardedCache::new(2, 4);
        let refused = c.put_if(1, 10, || false);
        assert_eq!(*refused, 10, "the caller still gets its value");
        assert!(c.peek(&1).is_none(), "refused value is not resident");
        let admitted = c.put_if(1, 11, || true);
        assert!(Arc::ptr_eq(&admitted, &c.peek(&1).unwrap()));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn clear_resets_contents_not_stats() {
        let c: ShardedCache<u32, u32> = ShardedCache::new(2, 4);
        c.put(1, 10);
        let _ = c.get(&1);
        c.clear();
        assert!(c.is_empty());
        assert!(c.stats().hits() > 0, "stats survive clear");
    }
}
