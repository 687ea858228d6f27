//! The [`TuneCache`]: tuning results keyed by a structural sparsity
//! fingerprint, so repeated tunes of the same matrix (the common case in a
//! training run — §2: "the overhead can be amortized") hit cache with zero
//! recompilation and zero re-measurement.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

// The fingerprint moved into `sparsetir-smat` (it is a pure structural
// summary) so the op layer in `sparsetir-kernels` can key on it without a
// dependency cycle; re-exported here for the existing tuner-facing path.
pub use sparsetir_smat::fingerprint::SparsityFingerprint;

/// Cache key: workload kind, evaluation backend, device, extra workload
/// parameters (feature width, heads, …) and the matrix fingerprint.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TuneKey {
    /// Workload kind (`"spmm"`, `"sddmm"`, `"attention"`).
    pub workload: &'static str,
    /// Evaluation backend (`"gpusim"` or `"measured"`).
    pub backend: &'static str,
    /// `GpuSpec::device_id` of the device tuned for, or `"host"` for a
    /// decision timed on the machine that serves.
    pub device: &'static str,
    /// Extra workload parameters (feature width, heads, …).
    pub extra: Vec<usize>,
    /// The matrix fingerprint.
    pub fingerprint: SparsityFingerprint,
}

/// Thread-safe map from [`TuneKey`] to a tuning result, with hit/miss
/// statistics.
#[derive(Default)]
pub struct TuneCache<V> {
    map: Mutex<HashMap<TuneKey, V>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

impl<V: Clone> TuneCache<V> {
    /// Empty cache.
    #[must_use]
    pub fn new() -> TuneCache<V> {
        TuneCache {
            map: Mutex::new(HashMap::new()),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
        }
    }

    /// Read-only probe: the cached value for `key`, counting a hit when
    /// present (a miss is not counted — callers falling through to
    /// [`TuneCache::get_or_insert_with`] would double-count it). Lets a
    /// caller with its own single-flight guard serve hits without taking
    /// that guard.
    pub fn get(&self, key: &TuneKey) -> Option<V> {
        let v = self.map.lock().unwrap().get(key).cloned();
        if v.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        v
    }

    /// Look up `key`, computing and inserting on a miss. Returns the value
    /// and whether it was a hit. `compute` runs outside the lock, so a
    /// slow tuning run never blocks unrelated lookups. No single-flight
    /// guard is provided: concurrent callers racing on the same key each
    /// pay the compute and the last insert wins (for the measured backend
    /// the racing results may differ by timing noise).
    pub fn get_or_insert_with(&self, key: TuneKey, compute: impl FnOnce() -> V) -> (V, bool) {
        if let Some(v) = self.map.lock().unwrap().get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return (v.clone(), true);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let v = compute();
        self.map.lock().unwrap().insert(key, v.clone());
        (v, false)
    }

    /// Unconditionally install (or overwrite) the decision for `key`,
    /// without touching the hit/miss statistics. This is the atomic-swap
    /// primitive of stale-while-retune serving: the engine pre-seeds a new
    /// fingerprint's key with the stale-but-correct config so lookups never
    /// stall, then a background retune overwrites it in one locked insert —
    /// readers see either the stale or the fresh decision, never a gap.
    pub fn insert(&self, key: TuneKey, value: V) {
        self.map.lock().unwrap().insert(key, value);
    }

    /// Read-only probe that counts neither a hit nor a miss (for
    /// bookkeeping paths like retune seeding, which must not skew the
    /// serving statistics).
    pub fn peek(&self, key: &TuneKey) -> Option<V> {
        self.map.lock().unwrap().get(key).cloned()
    }

    /// Number of cached decisions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.lock().unwrap().len()
    }

    /// True when nothing is cached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups answered from cache.
    #[must_use]
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to tune.
    #[must_use]
    pub fn misses(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(tag: usize) -> TuneKey {
        TuneKey {
            workload: "spmm",
            backend: "gpusim",
            device: "V100",
            extra: vec![tag],
            fingerprint: SparsityFingerprint {
                rows: 4,
                cols: 4,
                nnz: 2,
                degree_hist: vec![2, 2],
                relation_dims: vec![],
            },
        }
    }

    #[test]
    fn hit_after_miss_and_stats() {
        let cache = TuneCache::new();
        let (v, hit) = cache.get_or_insert_with(key(1), || 42);
        assert!(!hit);
        assert_eq!(v, 42);
        let (v, hit) = cache.get_or_insert_with(key(1), || unreachable!("must hit"));
        assert!(hit);
        assert_eq!(v, 42);
        let (_, hit) = cache.get_or_insert_with(key(2), || 7);
        assert!(!hit);
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (1, 2, 2));
    }

    #[test]
    fn insert_overwrites_atomically_without_stats() {
        let cache = TuneCache::new();
        cache.insert(key(1), 42); // pre-seed (stale config under new key)
        assert_eq!(cache.peek(&key(1)), Some(42));
        cache.insert(key(1), 43); // background retune swaps it
        assert_eq!(cache.peek(&key(1)), Some(43));
        assert_eq!((cache.hits(), cache.misses()), (0, 0), "seeding must not skew stats");
        let (v, hit) = cache.get_or_insert_with(key(1), || unreachable!("seeded"));
        assert!(hit);
        assert_eq!(v, 43);
    }
}
