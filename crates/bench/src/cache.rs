//! Exact-match result cache for supervised experiment batches.
//!
//! Every simulator in this workspace is deterministic: the same
//! configuration always produces the same result bytes. That makes caching
//! trivial to reason about — the key is a hash of the job's configuration
//! (plus anything else that can change the outcome, e.g. a deadline), and a
//! hit returns the exact bytes a fresh run would have produced. There is no
//! staleness: an entry is valid for the life of the process.
//!
//! The cache is a plain memo: a lookup that misses runs the build without
//! holding the lock and stores the result only if the build succeeds. The
//! supervisor runs one job at a time, so two builds of one key never race.
//! Each entry also records a FNV-1a fingerprint of the result bytes — the
//! same witness the perf-gate golden comparison uses — so a batch report
//! can prove which bytes a cache hit handed out.
//!
//! Hit/miss counters are readable at any time via [`ResultCache::stats`]
//! and exportable into a telemetry [`Registry`] via
//! [`ResultCache::record_telemetry`].

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use sim_core::telemetry::Registry;

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over `bytes`: the workspace's canonical cheap stable hash, used
/// both for cache keys (over the job configuration) and result fingerprints
/// (over result JSON). Not a cryptographic hash; collisions are
/// astronomically unlikely at batch scale but would only ever substitute
/// one deterministic result for another with the same recorded fingerprint.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Render a fingerprint the way batch reports and goldens spell it.
pub fn fingerprint_hex(fp: u64) -> String {
    format!("fnv1a64:{fp:016x}")
}

/// One cached result.
#[derive(Debug)]
pub struct CacheEntry {
    /// The config-hash key this entry was stored under.
    pub key: u64,
    /// The exact result bytes a direct run would have written.
    pub result_json: String,
    /// FNV-1a fingerprint of `result_json` — the perf-gate witness.
    pub fingerprint: u64,
}

/// Point-in-time counters of a [`ResultCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served without running the builder.
    pub hits: u64,
    /// Lookups that ran the builder.
    pub misses: u64,
    /// Entries currently stored.
    pub entries: u64,
}

#[derive(Default)]
struct Memo {
    entries: HashMap<u64, Arc<CacheEntry>>,
    hits: u64,
    misses: u64,
}

/// The exact-match result cache.
#[derive(Default)]
pub struct ResultCache {
    memo: Mutex<Memo>,
}

impl ResultCache {
    /// An empty cache. Within one batch every entry is worth keeping, so
    /// nothing is ever evicted.
    pub fn new() -> Self {
        ResultCache::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Memo> {
        self.memo.lock().expect("cache lock poisoned")
    }

    /// Look up `key`; on a miss run `build` and store its result. Returns
    /// the entry plus whether it was a hit (`true` = served without running
    /// `build`).
    ///
    /// If `build` fails — by error **or by panic** — nothing is stored, so
    /// a later lookup of the key builds again. The lock is not held while
    /// `build` runs, so a panic propagates to the caller (where the batch
    /// supervisor's `catch_unwind` turns it into a structured report)
    /// without poisoning the cache.
    pub fn get_or_build<E>(
        &self,
        key: u64,
        build: impl FnOnce() -> Result<String, E>,
    ) -> Result<(Arc<CacheEntry>, bool), E> {
        {
            let mut memo = self.lock();
            if let Some(entry) = memo.entries.get(&key).cloned() {
                memo.hits += 1;
                return Ok((entry, true));
            }
            memo.misses += 1;
        }
        let result_json = build()?;
        let entry = Arc::new(CacheEntry {
            key,
            fingerprint: fnv1a64(result_json.as_bytes()),
            result_json,
        });
        self.lock().entries.insert(key, Arc::clone(&entry));
        Ok((entry, false))
    }

    /// Point-in-time counters.
    pub fn stats(&self) -> CacheStats {
        let memo = self.lock();
        CacheStats {
            hits: memo.hits,
            misses: memo.misses,
            entries: memo.entries.len() as u64,
        }
    }

    /// Export the counters as `cache.*` series into `reg`.
    pub fn record_telemetry(&self, reg: &Registry) {
        let s = self.stats();
        reg.counter_set("cache.hits", s.hits);
        reg.counter_set("cache.misses", s.misses);
        reg.counter_set("cache.entries", s.entries);
    }

    /// Entries currently stored.
    pub fn len(&self) -> usize {
        self.lock().entries.len()
    }

    /// Whether no entry is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn hit_returns_identical_bytes_without_rebuilding() {
        let cache = ResultCache::new();
        let (a, hit_a) = cache
            .get_or_build(7, || Ok::<_, ()>("{\"x\":1}".to_string()))
            .unwrap();
        let (b, hit_b) = cache
            .get_or_build(7, || -> Result<String, ()> { unreachable!("must hit") })
            .unwrap();
        assert!(!hit_a);
        assert!(hit_b);
        assert_eq!(a.result_json, b.result_json);
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.fingerprint, fnv1a64(b"{\"x\":1}"));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
    }

    #[test]
    fn distinct_keys_are_distinct_entries() {
        let cache = ResultCache::new();
        let (a, _) = cache
            .get_or_build(1, || Ok::<_, ()>("one".to_string()))
            .unwrap();
        let (b, hit) = cache
            .get_or_build(2, || Ok::<_, ()>("two".to_string()))
            .unwrap();
        assert!(!hit, "another key never hits");
        assert_ne!(a.result_json, b.result_json);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn failed_build_releases_the_slot_for_retry() {
        let cache = ResultCache::new();
        let err = cache
            .get_or_build(9, || Err::<String, _>("boom"))
            .unwrap_err();
        assert_eq!(err, "boom");
        assert!(cache.is_empty(), "a failed build stores nothing");
        let (e, hit) = cache
            .get_or_build(9, || Ok::<_, ()>("recovered".to_string()))
            .unwrap();
        assert!(!hit);
        assert_eq!(e.result_json, "recovered");
    }

    #[test]
    fn panicking_build_releases_the_slot_for_waiters() {
        // A panicking build stores nothing, and the next caller of the key
        // builds instead of finding a poisoned lock or a stale entry.
        let cache = ResultCache::new();
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.get_or_build(5, || -> Result<String, ()> { panic!("boom") })
        }));
        assert!(panicked.is_err());
        assert!(cache.is_empty());
        let (e, hit) = cache
            .get_or_build(5, || Ok::<_, ()>("after panic".to_string()))
            .unwrap();
        assert!(!hit);
        assert_eq!(e.result_json, "after panic");
    }

    #[test]
    fn unbounded_cache_never_evicts() {
        let cache = ResultCache::new();
        for key in 0..64u64 {
            cache
                .get_or_build(key, || Ok::<_, ()>("z".repeat(1024)))
                .unwrap();
        }
        for key in 0..64u64 {
            let (_, hit) = cache
                .get_or_build(key, || -> Result<String, ()> { unreachable!("must hit") })
                .unwrap();
            assert!(hit, "key {key}");
        }
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (64, 64, 64));
    }

    #[test]
    fn telemetry_export_records_the_counters() {
        let cache = ResultCache::new();
        cache
            .get_or_build(1, || Ok::<_, ()>("a".to_string()))
            .unwrap();
        cache
            .get_or_build(1, || -> Result<String, ()> { unreachable!() })
            .unwrap();
        let _ = cache.get_or_build(2, || Err::<String, _>(()));
        let reg = Registry::new();
        cache.record_telemetry(&reg);
        assert_eq!(reg.counter_value("cache.hits"), Some(1));
        assert_eq!(reg.counter_value("cache.misses"), Some(2));
        assert_eq!(reg.counter_value("cache.entries"), Some(1));
    }

    #[test]
    fn fingerprint_hex_format() {
        assert_eq!(fingerprint_hex(0xff), "fnv1a64:00000000000000ff");
    }
}
