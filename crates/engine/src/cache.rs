//! The engine-level LRU result cache.
//!
//! Caches whole responses for every request kind: entries are keyed on
//! `(dataset epoch triple, request fingerprint)`, so a repeat of an
//! identical request against an unchanged dataset is answered without
//! touching any index.
//!
//! **Correctness does not depend on eviction.** Any mutation advances the
//! dataset's epoch triple, so stale entries can never match a new key;
//! they age out through the LRU like any other cold entry.
//!
//! Eviction is true LRU in `O(log capacity)`: a tick-ordered
//! `BTreeMap<tick, key>` mirrors the entry map's recency, so a full
//! cache evicts its least-recently-used entry by popping the first tick
//! — not by scanning every entry, which made inserts `O(capacity)` under
//! sustained load.

use crate::catalog::DatasetEpoch;
use crate::request::Response;
use std::collections::{BTreeMap, HashMap};
use std::sync::Mutex;

/// Cache key: dataset epoch triple + request content fingerprint.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Epoch triple of the request's dataset at execution time.
    pub epoch: DatasetEpoch,
    /// [`crate::Request::fingerprint`] of the request.
    pub fingerprint: u64,
}

#[derive(Debug)]
struct Entry {
    response: Response,
    last_used: u64,
}

#[derive(Debug, Default)]
struct Inner {
    map: HashMap<CacheKey, Entry>,
    /// Recency index: `last_used` tick → key. Ticks are unique (every
    /// touch consumes one), so this is a faithful LRU order.
    recency: BTreeMap<u64, CacheKey>,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl Inner {
    /// Looks the key up once, refreshing its recency on a hit.
    fn get_and_touch(&mut self, key: &CacheKey) -> Option<&mut Entry> {
        self.tick += 1;
        let tick = self.tick;
        // Split borrows: the map entry and the recency index are
        // disjoint fields.
        let recency = &mut self.recency;
        match self.map.get_mut(key) {
            Some(entry) => {
                recency.remove(&entry.last_used);
                entry.last_used = tick;
                recency.insert(tick, *key);
                Some(entry)
            }
            None => None,
        }
    }
}

/// A bounded, thread-safe LRU map from request keys to responses.
#[derive(Debug)]
pub struct ResultCache {
    inner: Mutex<Inner>,
    capacity: usize,
}

/// Point-in-time cache counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to execution.
    pub misses: u64,
    /// Entries currently held.
    pub len: usize,
    /// Maximum entries held.
    pub capacity: usize,
}

impl CacheStats {
    /// Hits over lookups (0 when no lookups yet).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl ResultCache {
    /// A cache holding at most `capacity` responses.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        Self {
            inner: Mutex::new(Inner::default()),
            capacity,
        }
    }

    /// Looks up a response, refreshing its recency on a hit.
    pub fn get(&self, key: &CacheKey) -> Option<Response> {
        self.lookup(key, true)
    }

    /// [`ResultCache::get`] for a caller that may not act on a miss: a
    /// hit is always counted, a miss only when `count_miss`. The event
    /// loop probes with `false` for a request it would hand to the pool
    /// on a miss, so that request is counted once, by the pool's lookup.
    pub fn lookup(&self, key: &CacheKey, count_miss: bool) -> Option<Response> {
        let mut inner = self.inner.lock().expect("cache lock");
        match inner.get_and_touch(key) {
            Some(entry) => {
                let response = entry.response.clone();
                inner.hits += 1;
                Some(response)
            }
            None => {
                if count_miss {
                    inner.misses += 1;
                }
                None
            }
        }
    }

    /// Inserts a response, evicting the least recently used entry when
    /// full. Error responses are the caller's to filter (the engine does
    /// not cache them).
    pub fn insert(&self, key: CacheKey, response: Response) {
        let mut inner = self.inner.lock().expect("cache lock");
        if let Some(entry) = inner.get_and_touch(&key) {
            entry.response = response;
            return;
        }
        if inner.map.len() >= self.capacity {
            // O(log n): the least-recently-used entry is the first tick.
            if let Some((_, oldest)) = inner.recency.pop_first() {
                inner.map.remove(&oldest);
            }
        }
        inner.tick += 1;
        let tick = inner.tick;
        inner.map.insert(
            key,
            Entry {
                response,
                last_used: tick,
            },
        );
        inner.recency.insert(tick, key);
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock().expect("cache lock");
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            len: inner.map.len(),
            capacity: self.capacity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(epoch: u64, fp: u64) -> CacheKey {
        CacheKey {
            epoch: DatasetEpoch {
                base: epoch,
                delta: 0,
                tombstones: 0,
            },
            fingerprint: fp,
        }
    }

    fn resp(n: usize) -> Response {
        Response::ReverseTopKBi(vec![n])
    }

    #[test]
    fn hit_after_insert_miss_before() {
        let c = ResultCache::new(4);
        assert_eq!(c.get(&key(1, 7)), None);
        c.insert(key(1, 7), resp(1));
        assert_eq!(c.get(&key(1, 7)), Some(resp(1)));
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.len), (1, 1, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn an_uncounted_probe_counts_only_its_hit() {
        let c = ResultCache::new(4);
        assert_eq!(c.lookup(&key(1, 7), false), None);
        c.insert(key(1, 7), resp(1));
        assert_eq!(c.lookup(&key(1, 7), false), Some(resp(1)));
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (1, 0));
    }

    #[test]
    fn epoch_triple_is_part_of_the_key() {
        let c = ResultCache::new(4);
        c.insert(key(1, 7), resp(1));
        assert_eq!(c.get(&key(2, 7)), None, "new epoch must not see old entry");
        let deltaed = CacheKey {
            epoch: DatasetEpoch {
                base: 1,
                delta: 1,
                tombstones: 0,
            },
            fingerprint: 7,
        };
        assert_eq!(c.get(&deltaed), None, "appended overlay must miss");
        let tombstoned = CacheKey {
            epoch: DatasetEpoch {
                base: 1,
                delta: 0,
                tombstones: 1,
            },
            fingerprint: 7,
        };
        assert_eq!(c.get(&tombstoned), None, "deleted overlay must miss");
    }

    #[test]
    fn lru_eviction_at_capacity() {
        let c = ResultCache::new(2);
        c.insert(key(1, 1), resp(1));
        c.insert(key(1, 2), resp(2));
        // Touch 1 so 2 becomes the LRU.
        assert!(c.get(&key(1, 1)).is_some());
        c.insert(key(1, 3), resp(3));
        assert_eq!(c.stats().len, 2);
        assert!(c.get(&key(1, 1)).is_some());
        assert!(c.get(&key(1, 2)).is_none(), "LRU entry evicted");
        assert!(c.get(&key(1, 3)).is_some());
    }

    /// Regression for the O(capacity) eviction scan: the BTreeMap-backed
    /// eviction must pick exactly the entry the old full-scan
    /// `min_by_key(last_used)` would have picked, under an interleaved
    /// get/insert workload.
    #[test]
    fn eviction_order_matches_reference_lru() {
        let cap = 8;
        let c = ResultCache::new(cap);
        // Reference model: Vec of keys, most recent last.
        let mut model: Vec<u64> = Vec::new();
        let mut lcg = 12345u64;
        for step in 0..2000u64 {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let fp = lcg % 24; // small key space: plenty of hits
            if lcg & 1 == 0 {
                // get
                let hit = c.get(&key(1, fp)).is_some();
                let model_hit = model.contains(&fp);
                assert_eq!(hit, model_hit, "step {step}: get({fp})");
                if model_hit {
                    model.retain(|&k| k != fp);
                    model.push(fp);
                }
            } else {
                c.insert(key(1, fp), resp(fp as usize));
                if model.contains(&fp) {
                    model.retain(|&k| k != fp);
                } else if model.len() == cap {
                    model.remove(0); // evict LRU
                }
                model.push(fp);
            }
            assert_eq!(c.stats().len, model.len(), "step {step}");
        }
        // Final state: exactly the model's keys are present. Probing the
        // model keys in LRU order must all hit.
        for fp in model.clone() {
            assert!(c.get(&key(1, fp)).is_some(), "model key {fp} missing");
        }
    }

    #[test]
    fn reinsert_same_key_updates_value_without_eviction() {
        let c = ResultCache::new(1);
        c.insert(key(1, 1), resp(1));
        c.insert(key(1, 1), resp(2));
        assert_eq!(c.get(&key(1, 1)), Some(resp(2)));
        assert_eq!(c.stats().len, 1);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = ResultCache::new(0);
    }
}
