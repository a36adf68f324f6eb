//! Result memoization above the resolve-once [`StatsCache`] layer.
//!
//! The [`StatsCache`](maestro_netlist::StatsCache) memoizes the *setup*
//! cost (module scan + technology queries); this cache memoizes the full
//! per-module estimation *result* — the [`EstimateRecord`] with its
//! standard-cell estimate, aspect sweep and full-custom estimate — keyed
//! by module content, technology revision, and a digest of the
//! estimation parameters. In an ECO edit loop a re-estimation of a
//! 96-module chip with one edited module then pays estimation cost for
//! exactly one module; the other 95 come straight out of this memo.
//!
//! Like the stats layer, the memo is a [`BoundedMemo`]: a streaming
//! million-module run evicts least-recently-used entries in batches
//! instead of growing without limit. Every lookup emits
//! `estimate.results.hits` / `estimate.results.misses` (and evictions
//! emit `estimate.results.evictions`) trace counters.

use std::sync::Arc;

use maestro_netlist::{content_hash128, BoundedMemo, CacheStats, MemoCounters, ModuleFingerprint};

use crate::report::EstimateRecord;
use crate::standard_cell::ScParams;

/// Cache key: module content × technology revision × parameter digest.
pub type ResultsKey = (ModuleFingerprint, u64, u64);

/// Default entry cap for [`ResultsCache`].
pub const DEFAULT_RESULTS_CAPACITY: usize = 8192;

/// Digest of every estimation parameter that can change a module's
/// [`EstimateRecord`] under a fixed technology: [`content_hash128`] of
/// the parameter words, folded to 64 bits. Two pipelines with equal
/// digests produce byte-identical records for the same (module,
/// technology) pair.
pub fn params_digest(params: &ScParams) -> u64 {
    let (tag, rows) = params.rows.map_or((0, 0), |rows| (1, u64::from(rows)));
    let words = [tag, rows];
    let h = content_hash128(&words.map(u64::to_le_bytes).concat());
    (h ^ (h >> 64)) as u64
}

/// Bounded concurrent memo of per-module estimation results.
///
/// # Examples
///
/// ```
/// use maestro_estimator::results_cache::{params_digest, ResultsCache};
/// use maestro_estimator::standard_cell::ScParams;
/// use maestro_estimator::EstimateRecord;
/// use maestro_netlist::{generate, ModuleFingerprint};
///
/// let cache = ResultsCache::new();
/// let m = generate::counter(3);
/// let key = (ModuleFingerprint::of(&m), 0, params_digest(&ScParams::default()));
/// assert!(cache.get(&key).is_none());
/// cache.insert(key, EstimateRecord {
///     module_name: m.name().to_owned(),
///     standard_cell: None,
///     full_custom: None,
///     standard_cell_candidates: Vec::new(),
/// });
/// assert!(cache.get(&key).is_some());
/// let stats = cache.stats();
/// assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
/// ```
#[derive(Debug)]
pub struct ResultsCache {
    memo: BoundedMemo<ResultsKey, Arc<EstimateRecord>>,
}

impl Default for ResultsCache {
    fn default() -> Self {
        ResultsCache::with_capacity(DEFAULT_RESULTS_CAPACITY)
    }
}

impl ResultsCache {
    /// An empty cache with the default cap ([`DEFAULT_RESULTS_CAPACITY`]).
    pub fn new() -> Self {
        ResultsCache::default()
    }

    /// An empty cache holding at most `capacity` records (clamped to at
    /// least 1), evicting as [`BoundedMemo`] does.
    pub fn with_capacity(capacity: usize) -> Self {
        ResultsCache {
            memo: BoundedMemo::new(
                capacity,
                MemoCounters {
                    hits: Some("estimate.results.hits"),
                    misses: Some("estimate.results.misses"),
                    evictions: Some("estimate.results.evictions"),
                },
            ),
        }
    }

    /// Looks up a memoized record, counting a hit or a miss (emitted as
    /// `estimate.results.hits` / `estimate.results.misses` trace
    /// counters).
    pub fn get(&self, key: &ResultsKey) -> Option<Arc<EstimateRecord>> {
        self.memo.get(key)
    }

    /// Memoizes a record, evicting least-recently-used entries first if
    /// the cache is at capacity. Re-inserting an existing key replaces
    /// its record.
    pub fn insert(&self, key: ResultsKey, record: EstimateRecord) {
        self.memo.insert(key, Arc::new(record));
    }

    /// Hit/miss/eviction/entry counters.
    pub fn stats(&self) -> CacheStats {
        self.memo.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maestro_netlist::generate;

    fn record(name: &str) -> EstimateRecord {
        EstimateRecord {
            module_name: name.to_owned(),
            standard_cell: None,
            full_custom: None,
            standard_cell_candidates: Vec::new(),
        }
    }

    fn key_of(i: u64) -> ResultsKey {
        let m = generate::counter(3);
        (ModuleFingerprint::of(&m), i, 0)
    }

    #[test]
    fn get_after_insert_hits_and_shares_the_arc() {
        let cache = ResultsCache::new();
        let key = key_of(0);
        assert!(cache.get(&key).is_none());
        cache.insert(key, record("a"));
        let one = cache.get(&key).expect("cached");
        let two = cache.get(&key).expect("cached");
        assert!(Arc::ptr_eq(&one, &two));
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 2,
                misses: 1,
                evictions: 0,
                entries: 1
            }
        );
    }

    #[test]
    fn capacity_bound_evicts_the_least_recently_used() {
        let cache = ResultsCache::with_capacity(2);
        cache.insert(key_of(1), record("a"));
        cache.insert(key_of(2), record("b"));
        // Touch 1 so 2 is the LRU victim.
        assert!(cache.get(&key_of(1)).is_some());
        cache.insert(key_of(3), record("c"));
        let stats = cache.stats();
        assert_eq!((stats.evictions, stats.entries), (1, 2));
        assert!(cache.get(&key_of(1)).is_some());
        assert!(cache.get(&key_of(2)).is_none(), "LRU entry evicted");
        assert!(cache.get(&key_of(3)).is_some());
    }

    #[test]
    fn params_digest_separates_every_field() {
        let base = ScParams::default();
        let explicit = ScParams::with_rows(4);
        let other_rows = ScParams::with_rows(5);
        let digests = [
            params_digest(&base),
            params_digest(&explicit),
            params_digest(&other_rows),
        ];
        for (i, a) in digests.iter().enumerate() {
            for b in digests.iter().skip(i + 1) {
                assert_ne!(a, b);
            }
        }
        assert_eq!(params_digest(&base), params_digest(&ScParams::default()));
    }
}
