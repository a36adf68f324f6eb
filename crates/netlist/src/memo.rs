//! The one bounded memo and the one content hash behind every cache in
//! the estimator stack.
//!
//! The resolve-once [`crate::StatsCache`], the estimator's per-module
//! result memo, the warm-start seed store and the serve daemon's parse
//! memo are all thin wrappers over [`BoundedMemo`]: a concurrent map
//! with exactly-once computation per key, a capacity bound with
//! least-recently-used eviction, and one hit/miss/eviction count set.
//! Their keys hash content with [`content_hash128`].

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use maestro_trace as trace;

/// 128-bit content hash, FNV-style but folding 16-byte words per
/// multiply, so hashing a whole request text costs far less than parsing
/// it. The length is mixed in up front (a short text and its
/// zero-padded sibling differ). Collisions need ~2^64 distinct inputs;
/// values are only compared within one process and never persisted.
///
/// # Examples
///
/// ```
/// use maestro_netlist::content_hash128;
///
/// assert_eq!(content_hash128(b"module"), content_hash128(b"module"));
/// assert_ne!(content_hash128(b"ab"), content_hash128(b"ab\0"));
/// ```
pub fn content_hash128(bytes: &[u8]) -> u128 {
    let mut h = Fold::new(bytes.len());
    let mut words = bytes.chunks_exact(16);
    for word in &mut words {
        h.word(u128::from_le_bytes(word.try_into().expect("exact chunk")));
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut padded = [0u8; 16];
        padded[..tail.len()].copy_from_slice(tail);
        h.word(u128::from_le_bytes(padded));
    }
    h.finish()
}

/// [`content_hash128`] of the values' little-endian bytes, folded four
/// values to a word without writing the bytes out: the module
/// fingerprint hashes its `u32` arrays this way.
pub(crate) fn content_hash128_u32(values: impl ExactSizeIterator<Item = u32>) -> u128 {
    let mut h = Fold::new(4 * values.len());
    let (mut word, mut filled) = (0u128, 0);
    for v in values {
        word |= u128::from(v) << (32 * filled);
        filled += 1;
        if filled == 4 {
            h.word(word);
            (word, filled) = (0, 0);
        }
    }
    if filled > 0 {
        h.word(word);
    }
    h.finish()
}

/// The state of [`content_hash128`]: the length up front, then one
/// multiply per 16-byte word.
struct Fold(u128);

impl Fold {
    const OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
    const PRIME: u128 = 0x0000000001000000000000000000013B;

    fn new(len: usize) -> Self {
        Fold(Self::OFFSET ^ (len as u128).wrapping_mul(Self::PRIME))
    }

    fn word(&mut self, word: u128) {
        self.0 = (self.0 ^ word).wrapping_mul(Self::PRIME);
    }

    fn finish(self) -> u128 {
        (self.0 ^ (self.0 >> 64)).wrapping_mul(Self::PRIME)
    }
}

/// Counter snapshot of a memo.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups served from the memo.
    pub hits: u64,
    /// Lookups that found nothing (the caller computed the value).
    pub misses: u64,
    /// Entries dropped by the capacity bound since construction.
    pub evictions: u64,
    /// Entries currently held.
    pub entries: usize,
}

impl CacheStats {
    /// Hit/miss/eviction growth since an `earlier` snapshot of the same
    /// cache. `entries` carries the current level (it is not a monotonic
    /// counter). Saturates if the snapshots are swapped.
    #[must_use]
    pub fn delta_since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            evictions: self.evictions.saturating_sub(earlier.evictions),
            entries: self.entries,
        }
    }
}

/// The trace counters a memo emits alongside its own counts; `None`
/// emits nothing for that event.
#[derive(Debug, Clone, Copy, Default)]
pub struct MemoCounters {
    /// Emitted with 1 on every hit.
    pub hits: Option<&'static str>,
    /// Emitted with 1 on every miss.
    pub misses: Option<&'static str>,
    /// Emitted with the batch size on every eviction pass.
    pub evictions: Option<&'static str>,
}

/// One slot: set exactly once, shared by every caller of its key.
type Slot<V> = Arc<OnceLock<V>>;

#[derive(Debug)]
struct Entry<V> {
    slot: Slot<V>,
    last_used: AtomicU64,
}

/// A bounded, concurrent memo with exactly-once computation per key.
///
/// * Slots are `Arc<OnceLock<V>>` behind an `RwLock`.
///   [`BoundedMemo::get_or_insert_with`] computes outside the lock: late
///   arrivals for the same key block on the winner's slot instead of
///   computing twice, and distinct keys never wait on each other's
///   computation.
/// * Every lookup stamps its entry with a logical clock. Inserting a new
///   key into a full memo first drops the `max(capacity / 8, 1)`
///   least-recently-used idle entries, picked with a selection in one
///   pass. That is O(1) amortized per insertion. An in-flight slot, one
///   that a computing or waiting caller holds, is never dropped.
/// * One hit/miss/eviction count set backs [`BoundedMemo::stats`] and
///   emits the [`MemoCounters`] trace counters.
///
/// # Examples
///
/// ```
/// use maestro_netlist::{BoundedMemo, MemoCounters};
///
/// let memo: BoundedMemo<u32, String> = BoundedMemo::new(16, MemoCounters::default());
/// assert_eq!(memo.get_or_insert_with(1, || "one".to_owned()), "one");
/// assert_eq!(memo.get(&1).as_deref(), Some("one"));
/// assert_eq!(memo.get(&2), None);
/// let stats = memo.stats();
/// assert_eq!((stats.hits, stats.misses, stats.entries), (1, 2, 1));
/// ```
#[derive(Debug)]
pub struct BoundedMemo<K, V> {
    map: RwLock<HashMap<K, Entry<V>>>,
    capacity: usize,
    counters: MemoCounters,
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

/// Adds `by` to `count` and emits it as trace counter `name`, if any.
fn bump(count: &AtomicU64, name: Option<&'static str>, by: u64) {
    count.fetch_add(by, Ordering::Relaxed);
    if let Some(name) = name {
        trace::counter(name, by);
    }
}

impl<K, V> BoundedMemo<K, V> {
    /// An empty memo holding at most `capacity` entries (clamped to at
    /// least 1) that emits `counters`.
    pub fn new(capacity: usize, counters: MemoCounters) -> Self {
        BoundedMemo {
            map: RwLock::new(HashMap::new()),
            capacity: capacity.max(1),
            counters,
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Entries currently held, in-flight slots included.
    pub fn len(&self) -> usize {
        self.read().len()
    }

    /// True when the memo holds no entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Hit/miss/eviction/entry counters (the monotonic counters are read
    /// `Relaxed`; exact only in quiescence, indicative under
    /// concurrency).
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.len(),
        }
    }

    // The map is only locked for non-panicking map operations, so a
    // poisoned lock still guards a consistent map.
    fn read(&self) -> RwLockReadGuard<'_, HashMap<K, Entry<V>>> {
        self.map.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn write(&self) -> RwLockWriteGuard<'_, HashMap<K, Entry<V>>> {
        self.map.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// A new entry for `slot`, stamped with the next tick.
    fn entry(&self, slot: Slot<V>) -> Entry<V> {
        let last_used = AtomicU64::new(self.tick.fetch_add(1, Ordering::Relaxed));
        Entry { slot, last_used }
    }

    /// Stamps `entry` with the next tick.
    fn touch(&self, entry: &Entry<V>) {
        let now = self.tick.fetch_add(1, Ordering::Relaxed);
        entry.last_used.store(now, Ordering::Relaxed);
    }

    fn count(&self, hit: bool) {
        if hit {
            bump(&self.hits, self.counters.hits, 1);
        } else {
            bump(&self.misses, self.counters.misses, 1);
        }
    }
}

impl<K: Eq + Hash + Clone, V: Clone> BoundedMemo<K, V> {
    /// The completed value under `key`, counting a hit, or `None`
    /// (counting a miss) when the key is absent or still computing.
    pub fn get(&self, key: &K) -> Option<V> {
        let found = self.read().get(key).and_then(|entry| {
            let value = entry.slot.get().cloned();
            if value.is_some() {
                self.touch(entry);
            }
            value
        });
        self.count(found.is_some());
        found
    }

    /// Stores `value` under `key`, replacing any previous value. A new key
    /// evicts first when the memo is full. Counts neither a hit nor a
    /// miss.
    pub fn insert(&self, key: K, value: V) {
        let mut map = self.write();
        self.make_room(&mut map, &key);
        map.insert(key, self.entry(Arc::new(OnceLock::from(value))));
    }

    /// The value under `key`, computing it with `compute` on first use.
    /// Concurrent callers of one key run `compute` exactly once; the rest
    /// wait for it and count hits. The miss is counted when the compute
    /// starts. A compute that panics caches nothing: its slot stays
    /// empty, the next call for the key computes afresh, and eviction
    /// may drop the slot meanwhile.
    pub fn get_or_insert_with(&self, key: K, compute: impl FnOnce() -> V) -> V {
        let found = self.read().get(&key).map(|entry| {
            self.touch(entry);
            Arc::clone(&entry.slot)
        });
        let slot = found.unwrap_or_else(|| {
            let mut map = self.write();
            self.make_room(&mut map, &key);
            let entry = map.entry(key.clone());
            Arc::clone(&entry.or_insert_with(|| self.entry(Slot::default())).slot)
        });
        let mut computed = false;
        let value = slot
            .get_or_init(|| {
                computed = true;
                self.count(false);
                compute()
            })
            .clone();
        if !computed {
            self.count(true);
        }
        value
    }

    /// Drops the least-recently-used idle entries when `key` is new and
    /// the memo is full. Runs under the write lock, so the victims come
    /// from a consistent map. A slot is in flight while a caller holds a
    /// clone of it; every other slot is idle — completed, or left empty
    /// by a compute that panicked.
    fn make_room(&self, map: &mut HashMap<K, Entry<V>>, key: &K) {
        if map.len() < self.capacity || map.contains_key(key) {
            return;
        }
        let batch = (self.capacity / 8).max(1);
        let mut victims: Vec<(u64, K)> = map
            .iter()
            .filter(|(_, entry)| entry.slot.get().is_some() || Arc::strong_count(&entry.slot) == 1)
            .map(|(key, entry)| (entry.last_used.load(Ordering::Relaxed), key.clone()))
            .collect();
        if victims.len() > batch {
            victims.select_nth_unstable_by_key(batch - 1, |&(used, _)| used);
            victims.truncate(batch);
        }
        for (_, victim) in &victims {
            map.remove(victim);
        }
        let evicted = victims.len() as u64;
        if evicted > 0 {
            bump(&self.evictions, self.counters.evictions, evicted);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::{Barrier, Mutex};

    fn memo(capacity: usize) -> BoundedMemo<u32, u32> {
        BoundedMemo::new(capacity, MemoCounters::default())
    }

    fn input(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 7 + 3) as u8).collect()
    }

    #[test]
    fn content_hash_values_are_pinned() {
        // Pinned values: a change to the hash must be deliberate.
        for (n, expected) in [
            (0, 0xb82b6468521a8c484645d275808c2ab5u128),
            (15, 0x0c87ec45d1cac1d1261423821f3a3d1c),
            (16, 0x68dfce458ccac1f39a140666649d6a9d),
            (17, 0xfb18f7de3c7bfb5f2f1e7aa3d0d1231c),
            (4099, 0x34d3f53cde42ff7ca10f57ff11178148),
        ] {
            assert_eq!(content_hash128(&input(n)), expected, "{n}-byte input");
        }
        assert_eq!(
            content_hash128(b"module inv\n  port a in\nendmodule\n"),
            0x92c0bf08e1a26c4fcca7e80911454463
        );
    }

    #[test]
    fn the_u32_fold_equals_the_hash_of_the_little_endian_bytes() {
        for n in [0usize, 1, 3, 4, 5, 8, 13] {
            let values: Vec<u32> = (0..n as u32).map(|i| i.wrapping_mul(0x9e37_79b9)).collect();
            let bytes: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
            assert_eq!(
                content_hash128_u32(values.iter().copied()),
                content_hash128(&bytes),
                "{n} values"
            );
        }
    }

    #[test]
    fn insert_replaces_and_get_counts_hits_and_misses() {
        let m = memo(4);
        assert_eq!(m.get(&1), None);
        m.insert(1, 10);
        m.insert(1, 11);
        assert_eq!(m.get(&1), Some(11));
        assert_eq!(m.get_or_insert_with(1, || unreachable!()), 11);
        assert_eq!(
            m.stats(),
            CacheStats {
                hits: 2,
                misses: 1,
                evictions: 0,
                entries: 1
            }
        );
    }

    #[test]
    fn a_panicking_compute_caches_nothing_and_the_next_call_recomputes() {
        let m = memo(4);
        let panicked = catch_unwind(AssertUnwindSafe(|| {
            m.get_or_insert_with(7, || panic!("compute failed"))
        }));
        assert!(panicked.is_err());
        assert_eq!(m.get(&7), None, "nothing was cached");
        assert_eq!(m.get_or_insert_with(7, || 70), 70);
        assert_eq!(m.get(&7), Some(70));
        let stats = m.stats();
        // Misses: the panicked compute, the get, the recompute.
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 3, 1));
    }

    #[test]
    fn a_slot_left_empty_by_a_panic_is_evictable() {
        let m = memo(1);
        let _ = catch_unwind(AssertUnwindSafe(|| {
            m.get_or_insert_with(7, || panic!("compute failed"))
        }));
        m.insert(8, 80);
        assert_eq!(m.len(), 1, "the empty slot made room");
        assert_eq!(m.stats().evictions, 1);
    }

    #[test]
    fn in_flight_slots_are_never_evicted() {
        let m = Arc::new(memo(2));
        let started = Arc::new(Barrier::new(2));
        let release = Arc::new(Mutex::new(()));
        let held = release.lock().unwrap();
        let worker = {
            let (m, started, release) =
                (Arc::clone(&m), Arc::clone(&started), Arc::clone(&release));
            std::thread::spawn(move || {
                m.get_or_insert_with(0, || {
                    started.wait();
                    let _wait = release.lock().unwrap();
                    100
                })
            })
        };
        started.wait();
        // Key 0 is in flight; fill and overflow the memo around it.
        for k in 1..6 {
            m.insert(k, k);
            assert!(m.len() <= 2, "only idle entries make room");
        }
        assert_eq!(m.get(&0), None, "still computing");
        drop(held);
        assert_eq!(worker.join().unwrap(), 100);
        assert_eq!(m.get(&0), Some(100), "the in-flight slot survived");
        assert_eq!(m.stats().evictions, 4);
    }

    #[test]
    fn counters_are_emitted_to_the_trace() {
        let collector = Arc::new(trace::Collector::new());
        let m: BoundedMemo<u32, u32> = BoundedMemo::new(
            2,
            MemoCounters {
                hits: Some("memo.test.hits"),
                misses: Some("memo.test.misses"),
                evictions: Some("memo.test.evictions"),
            },
        );
        trace::with_sink(collector.clone(), || {
            for k in 0..3 {
                m.get_or_insert_with(k, || k);
            }
            m.get(&2);
        });
        assert_eq!(collector.counter_total("memo.test.misses"), 3);
        assert_eq!(collector.counter_total("memo.test.hits"), 1);
        assert_eq!(collector.counter_total("memo.test.evictions"), 1);
    }

    /// One step of the random operation log.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Get(u32),
        Insert(u32),
        GetOrInsert(u32),
    }

    fn op() -> impl Strategy<Value = Op> {
        (0u32..3, 0u32..24).prop_map(|(kind, key)| match kind {
            0 => Op::Get(key),
            1 => Op::Insert(key),
            _ => Op::GetOrInsert(key),
        })
    }

    proptest! {
        /// After any serial operation log, the resident keys and the
        /// counters match an oracle that sorts by last use and evicts the
        /// `max(capacity / 8, 1)` oldest entries whenever a new key meets a
        /// full memo.
        #[test]
        fn residents_match_the_sort_by_last_use_oracle(
            capacity in 1usize..20,
            ops in proptest::collection::vec(op(), 0..200),
        ) {
            let m = memo(capacity);
            let mut oracle: Vec<(u32, u64)> = Vec::new(); // (key, last use)
            let (mut hits, mut misses, mut evictions) = (0u64, 0u64, 0u64);
            for (now, op) in ops.iter().enumerate() {
                let now = now as u64;
                let (key, writes, counted) = match *op {
                    Op::Get(k) => {
                        m.get(&k);
                        (k, false, true)
                    }
                    Op::Insert(k) => {
                        m.insert(k, k);
                        (k, true, false)
                    }
                    Op::GetOrInsert(k) => {
                        m.get_or_insert_with(k, || k);
                        (k, true, true)
                    }
                };
                match oracle.iter_mut().find(|(k, _)| *k == key) {
                    Some(entry) => {
                        entry.1 = now;
                        hits += u64::from(counted);
                    }
                    None => {
                        misses += u64::from(counted);
                        if writes {
                            if oracle.len() >= capacity {
                                oracle.sort_by_key(|&(_, used)| used);
                                let batch = (capacity / 8).max(1).min(oracle.len());
                                oracle.drain(..batch);
                                evictions += batch as u64;
                            }
                            oracle.push((key, now));
                        }
                    }
                }
            }
            let mut expected: Vec<u32> = oracle.iter().map(|&(k, _)| k).collect();
            expected.sort_unstable();
            let mut resident: Vec<u32> = (0..24).filter(|k| m.read().contains_key(k)).collect();
            resident.sort_unstable();
            prop_assert_eq!(resident, expected);
            prop_assert_eq!(
                m.stats(),
                CacheStats { hits, misses, evictions, entries: oracle.len() }
            );
        }
    }
}
