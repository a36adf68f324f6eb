//! Resolve-once memoization for [`NetlistStats`].
//!
//! `NetlistStats::resolve` is the estimator stack's hot setup cost: every
//! consumer — the standard-cell estimator, the multi-aspect sweep, the
//! full-custom estimator, placement, synthesis — re-scans the module and
//! re-queries the technology tables. Inside a floorplanner's iterate loop
//! the same `(module, technology, style)` triple recurs thousands of
//! times, so resolution must be paid once per triple, not once per
//! consumer.
//!
//! [`StatsCache`] is that memo: a [`BoundedMemo`] keyed by
//! ([`ModuleFingerprint`], [`maestro_tech::TechRevision`],
//! [`LayoutStyle`]) returning `Arc<NetlistStats>`. Failed resolutions are
//! cached too (a transistor-level module probed under the standard-cell
//! style fails identically every time), so even the error path costs one
//! scan per key.
//!
//! Concurrency contract (stronger than `ProbTable`'s): each key is
//! computed **exactly once** even under races — late arrivals block on the
//! winner's slot instead of duplicating the scan — and distinct keys never
//! serialize against each other's computation.
//!
//! Every lookup emits a `netlist.resolve.hits` / `netlist.resolve.misses`
//! trace counter increment (no-ops when tracing is disabled), so traced
//! runs surface cache effectiveness in `perf-report`.

use std::fmt;
use std::sync::{Arc, OnceLock};

use maestro_tech::ProcessDb;

use crate::memo::{BoundedMemo, CacheStats, MemoCounters};
use crate::{LayoutStyle, Module, NetlistError, NetlistStats};

/// A 128-bit content fingerprint of a [`Module`].
///
/// Covers everything `NetlistStats::resolve` can observe — the module
/// name, every device (name, template, pin bindings), every net name and
/// every port (direction, net) — by hashing the module's flat arrays and
/// name arenas in place, each length-prefixed by [`crate::content_hash128`], so
/// *any* mutation that could change resolution output changes the
/// fingerprint. The arrays are filled in id order, so the fingerprint is
/// a function of the content alone, not of how the builder's calls were
/// interleaved. The converse is deliberately not guaranteed: two modules
/// that differ only in, say, declaration order get distinct fingerprints
/// even though their stats may coincide. Over-separation only costs a
/// duplicate cache entry; under-separation would serve wrong answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ModuleFingerprint(u128);

impl ModuleFingerprint {
    /// Fingerprints a module's full content. The module keeps the value,
    /// so only the first call on a module value hashes, and a clone made
    /// after it carries the value: every memo the module keys — resolve,
    /// results, the serve layout memo, the revision manifest — shares
    /// that one hash.
    pub fn of(module: &Module) -> Self {
        *module
            .fingerprint
            .0
            .get_or_init(|| ModuleFingerprint(module.content_hash()))
    }
}

impl fmt::Display for ModuleFingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

type Key = (ModuleFingerprint, u64, LayoutStyle);

/// Default entry cap: generous for chip-scale batches (a `mixed:1m`
/// stream resolves ~11k distinct triples) while still bounding a
/// pathological stream of never-repeating modules.
pub const DEFAULT_STATS_CAPACITY: usize = 4096;

/// The concurrent resolve-once memo for [`NetlistStats`].
///
/// # Examples
///
/// ```
/// use maestro_netlist::{generate, LayoutStyle, StatsCache};
/// use maestro_tech::builtin;
///
/// let cache = StatsCache::new();
/// let tech = builtin::nmos25();
/// let m = generate::counter(3);
/// let first = cache.resolve(&m, &tech, LayoutStyle::StandardCell).unwrap();
/// // The second lookup — even through a clone — shares the same Arc.
/// let second = cache.resolve(&m.clone(), &tech, LayoutStyle::StandardCell).unwrap();
/// assert!(std::sync::Arc::ptr_eq(&first, &second));
/// let stats = cache.stats();
/// assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
/// ```
#[derive(Debug)]
pub struct StatsCache {
    memo: BoundedMemo<Key, Result<Arc<NetlistStats>, NetlistError>>,
}

impl Default for StatsCache {
    fn default() -> Self {
        StatsCache::with_capacity(DEFAULT_STATS_CAPACITY)
    }
}

impl StatsCache {
    /// An empty cache with the default entry cap
    /// ([`DEFAULT_STATS_CAPACITY`]).
    pub fn new() -> Self {
        StatsCache::default()
    }

    /// An empty cache holding at most `capacity` entries (clamped to at
    /// least 1), evicting as [`BoundedMemo`] does; evictions emit
    /// `netlist.resolve.evictions`.
    pub fn with_capacity(capacity: usize) -> Self {
        StatsCache {
            memo: BoundedMemo::new(
                capacity,
                MemoCounters {
                    hits: Some("netlist.resolve.hits"),
                    misses: Some("netlist.resolve.misses"),
                    evictions: Some("netlist.resolve.evictions"),
                },
            ),
        }
    }

    /// The process-wide shared cache: entry points that carry no explicit
    /// cache (placement, full-custom synthesis, the CLI's layout-style
    /// probe) memoize here, so one invocation resolves each
    /// (module, technology, style) triple exactly once across every
    /// consumer.
    pub fn shared() -> Arc<StatsCache> {
        static SHARED: OnceLock<Arc<StatsCache>> = OnceLock::new();
        SHARED.get_or_init(|| Arc::new(StatsCache::new())).clone()
    }

    /// Memoized [`NetlistStats::resolve`]: returns the shared `Arc` for
    /// the (module content, technology revision, style) key, scanning the
    /// module only on first use. Failures are memoized too and replayed
    /// on every later lookup of the same key.
    ///
    /// # Errors
    ///
    /// Exactly the errors of [`NetlistStats::resolve`].
    pub fn resolve(
        &self,
        module: &Module,
        tech: &ProcessDb,
        style: LayoutStyle,
    ) -> Result<Arc<NetlistStats>, NetlistError> {
        let key = (ModuleFingerprint::of(module), tech.revision().id(), style);
        self.memo.get_or_insert_with(key, || {
            NetlistStats::resolve(module, tech, style).map(Arc::new)
        })
    }

    /// Hit/miss/eviction/entry counters.
    pub fn stats(&self) -> CacheStats {
        self.memo.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::FingerprintCell;
    use crate::{generate, library_circuits, ModuleBuilder, RevisionManifest};
    use maestro_tech::builtin;

    #[test]
    fn fingerprint_is_stable_across_clones_and_rebuilds() {
        let m = generate::counter(4);
        assert_eq!(ModuleFingerprint::of(&m), ModuleFingerprint::of(&m.clone()));
        // Two independent constructions of the same circuit agree.
        assert_eq!(
            ModuleFingerprint::of(&generate::counter(4)),
            ModuleFingerprint::of(&m)
        );
        assert_ne!(
            ModuleFingerprint::of(&generate::counter(5)),
            ModuleFingerprint::of(&m)
        );
    }

    #[test]
    fn fingerprint_separates_name_boundary_shifts() {
        // Length prefixing: moving a character between adjacent strings
        // must not collide.
        let build = |dev: &str, tpl: &str| {
            let mut b = ModuleBuilder::new("m");
            let n = b.net("n");
            b.device(dev, tpl, [("A", n)]);
            b.finish()
        };
        assert_ne!(
            ModuleFingerprint::of(&build("ab", "INV")),
            ModuleFingerprint::of(&build("a", "bINV"))
        );
    }

    #[test]
    fn resolve_hits_after_first_miss_and_shares_the_arc() {
        let cache = StatsCache::new();
        let tech = builtin::nmos25();
        let m = library_circuits::nmos_full_adder();
        let a = cache.resolve(&m, &tech, LayoutStyle::FullCustom).unwrap();
        let b = cache.resolve(&m, &tech, LayoutStyle::FullCustom).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 1,
                misses: 1,
                evictions: 0,
                entries: 1
            }
        );
        // A different style is a different key.
        let _ = cache.resolve(&m, &tech, LayoutStyle::StandardCell);
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn failures_are_memoized() {
        let cache = StatsCache::new();
        let tech = builtin::nmos25();
        // Transistor-level templates do not resolve as standard cells.
        let m = library_circuits::nmos_full_adder();
        let e1 = cache
            .resolve(&m, &tech, LayoutStyle::StandardCell)
            .unwrap_err();
        let e2 = cache
            .resolve(&m, &tech, LayoutStyle::StandardCell)
            .unwrap_err();
        assert_eq!(format!("{e1}"), format!("{e2}"));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn tech_mutation_invalidates_without_evicting_the_old_entry() {
        let cache = StatsCache::new();
        let tech = builtin::nmos25();
        let m = library_circuits::pass_chain(4);
        let old = cache.resolve(&m, &tech, LayoutStyle::FullCustom).unwrap();
        let mut patched = tech.clone();
        patched
            .add_device(maestro_tech::DeviceTemplate::new(
                "exotic",
                maestro_tech::DeviceClass::NmosEnhancement,
                maestro_geom::Lambda::new(10),
                maestro_geom::Lambda::new(10),
            ))
            .expect("adds");
        let fresh = cache
            .resolve(&m, &patched, LayoutStyle::FullCustom)
            .unwrap();
        assert!(
            !Arc::ptr_eq(&old, &fresh),
            "a mutated technology must re-resolve"
        );
        assert_eq!(cache.stats().misses, 2);
        // The original technology's entry is still live.
        let again = cache.resolve(&m, &tech, LayoutStyle::FullCustom).unwrap();
        assert!(Arc::ptr_eq(&old, &again));
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn a_fingerprinted_module_hashes_once_and_keys_like_resolve() {
        let cache = StatsCache::new();
        let tech = builtin::nmos25();
        let m = library_circuits::nmos_full_adder();
        assert!(m.fingerprint.0.get().is_none(), "nothing hashed up front");
        let _ = cache.resolve(&m, &tech, LayoutStyle::StandardCell);
        let kept = *m.fingerprint.0.get().expect("the first key fills the cell");
        assert_eq!(kept, ModuleFingerprint(m.content_hash()));
        // Every later key reads the kept value: the other style, the
        // revision manifest, a second call and a clone.
        let _ = cache.resolve(&m, &tech, LayoutStyle::FullCustom);
        let mut manifest = RevisionManifest::new();
        manifest.record(&m);
        assert_eq!(manifest.fingerprint(m.name()), Some(kept));
        assert_eq!(ModuleFingerprint::of(&m), kept);
        let clone = m.clone();
        assert_eq!(clone.fingerprint.0.get(), Some(&kept), "a clone keeps it");
        for style in [LayoutStyle::StandardCell, LayoutStyle::FullCustom] {
            let _ = cache.resolve(&clone, &tech, style);
        }
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.hits, stats.entries), (2, 2, 2));
        // Nothing hashes again: a copy whose cell holds another value keys
        // with that value, a fresh entry.
        let mut planted = m.clone();
        planted.fingerprint = FingerprintCell(OnceLock::from(ModuleFingerprint(7)));
        assert_eq!(ModuleFingerprint::of(&planted), ModuleFingerprint(7));
        let _ = cache.resolve(&planted, &tech, LayoutStyle::FullCustom);
        assert_eq!(cache.stats().misses, 3);
    }

    #[test]
    fn shared_cache_is_one_instance() {
        assert!(Arc::ptr_eq(&StatsCache::shared(), &StatsCache::shared()));
    }

    #[test]
    fn delta_since_subtracts_and_saturates() {
        let a = CacheStats {
            hits: 10,
            misses: 4,
            evictions: 1,
            entries: 3,
        };
        let b = CacheStats {
            hits: 12,
            misses: 4,
            evictions: 3,
            entries: 5,
        };
        assert_eq!(
            b.delta_since(&a),
            CacheStats {
                hits: 2,
                misses: 0,
                evictions: 2,
                entries: 5
            }
        );
        assert_eq!(a.delta_since(&b).hits, 0, "swapped snapshots saturate");
    }

    #[test]
    fn capacity_bound_evicts_the_least_recently_used_entry() {
        let cache = StatsCache::with_capacity(2);
        let tech = builtin::nmos25();
        let m1 = library_circuits::nmos_full_adder();
        let m2 = library_circuits::pass_chain(3);
        let m3 = library_circuits::nmos_mux4();
        cache.resolve(&m1, &tech, LayoutStyle::FullCustom).unwrap();
        cache.resolve(&m2, &tech, LayoutStyle::FullCustom).unwrap();
        // Touch m1 so m2 is the LRU victim when m3 forces an eviction.
        cache.resolve(&m1, &tech, LayoutStyle::FullCustom).unwrap();
        cache.resolve(&m3, &tech, LayoutStyle::FullCustom).unwrap();
        let stats = cache.stats();
        assert_eq!((stats.evictions, stats.entries), (1, 2));
        // m1 survived (hit); m2 was dropped (fresh miss re-resolves it).
        cache.resolve(&m1, &tech, LayoutStyle::FullCustom).unwrap();
        assert_eq!(cache.stats().hits, 2);
        cache.resolve(&m2, &tech, LayoutStyle::FullCustom).unwrap();
        assert_eq!(cache.stats().misses, 4);
    }
}
