//! Session-scoped persistence of winning synthesis seeds.
//!
//! A serve daemon (or any long-lived caller) keeps one [`WarmStore`] and
//! threads the [`SynthSeed`] won by each synthesis back in, so the next
//! layout request for the same module — typically after a small ECO edit
//! — warm-starts from the prior solution instead of annealing from
//! scratch.
//!
//! Seeds are keyed by (module name, technology revision): an edited
//! module keeps its name, and the seed survives precisely because the
//! fingerprint changed — [`crate::synthesize_seeded`] revalidates the
//! seed against the new tile set, so a stale seed degrades to a cold
//! start, never to a wrong layout.

use maestro_netlist::{BoundedMemo, MemoCounters};

use crate::synthesize::SynthSeed;

/// Default entry cap for [`WarmStore`].
pub const DEFAULT_WARM_CAPACITY: usize = 1024;

/// Bounded map of the most recent winning seed per (module name,
/// technology revision).
#[derive(Debug)]
pub struct WarmStore {
    seeds: BoundedMemo<(String, u64), SynthSeed>,
}

impl Default for WarmStore {
    fn default() -> Self {
        WarmStore::with_capacity(DEFAULT_WARM_CAPACITY)
    }
}

impl WarmStore {
    /// An empty store with the default cap ([`DEFAULT_WARM_CAPACITY`]).
    pub fn new() -> Self {
        WarmStore::default()
    }

    /// An empty store holding at most `capacity` seeds (clamped to at
    /// least 1), evicting the least-recently-touched seeds as
    /// [`BoundedMemo`] does.
    pub fn with_capacity(capacity: usize) -> Self {
        WarmStore {
            seeds: BoundedMemo::new(capacity, MemoCounters::default()),
        }
    }

    /// The stored seed for a module under a technology revision, if any.
    pub fn get(&self, module_name: &str, tech_revision: u64) -> Option<SynthSeed> {
        self.seeds.get(&(module_name.to_owned(), tech_revision))
    }

    /// Stores (or replaces) a module's winning seed.
    pub fn put(&self, module_name: &str, tech_revision: u64, seed: SynthSeed) {
        self.seeds
            .insert((module_name.to_owned(), tech_revision), seed);
    }

    /// Number of seeds currently stored.
    pub fn len(&self) -> usize {
        self.seeds.len()
    }

    /// True when no seeds are stored.
    pub fn is_empty(&self) -> bool {
        self.seeds.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthesize::{synthesize_seeded, SynthesisParams};
    use maestro_netlist::library_circuits;
    use maestro_tech::builtin;

    fn seed_for(stages: usize) -> SynthSeed {
        let m = library_circuits::pass_chain(stages);
        let (_, seed) =
            synthesize_seeded(&m, &builtin::nmos25(), &SynthesisParams::quick(), None).unwrap();
        seed
    }

    #[test]
    fn round_trips_and_keys_by_name_and_revision() {
        let store = WarmStore::new();
        let seed = seed_for(3);
        store.put("chain", 7, seed.clone());
        assert_eq!(store.get("chain", 7), Some(seed));
        assert_eq!(store.get("chain", 8), None);
        assert_eq!(store.get("other", 7), None);
    }

    #[test]
    fn capacity_evicts_the_least_recently_touched() {
        let store = WarmStore::with_capacity(2);
        store.put("a", 0, seed_for(2));
        store.put("b", 0, seed_for(3));
        // Touch "a" so "b" is the victim.
        assert!(store.get("a", 0).is_some());
        store.put("c", 0, seed_for(4));
        assert_eq!(store.len(), 2);
        assert!(store.get("a", 0).is_some());
        assert!(store.get("b", 0).is_none());
        assert!(store.get("c", 0).is_some());
    }
}
