//! Sharded memoization cache for analysis reports, with an optional
//! persistent second tier.
//!
//! Keys are `(canonical fingerprint, problem selection, distance bound)`;
//! values are [`Arc<AnalysisReport>`]s, so a hit is one atomic increment
//! away from free. The map is split into power-of-two shards, each behind
//! its own `RwLock`, selected by the high bits of the (already uniformly
//! distributed) fingerprint — readers on different shards never contend,
//! and writers only lock 1/Nth of the table.
//!
//! Eviction is second-chance: each entry carries one referenced bit, set
//! on lookup; the evictor scans the insertion queue from the front, giving
//! referenced entries one more round instead of evicting them. That keeps
//! the O(1) insert of FIFO while protecting a hot working set from being
//! flushed by a cold scan.
//!
//! A cache can also be backed by a [`SecondTier`] (e.g. the disk-backed
//! report store of `arrayflow-store`): a memory miss falls through to the
//! tier, a tier hit is *promoted* into memory, and fresh inserts are
//! forwarded to the tier so they survive the process.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock};

use arrayflow_analyses::{AnalysisReport, ProblemSet};
use arrayflow_core::CustomSpec;
use arrayflow_ir::Fingerprint;
use arrayflow_obs::{Counter, Registry};

/// Full cache key: which loop (canonically) and which analysis of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Canonical structural fingerprint of the loop.
    pub fingerprint: Fingerprint,
    /// Canned instances requested ([`ProblemSet::NONE`] for custom-spec
    /// queries, keeping `Eq`/`Hash` canonical).
    pub problems: ProblemSet,
    /// Dependence-extraction distance bound (changes report contents).
    pub dep_max_distance: u64,
    /// The user-specified (G, K) instance, for `custom` queries. Part of
    /// the key: two distinct specs over the same loop never collide, and
    /// a custom query never aliases a canned one.
    pub custom: Option<CustomSpec>,
}

/// Folds a canonical 128-bit fingerprint into the 64-bit routing hash
/// used for cluster sharding. The fingerprint is already uniform, but
/// this runs the folded halves through a splitmix64 finalizer anyway so
/// any structure a future fingerprint revision introduces cannot skew
/// ring placement. Stable across processes and releases by contract:
/// routers and nodes must agree on it.
pub fn fingerprint_route_hash(fingerprint: Fingerprint) -> u64 {
    let fp = fingerprint.0;
    let mut z = (fp as u64) ^ ((fp >> 64) as u64);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A persistence tier consulted on memory misses and fed on inserts.
///
/// Implementations must be cheap to call from the analysis path:
/// [`SecondTier::store`] in particular should hand the report off
/// asynchronously (the disk store uses a bounded writer-thread channel
/// and *drops* the append under backpressure rather than blocking).
pub trait SecondTier: Send + Sync {
    /// Fetches a report previously stored under `key`, if any.
    fn load(&self, key: &CacheKey) -> Option<Arc<AnalysisReport>>;
    /// Persists a freshly computed report. Must not block the caller.
    fn store(&self, key: &CacheKey, report: &Arc<AnalysisReport>);
}

/// Monotonic hit/miss/eviction counters, readable while the cache is in
/// use.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Lookups answered from memory.
    pub hits: u64,
    /// Lookups that missed memory (a second-tier promotion may still have
    /// answered them; see [`CacheCounters::promotions`]).
    pub misses: u64,
    /// Entries evicted to respect capacity.
    pub evictions: u64,
    /// First-time inserts of a key.
    pub inserts: u64,
    /// Idempotent re-inserts of an existing key (two workers racing on
    /// the same loop) — counted apart so `inserts` tracks distinct keys.
    pub reinserts: u64,
    /// Memory misses answered by the second tier and promoted into
    /// memory.
    pub promotions: u64,
}

struct Entry {
    report: Arc<AnalysisReport>,
    // Set on every lookup hit; consulted (and cleared) by the
    // second-chance evictor. Relaxed is enough: the bit is a heuristic.
    referenced: AtomicBool,
}

struct Shard {
    map: HashMap<CacheKey, Entry>,
    // Consideration order for the evictor.
    order: VecDeque<CacheKey>,
}

impl Shard {
    fn evict_to_capacity(&mut self, capacity: usize, just_inserted: &CacheKey) -> u64 {
        let mut evicted = 0;
        while self.map.len() > capacity {
            // Every key in `order` was queued exactly once, so the front
            // is always present in the map.
            let victim = self.order.pop_front().expect("order tracks map");
            // CLOCK-style: the entry whose insertion triggered this scan
            // sits behind the hand — requeue it unconsidered, so an
            // all-referenced shard degenerates to FIFO instead of evicting
            // the newcomer.
            if &victim == just_inserted {
                self.order.push_back(victim);
                continue;
            }
            let entry = self.map.get(&victim).expect("order tracks map");
            // Referenced since last consideration: clear the bit and give
            // it one more round. Each non-skip pop clears a bit, so the
            // loop finds an unreferenced victim within one cycle.
            if entry.referenced.swap(false, Ordering::Relaxed) {
                self.order.push_back(victim);
                continue;
            }
            self.map.remove(&victim);
            evicted += 1;
        }
        evicted
    }
}

/// The cache's monotone counters, registered under the `arrayflow_cache_*`
/// family names.
#[derive(Clone, Debug)]
struct CacheInstruments {
    hits: Counter,
    misses: Counter,
    evictions: Counter,
    inserts: Counter,
    reinserts: Counter,
    promotions: Counter,
}

impl CacheInstruments {
    fn registered(registry: &Registry) -> Self {
        Self {
            hits: registry.counter(
                "arrayflow_cache_hits_total",
                "memo cache lookups answered from memory",
            ),
            misses: registry.counter(
                "arrayflow_cache_misses_total",
                "memo cache lookups that missed memory",
            ),
            evictions: registry.counter(
                "arrayflow_cache_evictions_total",
                "memo cache entries evicted to respect capacity",
            ),
            inserts: registry.counter(
                "arrayflow_cache_inserts_total",
                "first-time memo cache inserts of a key",
            ),
            reinserts: registry.counter(
                "arrayflow_cache_reinserts_total",
                "idempotent re-inserts of an existing memo cache key",
            ),
            promotions: registry.counter(
                "arrayflow_cache_promotions_total",
                "memory misses answered by the second tier and promoted",
            ),
        }
    }
}

/// The sharded memo cache.
pub struct MemoCache {
    shards: Vec<RwLock<Shard>>,
    shard_capacity: usize,
    tier2: Option<Arc<dyn SecondTier>>,
    counters: CacheInstruments,
}

impl std::fmt::Debug for MemoCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemoCache")
            .field("shards", &self.shards.len())
            .field("shard_capacity", &self.shard_capacity)
            .field("tier2", &self.tier2.is_some())
            .field("counters", &self.counters())
            .finish()
    }
}

impl MemoCache {
    /// Creates a cache with `shards` shards (rounded up to a power of two,
    /// minimum 1) holding at most `capacity` entries in total (0 means
    /// unbounded). The hit/miss/eviction counters are registered under
    /// the `arrayflow_cache_*` names in `registry`, so they appear in its
    /// snapshots and Prometheus exposition.
    pub fn new_in(shards: usize, capacity: usize, registry: &Registry) -> Self {
        let n = shards.max(1).next_power_of_two();
        let shard_capacity = if capacity == 0 {
            usize::MAX
        } else {
            capacity.div_ceil(n)
        };
        Self {
            shards: (0..n)
                .map(|_| {
                    RwLock::new(Shard {
                        map: HashMap::new(),
                        order: VecDeque::new(),
                    })
                })
                .collect(),
            shard_capacity,
            tier2: None,
            counters: CacheInstruments::registered(registry),
        }
    }

    /// Attaches a persistence tier: memory misses fall through to it (a
    /// tier hit is promoted into memory) and fresh inserts are forwarded
    /// to it. Call before sharing the cache.
    pub fn set_second_tier(&mut self, tier: Arc<dyn SecondTier>) {
        self.tier2 = Some(tier);
    }

    fn shard_of(&self, key: &CacheKey) -> usize {
        // The fingerprint is already a uniform hash; fold the halves and
        // mask. Problem-set/distance variants of one loop land in the same
        // shard, which is fine — they are distinct keys.
        let fp = key.fingerprint.0;
        ((fp ^ (fp >> 64)) as usize) & (self.shards.len() - 1)
    }

    /// Looks up a report, bumping the hit/miss counters. A memory miss
    /// falls through to the second tier when one is attached; a tier hit
    /// is promoted into memory (counted under `promotions`, still a
    /// memory `miss`) so the next lookup is free.
    pub fn get(&self, key: &CacheKey) -> Option<Arc<AnalysisReport>> {
        {
            let shard = self.shards[self.shard_of(key)].read().unwrap();
            if let Some(entry) = shard.map.get(key) {
                entry.referenced.store(true, Ordering::Relaxed);
                self.counters.hits.inc();
                return Some(Arc::clone(&entry.report));
            }
        }
        self.counters.misses.inc();
        let report = self.tier2.as_ref()?.load(key)?;
        self.counters.promotions.inc();
        self.insert_memory(*key, Arc::clone(&report));
        Some(report)
    }

    /// Inserts a freshly computed report, evicting second-chance if the
    /// shard is full, and forwards it to the second tier (if attached) so
    /// it survives the process. Re-inserting an existing key (two workers
    /// racing on the same loop) replaces the value — both values are
    /// byte-identical by construction, so the race is benign; it is
    /// counted under `reinserts`, not `inserts`.
    pub fn insert(&self, key: CacheKey, value: Arc<AnalysisReport>) {
        if let Some(tier) = &self.tier2 {
            tier.store(&key, &value);
        }
        self.insert_memory(key, value);
    }

    /// Inserts into the memory tier only — used for second-tier
    /// promotions and for warm-start preloading, where the report is
    /// already persistent.
    pub fn preload(&self, key: CacheKey, value: Arc<AnalysisReport>) {
        self.insert_memory(key, value);
    }

    fn insert_memory(&self, key: CacheKey, value: Arc<AnalysisReport>) {
        let mut shard = self.shards[self.shard_of(&key)].write().unwrap();
        let entry = Entry {
            report: value,
            referenced: AtomicBool::new(false),
        };
        if shard.map.insert(key, entry).is_none() {
            shard.order.push_back(key);
            let evicted = shard.evict_to_capacity(self.shard_capacity, &key);
            if evicted > 0 {
                self.counters.evictions.add(evicted);
            }
            self.counters.inserts.inc();
        } else {
            self.counters.reinserts.inc();
        }
    }

    /// Current number of cached reports across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().unwrap().map.len())
            .sum()
    }

    /// True if no reports are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the monotonic counters.
    pub fn counters(&self) -> CacheCounters {
        CacheCounters {
            hits: self.counters.hits.get(),
            misses: self.counters.misses.get(),
            evictions: self.counters.evictions.get(),
            inserts: self.counters.inserts.get(),
            reinserts: self.counters.reinserts.get(),
            promotions: self.counters.promotions.get(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    fn key(fp: u128) -> CacheKey {
        CacheKey {
            fingerprint: Fingerprint(fp),
            problems: ProblemSet::ALL,
            dep_max_distance: 8,
            custom: None,
        }
    }

    fn dummy_report(fp: u128) -> Arc<AnalysisReport> {
        Arc::new(AnalysisReport {
            fingerprint: Fingerprint(fp),
            problems: ProblemSet::ALL,
            dep_max_distance: 8,
            nodes: 0,
            sites: 0,
            canned_stats: [None; 4],
            reuses: Vec::new(),
            redundant_stores: Vec::new(),
            dependences: Vec::new(),
            custom: None,
        })
    }

    #[test]
    fn hit_miss_counters() {
        let c = MemoCache::new_in(4, 64, &Registry::new());
        assert!(c.get(&key(1)).is_none());
        c.insert(key(1), dummy_report(1));
        assert!(c.get(&key(1)).is_some());
        let s = c.counters();
        assert_eq!((s.hits, s.misses, s.inserts), (1, 1, 1));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn distinct_problem_sets_are_distinct_keys() {
        let c = MemoCache::new_in(1, 64, &Registry::new());
        c.insert(key(7), dummy_report(7));
        let other = CacheKey {
            problems: ProblemSet {
                reaching: true,
                available: false,
                busy: false,
                reaching_refs: false,
            },
            ..key(7)
        };
        assert!(c.get(&other).is_none());
    }

    #[test]
    fn distinct_custom_specs_are_distinct_keys() {
        let c = MemoCache::new_in(1, 64, &Registry::new());
        let spec = |bits| CustomSpec::from_bits(bits).expect("valid spec bits");
        // δ-live elements: G = uses, K = defs, backward, may.
        let live = CacheKey {
            problems: ProblemSet::NONE,
            custom: Some(spec(0b11_0110)),
            ..key(7)
        };
        c.insert(live, dummy_report(7));
        // A different spec over the same loop misses.
        let other = CacheKey {
            custom: Some(spec(0b00_0001)),
            ..live
        };
        assert!(c.get(&other).is_none());
        // A canned query over the same loop misses too — custom never
        // aliases canned.
        assert!(c.get(&key(7)).is_none());
        assert!(c.get(&live).is_some());
    }

    #[test]
    fn custom_keys_stay_distinct_through_the_second_tier() {
        let tier = Arc::new(MapTier::default());
        let mut c = MemoCache::new_in(1, 8, &Registry::new());
        c.set_second_tier(Arc::clone(&tier) as Arc<dyn SecondTier>);
        let spec = |bits| CustomSpec::from_bits(bits).expect("valid spec bits");
        let a = CacheKey {
            problems: ProblemSet::NONE,
            custom: Some(spec(0b00_0101)),
            ..key(9)
        };
        let b = CacheKey {
            custom: Some(spec(0b10_0101)),
            ..a
        };
        c.insert(a, dummy_report(9));
        assert!(tier.map.lock().unwrap().contains_key(&a));
        assert!(!tier.map.lock().unwrap().contains_key(&b));
        // Seed `b` behind the cache's back; both promote independently.
        tier.store(&b, &dummy_report(9));
        assert!(c.get(&b).is_some());
        assert!(c.get(&a).is_some());
        assert_eq!(tier.map.lock().unwrap().len(), 2);
    }

    #[test]
    fn unreferenced_entries_leave_in_insertion_order() {
        let c = MemoCache::new_in(1, 2, &Registry::new());
        for fp in 0..5u128 {
            c.insert(key(fp), dummy_report(fp));
        }
        assert_eq!(c.len(), 2);
        assert_eq!(c.counters().evictions, 3);
        // Oldest gone, newest present.
        assert!(c.get(&key(0)).is_none());
        assert!(c.get(&key(4)).is_some());
    }

    #[test]
    fn second_chance_protects_referenced_entries() {
        let c = MemoCache::new_in(1, 2, &Registry::new());
        c.insert(key(0), dummy_report(0));
        c.insert(key(1), dummy_report(1));
        // Reference key 0; key 1 is the unreferenced victim despite being
        // newer.
        assert!(c.get(&key(0)).is_some());
        c.insert(key(2), dummy_report(2));
        assert_eq!(c.len(), 2);
        let before = c.counters().hits;
        assert!(c.get(&key(0)).is_some(), "referenced entry survived");
        assert_eq!(c.counters().hits, before + 1);
        assert!(c.get(&key(1)).is_none(), "unreferenced entry evicted");
    }

    #[test]
    fn second_chance_degenerates_to_fifo_when_all_referenced() {
        let c = MemoCache::new_in(1, 2, &Registry::new());
        c.insert(key(0), dummy_report(0));
        c.insert(key(1), dummy_report(1));
        assert!(c.get(&key(0)).is_some());
        assert!(c.get(&key(1)).is_some());
        // All referenced: the evictor clears the bits in one cycle and
        // then evicts the (re-queued) oldest.
        c.insert(key(2), dummy_report(2));
        assert_eq!(c.len(), 2);
        assert!(c.get(&key(0)).is_none());
        assert!(c.get(&key(2)).is_some());
    }

    #[test]
    fn reinserts_do_not_inflate_inserts() {
        let c = MemoCache::new_in(1, 8, &Registry::new());
        c.insert(key(3), dummy_report(3));
        c.insert(key(3), dummy_report(3));
        c.insert(key(3), dummy_report(3));
        let s = c.counters();
        assert_eq!((s.inserts, s.reinserts), (1, 2));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn zero_capacity_means_unbounded() {
        let c = MemoCache::new_in(2, 0, &Registry::new());
        for fp in 0..100u128 {
            c.insert(key(fp), dummy_report(fp));
        }
        assert_eq!(c.len(), 100);
        assert_eq!(c.counters().evictions, 0);
    }

    /// An in-memory second tier for exercising the fall-through, the
    /// promotion path and the insert forwarding without touching disk.
    #[derive(Default)]
    struct MapTier {
        map: Mutex<HashMap<CacheKey, Arc<AnalysisReport>>>,
    }

    impl SecondTier for MapTier {
        fn load(&self, key: &CacheKey) -> Option<Arc<AnalysisReport>> {
            self.map.lock().unwrap().get(key).cloned()
        }
        fn store(&self, key: &CacheKey, report: &Arc<AnalysisReport>) {
            self.map.lock().unwrap().insert(*key, Arc::clone(report));
        }
    }

    #[test]
    fn second_tier_promotion_and_forwarding() {
        let tier = Arc::new(MapTier::default());
        let mut c = MemoCache::new_in(1, 8, &Registry::new());
        c.set_second_tier(Arc::clone(&tier) as Arc<dyn SecondTier>);

        // A fresh insert is forwarded to the tier.
        c.insert(key(1), dummy_report(1));
        assert!(tier.map.lock().unwrap().contains_key(&key(1)));

        // Seed the tier behind the cache's back: the first get misses
        // memory, promotes, and the second get hits memory.
        tier.store(&key(2), &dummy_report(2));
        assert!(c.get(&key(2)).is_some());
        let s = c.counters();
        assert_eq!((s.misses, s.promotions), (1, 1));
        assert!(c.get(&key(2)).is_some());
        assert_eq!(c.counters().hits, 1);

        // Preload does not forward back to the tier.
        c.preload(key(3), dummy_report(3));
        assert!(!tier.map.lock().unwrap().contains_key(&key(3)));
    }
}
