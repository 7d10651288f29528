//! CAMP: cost-adaptive multi-queue eviction (Ghandeharizadeh et al.).
//!
//! A full GreedyDual needs a priority queue over every resident block.
//! CAMP observes that rounding costs to a power of two loses almost no
//! cost fidelity but buys a crucial structural property: blocks whose
//! rounded cost is equal can live in one FIFO-of-arrival queue whose
//! priorities are *monotonically non-decreasing* (each enqueue uses the
//! current region age `L`, and `L` never decreases). The minimum-priority
//! block is therefore always at one of the bucket heads, and a victim scan
//! touches `O(#buckets)` entries instead of `O(ways)`.
//!
//! Per block the key is `K = L + rounded(cost)`; hits re-enqueue at the
//! tail of the block's bucket with a fresh key, and evicting key `K` sets
//! `L = K` (the same inflation aging as GDSF/LFUDA). The buckets are
//! lazy-deletion queues: stale entries (superseded by a re-enqueue or a
//! removal) are skipped when they surface at a head (or compacted away once
//! they outnumber the live ones).
//!
//! The single-region logic lives in [`CampCore`] (an
//! [`EvictionPolicy`](crate::EvictionPolicy)); [`Camp`] replicates one
//! core per set for the simulator.

use crate::eviction::{overgrown, report_victim, resident_in, EvictionPolicy, PerSet, Residents};
use cache_sim::{BlockAddr, Cost, Geometry, Way};
use csr_obs::{NopObserver, Observer};
use std::collections::{BTreeMap, HashMap, VecDeque};

#[derive(Debug, Clone, Copy)]
struct CampMeta {
    bucket: u32,
    seq: u64,
    /// The way the block was filled into.
    way: Way,
}

/// Rounds a cost down to a power of two: `(bucket id, rounded value)`.
fn rounded(cost: Cost) -> (u32, u64) {
    let c = cost.0.max(1);
    let exp = 63 - c.leading_zeros();
    (exp, 1u64 << exp)
}

/// CAMP for a single replacement region of a fixed number of ways.
#[derive(Debug, Clone)]
pub struct CampCore<O: Observer = NopObserver> {
    /// Resident blocks only; names the live bucket entry per block.
    meta: HashMap<BlockAddr, CampMeta>,
    /// One queue per rounded-cost class, keyed by the cost exponent.
    /// Entries are `(block, seq, key)`; live iff `seq` matches `meta`.
    buckets: BTreeMap<u32, VecDeque<(BlockAddr, u64, u64)>>,
    /// Entries across all buckets, stale ones included.
    queued: usize,
    /// The region age `L`: the key of the last evicted block.
    age: u64,
    next_seq: u64,
    obs: O,
}

impl CampCore {
    /// Creates a core for a region of any number of ways.
    #[must_use]
    pub fn new(_ways: usize) -> Self {
        CampCore {
            meta: HashMap::new(),
            buckets: BTreeMap::new(),
            queued: 0,
            age: 0,
            next_seq: 0,
            obs: NopObserver,
        }
    }
}

impl<O: Observer> CampCore<O> {
    /// The current region age `L`.
    #[must_use]
    pub fn age(&self) -> u64 {
        self.age
    }

    /// Entries across all buckets, stale ones included (bounded by
    /// [`overgrown`] against the resident blocks).
    #[must_use]
    pub fn queued(&self) -> usize {
        self.queued
    }

    /// Attaches a decision observer, replacing any existing one.
    #[must_use]
    pub fn with_observer<O2: Observer>(self, obs: O2) -> CampCore<O2> {
        CampCore {
            meta: self.meta,
            buckets: self.buckets,
            queued: self.queued,
            age: self.age,
            next_seq: self.next_seq,
            obs,
        }
    }

    /// Enqueues `block` at the tail of its cost bucket with a fresh key.
    fn enqueue(&mut self, block: BlockAddr, way: Way, cost: Cost) {
        let (bucket, r) = rounded(cost);
        let seq = self.next_seq;
        self.next_seq += 1;
        let key = self.age.saturating_add(r);
        self.meta.insert(block, CampMeta { bucket, seq, way });
        self.buckets
            .entry(bucket)
            .or_default()
            .push_back((block, seq, key));
        self.queued += 1;
        if overgrown(self.queued, self.meta.len()) {
            let meta = &self.meta;
            self.buckets.retain(|_, q| {
                q.retain(|&(b, seq, _)| meta.get(&b).is_some_and(|m| m.seq == seq));
                !q.is_empty()
            });
            self.queued = self.buckets.values().map(VecDeque::len).sum();
        }
    }

    /// The live head with the minimum key, if any: `(block, key)`.
    /// Stale heads are popped on the way; emptied buckets are pruned.
    fn min_head(&mut self) -> Option<(BlockAddr, u64)> {
        let mut best: Option<(BlockAddr, u64)> = None;
        for (_, q) in self.buckets.iter_mut() {
            while let Some(&(b, seq, key)) = q.front() {
                let live = self.meta.get(&b).is_some_and(|m| m.seq == seq);
                if live {
                    match best {
                        Some((_, bk)) if bk <= key => {}
                        _ => best = Some((b, key)),
                    }
                    break;
                }
                q.pop_front();
                self.queued -= 1;
            }
        }
        self.buckets.retain(|_, q| !q.is_empty());
        best
    }

    /// Drops `block`'s live entry (head of its bucket, by construction of
    /// the callers) and its metadata; returns the way it was filled into.
    fn drop_block(&mut self, block: BlockAddr) -> Option<Way> {
        let m = self.meta.remove(&block)?;
        if let Some(q) = self.buckets.get_mut(&m.bucket) {
            if q.front()
                .is_some_and(|&(b, seq, _)| b == block && seq == m.seq)
            {
                q.pop_front();
                self.queued -= 1;
            }
            if q.is_empty() {
                self.buckets.remove(&m.bucket);
            }
        }
        Some(m.way)
    }
}

impl<O: Observer> EvictionPolicy for CampCore<O> {
    fn name(&self) -> &'static str {
        "CAMP"
    }

    fn victim(&mut self, residents: &dyn Residents) -> Way {
        // Every pass removes one block from the structures, so this
        // terminates; blocks unknown to the region are dropped and retried.
        while let Some((b, key)) = self.min_head() {
            let way = self.drop_block(b);
            if let Some(chosen) = way.and_then(|w| resident_in(residents, w, b)) {
                self.age = self.age.max(key);
                return report_victim(&self.obs, residents, chosen);
            }
        }
        // Fresh or desynced core: evict the LRU block.
        let lru = residents.lru();
        self.drop_block(lru.block);
        report_victim(&self.obs, residents, lru)
    }

    fn on_hit(&mut self, block: BlockAddr, way: Way, cost: Cost, _is_lru: bool) {
        if self.meta.contains_key(&block) {
            // Supersede the old entry (it goes stale) with a tail re-enqueue
            // at the current age.
            self.enqueue(block, way, cost);
        }
        self.obs.on_hit(block, cost);
    }

    fn on_miss(&mut self, block: BlockAddr, _lru: Option<(BlockAddr, Cost)>) {
        self.obs.on_miss(block);
    }

    fn on_fill(&mut self, block: BlockAddr, way: Way, cost: Cost) {
        if self.meta.contains_key(&block) {
            // Overwrite of a resident block: the on_hit re-enqueue already
            // placed it with its new cost.
            return;
        }
        self.enqueue(block, way, cost);
    }

    fn on_remove(&mut self, block: BlockAddr) {
        // Not necessarily at its bucket head: just drop the metadata and
        // let the queue entry go stale.
        self.meta.remove(&block);
    }
}

/// The CAMP replacement policy (one [`CampCore`] per set).
pub type Camp<O = NopObserver> = PerSet<CampCore<O>>;

impl Camp {
    /// Creates a CAMP policy for the given cache geometry.
    #[must_use]
    pub fn new(geom: &Geometry) -> Self {
        PerSet::from_fn(geom, || CampCore::new(geom.assoc()))
    }
}

impl<O: Observer> Camp<O> {
    /// Attaches a decision observer; every set's core receives a clone.
    #[must_use]
    pub fn with_observer<O2: Observer + Clone>(self, obs: O2) -> Camp<O2> {
        self.map_cores(|c| c.with_observer(obs.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_sim::{AccessType, Cache};

    /// One-set, 2-way cache for controlled scenarios.
    fn cache2() -> Cache<Camp> {
        let geom = Geometry::new(128, 64, 2);
        Cache::new(geom, Camp::new(&geom))
    }

    #[test]
    fn victimizes_cheapest_bucket_head() {
        let mut c = cache2();
        c.access(BlockAddr(0), AccessType::Read, Cost(8)); // K = 8, LRU
        c.access(BlockAddr(1), AccessType::Read, Cost(1)); // K = 1, MRU
        c.access(BlockAddr(2), AccessType::Read, Cost(1));
        assert!(c.contains(BlockAddr(0)));
        assert!(!c.contains(BlockAddr(1)));
        assert_eq!(c.stats().non_lru_evictions, 1);
    }

    #[test]
    fn costs_round_to_power_of_two_classes() {
        // Costs 5 and 7 share the 4-bucket: within a class the decision is
        // pure arrival order, so the older block goes first.
        let mut c = cache2();
        c.access(BlockAddr(0), AccessType::Read, Cost(5));
        c.access(BlockAddr(1), AccessType::Read, Cost(7));
        c.access(BlockAddr(2), AccessType::Read, Cost(6));
        assert!(!c.contains(BlockAddr(0)));
        assert!(c.contains(BlockAddr(1)));
        assert_eq!(c.stats().non_lru_evictions, 0);
    }

    #[test]
    fn aging_erodes_an_idle_expensive_block() {
        let mut c = cache2();
        c.access(BlockAddr(0), AccessType::Read, Cost(4)); // K = 4
        for b in 1..8u64 {
            c.access(BlockAddr(b), AccessType::Read, Cost(1));
        }
        assert!(!c.contains(BlockAddr(0)), "idle expensive block ages out");
    }

    #[test]
    fn requeue_on_hit_refreshes_the_key() {
        let mut c = cache2();
        c.access(BlockAddr(0), AccessType::Read, Cost(2));
        c.access(BlockAddr(1), AccessType::Read, Cost(2));
        c.access(BlockAddr(0), AccessType::Read, Cost(2)); // requeue 0
        c.access(BlockAddr(2), AccessType::Read, Cost(2)); // same class: 1 goes
        assert!(c.contains(BlockAddr(0)));
        assert!(!c.contains(BlockAddr(1)));
    }

    #[test]
    fn fresh_core_falls_back_to_lru() {
        use cache_sim::{SetView, WayView};
        let entries: Vec<WayView> = (0..4u64)
            .map(|b| WayView {
                way: Way(b as usize),
                block: BlockAddr(b),
                cost: Cost(1),
                dirty: false,
            })
            .collect();
        let mut core = CampCore::new(4);
        assert_eq!(core.victim(&SetView::new(&entries)), Way(3));
        assert_eq!(core.name(), "CAMP");
    }
}
