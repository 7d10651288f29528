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
//! Per block the key is `K = L + rounded(cost)`; a hit re-enqueues the
//! block at the tail of its bucket with a fresh key, and evicting key `K`
//! sets `L = K` (the same inflation aging as GD and GDSF). A `u64` cost has 64
//! power-of-two classes, so the buckets are 64 FIFO lists threaded through
//! the region's ways (the crate's `WayLists`) beside one key per way: a hit
//! relinks one way, a departure unlinks it, a victim scan reads 64 heads and
//! nothing is allocated after construction. An overwrite of a resident block
//! is the hit its driver delivers first — the fill that follows does not
//! re-enqueue it, so the block takes a changed cost's class at its next hit.
//!
//! The logic lives in [`CampCore`], one region's [`EvictionPolicy`]; the
//! simulator's cache drives one per set.

use crate::eviction::{report_victim, resident_in, EvictionPolicy, Residents};
use crate::waylists::WayLists;
use cache_sim::{BlockAddr, Cost, Way};
use csr_obs::{NopObserver, Observer};

/// One bucket per power of two a `u64` cost can round down to.
const CLASSES: usize = 64;

/// CAMP for a single replacement region of a fixed number of ways.
#[derive(Debug, Clone)]
pub struct CampCore<O: Observer = NopObserver> {
    /// One FIFO list per rounded-cost class, indexed by the cost exponent.
    buckets: WayLists,
    /// Per way, the key its block was enqueued under.
    keys: Vec<u64>,
    /// The region age `L`: the key of the last evicted block.
    age: u64,
    obs: O,
}

impl CampCore {
    /// Creates a core for a region of `ways` blockframes.
    #[must_use]
    pub fn new(ways: usize) -> Self {
        CampCore {
            buckets: WayLists::new(ways, CLASSES),
            keys: vec![0; ways],
            age: 0,
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

    /// Attaches a decision observer, replacing any existing one.
    #[must_use]
    pub fn with_observer<O2: Observer>(self, obs: O2) -> CampCore<O2> {
        CampCore {
            buckets: self.buckets,
            keys: self.keys,
            age: self.age,
            obs,
        }
    }

    /// Enqueues `block` at the tail of its cost's bucket with a fresh key:
    /// the age plus the cost rounded down to a power of two.
    fn enqueue(&mut self, block: BlockAddr, way: Way, cost: Cost) {
        let class = cost.0.max(1).ilog2();
        self.keys[way.0] = self.age.saturating_add(1 << class);
        self.buckets.push_back(class as usize, way, block);
    }

    /// The bucket head with the least key; of equal keys, the cheaper class.
    /// (A plain loop: as `filter_map(..).min_by_key(..)` the same scan took
    /// twice as long per eviction once instantiated in `csr-cache`.)
    fn min_head(&self) -> Option<(Way, BlockAddr)> {
        let mut best: Option<(u64, (Way, BlockAddr))> = None;
        for class in 0..CLASSES {
            if let Some(head) = self.buckets.front(class) {
                let key = self.keys[head.0 .0];
                if best.is_none_or(|(least, _)| key < least) {
                    best = Some((key, head));
                }
            }
        }
        best.map(|(_, head)| head)
    }
}

impl<O: Observer> EvictionPolicy for CampCore<O> {
    fn name(&self) -> &'static str {
        "CAMP"
    }

    fn victim(&mut self, residents: &dyn Residents) -> Way {
        // An entry the region does not hold (a desynced core) is dropped and
        // the next least head tried.
        while let Some((way, block)) = self.min_head() {
            self.buckets.unlink(way, block);
            if let Some(chosen) = resident_in(residents, way, block) {
                self.age = self.age.max(self.keys[way.0]);
                return report_victim(&self.obs, residents, chosen);
            }
        }
        // Nothing filled since this core was attached: the LRU block goes.
        report_victim(&self.obs, residents, residents.lru())
    }

    fn on_hit(&mut self, block: BlockAddr, way: Way, cost: Cost, _is_lru: bool) {
        if self.buckets.list_of(way, block).is_some() {
            self.enqueue(block, way, cost);
        }
        self.obs.on_hit(block, cost);
    }

    fn on_miss(&mut self, block: BlockAddr, _lru: Option<(BlockAddr, Cost)>) {
        self.obs.on_miss(block);
    }

    fn on_fill(&mut self, block: BlockAddr, way: Way, cost: Cost) {
        // An overwrite of a resident block keeps the place its hit gave it.
        if self.buckets.list_of(way, block).is_none() {
            self.enqueue(block, way, cost);
        }
    }

    fn on_remove(&mut self, block: BlockAddr, way: Option<Way>) {
        if let Some(way) = way {
            self.buckets.unlink(way, block);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_sim::{AccessType, Cache, Geometry};

    /// One-set, 2-way cache for controlled scenarios.
    fn cache2() -> Cache<CampCore> {
        let geom = Geometry::new(128, 64, 2);
        Cache::new(geom, || CampCore::new(geom.assoc()))
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
            })
            .collect();
        let mut core = CampCore::new(4);
        assert_eq!(core.victim(&SetView::new(&entries)), Way(3));
        assert_eq!(core.name(), "CAMP");
    }
}
