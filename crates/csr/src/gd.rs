//! GreedyDual (GD) adapted to processor caches (Section 2.1).
//!
//! GD is *cost-centric*: the victim is always the block with the least
//! remaining value `H`, regardless of recency. On a fill `H` is set to the
//! block's miss cost; on a hit the full miss cost is restored; when a block
//! is victimized, its `H` is deducted from every remaining block in the set.
//! Ties are broken toward the LRU end of the stack, which is the only place
//! locality enters the decision.
//!
//! GD is `s`-competitive with the offline optimum (Young, 1994) and works
//! well for wide cost differentials, but the paper shows it is much less
//! effective than the locality-centric BCL/DCL/ACL when cost ratios are
//! small.
//!
//! The single-region logic lives in [`GdCore`] (an
//! [`EvictionPolicy`](crate::EvictionPolicy)); [`GreedyDual`] replicates one
//! core per set for the simulator.

use crate::eviction::{report_victim, EvictionPolicy, PerSet};
use cache_sim::{BlockAddr, Cost, Geometry, SetView, Way};
use csr_obs::{NopObserver, Observer};

/// GreedyDual for a single replacement region of a fixed number of ways.
#[derive(Debug, Clone)]
pub struct GdCore<O: Observer = NopObserver> {
    /// `H` value per way.
    h: Vec<u64>,
    obs: O,
}

impl GdCore {
    /// Creates a core for a region of `ways` blockframes.
    #[must_use]
    pub fn new(ways: usize) -> Self {
        GdCore {
            h: vec![0; ways],
            obs: NopObserver,
        }
    }
}

impl<O: Observer> GdCore<O> {
    /// Attaches a decision observer, replacing any existing one.
    #[must_use]
    pub fn with_observer<O2: Observer>(self, obs: O2) -> GdCore<O2> {
        GdCore { h: self.h, obs }
    }
}

impl<O: Observer> EvictionPolicy for GdCore<O> {
    fn name(&self) -> &'static str {
        "GD"
    }

    fn victim(&mut self, view: &SetView<'_>) -> Way {
        // Minimum-H block; scanning LRU -> MRU with a strict `<` makes ties
        // resolve toward the LRU end.
        let mut best: Option<(Way, usize, u64)> = None;
        for (pos, e) in view.iter().enumerate().rev() {
            let val = self.h[e.way.0];
            match best {
                Some((_, _, b)) if b <= val => {}
                _ => best = Some((e.way, pos, val)),
            }
        }
        let (victim, pos, hmin) = best.expect("victim() requires a non-empty set");
        // Deduct the victim's remaining value from every surviving block.
        for e in view.iter() {
            if e.way != victim {
                self.h[e.way.0] = self.h[e.way.0].saturating_sub(hmin);
            }
        }
        report_victim(&self.obs, view, pos)
    }

    fn on_hit(&mut self, block: BlockAddr, way: Way, cost: Cost, _is_lru: bool) {
        // Restore the block's full miss cost (stored in its blockframe).
        self.h[way.0] = cost.0;
        self.obs.on_hit(block, cost);
    }

    fn on_miss(&mut self, block: BlockAddr, _lru: Option<(BlockAddr, Cost)>) {
        self.obs.on_miss(block);
    }

    fn on_fill(&mut self, _block: BlockAddr, way: Way, cost: Cost) {
        self.h[way.0] = cost.0;
    }
}

/// The GreedyDual replacement policy (one [`GdCore`] per set).
///
/// # Examples
///
/// ```
/// use cache_sim::{Cache, Geometry, AccessType, Cost, BlockAddr};
/// use csr::GreedyDual;
///
/// let geom = Geometry::new(16 * 1024, 64, 4);
/// let mut cache = Cache::new(geom, GreedyDual::new(&geom));
/// cache.access(BlockAddr(1), AccessType::Read, Cost(8)); // high-cost block
/// cache.access(BlockAddr(1), AccessType::Read, Cost(8)); // hit restores H
/// ```
pub type GreedyDual<O = NopObserver> = PerSet<GdCore<O>>;

impl GreedyDual {
    /// Creates a GreedyDual policy for the given cache geometry.
    #[must_use]
    pub fn new(geom: &Geometry) -> Self {
        PerSet::from_fn(geom, || GdCore::new(geom.assoc()))
    }
}

impl<O: Observer> GreedyDual<O> {
    /// Attaches a decision observer; every set's core receives a clone.
    #[must_use]
    pub fn with_observer<O2: Observer + Clone>(self, obs: O2) -> GreedyDual<O2> {
        self.map_cores(|c| c.with_observer(obs.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_sim::{AccessType, Cache};

    /// One-set, 2-way cache for controlled scenarios.
    fn cache2() -> Cache<GreedyDual> {
        let geom = Geometry::new(128, 64, 2);
        Cache::new(geom, GreedyDual::new(&geom))
    }

    #[test]
    fn victimizes_cheapest_not_lru() {
        let mut c = cache2();
        c.access(BlockAddr(0), AccessType::Read, Cost(8)); // high cost
        c.access(BlockAddr(1), AccessType::Read, Cost(1)); // low cost, MRU
                                                           // Block 0 is LRU but expensive: GD evicts block 1.
        c.access(BlockAddr(2), AccessType::Read, Cost(1));
        assert!(c.contains(BlockAddr(0)));
        assert!(!c.contains(BlockAddr(1)));
        assert_eq!(c.stats().non_lru_evictions, 1);
    }

    #[test]
    fn eviction_depreciates_survivors() {
        let mut c = cache2();
        c.access(BlockAddr(0), AccessType::Read, Cost(8));
        c.access(BlockAddr(1), AccessType::Read, Cost(3));
        c.access(BlockAddr(2), AccessType::Read, Cost(1)); // evicts 1 (H=3): H(0) = 8-3 = 5
                                                           // Next eviction: H(0)=5, H(2)=1 -> evicts 2, H(0) drops to 4.
        c.access(BlockAddr(3), AccessType::Read, Cost(1));
        assert!(c.contains(BlockAddr(0)));
        assert!(!c.contains(BlockAddr(2)));
        // Two more cheap evictions exhaust block 0's H: 4-1=3, 3-1=2, ...
        for b in 4..8u64 {
            c.access(BlockAddr(b), AccessType::Read, Cost(1));
        }
        assert!(!c.contains(BlockAddr(0)), "H must eventually deplete");
    }

    #[test]
    fn hit_restores_full_cost() {
        let mut c = cache2();
        c.access(BlockAddr(0), AccessType::Read, Cost(4));
        c.access(BlockAddr(1), AccessType::Read, Cost(1));
        c.access(BlockAddr(2), AccessType::Read, Cost(1)); // evicts 1, H(0)=3
        c.access(BlockAddr(0), AccessType::Read, Cost(4)); // hit: H(0) restored to 4
                                                           // Evict: H(0)=4 vs H(2)=1 -> 2 goes.
        c.access(BlockAddr(3), AccessType::Read, Cost(1));
        assert!(c.contains(BlockAddr(0)));
        assert!(!c.contains(BlockAddr(2)));
    }

    #[test]
    fn ties_break_toward_lru() {
        let mut c = cache2();
        c.access(BlockAddr(0), AccessType::Read, Cost(5));
        c.access(BlockAddr(1), AccessType::Read, Cost(5));
        // Equal H: the LRU block (0) must be chosen.
        c.access(BlockAddr(2), AccessType::Read, Cost(5));
        assert!(!c.contains(BlockAddr(0)));
        assert!(c.contains(BlockAddr(1)));
        assert_eq!(c.stats().non_lru_evictions, 0);
    }

    #[test]
    fn uniform_costs_behave_like_lru_on_this_sequence() {
        // With all costs equal and H restored on hits, recently-touched
        // blocks always have maximal H, so eviction falls to the LRU end.
        let geom = Geometry::new(256, 64, 4);
        let mut c = Cache::new(geom, GreedyDual::new(&geom));
        for b in [0u64, 4, 8, 12] {
            c.access(BlockAddr(b), AccessType::Read, Cost(2));
        }
        c.access(BlockAddr(0), AccessType::Read, Cost(2)); // touch 0
        c.access(BlockAddr(16), AccessType::Read, Cost(2)); // evict: LRU is 4
        assert!(!c.contains(BlockAddr(4)));
        assert!(c.contains(BlockAddr(0)));
    }

    #[test]
    fn sets_are_driven_independently() {
        // Two sets (block line 64, 2 ways, 256 bytes): blocks 0/2/4 map to
        // set 0, blocks 1/3/5 to set 1; each set's own core evicts its LRU.
        let geom = Geometry::new(256, 64, 2);
        let mut c = Cache::new(geom, GreedyDual::new(&geom));
        for b in [0u64, 2, 4, 1, 3, 5] {
            c.access(BlockAddr(b), AccessType::Read, Cost(1));
        }
        assert_eq!(c.stats().evictions, 2, "one eviction per set");
        assert!(!c.contains(BlockAddr(0)) && !c.contains(BlockAddr(1)));
    }
}
