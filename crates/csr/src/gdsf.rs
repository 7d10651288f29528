//! GreedyDual-Size-Frequency (GDSF, Cherkasova 1998).
//!
//! The cost-aware member of the GreedyDual family that also counts reuse:
//! a block's key is `K = L + freq · cost / size`, with the region age `L`
//! raised to the evicted key on every eviction (the same inflation-style
//! aging as [`LFUDA`](crate::LfudaCore)). Blocks survive by being
//! expensive to refetch *or* frequently reused — a cheap block must earn
//! its keep with hits, while an expensive block gets a head start that
//! still decays as `L` climbs.
//!
//! `size` is fixed at 1 until the size-aware roadmap item lands, so the
//! key reduces to `L + freq · cost`; the division point is kept in one
//! place ([`GdsfCore::key`]) for that change.
//!
//! The single-region logic lives in [`GdsfCore`] (an
//! [`EvictionPolicy`](crate::EvictionPolicy)); [`Gdsf`] replicates one
//! core per set for the simulator.

use crate::eviction::{report_victim, EvictionPolicy, PerSet};
use cache_sim::{BlockAddr, Cost, Geometry, SetView, Way};
use csr_obs::{NopObserver, Observer};

/// GDSF for a single replacement region of a fixed number of ways.
#[derive(Debug, Clone)]
pub struct GdsfCore<O: Observer = NopObserver> {
    /// Access count per way (reset on fill).
    freq: Vec<u64>,
    /// `K = L-at-last-touch + freq · cost` per way.
    prio: Vec<u64>,
    /// The region age `L`: the key of the last evicted block.
    age: u64,
    obs: O,
}

impl GdsfCore {
    /// Creates a core for a region of `ways` blockframes.
    #[must_use]
    pub fn new(ways: usize) -> Self {
        GdsfCore {
            freq: vec![0; ways],
            prio: vec![0; ways],
            age: 0,
            obs: NopObserver,
        }
    }
}

impl<O: Observer> GdsfCore<O> {
    /// The current region age `L`.
    #[must_use]
    pub fn age(&self) -> u64 {
        self.age
    }

    /// The GDSF key for a block with `freq` accesses and miss cost `cost`
    /// at the current age. Size is 1 for every block today; when sizes
    /// arrive, the division lands here.
    fn key(&self, freq: u64, cost: Cost) -> u64 {
        self.age.saturating_add(freq.saturating_mul(cost.0))
    }

    /// Attaches a decision observer, replacing any existing one.
    #[must_use]
    pub fn with_observer<O2: Observer>(self, obs: O2) -> GdsfCore<O2> {
        GdsfCore {
            freq: self.freq,
            prio: self.prio,
            age: self.age,
            obs,
        }
    }
}

impl<O: Observer> EvictionPolicy for GdsfCore<O> {
    fn name(&self) -> &'static str {
        "GDSF"
    }

    fn victim(&mut self, view: &SetView<'_>) -> Way {
        // Minimum-K block; scanning LRU -> MRU with a strict `<` makes ties
        // resolve toward the LRU end.
        let mut best: Option<(usize, u64)> = None;
        for (pos, e) in view.iter().enumerate().rev() {
            let val = self.prio[e.way.0];
            match best {
                Some((_, b)) if b <= val => {}
                _ => best = Some((pos, val)),
            }
        }
        let (pos, kmin) = best.expect("victim() requires a non-empty set");
        self.age = self.age.max(kmin);
        report_victim(&self.obs, view, pos)
    }

    fn on_hit(&mut self, block: BlockAddr, way: Way, cost: Cost, _is_lru: bool) {
        let f = self.freq[way.0].saturating_add(1);
        self.freq[way.0] = f;
        self.prio[way.0] = self.key(f, cost);
        self.obs.on_hit(block, cost);
    }

    fn on_miss(&mut self, block: BlockAddr, _lru: Option<(BlockAddr, Cost)>) {
        self.obs.on_miss(block);
    }

    fn on_fill(&mut self, _block: BlockAddr, way: Way, cost: Cost) {
        self.freq[way.0] = 1;
        self.prio[way.0] = self.key(1, cost);
    }
}

/// The GDSF replacement policy (one [`GdsfCore`] per set).
pub type Gdsf<O = NopObserver> = PerSet<GdsfCore<O>>;

impl Gdsf {
    /// Creates a GDSF policy for the given cache geometry.
    #[must_use]
    pub fn new(geom: &Geometry) -> Self {
        PerSet::from_fn(geom, || GdsfCore::new(geom.assoc()))
    }
}

impl<O: Observer> Gdsf<O> {
    /// Attaches a decision observer; every set's core receives a clone.
    #[must_use]
    pub fn with_observer<O2: Observer + Clone>(self, obs: O2) -> Gdsf<O2> {
        self.map_cores(|c| c.with_observer(obs.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_sim::{AccessType, Cache};

    /// One-set, 2-way cache for controlled scenarios.
    fn cache2() -> Cache<Gdsf> {
        let geom = Geometry::new(128, 64, 2);
        Cache::new(geom, Gdsf::new(&geom))
    }

    #[test]
    fn expensive_block_outranks_cheap_mru() {
        let mut c = cache2();
        c.access(BlockAddr(0), AccessType::Read, Cost(8)); // K = 8, LRU
        c.access(BlockAddr(1), AccessType::Read, Cost(1)); // K = 1, MRU
        c.access(BlockAddr(2), AccessType::Read, Cost(1));
        assert!(c.contains(BlockAddr(0)));
        assert!(!c.contains(BlockAddr(1)));
        assert_eq!(c.stats().non_lru_evictions, 1);
    }

    #[test]
    fn frequency_compensates_for_low_cost() {
        let mut c = cache2();
        for _ in 0..8 {
            c.access(BlockAddr(0), AccessType::Read, Cost(1)); // K = 8
        }
        c.access(BlockAddr(1), AccessType::Read, Cost(4)); // K = 4
        c.access(BlockAddr(2), AccessType::Read, Cost(1));
        assert!(c.contains(BlockAddr(0)), "hot cheap block survives");
        assert!(!c.contains(BlockAddr(1)));
    }

    #[test]
    fn aging_erodes_an_idle_expensive_block() {
        let mut c = cache2();
        c.access(BlockAddr(0), AccessType::Read, Cost(4)); // K = 4
        for b in 1..8u64 {
            // Cheap one-touch stream: L climbs one per eviction until the
            // newcomers outrank the idle expensive block.
            c.access(BlockAddr(b), AccessType::Read, Cost(1));
        }
        assert!(!c.contains(BlockAddr(0)), "idle expensive block ages out");
    }

    #[test]
    fn uniform_costs_tie_toward_lru() {
        let mut c = cache2();
        c.access(BlockAddr(0), AccessType::Read, Cost(2));
        c.access(BlockAddr(1), AccessType::Read, Cost(2));
        c.access(BlockAddr(2), AccessType::Read, Cost(2));
        assert!(!c.contains(BlockAddr(0)));
        assert_eq!(c.stats().non_lru_evictions, 0);
    }
}
