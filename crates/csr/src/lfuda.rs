//! LFU with Dynamic Aging (LFUDA, Arlitt et al.).
//!
//! Pure LFU never forgets: a block that was hot last week outranks
//! everything accessed today. LFUDA fixes that with a region-wide age `L`:
//! a block's key is `K = L + freq`, and `L` is raised to the evicted key on
//! every eviction. Long-idle blocks stop accruing frequency while `L`
//! climbs past them, so new traffic can displace stale heavyweights without
//! any periodic decay sweep.
//!
//! Cost-oblivious (see [`GdsfCore`](crate::GdsfCore) for the cost-aware
//! sibling); ties break toward the LRU end, the same locality tiebreak the
//! other cores use.
//!
//! The single-region logic lives in [`LfudaCore`] (an
//! [`EvictionPolicy`](crate::EvictionPolicy)); [`Lfuda`] replicates one
//! core per set for the simulator.

use crate::eviction::{report_victim, EvictionPolicy, PerSet};
use cache_sim::{BlockAddr, Cost, Geometry, SetView, Way};
use csr_obs::{NopObserver, Observer};

/// LFUDA for a single replacement region of a fixed number of ways.
#[derive(Debug, Clone)]
pub struct LfudaCore<O: Observer = NopObserver> {
    /// Access count per way (reset on fill).
    freq: Vec<u64>,
    /// `K = L-at-last-touch + freq` per way.
    prio: Vec<u64>,
    /// The region age `L`: the key of the last evicted block.
    age: u64,
    obs: O,
}

impl LfudaCore {
    /// Creates a core for a region of `ways` blockframes.
    #[must_use]
    pub fn new(ways: usize) -> Self {
        LfudaCore {
            freq: vec![0; ways],
            prio: vec![0; ways],
            age: 0,
            obs: NopObserver,
        }
    }
}

impl<O: Observer> LfudaCore<O> {
    /// The current region age `L`.
    #[must_use]
    pub fn age(&self) -> u64 {
        self.age
    }

    /// Attaches a decision observer, replacing any existing one.
    #[must_use]
    pub fn with_observer<O2: Observer>(self, obs: O2) -> LfudaCore<O2> {
        LfudaCore {
            freq: self.freq,
            prio: self.prio,
            age: self.age,
            obs,
        }
    }
}

impl<O: Observer> EvictionPolicy for LfudaCore<O> {
    fn name(&self) -> &'static str {
        "LFUDA"
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
        // Dynamic aging: the evicted key becomes the region age.
        self.age = self.age.max(kmin);
        report_victim(&self.obs, view, pos)
    }

    fn on_hit(&mut self, block: BlockAddr, way: Way, cost: Cost, _is_lru: bool) {
        let f = self.freq[way.0].saturating_add(1);
        self.freq[way.0] = f;
        self.prio[way.0] = self.age.saturating_add(f);
        self.obs.on_hit(block, cost);
    }

    fn on_miss(&mut self, block: BlockAddr, _lru: Option<(BlockAddr, Cost)>) {
        self.obs.on_miss(block);
    }

    fn on_fill(&mut self, _block: BlockAddr, way: Way, _cost: Cost) {
        self.freq[way.0] = 1;
        self.prio[way.0] = self.age.saturating_add(1);
    }
}

/// The LFUDA replacement policy (one [`LfudaCore`] per set).
pub type Lfuda<O = NopObserver> = PerSet<LfudaCore<O>>;

impl Lfuda {
    /// Creates an LFUDA policy for the given cache geometry.
    #[must_use]
    pub fn new(geom: &Geometry) -> Self {
        PerSet::from_fn(geom, || LfudaCore::new(geom.assoc()))
    }
}

impl<O: Observer> Lfuda<O> {
    /// Attaches a decision observer; every set's core receives a clone.
    #[must_use]
    pub fn with_observer<O2: Observer + Clone>(self, obs: O2) -> Lfuda<O2> {
        self.map_cores(|c| c.with_observer(obs.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_sim::{AccessType, Cache};

    /// One-set, 2-way cache for controlled scenarios.
    fn cache2() -> Cache<Lfuda> {
        let geom = Geometry::new(128, 64, 2);
        Cache::new(geom, Lfuda::new(&geom))
    }

    #[test]
    fn frequency_outranks_recency() {
        let mut c = cache2();
        c.access(BlockAddr(0), AccessType::Read, Cost(1));
        c.access(BlockAddr(0), AccessType::Read, Cost(1));
        c.access(BlockAddr(0), AccessType::Read, Cost(1)); // K(0) = 3
        c.access(BlockAddr(1), AccessType::Read, Cost(1)); // K(1) = 1, MRU
        c.access(BlockAddr(2), AccessType::Read, Cost(1));
        assert!(c.contains(BlockAddr(0)));
        assert!(!c.contains(BlockAddr(1)));
        assert_eq!(c.stats().non_lru_evictions, 1);
    }

    #[test]
    fn aging_eventually_displaces_stale_heavyweights() {
        let mut c = cache2();
        for _ in 0..3 {
            c.access(BlockAddr(0), AccessType::Read, Cost(1)); // K(0) = 3
        }
        // A one-touch stream: each fill enters at K = L + 1, each eviction
        // raises L, until the newcomers match the idle heavyweight.
        for b in 1..5u64 {
            c.access(BlockAddr(b), AccessType::Read, Cost(1));
        }
        assert!(
            !c.contains(BlockAddr(0)),
            "the idle high-frequency block must age out"
        );
    }

    #[test]
    fn ties_break_toward_lru() {
        let mut c = cache2();
        c.access(BlockAddr(0), AccessType::Read, Cost(1));
        c.access(BlockAddr(1), AccessType::Read, Cost(1));
        c.access(BlockAddr(2), AccessType::Read, Cost(1));
        assert!(!c.contains(BlockAddr(0)));
        assert_eq!(c.stats().non_lru_evictions, 0);
    }
}
