//! What every core of this crate shares beyond the contract.
//!
//! The contract itself — [`EvictionPolicy`], the single-region trait every
//! core implements, and [`Residents`], the three questions a core may put to
//! its driver in `victim` — lives in `cache_sim::policy` and is re-exported
//! here. Exactly two drivers speak it, one per layer: the simulator's
//! `cache_sim::Cache`, which holds one core per set and answers from the
//! set's rows of its flat arrays, and `csr_cache`'s `Region<T>`, which owns
//! one boxed core over a slab of arbitrary size and answers from one recency
//! list per distinct cost. A change to the contract is a change to those two
//! places and to no policy wrapper.
//!
//! Three rules hold for every core:
//!
//! * **A core never sees the recency order, it asks about it.** The LRU
//!   entry, the entry in a way, and Figure 1's scan are O(1), O(1) and
//!   O(distinct costs below the bound) in `Region`, whatever the region's
//!   size. A core that ranks by anything else ([`RankCore`](crate::RankCore)'s
//!   priorities, the queues of S3-FIFO and CAMP) keeps that order
//!   itself, per way. Hits and misses carry the O(1) facts a policy consumes
//!   (block identity, way, cost, whether the block is at the LRU end; the
//!   LRU pair on a miss).
//! * **Cores keep no books.** A core reports each decision to its
//!   [`Observer`] and counts nothing itself. Counts come from the driver
//!   (`cache_sim::CacheStats::{hits, misses, evictions, non_lru_evictions}`,
//!   `csr_cache`'s stats) or from an attached `csr_obs::CountingObserver`
//!   (`EventCounts`); the only per-core counters left describe a structure
//!   rather than a decision ([`EtdStats`](crate::EtdStats), folded over the
//!   cores by whoever reads them).
//! * **A region that never evicts does not grow its core.** What a core
//!   keeps per block lives in the block's way, in storage sized when the core
//!   is built: the queue cores thread their FIFO lists through the ways and
//!   unlink an entry the moment it leaves, so they allocate nothing
//!   afterwards. The one structure that supersedes entries instead of
//!   unlinking them is [`RankCore`](crate::RankCore)'s lazy heap, which
//!   compacts by the rule [`overgrown`] states. (S3-FIFO's ghost and the ETD
//!   remember blocks that are *not* resident; each is bounded by a capacity
//!   fixed at construction.)

use cache_sim::{BlockAddr, Cost, Way, WayView};
pub use cache_sim::{EvictionPolicy, Residents};
use csr_obs::{NopObserver, Observer};

/// The shared tail of every rank- or queue-based `victim`: reports the
/// eviction of `chosen` — and, when that is not the LRU entry, the LRU block
/// it spared as a reservation, so non-LRU picks show up in decision traces —
/// and returns the chosen way.
pub(crate) fn report_victim(
    obs: &impl Observer,
    residents: &dyn Residents,
    chosen: WayView,
) -> Way {
    obs.on_evict(chosen.block, chosen.cost);
    let lru = residents.lru();
    if lru.way != chosen.way {
        obs.on_reserve(lru.block, chosen.block, chosen.cost);
    }
    chosen.way
}

/// The entry the queue cores' choice names: the one in the `way` `block` was
/// filled into, provided it still is `block` (a core hot-attached to a warm
/// region, or desynced, may name one the region lacks).
pub(crate) fn resident_in(
    residents: &dyn Residents,
    way: Way,
    block: BlockAddr,
) -> Option<WayView> {
    residents.at_way(way).filter(|e| e.block == block)
}

/// The rule that bounds [`RankCore`](crate::RankCore)'s lazily-deleted heap
/// (and `csr_cache`'s emptied cost classes): compact, keeping the live
/// entries, once the stale ones outnumber them by more than a constant. A
/// compaction is O(`len`) and at least `len / 2` pushes precede the next
/// one, so upkeep stays O(1) amortized and `len` never exceeds
/// `2 * live + 16`.
#[must_use]
pub fn overgrown(len: usize, live: usize) -> bool {
    len > 2 * live + 16
}

/// Plain LRU as an [`EvictionPolicy`]: evict the LRU block, keep no state
/// beyond the (default no-op) decision observer.
///
/// The cost-oblivious baseline every cost-sensitive policy is measured
/// against (and the shard baseline of `csr-cache`).
#[derive(Debug, Clone, Copy, Default)]
pub struct LruCore<O: Observer = NopObserver> {
    obs: O,
}

impl LruCore {
    /// Creates the (stateless) LRU core.
    #[must_use]
    pub fn new() -> Self {
        LruCore { obs: NopObserver }
    }
}

impl<O: Observer> LruCore<O> {
    /// Attaches a decision observer, replacing any existing one.
    #[must_use]
    pub fn with_observer<O2: Observer>(self, obs: O2) -> LruCore<O2> {
        LruCore { obs }
    }
}

impl<O: Observer> EvictionPolicy for LruCore<O> {
    fn name(&self) -> &'static str {
        "LRU"
    }

    fn victim(&mut self, residents: &dyn Residents) -> Way {
        let lru = residents.lru();
        self.obs.on_evict(lru.block, lru.cost);
        lru.way
    }

    fn on_hit(&mut self, block: BlockAddr, _way: Way, cost: Cost, _is_lru: bool) {
        self.obs.on_hit(block, cost);
    }

    fn on_miss(&mut self, block: BlockAddr, _lru: Option<(BlockAddr, Cost)>) {
        self.obs.on_miss(block);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_sim::SetView;

    #[test]
    fn lru_core_picks_the_lru_way() {
        let e = [(1, 5), (2, 9), (3, 1)].map(|(b, c)| WayView {
            way: Way(b as usize - 1),
            block: BlockAddr(b),
            cost: Cost(c),
        });
        let mut core = LruCore::new();
        assert_eq!(core.victim(&SetView::new(&e)), Way(2));
        assert_eq!(core.name(), "LRU");
    }
}
