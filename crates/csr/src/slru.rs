//! Segmented LRU (SLRU): probationary + protected segments.
//!
//! New blocks enter a **probationary** segment; a hit promotes the block
//! into a **protected** segment sized at ~80% of the region. Victims come
//! from the probationary LRU end first, so a block must prove reuse before
//! it can displace established residents — the classic single-pass scan
//! filter. When the protected segment overflows, its LRU block is demoted
//! back to the probationary MRU end (not evicted), preserving one more
//! chance at reuse.
//!
//! Both segments are FIFO lists threaded through the region's ways (the
//! crate's `WayLists`): a hit or a demotion relinks one way, a departure
//! unlinks it, and the core's storage is fixed when it is built.
//!
//! The logic lives in [`SlruCore`], one region's [`EvictionPolicy`]; the
//! simulator's cache drives one per set.

use crate::eviction::{report_victim, resident_in, EvictionPolicy, Residents};
use crate::waylists::WayLists;
use cache_sim::{BlockAddr, Cost, Way};
use csr_obs::{NopObserver, Observer};

/// The two segments, as lists of [`SlruCore::lists`]: LRU end at the front.
const PROB: usize = 0;
const PROT: usize = 1;

/// SLRU for a single replacement region of a fixed number of ways.
#[derive(Debug, Clone)]
pub struct SlruCore<O: Observer = NopObserver> {
    lists: WayLists,
    prot_target: usize,
    obs: O,
}

impl SlruCore {
    /// Creates a core for a region of `ways` blockframes.
    #[must_use]
    pub fn new(ways: usize) -> Self {
        SlruCore {
            lists: WayLists::new(ways, 2),
            prot_target: (ways * 4 / 5).max(1),
            obs: NopObserver,
        }
    }
}

impl<O: Observer> SlruCore<O> {
    /// Attaches a decision observer, replacing any existing one.
    #[must_use]
    pub fn with_observer<O2: Observer>(self, obs: O2) -> SlruCore<O2> {
        SlruCore {
            lists: self.lists,
            prot_target: self.prot_target,
            obs,
        }
    }
}

impl<O: Observer> EvictionPolicy for SlruCore<O> {
    fn name(&self) -> &'static str {
        "SLRU"
    }

    fn victim(&mut self, residents: &dyn Residents) -> Way {
        // Probationary LRU end first, then the protected one. An entry the
        // region does not hold (a desynced core) is dropped and the next tried.
        while let Some((way, block)) = self
            .lists
            .pop_front(PROB)
            .or_else(|| self.lists.pop_front(PROT))
        {
            if let Some(chosen) = resident_in(residents, way, block) {
                return report_victim(&self.obs, residents, chosen);
            }
        }
        // Nothing filled since this core was attached: the LRU block goes.
        report_victim(&self.obs, residents, residents.lru())
    }

    fn on_hit(&mut self, block: BlockAddr, way: Way, cost: Cost, _is_lru: bool) {
        if self.lists.list_of(way, block).is_some() {
            self.lists.push_back(PROT, way, block);
            // Overflow: demote the protected LRU block to probationary MRU.
            if self.lists.len(PROT) > self.prot_target {
                if let Some((way, demoted)) = self.lists.pop_front(PROT) {
                    self.lists.push_back(PROB, way, demoted);
                }
            }
        }
        self.obs.on_hit(block, cost);
    }

    fn on_miss(&mut self, block: BlockAddr, _lru: Option<(BlockAddr, Cost)>) {
        self.obs.on_miss(block);
    }

    fn on_fill(&mut self, block: BlockAddr, way: Way, _cost: Cost) {
        // An overwrite of a resident block keeps its segment position.
        if self.lists.list_of(way, block).is_none() {
            self.lists.push_back(PROB, way, block);
        }
    }

    fn on_remove(&mut self, block: BlockAddr, way: Option<Way>) {
        if let Some(way) = way {
            self.lists.unlink(way, block);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_sim::{AccessType, Cache, Geometry};

    /// One-set, 2-way cache (protected target 1).
    fn cache2() -> Cache<SlruCore> {
        let geom = Geometry::new(128, 64, 2);
        Cache::new(geom, || SlruCore::new(geom.assoc()))
    }

    #[test]
    fn protected_block_survives_probationary_churn() {
        let mut c = cache2();
        c.access(BlockAddr(0), AccessType::Read, Cost(1));
        c.access(BlockAddr(0), AccessType::Read, Cost(1)); // promote 0
        c.access(BlockAddr(1), AccessType::Read, Cost(1));
        // 1 is MRU but probationary: it goes, not the protected LRU 0.
        c.access(BlockAddr(2), AccessType::Read, Cost(1));
        assert!(c.contains(BlockAddr(0)));
        assert!(!c.contains(BlockAddr(1)));
        assert_eq!(c.stats().non_lru_evictions, 1);
    }

    #[test]
    fn one_touch_stream_behaves_like_lru() {
        let mut c = cache2();
        c.access(BlockAddr(0), AccessType::Read, Cost(1));
        c.access(BlockAddr(1), AccessType::Read, Cost(1));
        c.access(BlockAddr(2), AccessType::Read, Cost(1));
        assert!(!c.contains(BlockAddr(0)), "probationary FIFO = LRU order");
        assert!(c.contains(BlockAddr(1)));
        assert_eq!(c.stats().non_lru_evictions, 0);
    }

    #[test]
    fn protected_overflow_demotes_to_probationary() {
        // 10 ways: protected target is 8, so promoting nine blocks demotes
        // the protected LRU (block 0) to the probationary MRU end, ahead of
        // the later fill 9 — without the demotion 9 would be the only
        // probationary block and go first.
        let geom = Geometry::new(640, 64, 10);
        let mut c = Cache::new(geom, || SlruCore::new(geom.assoc()));
        for _ in 0..2 {
            for b in 0..9u64 {
                c.access(BlockAddr(b), AccessType::Read, Cost(1));
            }
        }
        c.access(BlockAddr(9), AccessType::Read, Cost(1));
        c.access(BlockAddr(10), AccessType::Read, Cost(1));
        assert!(!c.contains(BlockAddr(0)), "demoted block is evicted first");
        for b in 1..11u64 {
            assert!(c.contains(BlockAddr(b)), "block {b} survived");
        }
    }

    #[test]
    fn empty_segments_fall_back_to_lru() {
        use cache_sim::{SetView, WayView};
        let entries: Vec<WayView> = (0..4u64)
            .map(|b| WayView {
                way: Way(b as usize),
                block: BlockAddr(b),
                cost: Cost(1),
            })
            .collect();
        let mut core = SlruCore::new(4);
        assert_eq!(core.victim(&SetView::new(&entries)), Way(3));
        assert_eq!(core.name(), "SLRU");
    }
}
