//! S3-FIFO: static small/main/ghost FIFO queues (Qiu et al., SOSP'23).
//!
//! Three plain FIFO queues replace recency tracking entirely. New blocks
//! enter a **small** probationary queue (≈10% of the region). When the
//! small queue is over target, its head is examined: blocks that were hit
//! at least once while probationary are promoted to the **main** queue;
//! one-hit wonders are evicted and their *key* recorded in a bounded
//! **ghost** FIFO. A refill of a ghosted key goes straight to main — the
//! block proved it has reuse beyond a single scan pass. Main evicts with
//! lazy second-chance: a head with non-zero frequency is decremented and
//! reinserted at the tail.
//!
//! Small and main are FIFO lists threaded through the region's ways (the
//! crate's `WayLists`) beside one frequency counter per way: a hit bumps a
//! counter and touches no queue, a departure unlinks its way, and nothing is
//! allocated after construction. The ghost holds keys that are *not*
//! resident, so it has no way to live in and stays a bounded FIFO of its own:
//! a deque of numbered slots and a key → slot-number map, so that a key
//! rescued and later ghosted again is aged by its new slot, not its old one.
//!
//! The design is scan-resistant by construction (a sequential scan flows
//! through the small queue and the ghost without ever displacing main) and
//! needs no per-access pointer surgery, which is why it beats LRU-family
//! policies on scan-heavy traffic. It is cost-*oblivious*: it wins when
//! locality patterns, not cost skew, dominate.
//!
//! The logic lives in [`S3FifoCore`], one region's [`EvictionPolicy`]; the
//! simulator's cache drives one per set.

use crate::eviction::{report_victim, resident_in, EvictionPolicy, Residents};
use crate::waylists::WayLists;
use cache_sim::{BlockAddr, Cost, Way};
use csr_obs::{NopObserver, Observer};
use std::collections::{HashMap, VecDeque};

/// Hit-count saturation point (the paper's 2-bit counter).
const FREQ_CAP: u8 = 3;

/// The two resident queues, as lists of [`S3FifoCore::lists`].
const SMALL: usize = 0;
const MAIN: usize = 1;

/// S3-FIFO for a single replacement region of a fixed number of ways.
#[derive(Debug, Clone)]
pub struct S3FifoCore<O: Observer = NopObserver> {
    lists: WayLists,
    /// Per way, the hits its block took since it was filled (saturating).
    freq: Vec<u8>,
    /// The ghosted keys, each with the number of its slot in `ghost_fifo`.
    ghost: HashMap<BlockAddr, u64>,
    /// Ghost slots `(key, number)`, oldest first. A rescued key leaves its
    /// slot behind; a slot speaks for its key only while `ghost` names its
    /// number, so a key ghosted again is not forgotten by its old slot.
    ghost_fifo: VecDeque<(BlockAddr, u64)>,
    ghost_slots: u64,
    small_target: usize,
    ghost_cap: usize,
    obs: O,
}

impl S3FifoCore {
    /// Creates a core for a region of `ways` blockframes.
    #[must_use]
    pub fn new(ways: usize) -> Self {
        S3FifoCore {
            lists: WayLists::new(ways, 2),
            freq: vec![0; ways],
            ghost: HashMap::new(),
            ghost_fifo: VecDeque::new(),
            ghost_slots: 0,
            small_target: (ways / 10).max(1),
            ghost_cap: ways.max(1),
            obs: NopObserver,
        }
    }
}

impl<O: Observer> S3FifoCore<O> {
    /// Attaches a decision observer, replacing any existing one.
    #[must_use]
    pub fn with_observer<O2: Observer>(self, obs: O2) -> S3FifoCore<O2> {
        S3FifoCore {
            lists: self.lists,
            freq: self.freq,
            ghost: self.ghost,
            ghost_fifo: self.ghost_fifo,
            ghost_slots: self.ghost_slots,
            small_target: self.small_target,
            ghost_cap: self.ghost_cap,
            obs,
        }
    }

    /// Records an evicted key in the ghost, which forgets its oldest key
    /// once it holds more than `ghost_cap`.
    fn ghost_insert(&mut self, block: BlockAddr) {
        self.ghost_slots += 1;
        self.ghost.insert(block, self.ghost_slots);
        self.ghost_fifo.push_back((block, self.ghost_slots));
        while self.ghost.len() > self.ghost_cap {
            let Some((oldest, slot)) = self.ghost_fifo.pop_front() else {
                break;
            };
            if self.ghost.get(&oldest) == Some(&slot) {
                self.ghost.remove(&oldest);
            }
        }
        // Slots left behind by rescues: drop them once they outnumber the
        // ghosted keys, so the deque stays within twice the ghost's capacity.
        if self.ghost_fifo.len() > 2 * self.ghost_cap {
            let ghost = &self.ghost;
            self.ghost_fifo
                .retain(|(key, slot)| ghost.get(key) == Some(slot));
        }
    }
}

impl<O: Observer> EvictionPolicy for S3FifoCore<O> {
    fn name(&self) -> &'static str {
        "S3-FIFO"
    }

    fn victim(&mut self, residents: &dyn Residents) -> Way {
        // Every pass evicts, promotes a small head (once per block) or spends
        // one of a main head's at most FREQ_CAP frequency units: it ends.
        loop {
            let from_small = self.lists.len(SMALL) > self.small_target || self.lists.len(MAIN) == 0;
            let queue = if from_small { SMALL } else { MAIN };
            let Some((way, block)) = self.lists.pop_front(queue) else {
                break; // both queues are empty
            };
            if self.freq[way.0] > 0 {
                // Hit while probationary: promoted. A main head instead
                // spends one frequency unit on a second chance at the tail.
                if !from_small {
                    self.freq[way.0] -= 1;
                }
                self.lists.push_back(MAIN, way, block);
            } else if let Some(chosen) = resident_in(residents, way, block) {
                if from_small {
                    self.ghost_insert(block);
                }
                return report_victim(&self.obs, residents, chosen);
            }
        }
        // Nothing filled since this core was attached: the LRU block goes.
        report_victim(&self.obs, residents, residents.lru())
    }

    fn on_hit(&mut self, block: BlockAddr, way: Way, cost: Cost, _is_lru: bool) {
        if self.lists.list_of(way, block).is_some() {
            self.freq[way.0] = (self.freq[way.0] + 1).min(FREQ_CAP);
        }
        self.obs.on_hit(block, cost);
    }

    fn on_miss(&mut self, block: BlockAddr, _lru: Option<(BlockAddr, Cost)>) {
        // The ghost is consulted (and consumed) in `on_fill`, so a miss
        // delivered twice for one access is harmless here.
        self.obs.on_miss(block);
    }

    fn on_fill(&mut self, block: BlockAddr, way: Way, _cost: Cost) {
        // An overwrite of a resident block keeps its queue position.
        if self.lists.list_of(way, block).is_some() {
            return;
        }
        // A ghosted key proved reuse beyond one pass: straight to main.
        let queue = match self.ghost.remove(&block) {
            Some(_) => MAIN,
            None => SMALL,
        };
        self.freq[way.0] = 0;
        self.lists.push_back(queue, way, block);
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
    use cache_sim::{AccessType, Cache, Geometry, SetView, WayView};

    /// One-set, 8-way cache (small target 1).
    fn cache8() -> Cache<S3FifoCore> {
        let geom = Geometry::new(512, 64, 8);
        Cache::new(geom, || S3FifoCore::new(geom.assoc()))
    }

    #[test]
    fn scan_does_not_displace_promoted_blocks() {
        let mut c = cache8();
        for b in 0..8u64 {
            c.access(BlockAddr(b), AccessType::Read, Cost(1));
        }
        // Blocks 0 and 1 are hot: hit them twice each while probationary.
        for _ in 0..2 {
            c.access(BlockAddr(0), AccessType::Read, Cost(1));
            c.access(BlockAddr(1), AccessType::Read, Cost(1));
        }
        // A long one-touch scan flows through the small queue.
        for b in 100..150u64 {
            c.access(BlockAddr(b), AccessType::Read, Cost(1));
        }
        // The two hot blocks were promoted and main was never evicted from;
        // the scan flowed through small in arrival order.
        let mut resident: Vec<u64> = c.resident_blocks().map(|b| b.0).collect();
        resident.sort_unstable();
        assert_eq!(resident, [0, 1, 144, 145, 146, 147, 148, 149]);
    }

    #[test]
    fn ghosted_key_is_rescued_to_main() {
        let mut c = cache8();
        for b in 0..9u64 {
            // Block 0 reaches the small head and is evicted into the ghost.
            c.access(BlockAddr(b), AccessType::Read, Cost(1));
        }
        assert!(!c.contains(BlockAddr(0)));
        // Refill of the ghosted key goes straight to main.
        c.access(BlockAddr(0), AccessType::Read, Cost(1));
        assert!(c.contains(BlockAddr(0)));
        // Another long scan: the rescued block rides out main.
        for b in 200..230u64 {
            c.access(BlockAddr(b), AccessType::Read, Cost(1));
        }
        assert!(c.contains(BlockAddr(0)), "rescued block survived the scan");
    }

    #[test]
    fn ghost_forgets_its_oldest_key_after_a_rescue_too() {
        let mut core = S3FifoCore::new(4); // the ghost holds 4 keys
        core.ghost_insert(BlockAddr(1));
        core.on_fill(BlockAddr(1), Way(0), Cost(1));
        assert_eq!(
            core.lists.list_of(Way(0), BlockAddr(1)),
            Some(MAIN),
            "rescued from the ghost, straight to main"
        );
        for b in [2, 3, 1, 4, 5] {
            core.ghost_insert(BlockAddr(b));
        }
        // Five keys for four places: 2, the oldest, goes. The slot the rescue
        // of 1 left at the front must not take the re-ghosted 1 with it.
        let ghosted = [1, 2, 3, 4, 5].map(|b| core.ghost.contains_key(&BlockAddr(b)));
        assert_eq!(ghosted, [true, false, true, true, true]);
    }

    #[test]
    fn fresh_core_falls_back_to_lru() {
        // A core with empty queues (nothing ever filled) must still return
        // a valid way: the LRU fallback.
        let entries: Vec<WayView> = (0..4u64)
            .map(|b| WayView {
                way: Way(b as usize),
                block: BlockAddr(b),
                cost: Cost(1),
            })
            .collect();
        let mut core = S3FifoCore::new(4);
        assert_eq!(core.victim(&SetView::new(&entries)), Way(3));
        assert_eq!(core.name(), "S3-FIFO");
    }

    #[test]
    fn one_hit_wonders_leave_through_the_ghost() {
        let mut c = cache8();
        for b in 0..32u64 {
            c.access(BlockAddr(b), AccessType::Read, Cost(1));
        }
        assert_eq!(c.stats().evictions, 24);
        // Nothing was promoted, so every eviction was the probationary head:
        // arrival order, which without hits is the LRU order.
        assert_eq!(c.stats().non_lru_evictions, 0);
        let mut resident: Vec<u64> = c.resident_blocks().map(|b| b.0).collect();
        resident.sort_unstable();
        assert_eq!(resident, (24..32).collect::<Vec<u64>>());
    }
}
