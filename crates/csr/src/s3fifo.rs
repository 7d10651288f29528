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
//! Small and main are lazy-deletion queues: every fill carries a fresh
//! sequence number, and an entry is live only while the block's metadata
//! still names that sequence and queue, so a removal is O(1) and stale
//! entries are skipped when they surface at a head (or compacted away once
//! they outnumber the live ones).
//!
//! The design is scan-resistant by construction (a sequential scan flows
//! through the small queue and the ghost without ever displacing main) and
//! needs no per-access pointer surgery, which is why it beats LRU-family
//! policies on scan-heavy traffic. It is cost-*oblivious*; the adaptive
//! selector in `csr-cache` exists precisely to pick it only when locality
//! patterns (not cost skew) dominate.
//!
//! The single-region logic lives in [`S3FifoCore`] (an
//! [`EvictionPolicy`](crate::EvictionPolicy)); [`S3Fifo`] replicates one
//! core per set for the simulator.

use crate::eviction::{overgrown, report_victim, resident_in, EvictionPolicy, PerSet, Residents};
use cache_sim::{BlockAddr, Cost, Geometry, Way};
use csr_obs::{NopObserver, Observer};
use std::collections::{HashMap, HashSet, VecDeque};

/// Hit-count saturation point (the paper's 2-bit counter).
const FREQ_CAP: u8 = 3;

#[derive(Debug, Clone, Copy)]
struct S3Meta {
    freq: u8,
    in_small: bool,
    seq: u64,
    /// The way the block was filled into.
    way: Way,
}

type Meta = HashMap<BlockAddr, S3Meta>;

/// Whether queue entry `(block, seq)` of the small (`in_small`) or main
/// queue is the live one of a resident block.
fn live(meta: &Meta, (block, seq): (BlockAddr, u64), in_small: bool) -> bool {
    meta.get(&block)
        .is_some_and(|m| m.in_small == in_small && m.seq == seq)
}

/// S3-FIFO for a single replacement region of a fixed number of ways.
#[derive(Debug, Clone)]
pub struct S3FifoCore<O: Observer = NopObserver> {
    /// Resident blocks only; absence means the block is not tracked.
    meta: Meta,
    /// FIFO order front → back; entries are `(block, seq)`, see [`live`].
    small: VecDeque<(BlockAddr, u64)>,
    main: VecDeque<(BlockAddr, u64)>,
    /// Ghost keys, FIFO order. Entries may be stale (rescued keys stay in
    /// the deque until they reach the front); `ghost_set` is authoritative.
    ghost_fifo: VecDeque<BlockAddr>,
    ghost_set: HashSet<BlockAddr>,
    /// Live (non-stale) block counts per queue.
    small_len: usize,
    main_len: usize,
    small_target: usize,
    ghost_cap: usize,
    ways: usize,
    next_seq: u64,
    obs: O,
}

impl S3FifoCore {
    /// Creates a core for a region of `ways` blockframes.
    #[must_use]
    pub fn new(ways: usize) -> Self {
        S3FifoCore {
            meta: HashMap::new(),
            small: VecDeque::new(),
            main: VecDeque::new(),
            ghost_fifo: VecDeque::new(),
            ghost_set: HashSet::new(),
            small_len: 0,
            main_len: 0,
            small_target: (ways / 10).max(1),
            ghost_cap: ways.max(1),
            ways,
            next_seq: 0,
            obs: NopObserver,
        }
    }
}

impl<O: Observer> S3FifoCore<O> {
    /// Attaches a decision observer, replacing any existing one.
    #[must_use]
    pub fn with_observer<O2: Observer>(self, obs: O2) -> S3FifoCore<O2> {
        S3FifoCore {
            meta: self.meta,
            small: self.small,
            main: self.main,
            ghost_fifo: self.ghost_fifo,
            ghost_set: self.ghost_set,
            small_len: self.small_len,
            main_len: self.main_len,
            small_target: self.small_target,
            ghost_cap: self.ghost_cap,
            ways: self.ways,
            next_seq: self.next_seq,
            obs,
        }
    }

    /// Entries in the small and main queues, stale ones included (each
    /// bounded by [`overgrown`] against the resident blocks).
    #[must_use]
    pub fn queued(&self) -> usize {
        self.small.len() + self.main.len()
    }

    /// Pops heads of the small (`in_small`) or main queue until one is live
    /// there.
    fn pop_live(&mut self, in_small: bool) -> Option<(BlockAddr, u64)> {
        let queue = if in_small {
            &mut self.small
        } else {
            &mut self.main
        };
        while let Some(e) = queue.pop_front() {
            if live(&self.meta, e, in_small) {
                return Some(e);
            }
        }
        None
    }

    /// Tracks the newly filled `block` at the tail of the small (`in_small`)
    /// or main queue.
    fn enqueue(&mut self, block: BlockAddr, way: Way, in_small: bool) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let meta = S3Meta {
            freq: 0,
            in_small,
            seq,
            way,
        };
        self.meta.insert(block, meta);
        let (queue, len) = if in_small {
            (&mut self.small, &mut self.small_len)
        } else {
            (&mut self.main, &mut self.main_len)
        };
        queue.push_back((block, seq));
        *len += 1;
        if overgrown(queue.len(), self.meta.len()) {
            queue.retain(|&e| live(&self.meta, e, in_small));
        }
    }

    /// Records an evicted key in the bounded ghost FIFO.
    fn ghost_insert(&mut self, b: BlockAddr) {
        if self.ghost_set.insert(b) {
            self.ghost_fifo.push_back(b);
        }
        while self.ghost_set.len() > self.ghost_cap {
            match self.ghost_fifo.pop_front() {
                Some(f) => {
                    self.ghost_set.remove(&f);
                }
                None => break,
            }
        }
        // Stale (rescued) entries are dropped here too, so the deque stays
        // within a constant factor of the live ghost.
        while self.ghost_fifo.len() > 2 * self.ghost_cap {
            if let Some(f) = self.ghost_fifo.pop_front() {
                self.ghost_set.remove(&f);
            }
        }
    }
}

impl<O: Observer> EvictionPolicy for S3FifoCore<O> {
    fn name(&self) -> &'static str {
        "S3-FIFO"
    }

    fn victim(&mut self, residents: &dyn Residents) -> Way {
        // Every pass either evicts, promotes a small head (at most once per
        // live block), or decrements a main head's frequency (at most
        // FREQ_CAP times per block), so the bound below is generous.
        let mut guard = self.small.len() + self.main.len() + 4 * self.ways + 8;
        while guard > 0 {
            guard -= 1;
            let from_small = self.small_len > self.small_target || self.main_len == 0;
            if from_small {
                let Some((b, seq)) = self.pop_live(true) else {
                    self.small_len = 0;
                    if self.main_len == 0 {
                        break;
                    }
                    continue;
                };
                let freq = self.meta.get(&b).map_or(0, |m| m.freq);
                if freq > 0 {
                    // Hit at least once while probationary: promote.
                    if let Some(m) = self.meta.get_mut(&b) {
                        m.in_small = false;
                    }
                    self.main.push_back((b, seq));
                    self.small_len -= 1;
                    self.main_len += 1;
                    continue;
                }
                self.small_len -= 1;
                let way = self.meta.remove(&b).map(|m| m.way);
                if let Some(chosen) = way.and_then(|w| resident_in(residents, w, b)) {
                    self.ghost_insert(b);
                    return report_victim(&self.obs, residents, chosen);
                }
            } else {
                let Some((b, seq)) = self.pop_live(false) else {
                    self.main_len = 0;
                    if self.small_len == 0 {
                        break;
                    }
                    continue;
                };
                let freq = self.meta.get(&b).map_or(0, |m| m.freq);
                if freq > 0 {
                    // Second chance: spend one frequency unit, go to tail.
                    if let Some(m) = self.meta.get_mut(&b) {
                        m.freq -= 1;
                    }
                    self.main.push_back((b, seq));
                    continue;
                }
                self.main_len -= 1;
                let way = self.meta.remove(&b).map(|m| m.way);
                if let Some(chosen) = way.and_then(|w| resident_in(residents, w, b)) {
                    return report_victim(&self.obs, residents, chosen);
                }
            }
        }
        // The queues know nothing about this region (fresh core, or one hot-
        // attached to a warm region): fall back to the LRU block.
        let lru = residents.lru();
        if let Some(m) = self.meta.remove(&lru.block) {
            if m.in_small {
                self.small_len = self.small_len.saturating_sub(1);
            } else {
                self.main_len = self.main_len.saturating_sub(1);
            }
        }
        report_victim(&self.obs, residents, lru)
    }

    fn on_hit(&mut self, block: BlockAddr, _way: Way, cost: Cost, _is_lru: bool) {
        if let Some(m) = self.meta.get_mut(&block) {
            m.freq = (m.freq + 1).min(FREQ_CAP);
        }
        self.obs.on_hit(block, cost);
    }

    fn on_miss(&mut self, block: BlockAddr, _lru: Option<(BlockAddr, Cost)>) {
        // The ghost is consulted (and consumed) in `on_fill`, so the double
        // miss delivery of a get-then-insert flow is harmless here.
        self.obs.on_miss(block);
    }

    fn on_fill(&mut self, block: BlockAddr, way: Way, _cost: Cost) {
        if let Some(m) = self.meta.get_mut(&block) {
            // Overwrite of a resident block keeps its queue position.
            m.way = way;
            return;
        }
        // A ghosted key proved reuse beyond one pass: straight to main.
        let in_small = !self.ghost_set.remove(&block);
        self.enqueue(block, way, in_small);
    }

    fn on_remove(&mut self, block: BlockAddr) {
        if let Some(m) = self.meta.remove(&block) {
            if m.in_small {
                self.small_len = self.small_len.saturating_sub(1);
            } else {
                self.main_len = self.main_len.saturating_sub(1);
            }
        }
    }
}

/// The S3-FIFO replacement policy (one [`S3FifoCore`] per set).
pub type S3Fifo<O = NopObserver> = PerSet<S3FifoCore<O>>;

impl S3Fifo {
    /// Creates an S3-FIFO policy for the given cache geometry.
    #[must_use]
    pub fn new(geom: &Geometry) -> Self {
        PerSet::from_fn(geom, || S3FifoCore::new(geom.assoc()))
    }
}

impl<O: Observer> S3Fifo<O> {
    /// Attaches a decision observer; every set's core receives a clone.
    #[must_use]
    pub fn with_observer<O2: Observer + Clone>(self, obs: O2) -> S3Fifo<O2> {
        self.map_cores(|c| c.with_observer(obs.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_sim::{AccessType, Cache, SetView, WayView};

    /// One-set, 8-way cache (small target 1).
    fn cache8() -> Cache<S3Fifo> {
        let geom = Geometry::new(512, 64, 8);
        Cache::new(geom, S3Fifo::new(&geom))
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
    fn fresh_core_falls_back_to_lru() {
        // A core with empty queues (nothing ever filled) must still return
        // a valid way: the LRU fallback.
        let entries: Vec<WayView> = (0..4u64)
            .map(|b| WayView {
                way: Way(b as usize),
                block: BlockAddr(b),
                cost: Cost(1),
                dirty: false,
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
