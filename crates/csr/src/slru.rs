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
//! Both segments are lazy-deletion queues: every enqueue carries a fresh
//! sequence number, and an entry is live only while the block's metadata
//! still names that sequence, so hits and demotions are O(1) with stale
//! entries skipped when they surface at a queue head (or compacted away
//! once they outnumber the live ones).
//!
//! The single-region logic lives in [`SlruCore`] (an
//! [`EvictionPolicy`](crate::EvictionPolicy)); [`Slru`] replicates one
//! core per set for the simulator.

use crate::eviction::{overgrown, report_victim, resident_in, EvictionPolicy, PerSet, Residents};
use cache_sim::{BlockAddr, Cost, Geometry, Way};
use csr_obs::{NopObserver, Observer};
use std::collections::{HashMap, VecDeque};

#[derive(Debug, Clone, Copy)]
struct SlruMeta {
    protected: bool,
    seq: u64,
    /// The way the block was filled into.
    way: Way,
}

type Meta = HashMap<BlockAddr, SlruMeta>;

/// Whether queue entry `(block, seq)` of the protected (`protected`) or
/// probationary segment is the live one of a resident block.
fn live(meta: &Meta, (block, seq): (BlockAddr, u64), protected: bool) -> bool {
    meta.get(&block)
        .is_some_and(|m| m.protected == protected && m.seq == seq)
}

/// SLRU for a single replacement region of a fixed number of ways.
#[derive(Debug, Clone)]
pub struct SlruCore<O: Observer = NopObserver> {
    /// Resident blocks only; names the live queue entry per block.
    meta: Meta,
    /// LRU order front → back; entries are `(block, seq)`, see [`live`].
    prob: VecDeque<(BlockAddr, u64)>,
    prot: VecDeque<(BlockAddr, u64)>,
    prob_len: usize,
    prot_len: usize,
    prot_target: usize,
    next_seq: u64,
    obs: O,
}

impl SlruCore {
    /// Creates a core for a region of `ways` blockframes.
    #[must_use]
    pub fn new(ways: usize) -> Self {
        SlruCore {
            meta: HashMap::new(),
            prob: VecDeque::new(),
            prot: VecDeque::new(),
            prob_len: 0,
            prot_len: 0,
            prot_target: (ways * 4 / 5).max(1),
            next_seq: 0,
            obs: NopObserver,
        }
    }
}

impl<O: Observer> SlruCore<O> {
    /// Attaches a decision observer, replacing any existing one.
    #[must_use]
    pub fn with_observer<O2: Observer>(self, obs: O2) -> SlruCore<O2> {
        SlruCore {
            meta: self.meta,
            prob: self.prob,
            prot: self.prot,
            prob_len: self.prob_len,
            prot_len: self.prot_len,
            prot_target: self.prot_target,
            next_seq: self.next_seq,
            obs,
        }
    }

    /// Entries in the two segment queues, stale ones included (each
    /// bounded by [`overgrown`] against the resident blocks).
    #[must_use]
    pub fn queued(&self) -> usize {
        self.prob.len() + self.prot.len()
    }

    /// Enqueues `block` at the MRU end of the protected (`protected`) or
    /// probationary segment under a fresh sequence number, which it returns
    /// for the block's metadata to name.
    fn push(&mut self, block: BlockAddr, protected: bool) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        let queue = if protected {
            &mut self.prot
        } else {
            &mut self.prob
        };
        queue.push_back((block, seq));
        if overgrown(queue.len(), self.meta.len()) {
            // The entry just pushed is not named by `meta` yet: keep it.
            queue.retain(|&e| e.1 == seq || live(&self.meta, e, protected));
        }
        seq
    }

    /// Pops heads of the protected (`protected`) or probationary segment
    /// until one is live there.
    fn pop_live(&mut self, protected: bool) -> Option<BlockAddr> {
        let queue = if protected {
            &mut self.prot
        } else {
            &mut self.prob
        };
        while let Some(e) = queue.pop_front() {
            if live(&self.meta, e, protected) {
                return Some(e.0);
            }
        }
        None
    }
}

impl<O: Observer> EvictionPolicy for SlruCore<O> {
    fn name(&self) -> &'static str {
        "SLRU"
    }

    fn victim(&mut self, residents: &dyn Residents) -> Way {
        // Probationary LRU end first, then protected LRU end; skip blocks
        // the region does not hold (a core hot-attached to a warm region).
        let mut guard = self.prob.len() + self.prot.len() + 2;
        while guard > 0 {
            guard -= 1;
            let (b, from_prob) = match self.pop_live(false) {
                Some(b) => (b, true),
                None => {
                    self.prob_len = 0;
                    match self.pop_live(true) {
                        Some(b) => (b, false),
                        None => break,
                    }
                }
            };
            if from_prob {
                self.prob_len = self.prob_len.saturating_sub(1);
            } else {
                self.prot_len = self.prot_len.saturating_sub(1);
            }
            let way = self.meta.remove(&b).map(|m| m.way);
            if let Some(chosen) = way.and_then(|w| resident_in(residents, w, b)) {
                return report_victim(&self.obs, residents, chosen);
            }
        }
        // Fresh or desynced core: evict the LRU block.
        let lru = residents.lru();
        if let Some(m) = self.meta.remove(&lru.block) {
            if m.protected {
                self.prot_len = self.prot_len.saturating_sub(1);
            } else {
                self.prob_len = self.prob_len.saturating_sub(1);
            }
        }
        report_victim(&self.obs, residents, lru)
    }

    fn on_hit(&mut self, block: BlockAddr, _way: Way, cost: Cost, _is_lru: bool) {
        if self.meta.contains_key(&block) {
            // (Re-)enqueue at the protected MRU end.
            let seq = self.push(block, true);
            if let Some(m) = self.meta.get_mut(&block) {
                if !m.protected {
                    self.prob_len = self.prob_len.saturating_sub(1);
                    self.prot_len += 1;
                }
                m.protected = true;
                m.seq = seq;
            }
            // Overflow: demote the protected LRU block to probationary MRU.
            if self.prot_len > self.prot_target {
                if let Some(d) = self.pop_live(true) {
                    let dseq = self.push(d, false);
                    if let Some(dm) = self.meta.get_mut(&d) {
                        dm.protected = false;
                        dm.seq = dseq;
                    }
                    self.prot_len -= 1;
                    self.prob_len += 1;
                }
            }
        }
        self.obs.on_hit(block, cost);
    }

    fn on_miss(&mut self, block: BlockAddr, _lru: Option<(BlockAddr, Cost)>) {
        self.obs.on_miss(block);
    }

    fn on_fill(&mut self, block: BlockAddr, way: Way, _cost: Cost) {
        if let Some(m) = self.meta.get_mut(&block) {
            // Overwrite of a resident block keeps its segment position.
            m.way = way;
            return;
        }
        let seq = self.push(block, false);
        self.meta.insert(
            block,
            SlruMeta {
                protected: false,
                seq,
                way,
            },
        );
        self.prob_len += 1;
    }

    fn on_remove(&mut self, block: BlockAddr) {
        if let Some(m) = self.meta.remove(&block) {
            if m.protected {
                self.prot_len = self.prot_len.saturating_sub(1);
            } else {
                self.prob_len = self.prob_len.saturating_sub(1);
            }
        }
    }
}

/// The SLRU replacement policy (one [`SlruCore`] per set).
pub type Slru<O = NopObserver> = PerSet<SlruCore<O>>;

impl Slru {
    /// Creates an SLRU policy for the given cache geometry.
    #[must_use]
    pub fn new(geom: &Geometry) -> Self {
        PerSet::from_fn(geom, || SlruCore::new(geom.assoc()))
    }
}

impl<O: Observer> Slru<O> {
    /// Attaches a decision observer; every set's core receives a clone.
    #[must_use]
    pub fn with_observer<O2: Observer + Clone>(self, obs: O2) -> Slru<O2> {
        self.map_cores(|c| c.with_observer(obs.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_sim::{AccessType, Cache};

    /// One-set, 2-way cache (protected target 1).
    fn cache2() -> Cache<Slru> {
        let geom = Geometry::new(128, 64, 2);
        Cache::new(geom, Slru::new(&geom))
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
        let mut c = Cache::new(geom, Slru::new(&geom));
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
                dirty: false,
            })
            .collect();
        let mut core = SlruCore::new(4);
        assert_eq!(core.victim(&SetView::new(&entries)), Way(3));
        assert_eq!(core.name(), "SLRU");
    }
}
