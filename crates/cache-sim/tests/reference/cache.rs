//! The set-associative cache engine.
//!
//! [`Cache`] owns residency, per-set LRU recency stacks and statistics; the
//! replacement decision is delegated to a [`ReplacementPolicy`]. Costs are
//! supplied by the caller at access time ("loaded at the time of miss",
//! Section 2.3 of the paper) and stored with the blockframe so policies can
//! compare the future miss costs of resident blocks.

use crate::addr::{BlockAddr, Geometry, SetIndex, Way};
use crate::cost::Cost;
use crate::policy::{InvalidateKind, ReplacementPolicy, SetView, WayView};
use crate::stats::CacheStats;

/// Read or write access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessType {
    /// A load.
    Read,
    /// A store (marks the block dirty; write-allocate on miss).
    Write,
}

/// A block displaced from the cache by a fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evicted {
    /// The displaced block.
    pub block: BlockAddr,
    /// Whether it was dirty (needs writeback).
    pub dirty: bool,
    /// The miss cost it was loaded with.
    pub cost: Cost,
    /// Whether it occupied the LRU position when evicted. `false` means the
    /// replacement left a higher-cost block reserved below it.
    pub was_lru: bool,
}

/// The result of one [`Cache::access`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Whether the access hit.
    pub hit: bool,
    /// The way that holds the block after the access.
    pub way: Way,
    /// Cost charged for this access (0 on a hit, the supplied miss cost on a
    /// miss).
    pub cost_charged: Cost,
    /// Block displaced by the fill, if any.
    pub evicted: Option<Evicted>,
}

#[derive(Debug, Clone, Copy)]
struct Frame {
    block: Option<BlockAddr>,
    dirty: bool,
    cost: Cost,
}

#[derive(Debug, Clone)]
struct SetState {
    frames: Vec<Frame>,
    /// Valid ways in MRU → LRU order.
    recency: Vec<Way>,
}

impl SetState {
    fn new(assoc: usize) -> Self {
        SetState {
            frames: vec![
                Frame {
                    block: None,
                    dirty: false,
                    cost: Cost::ZERO
                };
                assoc
            ],
            recency: Vec::with_capacity(assoc),
        }
    }

    fn way_of(&self, block: BlockAddr) -> Option<Way> {
        self.frames
            .iter()
            .position(|f| f.block == Some(block))
            .map(Way)
    }

    fn first_invalid(&self) -> Option<Way> {
        self.frames.iter().position(|f| f.block.is_none()).map(Way)
    }

    fn promote(&mut self, way: Way) {
        self.recency.retain(|&w| w != way);
        self.recency.insert(0, way);
    }

    fn remove(&mut self, way: Way) {
        self.recency.retain(|&w| w != way);
    }

    /// The policy-facing view of a way on the recency stack.
    #[inline]
    fn view(&self, way: Way) -> WayView {
        let f = &self.frames[way.0];
        WayView {
            way,
            block: f.block.expect("recency stack holds only valid ways"),
            cost: f.cost,
            dirty: f.dirty,
        }
    }
}

/// A set-associative, write-back, write-allocate cache with a pluggable
/// replacement policy.
///
/// # Examples
///
/// Costs are charged only on misses:
///
/// ```
/// use cache_sim::{Cache, Geometry, Lru, AccessType, Cost, BlockAddr};
///
/// let mut c = Cache::new(Geometry::new(16 * 1024, 64, 4), Lru::new());
/// c.access(BlockAddr(7), AccessType::Read, Cost(8));  // miss: charges 8
/// c.access(BlockAddr(7), AccessType::Read, Cost(8));  // hit: charges 0
/// assert_eq!(c.stats().aggregate_cost, Cost(8));
/// ```
#[derive(Debug)]
pub struct Cache<P> {
    geom: Geometry,
    sets: Vec<SetState>,
    policy: P,
    stats: CacheStats,
    scratch: Vec<WayView>,
}

impl<P: ReplacementPolicy> Cache<P> {
    /// Creates an empty cache of the given geometry using `policy`.
    #[must_use]
    pub fn new(geom: Geometry, policy: P) -> Self {
        let sets = (0..geom.num_sets())
            .map(|_| SetState::new(geom.assoc()))
            .collect();
        Cache {
            geom,
            sets,
            policy,
            stats: CacheStats::default(),
            scratch: Vec::with_capacity(geom.assoc()),
        }
    }

    /// The cache geometry.
    #[must_use]
    pub fn geometry(&self) -> &Geometry {
        &self.geom
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// The replacement policy (e.g. to read policy-specific statistics).
    #[must_use]
    pub fn policy(&self) -> &P {
        &self.policy
    }

    /// Whether `block` is resident. No side effects.
    #[must_use]
    pub fn contains(&self, block: BlockAddr) -> bool {
        self.sets[self.geom.set_of(block).0].way_of(block).is_some()
    }

    /// The stored miss cost of `block`, if resident. No side effects.
    #[must_use]
    pub fn cost_of(&self, block: BlockAddr) -> Option<Cost> {
        let set = &self.sets[self.geom.set_of(block).0];
        set.way_of(block).map(|w| set.frames[w.0].cost)
    }

    /// Updates the stored miss cost of `block` (e.g. when a latency
    /// predictor produces a fresher estimate). Returns `true` if resident.
    pub fn update_cost(&mut self, block: BlockAddr, cost: Cost) -> bool {
        let set = &mut self.sets[self.geom.set_of(block).0];
        match set.way_of(block) {
            Some(w) => {
                set.frames[w.0].cost = cost;
                true
            }
            None => false,
        }
    }

    /// The resident blocks of `set` in MRU → LRU order (for tests and
    /// debugging).
    #[must_use]
    pub fn recency_of(&self, set: SetIndex) -> Vec<BlockAddr> {
        let s = &self.sets[set.0];
        s.recency.iter().map(|&w| s.view(w).block).collect()
    }

    fn rebuild_scratch(&mut self, set: SetIndex) {
        self.scratch.clear();
        let s = &self.sets[set.0];
        for &w in &s.recency {
            self.scratch.push(s.view(w));
        }
    }

    /// Performs one access. On a miss the block is filled with `miss_cost`
    /// charged and stored in the blockframe; on a hit nothing is charged.
    ///
    /// The returned [`AccessOutcome`] reports the eviction (if any) so the
    /// caller can model writebacks or replacement hints.
    pub fn access(&mut self, block: BlockAddr, op: AccessType, miss_cost: Cost) -> AccessOutcome {
        let set = self.geom.set_of(block);
        self.stats.accesses += 1;
        match op {
            AccessType::Read => self.stats.reads += 1,
            AccessType::Write => self.stats.writes += 1,
        }

        let resident = self.sets[set.0].way_of(block);

        if let Some(way) = resident {
            let s = &mut self.sets[set.0];
            let is_lru = s.recency.last() == Some(&way);
            self.policy
                .on_hit(set, block, way, s.frames[way.0].cost, is_lru);
            s.promote(way);
            if op == AccessType::Write {
                s.frames[way.0].dirty = true;
            }
            self.stats.hits += 1;
            return AccessOutcome {
                hit: true,
                way,
                cost_charged: Cost::ZERO,
                evicted: None,
            };
        }

        // Miss path.
        self.stats.misses += 1;
        let s = &self.sets[set.0];
        let lru = s.recency.last().map(|&w| {
            let v = s.view(w);
            (v.block, v.cost)
        });
        self.policy.on_miss(set, block, lru);

        let (way, evicted) = match self.sets[set.0].first_invalid() {
            Some(w) => (w, None),
            None => {
                self.rebuild_scratch(set);
                let victim = self.policy.victim(set, &SetView::new(&self.scratch));
                let s = &self.sets[set.0];
                assert!(
                    s.frames[victim.0].block.is_some(),
                    "policy chose an invalid way as victim"
                );
                let was_lru = s.recency.last() == Some(&victim);
                let f = s.frames[victim.0];
                let ev = Evicted {
                    block: f.block.expect("victim frame must be valid"),
                    dirty: f.dirty,
                    cost: f.cost,
                    was_lru,
                };
                let s = &mut self.sets[set.0];
                s.remove(victim);
                s.frames[victim.0] = Frame {
                    block: None,
                    dirty: false,
                    cost: Cost::ZERO,
                };
                self.stats.evictions += 1;
                if ev.dirty {
                    self.stats.dirty_evictions += 1;
                }
                if !was_lru {
                    self.stats.non_lru_evictions += 1;
                }
                (victim, Some(ev))
            }
        };

        let s = &mut self.sets[set.0];
        s.frames[way.0] = Frame {
            block: Some(block),
            dirty: op == AccessType::Write,
            cost: miss_cost,
        };
        s.promote(way);
        self.stats.fills += 1;
        self.stats.aggregate_cost += miss_cost;
        self.policy.on_fill(set, block, way, miss_cost);

        AccessOutcome {
            hit: false,
            way,
            cost_charged: miss_cost,
            evicted,
        }
    }

    /// Invalidates `block` if resident (and notifies the policy either way,
    /// so shadow structures like DCL's ETD can drop their entries too).
    ///
    /// Returns the displaced block state if it was resident.
    pub fn invalidate(&mut self, block: BlockAddr, kind: InvalidateKind) -> Option<Evicted> {
        let set = self.geom.set_of(block);
        self.stats.invalidations_requested += 1;
        let resident = self.sets[set.0].way_of(block);
        match resident {
            Some(way) => {
                let s = &self.sets[set.0];
                let pos = s
                    .recency
                    .iter()
                    .position(|&w| w == way)
                    .expect("resident block must be on the recency stack");
                let was_lru = pos + 1 == s.recency.len();
                let f = s.frames[way.0];
                self.policy
                    .on_invalidate(set, block, Some((way, pos)), kind);
                let s = &mut self.sets[set.0];
                s.remove(way);
                s.frames[way.0] = Frame {
                    block: None,
                    dirty: false,
                    cost: Cost::ZERO,
                };
                self.stats.invalidations_hit += 1;
                Some(Evicted {
                    block,
                    dirty: f.dirty,
                    cost: f.cost,
                    was_lru,
                })
            }
            None => {
                self.policy.on_invalidate(set, block, None, kind);
                None
            }
        }
    }

    /// Marks `block` dirty *without* touching the recency stack, statistics
    /// or the policy — models a writeback arriving from an upper cache
    /// level. Returns `true` if the block was resident.
    pub fn writeback(&mut self, block: BlockAddr) -> bool {
        let set = &mut self.sets[self.geom.set_of(block).0];
        match set.way_of(block) {
            Some(w) => {
                set.frames[w.0].dirty = true;
                true
            }
            None => false,
        }
    }

    /// Iterates over all resident blocks (set by set, MRU → LRU within each).
    pub fn resident_blocks(&self) -> impl Iterator<Item = BlockAddr> + '_ {
        self.sets
            .iter()
            .flat_map(|s| s.recency.iter().map(|&w| s.view(w).block))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lru::Lru;

    fn one_set_cache(assoc: usize) -> Cache<Lru> {
        Cache::new(Geometry::new(64 * assoc as u64, 64, assoc), Lru::new())
    }

    #[test]
    fn hit_and_miss_accounting() {
        let mut c = one_set_cache(2);
        let out = c.access(BlockAddr(1), AccessType::Read, Cost(4));
        assert!(!out.hit);
        assert_eq!(out.cost_charged, Cost(4));
        let out = c.access(BlockAddr(1), AccessType::Write, Cost(4));
        assert!(out.hit);
        assert_eq!(out.cost_charged, Cost::ZERO);
        assert_eq!(c.stats().accesses, 2);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
        assert_eq!(c.stats().aggregate_cost, Cost(4));
        assert_eq!(c.stats().reads, 1);
        assert_eq!(c.stats().writes, 1);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = one_set_cache(2);
        c.access(BlockAddr(1), AccessType::Read, Cost(1));
        c.access(BlockAddr(2), AccessType::Read, Cost(1));
        c.access(BlockAddr(1), AccessType::Read, Cost(1)); // 1 becomes MRU
        let out = c.access(BlockAddr(3), AccessType::Read, Cost(1));
        let ev = out.evicted.expect("full set must evict");
        assert_eq!(ev.block, BlockAddr(2));
        assert!(ev.was_lru);
        assert!(c.contains(BlockAddr(1)));
        assert!(c.contains(BlockAddr(3)));
    }

    #[test]
    fn recency_stack_is_mru_first() {
        let mut c = one_set_cache(4);
        for b in [1u64, 2, 3, 4] {
            c.access(BlockAddr(b), AccessType::Read, Cost(1));
        }
        assert_eq!(
            c.recency_of(SetIndex(0)),
            vec![BlockAddr(4), BlockAddr(3), BlockAddr(2), BlockAddr(1)]
        );
        c.access(BlockAddr(2), AccessType::Read, Cost(1));
        assert_eq!(
            c.recency_of(SetIndex(0)),
            vec![BlockAddr(2), BlockAddr(4), BlockAddr(3), BlockAddr(1)]
        );
    }

    #[test]
    fn dirty_eviction_reported() {
        let mut c = one_set_cache(1);
        c.access(BlockAddr(1), AccessType::Write, Cost(1));
        let out = c.access(BlockAddr(2), AccessType::Read, Cost(1));
        assert!(out.evicted.expect("eviction").dirty);
        assert_eq!(c.stats().dirty_evictions, 1);
    }

    #[test]
    fn invalidate_removes_and_reports() {
        let mut c = one_set_cache(2);
        c.access(BlockAddr(1), AccessType::Write, Cost(3));
        let ev = c
            .invalidate(BlockAddr(1), InvalidateKind::Coherence)
            .expect("resident");
        assert!(ev.dirty);
        assert_eq!(ev.cost, Cost(3));
        assert!(!c.contains(BlockAddr(1)));
        assert!(c
            .invalidate(BlockAddr(1), InvalidateKind::Coherence)
            .is_none());
        assert_eq!(c.stats().invalidations_requested, 2);
        assert_eq!(c.stats().invalidations_hit, 1);
    }

    #[test]
    fn invalid_ways_fill_before_eviction() {
        let mut c = one_set_cache(2);
        c.access(BlockAddr(1), AccessType::Read, Cost(1));
        c.access(BlockAddr(2), AccessType::Read, Cost(1));
        c.invalidate(BlockAddr(1), InvalidateKind::Coherence);
        let out = c.access(BlockAddr(3), AccessType::Read, Cost(1));
        assert!(out.evicted.is_none(), "must reuse the invalidated frame");
        assert!(c.contains(BlockAddr(2)));
        assert!(c.contains(BlockAddr(3)));
    }

    #[test]
    fn stored_cost_follows_block() {
        let mut c = one_set_cache(2);
        c.access(BlockAddr(1), AccessType::Read, Cost(9));
        assert_eq!(c.cost_of(BlockAddr(1)), Some(Cost(9)));
        assert!(c.update_cost(BlockAddr(1), Cost(5)));
        assert_eq!(c.cost_of(BlockAddr(1)), Some(Cost(5)));
        assert!(!c.update_cost(BlockAddr(99), Cost(5)));
    }

    #[test]
    fn resident_blocks_iterates_everything() {
        let mut c = Cache::new(Geometry::new(256, 64, 2), Lru::new());
        for b in 0..4u64 {
            c.access(BlockAddr(b), AccessType::Read, Cost(1));
        }
        let mut blocks: Vec<u64> = c.resident_blocks().map(|b| b.0).collect();
        blocks.sort_unstable();
        assert_eq!(blocks, vec![0, 1, 2, 3]);
    }
}
