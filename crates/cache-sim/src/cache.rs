//! The set-associative cache engine.
//!
//! [`Cache`] owns residency, per-set LRU recency stacks and statistics; the
//! replacement decision is delegated to one [`EvictionPolicy`] core per set.
//! Costs are supplied by the caller at access time ("loaded at the time of
//! miss", Section 2.3 of the paper) and stored with the blockframe so cores
//! can compare the future miss costs of resident blocks.

use crate::addr::{BlockAddr, Geometry, SetIndex, Way};
use crate::cost::Cost;
use crate::policy::{EvictionPolicy, Residents, WayView};
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

/// One blockframe. An invalid frame's other fields are meaningless.
#[derive(Debug, Clone, Copy, Default)]
struct Frame {
    block: BlockAddr,
    cost: Cost,
    valid: bool,
    dirty: bool,
}

/// One full set's rows of the flat arrays, answering its core's
/// [`Residents`] questions where they lie.
struct SetRows<'a> {
    /// The recency stack, MRU first.
    stack: &'a [Way],
    /// The blockframes, by way.
    frames: &'a [Frame],
}

impl SetRows<'_> {
    fn view(&self, way: Way) -> WayView {
        let f = &self.frames[way.0];
        WayView {
            way,
            block: f.block,
            cost: f.cost,
        }
    }
}

impl Residents for SetRows<'_> {
    fn lru(&self) -> WayView {
        self.view(*self.stack.last().expect("a full set has an LRU way"))
    }

    fn at_way(&self, way: Way) -> Option<WayView> {
        // A full set holds a block in every way.
        (way.0 < self.frames.len()).then(|| self.view(way))
    }

    fn lru_most_cheaper_than(&self, bound: u64) -> Option<WayView> {
        self.stack
            .iter()
            .rev()
            .skip(1)
            .map(|&w| self.view(w))
            .find(|e| e.cost.0 < bound)
    }
}

/// A set-associative, write-back, write-allocate cache driving one
/// replacement core per set.
///
/// Every set lives in two flat arrays indexed `set * assoc + i`: its
/// blockframes by way, and its recency stack — the valid ways, MRU first —
/// by position, the first `depth[set]` entries meaningful. A promotion or
/// a removal moves at most `assoc - 1` ways along the row. A set's core
/// asks its questions of those rows directly.
///
/// # Examples
///
/// Costs are charged only on misses:
///
/// ```
/// use cache_sim::{Cache, Geometry, Lru, AccessType, Cost, BlockAddr};
///
/// let mut c = Cache::new(Geometry::new(16 * 1024, 64, 4), Lru::new);
/// c.access(BlockAddr(7), AccessType::Read, Cost(8));  // miss: charges 8
/// c.access(BlockAddr(7), AccessType::Read, Cost(8));  // hit: charges 0
/// assert_eq!(c.stats().aggregate_cost, Cost(8));
/// ```
#[derive(Debug)]
pub struct Cache<C> {
    geom: Geometry,
    frames: Vec<Frame>,
    stack: Vec<Way>,
    depth: Vec<usize>,
    cores: Vec<C>,
    stats: CacheStats,
}

impl<C: EvictionPolicy> Cache<C> {
    /// Creates an empty cache of the given geometry, with one core per set,
    /// each built by `core` (set 0 first).
    #[must_use]
    pub fn new(geom: Geometry, core: impl FnMut() -> C) -> Self {
        let ways = geom.num_sets() * geom.assoc();
        Cache {
            geom,
            frames: vec![Frame::default(); ways],
            stack: vec![Way(0); ways],
            depth: vec![0; geom.num_sets()],
            cores: std::iter::repeat_with(core).take(geom.num_sets()).collect(),
            stats: CacheStats::default(),
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

    /// The core driving `set` (per-set inspection: `acost()`, `etd()`, …).
    #[must_use]
    pub fn core(&self, set: SetIndex) -> &C {
        &self.cores[set.0]
    }

    /// Every set's core, set 0 first (e.g. to fold per-set statistics).
    #[must_use]
    pub fn cores(&self) -> &[C] {
        &self.cores
    }

    /// Whether `block` is resident. No side effects.
    #[must_use]
    pub fn contains(&self, block: BlockAddr) -> bool {
        self.find(block).is_some()
    }

    /// The stored miss cost of `block`, if resident. No side effects.
    #[must_use]
    pub fn cost_of(&self, block: BlockAddr) -> Option<Cost> {
        self.find(block).map(|(_, i)| self.frames[i].cost)
    }

    /// Updates the stored miss cost of `block` (e.g. when a latency
    /// predictor produces a fresher estimate). Returns `true` if resident.
    pub fn update_cost(&mut self, block: BlockAddr, cost: Cost) -> bool {
        self.find(block)
            .map(|(_, i)| self.frames[i].cost = cost)
            .is_some()
    }

    /// The resident blocks of `set` in MRU → LRU order (for tests and
    /// debugging).
    #[must_use]
    pub fn recency_of(&self, set: SetIndex) -> Vec<BlockAddr> {
        self.blocks_of(set).collect()
    }

    /// The first index of `set`'s rows in `frames` and `stack`.
    fn base(&self, set: SetIndex) -> usize {
        set.0 * self.geom.assoc()
    }

    /// `set`'s recency stack: its valid ways, MRU first.
    fn stack_of(&self, set: SetIndex) -> &[Way] {
        let base = self.base(set);
        &self.stack[base..base + self.depth[set.0]]
    }

    fn blocks_of(&self, set: SetIndex) -> impl Iterator<Item = BlockAddr> + '_ {
        let base = self.base(set);
        self.stack_of(set)
            .iter()
            .map(move |w| self.frames[base + w.0].block)
    }

    /// The stack position of resident `block` and its frame's index.
    fn find(&self, block: BlockAddr) -> Option<(usize, usize)> {
        let set = self.geom.set_of(block);
        let base = self.base(set);
        self.stack_of(set)
            .iter()
            .map(|w| base + w.0)
            .enumerate()
            .find(|&(_, i)| self.frames[i].block == block)
    }

    /// Moves `way` from stack position `pos` to MRU. The ways above `pos`
    /// move down one, each passed along by hand: a row is at most `assoc`
    /// entries, too short to be worth a `memmove` call.
    fn promote(&mut self, set: SetIndex, pos: usize, way: Way) {
        let base = self.base(set);
        let mut carried = way;
        for slot in &mut self.stack[base..=base + pos] {
            carried = std::mem::replace(slot, carried);
        }
    }

    /// Unlinks the way at stack position `pos`.
    fn remove(&mut self, set: SetIndex, pos: usize) {
        let base = self.base(set);
        let depth = self.depth[set.0];
        self.stack[base + pos..base + depth].rotate_left(1);
        self.depth[set.0] = depth - 1;
    }

    /// Performs one access. On a miss the block is filled with `miss_cost`
    /// charged and stored in the blockframe; on a hit nothing is charged.
    ///
    /// The returned [`AccessOutcome`] reports the eviction (if any) so the
    /// caller can model writebacks or replacement hints.
    pub fn access(&mut self, block: BlockAddr, op: AccessType, miss_cost: Cost) -> AccessOutcome {
        let set = self.geom.set_of(block);
        let base = self.base(set);
        let depth = self.depth[set.0];
        self.stats.accesses += 1;
        match op {
            AccessType::Read => self.stats.reads += 1,
            AccessType::Write => self.stats.writes += 1,
        }

        if let Some((pos, i)) = self.find(block) {
            let way = Way(i - base);
            let cost = self.frames[i].cost;
            self.cores[set.0].on_hit(block, way, cost, pos + 1 == depth);
            self.promote(set, pos, way);
            self.frames[i].dirty |= op == AccessType::Write;
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
        let lru = self.stack_of(set).last().map(|&w| {
            let f = &self.frames[base + w.0];
            (f.block, f.cost)
        });
        self.cores[set.0].on_miss(block, lru);

        let (way, evicted) = if depth < self.geom.assoc() {
            // The lowest invalid way; it joins the stack at MRU.
            let way = (0..self.geom.assoc())
                .map(Way)
                .find(|w| !self.frames[base + w.0].valid)
                .expect("a set below full depth has an invalid way");
            self.depth[set.0] = depth + 1;
            self.promote(set, depth, way);
            (way, None)
        } else {
            let rows = SetRows {
                stack: &self.stack[base..base + depth],
                frames: &self.frames[base..base + self.geom.assoc()],
            };
            let victim = self.cores[set.0].victim(&rows);
            let pos = rows
                .stack
                .iter()
                .position(|&w| w == victim)
                .expect("policy chose an invalid way as victim");
            let f = self.frames[base + victim.0];
            let was_lru = pos + 1 == depth;
            self.stats.evictions += 1;
            self.stats.dirty_evictions += u64::from(f.dirty);
            self.stats.non_lru_evictions += u64::from(!was_lru);
            // Evicting the victim and filling its way at MRU is one move.
            self.promote(set, pos, victim);
            let ev = Evicted {
                block: f.block,
                dirty: f.dirty,
                cost: f.cost,
                was_lru,
            };
            (victim, Some(ev))
        };

        self.frames[base + way.0] = Frame {
            block,
            cost: miss_cost,
            valid: true,
            dirty: op == AccessType::Write,
        };
        self.stats.fills += 1;
        self.stats.aggregate_cost += miss_cost;
        self.cores[set.0].on_fill(block, way, miss_cost);

        AccessOutcome {
            hit: false,
            way,
            cost_charged: miss_cost,
            evicted,
        }
    }

    /// Invalidates `block` if resident (and notifies the set's core either
    /// way, so shadow structures like DCL's ETD can drop their entries too).
    ///
    /// Returns the displaced block state if it was resident.
    pub fn invalidate(&mut self, block: BlockAddr) -> Option<Evicted> {
        let set = self.geom.set_of(block);
        self.stats.invalidations_requested += 1;
        let Some((pos, i)) = self.find(block) else {
            self.cores[set.0].on_remove(block, None);
            return None;
        };
        let f = self.frames[i];
        let was_lru = pos + 1 == self.depth[set.0];
        let way = Way(i - self.base(set));
        self.cores[set.0].on_remove(block, Some(way));
        self.remove(set, pos);
        self.frames[i] = Frame::default();
        self.stats.invalidations_hit += 1;
        Some(Evicted {
            block,
            dirty: f.dirty,
            cost: f.cost,
            was_lru,
        })
    }

    /// Marks `block` dirty *without* touching the recency stack, statistics
    /// or the core — models a writeback arriving from an upper cache
    /// level. Returns `true` if the block was resident.
    pub fn writeback(&mut self, block: BlockAddr) -> bool {
        self.find(block)
            .map(|(_, i)| self.frames[i].dirty = true)
            .is_some()
    }

    /// Iterates over all resident blocks (set by set, MRU → LRU within each).
    pub fn resident_blocks(&self) -> impl Iterator<Item = BlockAddr> + '_ {
        (0..self.geom.num_sets()).flat_map(|s| self.blocks_of(SetIndex(s)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lru::Lru;

    fn one_set_cache(assoc: usize) -> Cache<Lru> {
        Cache::new(Geometry::new(64 * assoc as u64, 64, assoc), Lru::new)
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
        let ev = c.invalidate(BlockAddr(1)).expect("resident");
        assert!(ev.dirty);
        assert_eq!(ev.cost, Cost(3));
        assert!(!c.contains(BlockAddr(1)));
        assert!(c.invalidate(BlockAddr(1)).is_none());
        assert_eq!(c.stats().invalidations_requested, 2);
        assert_eq!(c.stats().invalidations_hit, 1);
    }

    #[test]
    fn invalid_ways_fill_before_eviction() {
        let mut c = one_set_cache(2);
        c.access(BlockAddr(1), AccessType::Read, Cost(1));
        c.access(BlockAddr(2), AccessType::Read, Cost(1));
        c.invalidate(BlockAddr(1));
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
        let mut c = Cache::new(Geometry::new(256, 64, 2), Lru::new);
        for b in 0..4u64 {
            c.access(BlockAddr(b), AccessType::Read, Cost(1));
        }
        let mut blocks: Vec<u64> = c.resident_blocks().map(|b| b.0).collect();
        blocks.sort_unstable();
        assert_eq!(blocks, vec![0, 1, 2, 3]);
    }
}
