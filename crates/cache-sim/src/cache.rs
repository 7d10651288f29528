//! The set-associative cache engine.
//!
//! [`Cache`] owns residency, per-set LRU recency stacks and statistics; the
//! replacement decision is delegated to one [`EvictionPolicy`] core per set.
//! Costs are supplied by the caller at access time ("loaded at the time of
//! miss", Section 2.3 of the paper) and stored with the blockframe so cores
//! can compare the future miss costs of resident blocks.
//!
//! A set is one row of entries kept in recency order, so that an access
//! reads one contiguous row and nothing else: a block's way is stored in
//! its entry rather than looked up through it. `access` is generic over
//! the core and small enough to inline into a replay loop, the core's
//! callbacks included, so a core that decides nothing (plain
//! [`Lru`](crate::Lru)) costs a row walk and a shift.

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

/// One way of a set's row: a resident block (in the row's first `depth`
/// entries) or a free way (in the rest, where only `way` means anything).
#[derive(Debug, Clone, Copy)]
struct Entry {
    block: BlockAddr,
    /// The miss cost the block was loaded with.
    cost: Cost,
    /// The blockframe the entry occupies, the name cores know it by.
    way: u32,
    dirty: bool,
}

impl Entry {
    #[inline]
    fn view(&self) -> WayView {
        WayView {
            way: Way(self.way as usize),
            block: self.block,
            cost: self.cost,
        }
    }
}

/// A full set's resident entries, MRU first, answering its core's
/// [`Residents`] questions where they lie.
struct SetRows<'a>(&'a [Entry]);

impl Residents for SetRows<'_> {
    #[inline]
    fn lru(&self) -> WayView {
        self.0.last().expect("a full set has an LRU way").view()
    }

    #[inline]
    fn at_way(&self, way: Way) -> Option<WayView> {
        self.0
            .iter()
            .find(|e| e.way as usize == way.0)
            .map(Entry::view)
    }

    #[inline]
    fn lru_most_cheaper_than(&self, bound: u64) -> Option<WayView> {
        self.0
            .iter()
            .rev()
            .skip(1)
            .find(|e| e.cost.0 < bound)
            .map(Entry::view)
    }
}

/// A set-associative, write-back, write-allocate cache driving one
/// replacement core per set.
///
/// Every set is one row of `assoc` entries in a flat array, at
/// `set * assoc`, and a depth. The row is the set's recency stack: its
/// first `depth` entries are the resident blocks, MRU first, each with its
/// cost, dirty bit and the way it occupies; the rest are the free ways in
/// ascending order. A lookup walks the stack from the MRU end, and a
/// promotion moves the entries above the promoted one down by one; a fill
/// takes the first free way (the lowest), and an eviction followed by its
/// fill is one promotion of the victim's entry; an invalidation closes the
/// stack over its entry and files the way among the free ones. A set's
/// core asks its questions of the stack directly, and the victim it names
/// is looked for from the LRU end, where victims mostly are.
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
    rows: Vec<Entry>,
    depth: Vec<usize>,
    cores: Vec<C>,
    stats: CacheStats,
}

impl<C: EvictionPolicy> Cache<C> {
    /// Creates an empty cache of the given geometry, with one core per set,
    /// each built by `core` (set 0 first).
    ///
    /// # Panics
    ///
    /// Panics if a set has more than `u32::MAX` ways.
    #[must_use]
    pub fn new(geom: Geometry, core: impl FnMut() -> C) -> Self {
        let assoc = u32::try_from(geom.assoc()).expect("at most u32::MAX ways");
        let free = (0..assoc).map(|way| Entry {
            block: BlockAddr(0),
            cost: Cost::ZERO,
            way,
            dirty: false,
        });
        Cache {
            geom,
            rows: free.cycle().take(geom.num_sets() * geom.assoc()).collect(),
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
        self.find(block).map(|i| self.rows[i].cost)
    }

    /// Updates the stored miss cost of `block` (e.g. when a latency
    /// predictor produces a fresher estimate). Returns `true` if resident.
    pub fn update_cost(&mut self, block: BlockAddr, cost: Cost) -> bool {
        self.find(block).map(|i| self.rows[i].cost = cost).is_some()
    }

    /// The resident blocks of `set` in MRU → LRU order (for tests and
    /// debugging).
    #[must_use]
    pub fn recency_of(&self, set: SetIndex) -> Vec<BlockAddr> {
        self.stack(set).iter().map(|e| e.block).collect()
    }

    /// `set`'s row: its recency stack, then its free ways.
    fn row(&self, set: SetIndex) -> &[Entry] {
        let assoc = self.geom.assoc();
        &self.rows[set.0 * assoc..][..assoc]
    }

    /// `set`'s recency stack: its resident entries, MRU first.
    fn stack(&self, set: SetIndex) -> &[Entry] {
        &self.row(set)[..self.depth[set.0]]
    }

    /// The index in `rows` of resident `block`'s entry.
    fn find(&self, block: BlockAddr) -> Option<usize> {
        let set = self.geom.set_of(block);
        let pos = self.stack(set).iter().position(|e| e.block == block)?;
        Some(set.0 * self.geom.assoc() + pos)
    }

    /// Performs one access. On a miss the block is filled with `miss_cost`
    /// charged and stored in the blockframe; on a hit nothing is charged.
    ///
    /// The returned [`AccessOutcome`] reports the eviction (if any) so the
    /// caller can model writebacks or replacement hints.
    #[inline]
    pub fn access(&mut self, block: BlockAddr, op: AccessType, miss_cost: Cost) -> AccessOutcome {
        let set = self.geom.set_of(block).0;
        let assoc = self.geom.assoc();
        let row = &mut self.rows[set * assoc..][..assoc];
        let depth = &mut self.depth[set];
        let core = &mut self.cores[set];
        let stats = &mut self.stats;
        let write = op == AccessType::Write;
        stats.accesses += 1;
        stats.reads += u64::from(!write);
        stats.writes += u64::from(write);
        let stack = &row[..*depth];

        if let Some(pos) = stack.iter().position(|e| e.block == block) {
            let mut hit = stack[pos];
            let way = Way(hit.way as usize);
            core.on_hit(block, way, hit.cost, pos + 1 == stack.len());
            hit.dirty |= write;
            push_front(row, pos, hit);
            stats.hits += 1;
            return AccessOutcome {
                hit: true,
                way,
                cost_charged: Cost::ZERO,
                evicted: None,
            };
        }

        // Miss path.
        stats.misses += 1;
        core.on_miss(block, stack.last().map(|e| (e.block, e.cost)));
        let (pos, evicted) = if stack.len() < assoc {
            // The lowest free way, first past the stack, joins it at MRU.
            *depth += 1;
            (stack.len(), None)
        } else {
            let victim = core.victim(&SetRows(stack));
            let pos = stack
                .iter()
                .rposition(|e| e.way as usize == victim.0)
                .expect("policy chose an invalid way as victim");
            let ev = stack[pos];
            let was_lru = pos + 1 == stack.len();
            stats.evictions += 1;
            stats.dirty_evictions += u64::from(ev.dirty);
            stats.non_lru_evictions += u64::from(!was_lru);
            let evicted = Evicted {
                block: ev.block,
                dirty: ev.dirty,
                cost: ev.cost,
                was_lru,
            };
            (pos, Some(evicted))
        };
        let way = row[pos].way;
        let fill = Entry {
            block,
            cost: miss_cost,
            way,
            dirty: write,
        };
        push_front(row, pos, fill);
        stats.fills += 1;
        stats.aggregate_cost += miss_cost;
        let way = Way(way as usize);
        core.on_fill(block, way, miss_cost);

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
        let set = self.geom.set_of(block).0;
        let assoc = self.geom.assoc();
        let row = &mut self.rows[set * assoc..][..assoc];
        let depth = self.depth[set];
        self.stats.invalidations_requested += 1;
        let Some(pos) = row[..depth].iter().position(|e| e.block == block) else {
            self.cores[set].on_remove(block, None);
            return None;
        };
        let gone = row[pos];
        self.cores[set].on_remove(block, Some(Way(gone.way as usize)));
        // The stack closes over the entry, and its way joins the free ways
        // in order.
        let mut at = pos;
        while at + 1 < depth || (at + 1 < assoc && row[at + 1].way < gone.way) {
            row[at] = row[at + 1];
            at += 1;
        }
        row[at] = gone;
        self.depth[set] = depth - 1;
        self.stats.invalidations_hit += 1;
        Some(Evicted {
            block,
            dirty: gone.dirty,
            cost: gone.cost,
            was_lru: pos + 1 == depth,
        })
    }

    /// Marks `block` dirty *without* touching the recency stack, statistics
    /// or the core — models a writeback arriving from an upper cache
    /// level. Returns `true` if the block was resident.
    pub fn writeback(&mut self, block: BlockAddr) -> bool {
        self.find(block)
            .map(|i| self.rows[i].dirty = true)
            .is_some()
    }

    /// Iterates over all resident blocks (set by set, MRU → LRU within each).
    pub fn resident_blocks(&self) -> impl Iterator<Item = BlockAddr> + '_ {
        (0..self.geom.num_sets()).flat_map(|s| self.stack(SetIndex(s)).iter().map(|e| e.block))
    }
}

/// Puts `entry` at the front of `row` in place of the entry at `pos`: the
/// entries above `pos` move down one, each by hand, a row being too short
/// to be worth a `memmove` call.
#[inline]
fn push_front(row: &mut [Entry], pos: usize, entry: Entry) {
    let moved = &mut row[..=pos];
    for i in (1..moved.len()).rev() {
        moved[i] = moved[i - 1];
    }
    moved[0] = entry;
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
