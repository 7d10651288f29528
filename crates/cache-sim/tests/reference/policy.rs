//! The replacement-policy interface.
//!
//! A [`ReplacementPolicy`] is driven by a [`Cache`](crate::Cache): the cache
//! maintains residency and the LRU recency stack of every set, and consults
//! the policy for victim selection, notifying it of hits, misses, fills and
//! invalidations. For victim selection — and only there — the cache presents
//! the set as a [`SetView`] in **MRU → LRU order**, mirroring the paper's
//! `c(1)` (MRU) … `c(s)` (LRU) notation (with 0-based indices here: position
//! 0 is MRU, `len()-1` is LRU). Hits and misses carry the O(1) facts a policy
//! consumes instead, so the hit path never materializes the stack.
//!
//! A set has at most `assoc` ways, so the view is a slice that is cheap to
//! build and to walk, and it is the reference for what the recency order
//! means. The `csr` cores do not depend on it being a slice: their `victim`
//! puts three questions to a `csr::Residents` — the LRU entry, the entry in
//! a given way, the entry nearest the LRU end (that one excepted) cheaper
//! than a bound — which [`SetView`] answers by walking its slice and the
//! key-value cache answers from linked lists, for regions of any size.
//!
//! # Contract
//!
//! * [`ReplacementPolicy::victim`] is called **exactly once** per replacement
//!   and only when the set is full; the returned way **will** be evicted.
//!   Policies may therefore perform bookkeeping side effects inside `victim`
//!   (e.g. BCL's `Acost` depreciation, DCL's ETD allocation).
//! * Hit notifications are delivered *before* the accessed block is promoted
//!   to the MRU position; `is_lru` describes the pre-access stack.
//! * [`ReplacementPolicy::on_miss`] is delivered for every access that misses,
//!   before victim selection (and also when the fill uses an empty way) —
//!   this is where DCL/ACL probe their Extended Tag Directory.

use crate::addr::{BlockAddr, SetIndex, Way};
use crate::cost::Cost;

/// The view of one resident blockframe, as presented to a policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WayView {
    /// Which physical way holds the block.
    pub way: Way,
    /// The resident block.
    pub block: BlockAddr,
    /// The block's miss cost, loaded at fill time.
    pub cost: Cost,
    /// Whether the block is dirty.
    pub dirty: bool,
}

/// A snapshot of one set's **valid** blockframes in MRU → LRU order.
#[derive(Debug)]
pub struct SetView<'a> {
    entries: &'a [WayView],
}

impl<'a> SetView<'a> {
    /// Wraps a slice of way views that must already be in MRU → LRU order.
    #[must_use]
    pub fn new(entries: &'a [WayView]) -> Self {
        SetView { entries }
    }

    /// Number of valid blocks in the set.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the set holds no valid block.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The block at stack position `pos` (0 = MRU, `len()-1` = LRU).
    ///
    /// # Panics
    ///
    /// Panics if `pos >= len()`.
    #[must_use]
    pub fn at(&self, pos: usize) -> &WayView {
        &self.entries[pos]
    }

    /// The least recently used block.
    ///
    /// # Panics
    ///
    /// Panics if the set is empty.
    #[must_use]
    pub fn lru(&self) -> &WayView {
        self.entries.last().expect("lru() on empty set")
    }

    /// Iterates in MRU → LRU order.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = &WayView> + ExactSizeIterator {
        self.entries.iter()
    }
}

/// Why a block left the cache, as reported to [`ReplacementPolicy::on_invalidate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InvalidateKind {
    /// A coherence invalidation (e.g. a remote write in a multiprocessor).
    Coherence,
    /// An inclusion-driven back-invalidation from another cache level.
    Inclusion,
    /// Explicit flush by the user of the cache.
    Flush,
}

/// A cache replacement policy.
///
/// All methods except [`victim`](Self::victim) have no-op defaults so simple
/// policies (e.g. plain LRU) implement only what they need.
pub trait ReplacementPolicy {
    /// A short human-readable name ("LRU", "GD", "BCL", …).
    fn name(&self) -> &'static str;

    /// Selects the way to evict from a **full** set. Called exactly once per
    /// replacement; the returned way will be evicted.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `view` is not full (`view.len()` less
    /// than the associativity they were configured with).
    fn victim(&mut self, set: SetIndex, view: &SetView<'_>) -> Way;

    /// An access hit `block` on `way` (cost as loaded at fill time), before
    /// its promotion to MRU; `is_lru` is true when it sits at the LRU end.
    fn on_hit(&mut self, set: SetIndex, block: BlockAddr, way: Way, cost: Cost, is_lru: bool) {
        let _ = (set, block, way, cost, is_lru);
    }

    /// An access to `block` missed in the set; `lru` is the set's current
    /// LRU block and its cost, if the set holds any valid block. Delivered
    /// before victim selection or fill.
    fn on_miss(&mut self, set: SetIndex, block: BlockAddr, lru: Option<(BlockAddr, Cost)>) {
        let _ = (set, block, lru);
    }

    /// `block` was filled into `way` with miss cost `cost`.
    fn on_fill(&mut self, set: SetIndex, block: BlockAddr, way: Way, cost: Cost) {
        let _ = (set, block, way, cost);
    }

    /// `block` was invalidated. `resident` carries the way and stack position
    /// the block occupied if it was resident in the cache; policies with
    /// shadow state (e.g. DCL's ETD) must also handle non-resident blocks.
    fn on_invalidate(
        &mut self,
        set: SetIndex,
        block: BlockAddr,
        resident: Option<(Way, usize)>,
        kind: InvalidateKind,
    ) {
        let _ = (set, block, resident, kind);
    }
}

impl<P: ReplacementPolicy + ?Sized> ReplacementPolicy for Box<P> {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn victim(&mut self, set: SetIndex, view: &SetView<'_>) -> Way {
        (**self).victim(set, view)
    }
    fn on_hit(&mut self, set: SetIndex, block: BlockAddr, way: Way, cost: Cost, is_lru: bool) {
        (**self).on_hit(set, block, way, cost, is_lru);
    }
    fn on_miss(&mut self, set: SetIndex, block: BlockAddr, lru: Option<(BlockAddr, Cost)>) {
        (**self).on_miss(set, block, lru);
    }
    fn on_fill(&mut self, set: SetIndex, block: BlockAddr, way: Way, cost: Cost) {
        (**self).on_fill(set, block, way, cost);
    }
    fn on_invalidate(
        &mut self,
        set: SetIndex,
        block: BlockAddr,
        resident: Option<(Way, usize)>,
        kind: InvalidateKind,
    ) {
        (**self).on_invalidate(set, block, resident, kind);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_entries() -> Vec<WayView> {
        vec![
            WayView {
                way: Way(2),
                block: BlockAddr(10),
                cost: Cost(1),
                dirty: false,
            },
            WayView {
                way: Way(0),
                block: BlockAddr(20),
                cost: Cost(8),
                dirty: true,
            },
            WayView {
                way: Way(1),
                block: BlockAddr(30),
                cost: Cost(1),
                dirty: false,
            },
        ]
    }

    #[test]
    fn view_orientation() {
        let entries = sample_entries();
        let v = SetView::new(&entries);
        assert_eq!(v.len(), 3);
        assert!(!v.is_empty());
        assert_eq!(v.at(0).block, BlockAddr(10));
        assert_eq!(v.lru().block, BlockAddr(30));
        assert_eq!(v.at(1).cost, Cost(8));
    }

    #[test]
    fn iter_is_mru_to_lru() {
        let entries = sample_entries();
        let v = SetView::new(&entries);
        let blocks: Vec<_> = v.iter().map(|e| e.block.0).collect();
        assert_eq!(blocks, vec![10, 20, 30]);
    }

    #[test]
    fn boxed_policy_dispatches() {
        struct AlwaysLru;
        impl ReplacementPolicy for AlwaysLru {
            fn name(&self) -> &'static str {
                "test"
            }
            fn victim(&mut self, _set: SetIndex, view: &SetView<'_>) -> Way {
                view.lru().way
            }
        }
        let mut boxed: Box<dyn ReplacementPolicy> = Box::new(AlwaysLru);
        let entries = sample_entries();
        let v = SetView::new(&entries);
        assert_eq!(boxed.name(), "test");
        assert_eq!(boxed.victim(SetIndex(0), &v), Way(1));
    }
}
