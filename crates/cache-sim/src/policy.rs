//! The replacement-policy contract: one trait, [`EvictionPolicy`], for a
//! single replacement region.
//!
//! The paper's algorithms are one piece of logic — a recency stack, its
//! costs, and (for DCL/ACL) a shadow directory — that only ever concerns
//! **one region**: a cache set here, a key-value shard in `csr_cache`. A
//! core implements [`EvictionPolicy`] for that one region, and a driver
//! replicates it: the simulator's [`Cache`](crate::Cache) holds one core per
//! set, `csr_cache`'s `Region` one boxed core per shard. Both deliver the
//! same notifications in the same order:
//!
//! * [`on_hit`](EvictionPolicy::on_hit) *before* the block is promoted to
//!   the MRU position, with whether it sits at the LRU end;
//! * [`on_miss`](EvictionPolicy::on_miss) for every access that misses,
//!   with the current LRU block and its cost, before victim selection or
//!   fill — this is where DCL/ACL probe their Extended Tag Directory;
//! * [`victim`](EvictionPolicy::victim) **exactly once** per replacement and
//!   only on a full region; the returned way **will** be evicted, so a core
//!   may keep books inside it (BCL's `Acost` depreciation, DCL's ETD
//!   allocation);
//! * [`on_fill`](EvictionPolicy::on_fill) after the new block is linked;
//! * [`on_remove`](EvictionPolicy::on_remove) for every other departure
//!   (coherence invalidation, inclusion, explicit removal), naming the way
//!   the block leaves, or `None` when it was not resident.
//!
//! A core never sees the recency order; it asks about it. `victim` receives
//! the driver as [`Residents`] and may put three questions to it: the entry
//! at the LRU end, the entry in a given way, and — Figure 1's scan — the
//! entry closest to the LRU end, the LRU entry excepted, that costs less
//! than a bound. Each driver answers from the order it already keeps: the
//! `Cache` from the set's row, its entries in recency order, `Region` from
//! one recency list per distinct cost. [`SetView`] answers by walking a slice of
//! [`WayView`]s in MRU → LRU order (the paper's `c(1)` … `c(s)`); it is the
//! reference the drivers are tested against.

use crate::addr::{BlockAddr, Way};
use crate::cost::Cost;

/// One resident block, as a driver describes it to a core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WayView {
    /// Which physical way holds the block.
    pub way: Way,
    /// The resident block.
    pub block: BlockAddr,
    /// The block's miss cost, loaded at fill time.
    pub cost: Cost,
}

/// What a core may ask its driver about the region's residents while it
/// selects a victim. The region is full, hence non-empty, whenever a driver
/// hands this to [`EvictionPolicy::victim`].
pub trait Residents {
    /// The entry at the LRU end.
    fn lru(&self) -> WayView;

    /// The entry resident in `way`, if that way holds one.
    fn at_way(&self, way: Way) -> Option<WayView>;

    /// Figure 1's scan: walking from the second-LRU position toward the MRU,
    /// the first entry whose cost is strictly below `bound`. `None` means no
    /// reservation is possible and the LRU entry itself must go.
    fn lru_most_cheaper_than(&self, bound: u64) -> Option<WayView>;
}

/// The reference answers: a region's valid blockframes as a slice in
/// MRU → LRU order, walked for every question.
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
}

impl Residents for SetView<'_> {
    fn lru(&self) -> WayView {
        *self.entries.last().expect("lru() on empty set")
    }

    fn at_way(&self, way: Way) -> Option<WayView> {
        self.entries.iter().find(|e| e.way == way).copied()
    }

    fn lru_most_cheaper_than(&self, bound: u64) -> Option<WayView> {
        self.entries
            .iter()
            .rev()
            .skip(1)
            .find(|e| e.cost.0 < bound)
            .copied()
    }
}

/// A replacement policy for a single region (one cache set, one shard),
/// driven as the [module docs](self) state.
///
/// All methods except [`name`](Self::name) and [`victim`](Self::victim)
/// have no-op defaults, so a simple core (plain LRU) implements only those.
/// Delivering [`on_miss`](Self::on_miss) more than once for the same missing
/// access must be harmless. A key-value region delivers it once when a get
/// misses and the insert that fills it follows with no event between; when
/// other events come between (a look-aside fill racing other keys), the
/// insert delivers it again.
pub trait EvictionPolicy {
    /// A short human-readable name ("LRU", "GD", "BCL", …).
    fn name(&self) -> &'static str;

    /// Selects the way to evict from the full region.
    fn victim(&mut self, residents: &dyn Residents) -> Way;

    /// An access hit `block` on `way` (cost as loaded at fill time);
    /// `is_lru` is true when the block is currently at the LRU end.
    fn on_hit(&mut self, block: BlockAddr, way: Way, cost: Cost, is_lru: bool) {
        let _ = (block, way, cost, is_lru);
    }

    /// An access to `block` missed; `lru` is the current LRU block and its
    /// cost, if the region is non-empty.
    fn on_miss(&mut self, block: BlockAddr, lru: Option<(BlockAddr, Cost)>) {
        let _ = (block, lru);
    }

    /// `block` was filled into `way` with miss cost `cost`.
    fn on_fill(&mut self, block: BlockAddr, way: Way, cost: Cost) {
        let _ = (block, way, cost);
    }

    /// `block` left the region without being chosen by
    /// [`victim`](Self::victim); `way` is the way it occupied, `None` when
    /// it was not resident (an invalidation that found nothing).
    fn on_remove(&mut self, block: BlockAddr, way: Option<Way>) {
        let _ = (block, way);
    }
}

/// A core chosen at run time: what `csr::Policy::cores` builds, one per set
/// of a simulated L2 or per shard of `csr_cache`.
pub type BoxedPolicy = Box<dyn EvictionPolicy + Send>;

impl<P: EvictionPolicy + ?Sized> EvictionPolicy for Box<P> {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn victim(&mut self, residents: &dyn Residents) -> Way {
        (**self).victim(residents)
    }
    fn on_hit(&mut self, block: BlockAddr, way: Way, cost: Cost, is_lru: bool) {
        (**self).on_hit(block, way, cost, is_lru);
    }
    fn on_miss(&mut self, block: BlockAddr, lru: Option<(BlockAddr, Cost)>) {
        (**self).on_miss(block, lru);
    }
    fn on_fill(&mut self, block: BlockAddr, way: Way, cost: Cost) {
        (**self).on_fill(block, way, cost);
    }
    fn on_remove(&mut self, block: BlockAddr, way: Option<Way>) {
        (**self).on_remove(block, way);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// MRU → LRU, one entry per `(block, cost)`, in ways `0..`.
    fn entries(costs: &[(u64, u64)]) -> Vec<WayView> {
        costs
            .iter()
            .enumerate()
            .map(|(i, &(b, c))| WayView {
                way: Way(i),
                block: BlockAddr(b),
                cost: Cost(c),
            })
            .collect()
    }

    #[test]
    fn set_view_answers_the_three_questions() {
        // MRU → LRU: costs 1, 4, 1, 9 in ways 0..4.
        let e = entries(&[(10, 1), (11, 4), (12, 1), (13, 9)]);
        let view = SetView::new(&e);
        let r: &dyn Residents = &view;
        assert_eq!(r.lru().block, BlockAddr(13));
        assert_eq!(r.at_way(Way(1)).map(|e| e.block), Some(BlockAddr(11)));
        assert_eq!(r.at_way(Way(4)), None);
        // Nearest the LRU end first; the bound is strict.
        assert_eq!(r.lru_most_cheaper_than(9).map(|e| e.way), Some(Way(2)));
        assert_eq!(r.lru_most_cheaper_than(1), None);
        // The LRU entry is never its own stand-in.
        let only_lru_is_cheap = entries(&[(1, 5), (2, 5), (3, 0)]);
        let view = SetView::new(&only_lru_is_cheap);
        assert_eq!(view.lru_most_cheaper_than(5), None);
    }

    #[test]
    fn boxed_core_dispatches() {
        struct AlwaysLru;
        impl EvictionPolicy for AlwaysLru {
            fn name(&self) -> &'static str {
                "test"
            }
            fn victim(&mut self, residents: &dyn Residents) -> Way {
                residents.lru().way
            }
        }
        let e = entries(&[(1, 5), (2, 9)]);
        let mut boxed: Box<dyn EvictionPolicy> = Box::new(AlwaysLru);
        assert_eq!(boxed.name(), "test");
        assert_eq!(boxed.victim(&SetView::new(&e)), Way(1));
        // Default notifications are no-ops and must not panic.
        boxed.on_hit(BlockAddr(1), Way(0), Cost(5), false);
        boxed.on_miss(BlockAddr(7), Some((BlockAddr(2), Cost(9))));
        boxed.on_fill(BlockAddr(7), Way(1), Cost(3));
        boxed.on_remove(BlockAddr(7), Some(Way(1)));
    }
}
