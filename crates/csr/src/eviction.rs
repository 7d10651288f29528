//! The single-region policy contract and the driver that replicates it per
//! set.
//!
//! The paper's algorithms are one piece of logic — a recency stack, its
//! costs, and (for DCL/ACL) a shadow directory — that only ever concerns
//! **one replacement region**. [`EvictionPolicy`] is that contract; every
//! core in this crate implements it and nothing else. Exactly two drivers
//! speak it, one per layer:
//!
//! * [`PerSet<C>`] (here) is the simulator's driver: it holds one core per
//!   cache set and implements [`cache_sim::ReplacementPolicy`] — whose
//!   notifications have the same shape — by static dispatch to `cores[set]`.
//!   `GreedyDual`, `Bcl`, `Dcl`, `Acl`, `S3Fifo`, `Slru`, `Lfuda`, `Gdsf`
//!   and `Camp` are type aliases of it.
//! * `csr_cache`'s `Region<T>` is the key-value driver: a slab on an
//!   intrusive recency list that owns one boxed core, where a "set" is an
//!   arbitrarily large shard and no [`SetIndex`] exists.
//!
//! Both enforce the same ordering — `on_hit` before promotion, `on_miss`
//! with the current LRU pair before victim selection, `victim` once per
//! replacement, `on_fill` after the block is linked, `on_remove(block, way)`
//! for departures `victim` did not choose, naming the way the block leaves
//! (`None` if it was not resident) — so a change to the contract is a change
//! to these two places and to no policy wrapper.
//!
//! Three rules hold for every core:
//!
//! * **A core never sees the recency order, it asks about it.** `victim`
//!   receives the driver as [`Residents`] and may put three questions to it:
//!   which entry is at the LRU end, which entry sits in a given way, and —
//!   Figure 1's scan — which entry closest to the LRU end, the LRU entry
//!   excepted, costs less than a bound. Each driver answers from the order
//!   it already keeps: [`SetView`] from its slice of at most `assoc` entries
//!   (the reference semantics), `Region` from one recency list per distinct
//!   cost and a clock stamp per entry — O(1), O(1) and O(distinct costs
//!   below the bound), whatever the region's size. A core that ranks by anything
//!   else ([`RankCore`](crate::RankCore)'s priorities, the queues of S3-FIFO,
//!   SLRU and CAMP) keeps that order itself, per way. Hits and misses carry
//!   the O(1) facts a policy consumes (block identity, way, cost, whether the
//!   block is at the LRU end; the LRU pair on a miss).
//! * **Cores keep no books.** A core reports each decision to its
//!   [`Observer`] and counts nothing itself. Counts come from the driver
//!   (`cache_sim::CacheStats::{hits, misses, evictions, non_lru_evictions}`,
//!   `csr_cache`'s stats) or from an attached `csr_obs::CountingObserver`
//!   (`EventCounts`); the only per-core counters left describe a structure
//!   rather than a decision ([`EtdStats`](crate::EtdStats)).
//! * **A region that never evicts does not grow its core.** What a core
//!   keeps per block lives in the block's way, in storage sized when the core
//!   is built: the queue cores thread their FIFO lists through the ways and
//!   unlink an entry the moment it leaves, so they allocate nothing
//!   afterwards. The one structure that supersedes entries instead of
//!   unlinking them is [`RankCore`](crate::RankCore)'s lazy heap, which
//!   compacts by the rule [`overgrown`] states. (S3-FIFO's ghost and the ETD
//!   remember blocks that are *not* resident; each is bounded by a capacity
//!   fixed at construction.)

use crate::etd::{EtdSet, EtdStats};
use cache_sim::{
    BlockAddr, Cost, Geometry, InvalidateKind, ReplacementPolicy, SetIndex, SetView, Way, WayView,
};
use csr_obs::{NopObserver, Observer};

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

/// The reference answers: a set's valid blockframes in MRU → LRU order.
impl Residents for SetView<'_> {
    fn lru(&self) -> WayView {
        *SetView::lru(self)
    }

    fn at_way(&self, way: Way) -> Option<WayView> {
        self.iter().find(|e| e.way == way).copied()
    }

    fn lru_most_cheaper_than(&self, bound: u64) -> Option<WayView> {
        self.iter()
            .rev()
            .skip(1)
            .find(|e| e.cost.0 < bound)
            .copied()
    }
}

/// A replacement policy for a single region (one cache set, one shard).
///
/// # Contract
///
/// * [`victim`](Self::victim) is called exactly once per replacement, only
///   on a full region, with the driver answering for the region's valid
///   blocks; the returned way will be evicted.
/// * [`on_hit`](Self::on_hit) is delivered *before* the block is promoted
///   to the MRU position; `is_lru` reports whether it currently sits at the
///   LRU end.
/// * [`on_miss`](Self::on_miss) is delivered for every access that misses,
///   before victim selection or fill, together with the identity and cost
///   of the current LRU block (if any). Delivering it more than once for
///   the same missing access (as a get-then-insert key-value flow does) is
///   harmless for all cores in this crate: the first delivery consumes any
///   matching ETD entry, so repeats are no-ops.
/// * [`on_remove`](Self::on_remove) must be called when a block leaves the
///   region for any reason other than eviction chosen by
///   [`victim`](Self::victim) (coherence invalidation, explicit removal),
///   with the way it leaves — so a core that threads its order through the
///   ways can unlink it — or `None` for a block that was not resident.
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

/// The set-indexed driver: one [`EvictionPolicy`] core per cache set,
/// implementing the simulator's [`ReplacementPolicy`] by static dispatch to
/// the addressed set's core.
///
/// Every core-backed policy of this crate is an alias of this type
/// (`Dcl<O>` is `PerSet<DclCore<O>>`, …); the aliases add only their
/// constructors and observer rebinding. Per-set state is inspected through
/// [`core`](Self::core).
#[derive(Debug, Clone)]
pub struct PerSet<C> {
    cores: Vec<C>,
}

impl<C> PerSet<C> {
    /// One core per set of `geom`, each built by `core`.
    pub(crate) fn from_fn(geom: &Geometry, core: impl FnMut() -> C) -> Self {
        PerSet {
            cores: std::iter::repeat_with(core).take(geom.num_sets()).collect(),
        }
    }

    /// The core driving `set` (per-set inspection: `acost()`, `etd()`,
    /// `counter()`, …).
    #[must_use]
    pub fn core(&self, set: SetIndex) -> &C {
        &self.cores[set.0]
    }

    /// Rebuilds every set's core through `f` (observer rebinding, parameter
    /// overrides).
    pub(crate) fn map_cores<C2>(self, f: impl FnMut(C) -> C2) -> PerSet<C2> {
        PerSet {
            cores: self.cores.into_iter().map(f).collect(),
        }
    }

    /// Sums the statistics of the per-set directories selected by `etd`.
    pub(crate) fn fold_etd_stats(&self, etd: impl Fn(&C) -> &EtdSet) -> EtdStats {
        let mut total = EtdStats::default();
        for c in &self.cores {
            total.merge(etd(c).stats());
        }
        total
    }
}

impl<C: EvictionPolicy> ReplacementPolicy for PerSet<C> {
    fn name(&self) -> &'static str {
        self.cores[0].name()
    }

    fn victim(&mut self, set: SetIndex, view: &SetView<'_>) -> Way {
        self.cores[set.0].victim(view)
    }

    fn on_hit(&mut self, set: SetIndex, block: BlockAddr, way: Way, cost: Cost, is_lru: bool) {
        self.cores[set.0].on_hit(block, way, cost, is_lru);
    }

    fn on_miss(&mut self, set: SetIndex, block: BlockAddr, lru: Option<(BlockAddr, Cost)>) {
        self.cores[set.0].on_miss(block, lru);
    }

    fn on_fill(&mut self, set: SetIndex, block: BlockAddr, way: Way, cost: Cost) {
        self.cores[set.0].on_fill(block, way, cost);
    }

    fn on_invalidate(
        &mut self,
        set: SetIndex,
        block: BlockAddr,
        resident: Option<(Way, usize)>,
        _kind: InvalidateKind,
    ) {
        self.cores[set.0].on_remove(block, resident.map(|(way, _)| way));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entries(costs: &[(u64, u64)]) -> Vec<WayView> {
        costs
            .iter()
            .enumerate()
            .map(|(i, &(b, c))| WayView {
                way: Way(i),
                block: BlockAddr(b),
                cost: Cost(c),
                dirty: false,
            })
            .collect()
    }

    #[test]
    fn lru_core_picks_the_lru_way() {
        let e = entries(&[(1, 5), (2, 9), (3, 1)]);
        let mut core = LruCore::new();
        assert_eq!(core.victim(&SetView::new(&e)), Way(2));
        assert_eq!(core.name(), "LRU");
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
        let e = entries(&[(1, 5), (2, 9)]);
        let mut boxed: Box<dyn EvictionPolicy> = Box::new(LruCore::new());
        assert_eq!(boxed.victim(&SetView::new(&e)), Way(1));
        // Default notifications are no-ops and must not panic.
        boxed.on_hit(BlockAddr(1), Way(0), Cost(5), false);
        boxed.on_miss(BlockAddr(7), Some((BlockAddr(2), Cost(9))));
        boxed.on_fill(BlockAddr(7), Way(1), Cost(3));
        boxed.on_remove(BlockAddr(7), Some(Way(1)));
    }
}
