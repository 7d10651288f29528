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
//! replacement over an MRU → LRU view, `on_fill` after the block is linked,
//! `on_remove` for departures `victim` did not choose — so a change to the
//! contract is a change to these two places and to no policy wrapper.
//!
//! Two rules hold for every core:
//!
//! * **The view appears only in `victim`.** Hits and misses carry the O(1)
//!   facts a policy consumes (block identity, cost, whether the block is at
//!   the LRU end; the LRU pair on a miss), so neither driver materializes
//!   its recency order except to select a victim.
//! * **Cores keep no books.** A core reports each decision to its
//!   [`Observer`] and counts nothing itself. Counts come from the driver
//!   (`cache_sim::CacheStats::{hits, misses, evictions, non_lru_evictions}`,
//!   `csr_cache`'s stats) or from an attached `csr_obs::CountingObserver`
//!   (`EventCounts`); the only per-core counters left describe a structure
//!   rather than a decision ([`EtdStats`](crate::EtdStats)).

use crate::etd::{EtdSet, EtdStats};
use cache_sim::{
    BlockAddr, Cost, Geometry, InvalidateKind, ReplacementPolicy, SetIndex, SetView, Way,
};
use csr_obs::{NopObserver, Observer};

/// A replacement policy for a single region (one cache set, one shard).
///
/// # Contract
///
/// * [`victim`](Self::victim) is called exactly once per replacement, only
///   on a full region, with the region's valid blocks in MRU → LRU order;
///   the returned way will be evicted.
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
///   [`victim`](Self::victim) (coherence invalidation, explicit removal).
pub trait EvictionPolicy {
    /// A short human-readable name ("LRU", "GD", "BCL", …).
    fn name(&self) -> &'static str;

    /// Selects the way to evict from the full region.
    fn victim(&mut self, view: &SetView<'_>) -> Way;

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
    /// [`victim`](Self::victim).
    fn on_remove(&mut self, block: BlockAddr) {
        let _ = block;
    }
}

impl<P: EvictionPolicy + ?Sized> EvictionPolicy for Box<P> {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn victim(&mut self, view: &SetView<'_>) -> Way {
        (**self).victim(view)
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
    fn on_remove(&mut self, block: BlockAddr) {
        (**self).on_remove(block);
    }
}

/// The shared tail of every rank-based `victim`: reports the eviction of the
/// view entry at `pos` — and, when that is not the LRU entry, the LRU block
/// it spared as a reservation, so non-LRU picks show up in decision traces —
/// and returns the chosen way.
pub(crate) fn report_victim(obs: &impl Observer, view: &SetView<'_>, pos: usize) -> Way {
    let chosen = view.at(pos);
    obs.on_evict(chosen.block, chosen.cost);
    if pos + 1 != view.len() {
        obs.on_reserve(view.lru().block, chosen.block, chosen.cost);
    }
    chosen.way
}

/// Where the queue cores' choice sits in the view: the position of the `way`
/// `block` was filled into, provided that entry still is `block` (a core
/// hot-attached to a warm region, or desynced, may name one the view lacks).
pub(crate) fn position_in(view: &SetView<'_>, way: Way, block: BlockAddr) -> Option<usize> {
    view.position_of(way)
        .filter(|&pos| view.at(pos).block == block)
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

    fn victim(&mut self, view: &SetView<'_>) -> Way {
        let lru = view.lru();
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
        _resident: Option<(Way, usize)>,
        _kind: InvalidateKind,
    ) {
        self.cores[set.0].on_remove(block);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_sim::WayView;

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
    fn boxed_core_dispatches() {
        let e = entries(&[(1, 5), (2, 9)]);
        let mut boxed: Box<dyn EvictionPolicy> = Box::new(LruCore::new());
        assert_eq!(boxed.victim(&SetView::new(&e)), Way(1));
        // Default notifications are no-ops and must not panic.
        boxed.on_hit(BlockAddr(1), Way(0), Cost(5), false);
        boxed.on_miss(BlockAddr(7), Some((BlockAddr(2), Cost(9))));
        boxed.on_fill(BlockAddr(7), Way(1), Cost(3));
        boxed.on_remove(BlockAddr(7));
    }
}
