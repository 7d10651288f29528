//! The Dynamic Cost-sensitive LRU algorithm (DCL, Section 2.4).
//!
//! DCL keeps BCL's victim-selection rule but fixes its pessimistic
//! depreciation: the reserved block's `Acost` is reduced **only when a block
//! victimized in its place is actually re-referenced before the reserved
//! block** — the situation in which the reservation genuinely caused a miss.
//! Displaced blocks are remembered in the per-set Extended Tag Directory
//! ([`EtdSet`]); an access that misses in the cache but hits in the ETD
//! triggers the depreciation and consumes the entry. A hit on the in-cache
//! LRU block invalidates all ETD entries of the set.
//!
//! The logic lives in [`DclCore`], one region's [`EvictionPolicy`]; the
//! simulator's cache drives one per set, each with its own directory.

use crate::etd::{EtdConfig, EtdSet};
use crate::eviction::{EvictionPolicy, Residents};
use crate::reserve::AcostTracker;
use cache_sim::{BlockAddr, Cost, Geometry, Way};
use csr_obs::{NopObserver, Observer};

/// DCL for a single replacement region, owning its shadow directory.
///
/// # Examples
///
/// ```
/// use cache_sim::{Cache, Geometry, AccessType, Cost, BlockAddr};
/// use csr::DclCore;
///
/// let geom = Geometry::new(16 * 1024, 64, 4);
/// let mut cache = Cache::new(geom, || DclCore::for_geometry(&geom));
/// cache.access(BlockAddr(1), AccessType::Read, Cost(8));
/// ```
#[derive(Debug, Clone)]
pub struct DclCore<O: Observer = NopObserver> {
    tracker: AcostTracker,
    etd: EtdSet,
    factor: u64,
    obs: O,
}

impl DclCore {
    /// Creates a core around the given shadow directory with the paper's
    /// depreciation factor of 2.
    #[must_use]
    pub fn new(etd: EtdSet) -> Self {
        DclCore {
            tracker: AcostTracker::default(),
            etd,
            factor: 2,
            obs: NopObserver,
        }
    }

    /// Creates a core for one set of a `geom` cache with the paper's
    /// full-tag, `assoc - 1`-entry directory.
    #[must_use]
    pub fn for_geometry(geom: &Geometry) -> Self {
        DclCore::with_etd_config(geom, EtdConfig::for_assoc(geom.assoc()))
    }

    /// Creates a core for one set of a `geom` cache with an explicit
    /// directory configuration; the set-index bits are stripped from the
    /// tags it compares.
    #[must_use]
    pub fn with_etd_config(geom: &Geometry, cfg: EtdConfig) -> Self {
        DclCore::new(EtdSet::with_stripped_bits(
            cfg,
            geom.num_sets().trailing_zeros(),
        ))
    }
}

impl<O: Observer> DclCore<O> {
    /// Overrides the depreciation factor (the paper's value is 2).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is zero.
    #[must_use]
    pub fn with_depreciation_factor(mut self, factor: u64) -> Self {
        assert!(factor > 0, "depreciation factor must be positive");
        self.factor = factor;
        self
    }

    /// The embedded shadow directory.
    #[must_use]
    pub fn etd(&self) -> &EtdSet {
        &self.etd
    }

    /// The remaining depreciated cost of the tracked LRU block.
    #[must_use]
    pub fn acost(&self) -> u64 {
        self.tracker.acost()
    }

    /// Attaches a decision observer, replacing any existing one.
    #[must_use]
    pub fn with_observer<O2: Observer>(self, obs: O2) -> DclCore<O2> {
        DclCore {
            tracker: self.tracker,
            etd: self.etd,
            factor: self.factor,
            obs,
        }
    }
}

impl<O: Observer> EvictionPolicy for DclCore<O> {
    fn name(&self) -> &'static str {
        "DCL"
    }

    fn victim(&mut self, residents: &dyn Residents) -> Way {
        let lru = residents.lru();
        self.tracker.sync_to(Some((lru.block, lru.cost)));
        if let Some(e) = residents.lru_most_cheaper_than(self.tracker.acost()) {
            // Unlike BCL, no depreciation here: the displaced block is
            // recorded in the ETD and charged only if re-referenced.
            self.etd.insert(e.block, e.cost);
            self.obs.on_reserve(lru.block, e.block, e.cost);
            self.obs.on_evict(e.block, e.cost);
            return e.way;
        }
        // The LRU block itself goes. Any ETD entries for the ended
        // reservation are deliberately kept (hardware would not sweep
        // them); they age out of the s-1-entry directory naturally.
        self.tracker.note_departure(lru.block);
        self.obs.on_evict(lru.block, lru.cost);
        lru.way
    }

    fn on_hit(&mut self, block: BlockAddr, _way: Way, cost: Cost, is_lru: bool) {
        if is_lru {
            // A hit on the in-cache LRU block: the reservation (if any)
            // paid off; all ETD entries are invalidated (Section 2.4).
            self.etd.clear();
        }
        self.tracker.note_departure(block);
        self.obs.on_hit(block, cost);
    }

    fn on_miss(&mut self, block: BlockAddr, lru: Option<(BlockAddr, Cost)>) {
        self.obs.on_miss(block);
        if let Some(cost) = self.etd.probe_and_take(block) {
            // The reservation displaced this block and it came back:
            // depreciate the reserved block's cost, as in BCL.
            self.tracker.sync_to(lru);
            let amount = cost.0.saturating_mul(self.factor);
            self.tracker.depreciate(Cost(amount));
            self.obs.on_etd_hit(block, cost);
            self.obs.on_depreciate(amount, self.tracker.acost());
        }
    }

    fn on_remove(&mut self, block: BlockAddr, _way: Option<Way>) {
        self.etd.invalidate(block);
        self.tracker.note_departure(block);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_sim::{AccessType, Cache, SetIndex};

    fn cache(assoc: usize) -> Cache<DclCore> {
        let geom = Geometry::new(64 * assoc as u64, 64, assoc);
        Cache::new(geom, || DclCore::for_geometry(&geom))
    }

    #[test]
    fn reservation_without_rereference_never_depreciates() {
        // Unlike BCL, victimizing never-again-referenced cheap blocks keeps
        // the reservation alive indefinitely.
        let mut c = cache(2);
        c.access(BlockAddr(0), AccessType::Read, Cost(4)); // high-cost, becomes LRU
        c.access(BlockAddr(1), AccessType::Read, Cost(1));
        for b in 2..40u64 {
            c.access(BlockAddr(b), AccessType::Read, Cost(1));
        }
        assert!(c.contains(BlockAddr(0)), "no ETD hits => no depreciation");
        assert_eq!(c.core(SetIndex(0)).acost(), 4);
        assert_eq!(c.core(SetIndex(0)).etd().stats().hits, 0);
    }

    #[test]
    fn etd_hit_depreciates_reservation() {
        let mut c = cache(2);
        c.access(BlockAddr(0), AccessType::Read, Cost(4));
        c.access(BlockAddr(1), AccessType::Read, Cost(1));
        c.access(BlockAddr(2), AccessType::Read, Cost(1)); // displace 1 -> ETD
        assert_eq!(c.core(SetIndex(0)).acost(), 4);
        // Re-reference the displaced block: ETD hit, Acost 4 - 2*1 = 2.
        c.access(BlockAddr(1), AccessType::Read, Cost(1));
        assert_eq!(c.core(SetIndex(0)).acost(), 2);
        assert_eq!(c.core(SetIndex(0)).etd().stats().hits, 1);
        // Again: 2 was displaced by the fill of 1 (ETD), bring 2 back.
        c.access(BlockAddr(2), AccessType::Read, Cost(1));
        assert_eq!(c.core(SetIndex(0)).acost(), 0);
        // Acost exhausted: the reserved block is the next victim.
        c.access(BlockAddr(3), AccessType::Read, Cost(1));
        assert!(!c.contains(BlockAddr(0)));
    }

    #[test]
    fn displaced_blocks_are_recorded_in_etd() {
        let mut c = cache(2);
        c.access(BlockAddr(0), AccessType::Read, Cost(4));
        c.access(BlockAddr(1), AccessType::Read, Cost(1));
        c.access(BlockAddr(2), AccessType::Read, Cost(1));
        assert_eq!(c.core(SetIndex(0)).etd().blocks(), vec![BlockAddr(1)]);
    }

    #[test]
    fn lru_hit_clears_etd() {
        let mut c = cache(2);
        c.access(BlockAddr(0), AccessType::Read, Cost(4));
        c.access(BlockAddr(1), AccessType::Read, Cost(1));
        c.access(BlockAddr(2), AccessType::Read, Cost(1)); // ETD: {1}
        assert_eq!(c.core(SetIndex(0)).etd().len(), 1);
        c.access(BlockAddr(0), AccessType::Read, Cost(4)); // hit on LRU block
        assert!(c.core(SetIndex(0)).etd().is_empty());
    }

    #[test]
    fn coherence_invalidation_drops_etd_entry() {
        let mut c = cache(2);
        c.access(BlockAddr(0), AccessType::Read, Cost(4));
        c.access(BlockAddr(1), AccessType::Read, Cost(1));
        c.access(BlockAddr(2), AccessType::Read, Cost(1)); // ETD: {1}
        c.invalidate(BlockAddr(1));
        assert!(c.core(SetIndex(0)).etd().is_empty());
        // A later access to 1 must not depreciate the reservation.
        c.access(BlockAddr(1), AccessType::Read, Cost(1));
        assert_eq!(c.core(SetIndex(0)).acost(), 4);
    }

    #[test]
    fn cache_and_etd_tags_stay_mutually_exclusive() {
        let mut c = cache(4);
        // Build up reservations and displacements, then check exclusivity
        // after every access.
        let pattern: Vec<(u64, u64)> = vec![
            (0, 9),
            (4, 1),
            (8, 1),
            (12, 1),
            (16, 1),
            (4, 1),
            (20, 9),
            (8, 1),
            (0, 9),
            (24, 1),
            (4, 1),
        ];
        for (b, cost) in pattern {
            c.access(BlockAddr(b), AccessType::Read, Cost(cost));
            let etd_blocks = c.core(SetIndex(0)).etd().blocks();
            for eb in etd_blocks {
                assert!(
                    !c.contains(eb),
                    "block {eb} is both resident and in the ETD"
                );
            }
        }
    }

    #[test]
    fn uniform_costs_reduce_to_lru() {
        let mut c = cache(4);
        // All costs equal: DCL must evict exactly the LRU block every time.
        for b in [0u64, 4, 8, 12, 16, 20] {
            c.access(BlockAddr(b), AccessType::Read, Cost(3));
        }
        assert!(!c.contains(BlockAddr(0)));
        assert!(!c.contains(BlockAddr(4)));
        assert!(c.contains(BlockAddr(8)));
        assert_eq!(c.stats().non_lru_evictions, 0);
    }
}
