//! The Basic Cost-sensitive LRU algorithm (BCL, Section 2.3 / Figure 1).
//!
//! BCL reserves the LRU block whenever a cheaper block sits higher in the
//! stack: the victim is the first block, scanning from the second-LRU
//! position toward the MRU, whose miss cost is below the reserved block's
//! depreciated cost `Acost`. Each such victimization immediately depreciates
//! `Acost` by **twice** the victim's cost — a pessimistic hedge that assumes
//! every displaced block will be re-referenced ("using twice the cost ...
//! accelerates the depreciation of the high cost", Section 2.3). When
//! `Acost` reaches zero the reserved block becomes the prime replacement
//! candidate.
//!
//! The logic lives in [`BclCore`], one region's [`EvictionPolicy`]; the
//! simulator's cache drives one per set.

use crate::eviction::{EvictionPolicy, Residents};
use crate::reserve::AcostTracker;
use cache_sim::{BlockAddr, Cost, Way};
use csr_obs::{NopObserver, Observer};

/// BCL for a single replacement region.
///
/// The `factor` applied when depreciating `Acost` defaults to the paper's 2
/// and can be changed with [`BclCore::with_depreciation_factor`] (an
/// ablation the paper motivates in Section 2.3).
///
/// # Examples
///
/// ```
/// use cache_sim::{Cache, Geometry, AccessType, Cost, BlockAddr};
/// use csr::BclCore;
///
/// let mut cache = Cache::new(Geometry::new(16 * 1024, 64, 4), BclCore::new);
/// cache.access(BlockAddr(1), AccessType::Read, Cost(8));
/// ```
#[derive(Debug, Clone)]
pub struct BclCore<O: Observer = NopObserver> {
    tracker: AcostTracker,
    factor: u64,
    obs: O,
}

impl BclCore {
    /// Creates a core with the paper's depreciation factor of 2.
    #[must_use]
    pub fn new() -> Self {
        BclCore::with_depreciation_factor(2)
    }

    /// Creates a core with a custom depreciation factor (how many times the
    /// victim's cost is subtracted from `Acost` per reservation).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is zero (the reservation would never terminate for
    /// nonzero-cost victims).
    #[must_use]
    pub fn with_depreciation_factor(factor: u64) -> Self {
        assert!(factor > 0, "depreciation factor must be positive");
        BclCore {
            tracker: AcostTracker::default(),
            factor,
            obs: NopObserver,
        }
    }
}

impl<O: Observer> BclCore<O> {
    /// The configured depreciation factor.
    #[must_use]
    pub fn depreciation_factor(&self) -> u64 {
        self.factor
    }

    /// The remaining depreciated cost of the tracked LRU block.
    #[must_use]
    pub fn acost(&self) -> u64 {
        self.tracker.acost()
    }

    /// Attaches a decision observer, replacing any existing one.
    #[must_use]
    pub fn with_observer<O2: Observer>(self, obs: O2) -> BclCore<O2> {
        BclCore {
            tracker: self.tracker,
            factor: self.factor,
            obs,
        }
    }
}

impl Default for BclCore {
    fn default() -> Self {
        BclCore::new()
    }
}

impl<O: Observer> EvictionPolicy for BclCore<O> {
    fn name(&self) -> &'static str {
        "BCL"
    }

    fn victim(&mut self, residents: &dyn Residents) -> Way {
        let lru = residents.lru();
        self.tracker.sync_to(Some((lru.block, lru.cost)));
        // Figure 1: for i = s-1 downto 1, first block with c[i] < Acost.
        if let Some(chosen) = residents.lru_most_cheaper_than(self.tracker.acost()) {
            let amount = chosen.cost.0.saturating_mul(self.factor);
            self.tracker.depreciate(Cost(amount));
            self.obs.on_reserve(lru.block, chosen.block, chosen.cost);
            self.obs.on_depreciate(amount, self.tracker.acost());
            self.obs.on_evict(chosen.block, chosen.cost);
            return chosen.way;
        }
        // No cheaper block: the LRU block goes (and leaves the tracker).
        self.tracker.note_departure(lru.block);
        self.obs.on_evict(lru.block, lru.cost);
        lru.way
    }

    fn on_hit(&mut self, block: BlockAddr, _way: Way, cost: Cost, _is_lru: bool) {
        // A hit on the tracked LRU block promotes it out of the LRU
        // position; reset so the next sync reloads a fresh Acost.
        self.tracker.note_departure(block);
        self.obs.on_hit(block, cost);
    }

    fn on_miss(&mut self, block: BlockAddr, _lru: Option<(BlockAddr, Cost)>) {
        self.obs.on_miss(block);
    }

    fn on_remove(&mut self, block: BlockAddr, _way: Option<Way>) {
        self.tracker.note_departure(block);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_sim::{AccessType, Cache, Geometry, SetIndex};

    fn cache(assoc: usize) -> Cache<BclCore> {
        Cache::new(Geometry::new(64 * assoc as u64, 64, assoc), BclCore::new)
    }

    #[test]
    fn reserves_high_cost_lru() {
        let mut c = cache(2);
        c.access(BlockAddr(0), AccessType::Read, Cost(8)); // becomes LRU
        c.access(BlockAddr(1), AccessType::Read, Cost(1)); // MRU, cheap
        c.access(BlockAddr(2), AccessType::Read, Cost(1)); // 1 < Acost(8): evict 1
        assert!(
            c.contains(BlockAddr(0)),
            "high-cost LRU block must be reserved"
        );
        assert!(!c.contains(BlockAddr(1)));
        assert_eq!(c.stats().non_lru_evictions, 1);
    }

    #[test]
    fn acost_depreciates_by_twice_victim_cost() {
        let mut c = cache(2);
        c.access(BlockAddr(0), AccessType::Read, Cost(8));
        c.access(BlockAddr(1), AccessType::Read, Cost(1));
        c.access(BlockAddr(2), AccessType::Read, Cost(1)); // Acost: 8 - 2 = 6
        assert_eq!(c.core(SetIndex(0)).acost(), 6);
        c.access(BlockAddr(3), AccessType::Read, Cost(1)); // Acost: 6 - 2 = 4
        c.access(BlockAddr(4), AccessType::Read, Cost(1)); // 4 - 2 = 2
        c.access(BlockAddr(5), AccessType::Read, Cost(1)); // 2 - 2 = 0
        assert!(
            c.contains(BlockAddr(0)),
            "still reserved until Acost hits 0"
        );
        // Acost exhausted: next replacement takes the LRU block itself.
        c.access(BlockAddr(6), AccessType::Read, Cost(1));
        assert!(!c.contains(BlockAddr(0)));
    }

    #[test]
    fn equal_costs_fall_back_to_lru() {
        let mut c = cache(2);
        c.access(BlockAddr(0), AccessType::Read, Cost(4));
        c.access(BlockAddr(1), AccessType::Read, Cost(4));
        c.access(BlockAddr(2), AccessType::Read, Cost(4));
        assert!(
            !c.contains(BlockAddr(0)),
            "no strictly cheaper block: plain LRU"
        );
        assert_eq!(c.stats().non_lru_evictions, 0);
    }

    #[test]
    fn multi_reservation_scans_toward_mru() {
        // 4-way set: LRU=A(8), then B(8), then C(1), MRU=D(9).
        let mut c = cache(4);
        c.access(BlockAddr(0), AccessType::Read, Cost(8)); // A
        c.access(BlockAddr(4), AccessType::Read, Cost(8)); // B
        c.access(BlockAddr(8), AccessType::Read, Cost(1)); // C
        c.access(BlockAddr(12), AccessType::Read, Cost(9)); // D
                                                            // Scan from second-LRU (B, cost 8 >= Acost 8) to C (1 < 8): C goes,
                                                            // reserving both A and (implicitly) B.
        c.access(BlockAddr(16), AccessType::Read, Cost(1));
        assert!(c.contains(BlockAddr(0)));
        assert!(c.contains(BlockAddr(4)));
        assert!(!c.contains(BlockAddr(8)));
    }

    #[test]
    fn lru_hit_reloads_acost_next_time_around() {
        let mut c = cache(2);
        c.access(BlockAddr(0), AccessType::Read, Cost(8));
        c.access(BlockAddr(1), AccessType::Read, Cost(1));
        c.access(BlockAddr(2), AccessType::Read, Cost(1)); // Acost 8 -> 6
        c.access(BlockAddr(0), AccessType::Read, Cost(8)); // hit the reserved block
                                                           // Block 2 is now LRU with cost 1; block 0 MRU. Evicting prefers 2.
        c.access(BlockAddr(3), AccessType::Read, Cost(1));
        assert!(c.contains(BlockAddr(0)));
        assert!(!c.contains(BlockAddr(2)));
    }

    #[test]
    fn zero_cost_victims_never_deplete_reservation() {
        // Infinite cost ratio: low = 0, high = 1 (Section 3.1).
        let mut c = cache(2);
        c.access(BlockAddr(0), AccessType::Read, Cost(1)); // high
        c.access(BlockAddr(1), AccessType::Read, Cost(0)); // low
        for b in 2..50u64 {
            c.access(BlockAddr(b), AccessType::Read, Cost(0));
        }
        assert!(
            c.contains(BlockAddr(0)),
            "zero-cost depreciation never releases"
        );
    }

    #[test]
    fn invalidation_of_reserved_block_resets_tracker() {
        let mut c = cache(2);
        c.access(BlockAddr(0), AccessType::Read, Cost(8));
        c.access(BlockAddr(1), AccessType::Read, Cost(1));
        c.access(BlockAddr(2), AccessType::Read, Cost(1)); // reserve 0, Acost 6
        c.invalidate(BlockAddr(0));
        assert_eq!(c.core(SetIndex(0)).acost(), 0);
        // Refill 0 (uses the invalid frame; set is [0(MRU), 2]). Block 2 is
        // now LRU with cost 1: a fresh fill must evict 2, not the refilled 0.
        c.access(BlockAddr(0), AccessType::Read, Cost(8));
        c.access(BlockAddr(3), AccessType::Read, Cost(1));
        assert!(c.contains(BlockAddr(0)));
        assert!(!c.contains(BlockAddr(2)));
    }

    #[test]
    fn reserved_block_returning_to_lru_reloads_acost() {
        // Regression for the lazy-sync hazard: the tracked LRU block is hit
        // (promoted) and later demoted back to LRU purely by hits, with no
        // replacement in between. Its Acost must reload to the full cost.
        let mut c = cache(2);
        c.access(BlockAddr(0), AccessType::Read, Cost(8)); // A
        c.access(BlockAddr(1), AccessType::Read, Cost(1)); // B
        c.access(BlockAddr(2), AccessType::Read, Cost(1)); // reserve A, Acost 8->6
        assert_eq!(c.core(SetIndex(0)).acost(), 6);
        c.access(BlockAddr(0), AccessType::Read, Cost(8)); // hit A -> MRU
        c.access(BlockAddr(2), AccessType::Read, Cost(1)); // hit 2 -> A back to LRU
                                                           // Replacement: Acost must be the full 8 again, then 8-2=6 after
                                                           // reserving A once more.
        c.access(BlockAddr(3), AccessType::Read, Cost(1));
        assert!(c.contains(BlockAddr(0)));
        assert_eq!(c.core(SetIndex(0)).acost(), 6);
    }
}
