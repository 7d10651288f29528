//! A two-level cache hierarchy: a small direct-mapped L1 filter in front of
//! the L2 under study, matching the paper's trace-driven methodology
//! (Section 3.1: 4 KB direct-mapped L1, 16 KB 4-way L2, 64-byte blocks).
//!
//! Inclusion is enforced: evicting or invalidating a block from the L2
//! back-invalidates it from the L1, so the L2 always supersets the L1.

use crate::addr::{BlockAddr, Geometry};
use crate::cache::{AccessType, Cache};
use crate::cost::Cost;
use crate::lru::Lru;
use crate::policy::EvictionPolicy;

/// The result of one hierarchy access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierarchyOutcome {
    /// Whether the access hit in the L1.
    pub l1_hit: bool,
    /// Whether the access hit in the L2 (`None` when the L1 hit and the L2
    /// was never consulted).
    pub l2_hit: Option<bool>,
    /// Cost charged (0 unless the access missed both levels).
    pub cost_charged: Cost,
}

/// A two-level hierarchy with an LRU L1 filter and an L2 driving one core
/// of the policy under study per set.
///
/// # Examples
///
/// ```
/// use cache_sim::{TwoLevel, Geometry, Lru, AccessType, Cost, BlockAddr};
///
/// let mut h = TwoLevel::new(
///     Geometry::direct_mapped(4 * 1024, 64),
///     Geometry::new(16 * 1024, 64, 4),
///     Lru::new,
/// );
/// let out = h.access(BlockAddr(3), AccessType::Read, Cost(8));
/// assert!(!out.l1_hit);
/// assert_eq!(out.l2_hit, Some(false));
/// assert_eq!(out.cost_charged, Cost(8));
/// // Now resident in both levels: an L1 hit never consults the L2.
/// let out = h.access(BlockAddr(3), AccessType::Read, Cost(8));
/// assert!(out.l1_hit);
/// assert_eq!(out.l2_hit, None);
/// ```
#[derive(Debug)]
pub struct TwoLevel<C> {
    l1: Cache<Lru>,
    l2: Cache<C>,
    /// Dirty L1 copies dropped by inclusion back-invalidations. The L2's
    /// copy of such a block may be stale-clean at its own eviction, so
    /// `l2.stats().dirty_evictions` undercounts writebacks by up to this
    /// amount.
    dirty_backinvalidations: u64,
}

impl<C: EvictionPolicy> TwoLevel<C> {
    /// Creates an empty hierarchy whose L2 sets each get a core built by
    /// `l2_core`.
    ///
    /// # Panics
    ///
    /// Panics if the two levels have different block sizes.
    #[must_use]
    pub fn new(l1_geom: Geometry, l2_geom: Geometry, l2_core: impl FnMut() -> C) -> Self {
        assert_eq!(
            l1_geom.block_bytes(),
            l2_geom.block_bytes(),
            "L1 and L2 must share a block size"
        );
        TwoLevel {
            l1: Cache::new(l1_geom, Lru::new),
            l2: Cache::new(l2_geom, l2_core),
            dirty_backinvalidations: 0,
        }
    }

    /// The L1 filter cache.
    #[must_use]
    pub fn l1(&self) -> &Cache<Lru> {
        &self.l1
    }

    /// The L2 cache under study.
    #[must_use]
    pub fn l2(&self) -> &Cache<C> {
        &self.l2
    }

    /// Performs one access. `l2_miss_cost` is charged only if the reference
    /// misses both levels.
    pub fn access(
        &mut self,
        block: BlockAddr,
        op: AccessType,
        l2_miss_cost: Cost,
    ) -> HierarchyOutcome {
        // L1 lookup: an L1 hit never reaches the L2 (the L2's recency and
        // policy state see only the L1 miss stream, as in the paper).
        let l1_out = self.l1.access(block, op, Cost::ZERO);
        if l1_out.hit {
            return HierarchyOutcome {
                l1_hit: true,
                l2_hit: None,
                cost_charged: Cost::ZERO,
            };
        }

        // The L1 fill may have displaced a dirty block: write it back into
        // the (inclusive) L2 without disturbing the L2 recency stack.
        if let Some(ev) = l1_out.evicted {
            if ev.dirty {
                self.l2.writeback(ev.block);
            }
        }

        let l2_out = self.l2.access(block, op, l2_miss_cost);
        // Inclusion: an L2 eviction back-invalidates the L1. A dirty L1
        // copy dropped here held data newer than the L2's (its writeback
        // would go to memory in a real system); count it so writeback
        // accounting stays auditable.
        if let Some(ev) = l2_out.evicted {
            if let Some(l1_ev) = self.l1.invalidate(ev.block) {
                if l1_ev.dirty {
                    self.dirty_backinvalidations += 1;
                }
            }
        }
        HierarchyOutcome {
            l1_hit: false,
            l2_hit: Some(l2_out.hit),
            cost_charged: l2_out.cost_charged,
        }
    }

    /// Dirty L1 copies dropped by inclusion back-invalidations so far.
    #[must_use]
    pub fn dirty_backinvalidations(&self) -> u64 {
        self.dirty_backinvalidations
    }

    /// Delivers a coherence invalidation to both levels (and, through the
    /// cores' `on_remove`, to shadow state such as DCL's ETD).
    pub fn invalidate(&mut self, block: BlockAddr) {
        self.l1.invalidate(block);
        self.l2.invalidate(block);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_hierarchy() -> TwoLevel<Lru> {
        // L1: 2 sets direct-mapped; L2: 2 sets, 2-way.
        TwoLevel::new(
            Geometry::direct_mapped(128, 64),
            Geometry::new(256, 64, 2),
            Lru::new,
        )
    }

    #[test]
    fn l1_filters_l2_accesses() {
        let mut h = small_hierarchy();
        h.access(BlockAddr(0), AccessType::Read, Cost(1));
        h.access(BlockAddr(0), AccessType::Read, Cost(1));
        h.access(BlockAddr(0), AccessType::Read, Cost(1));
        assert_eq!(h.l1().stats().accesses, 3);
        assert_eq!(h.l2().stats().accesses, 1, "L1 hits must not reach the L2");
    }

    #[test]
    fn cost_charged_only_on_double_miss() {
        let mut h = small_hierarchy();
        let out = h.access(BlockAddr(0), AccessType::Read, Cost(7));
        assert_eq!(out.cost_charged, Cost(7));
        // Conflict-evict block 0 from the tiny L1 (block 2 maps to L1 set 0),
        // but it remains in the 2-way L2 set 0.
        h.access(BlockAddr(2), AccessType::Read, Cost(7));
        let out = h.access(BlockAddr(0), AccessType::Read, Cost(7));
        assert!(!out.l1_hit);
        assert_eq!(out.l2_hit, Some(true));
        assert_eq!(out.cost_charged, Cost::ZERO);
    }

    #[test]
    fn inclusion_back_invalidates_l1() {
        let mut h = small_hierarchy();
        // Fill L2 set 0 beyond capacity: blocks 0, 2, 4 all map to L2 set 0.
        h.access(BlockAddr(0), AccessType::Read, Cost(1));
        h.access(BlockAddr(2), AccessType::Read, Cost(1));
        h.access(BlockAddr(4), AccessType::Read, Cost(1)); // evicts 0 from L2
        assert!(!h.l2().contains(BlockAddr(0)));
        assert!(
            !h.l1().contains(BlockAddr(0)),
            "inclusion must back-invalidate L1"
        );
    }

    #[test]
    fn coherence_invalidation_hits_both_levels() {
        let mut h = small_hierarchy();
        h.access(BlockAddr(0), AccessType::Write, Cost(1));
        assert!(h.l1().contains(BlockAddr(0)));
        assert!(h.l2().contains(BlockAddr(0)));
        h.invalidate(BlockAddr(0));
        assert!(!h.l1().contains(BlockAddr(0)));
        assert!(!h.l2().contains(BlockAddr(0)));
    }

    #[test]
    fn dirty_l1_victim_marks_l2_dirty() {
        let mut h = small_hierarchy();
        h.access(BlockAddr(0), AccessType::Write, Cost(1)); // dirty in L1
        h.access(BlockAddr(2), AccessType::Read, Cost(1)); // L1 conflict evicts 0
                                                           // L2 copy of 0 must now be dirty: evicting it from L2 reports dirty.
        h.access(BlockAddr(4), AccessType::Read, Cost(1)); // L2 set 0 full -> evicts 0 (LRU)
        assert_eq!(h.l2().stats().dirty_evictions, 1);
    }
}
