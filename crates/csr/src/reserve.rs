//! Shared reservation bookkeeping for the LRU-based cost-sensitive policies.
//!
//! BCL, DCL and ACL all keep one *depreciated cost* per set — the paper's
//! `Acost` field, "loaded with `c(s)` whenever a block takes the LRU
//! position" (Fig. 1) and reduced as the reservation is charged for misses
//! it caused. [`AcostTracker`] implements that lifecycle: the tracker is
//! synchronized lazily against the current LRU block and reset whenever the
//! tracked block is hit, evicted or invalidated (each of which ends its stay
//! in the LRU position).

use cache_sim::{BlockAddr, Cost};

/// Per-set `Acost` state: which block is being tracked in the LRU position
/// and its remaining (depreciated) cost.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct AcostTracker {
    lru_block: Option<BlockAddr>,
    acost: u64,
}

impl AcostTracker {
    /// Reloads `Acost` from the current LRU block `lru` if the LRU identity
    /// changed since the last synchronization ("upon entering LRU position:
    /// Acost <- c(s)"). No-op while the same block stays in the LRU position,
    /// preserving accumulated depreciation.
    pub(crate) fn sync_to(&mut self, lru: Option<(BlockAddr, Cost)>) {
        match lru {
            None => {
                self.lru_block = None;
                self.acost = 0;
            }
            Some((block, cost)) => {
                if self.lru_block != Some(block) {
                    self.lru_block = Some(block);
                    self.acost = cost.0;
                }
            }
        }
    }

    /// The remaining depreciated cost of the tracked LRU block.
    pub(crate) fn acost(&self) -> u64 {
        self.acost
    }

    /// Depreciates the tracked cost by `amount`, saturating at zero.
    pub(crate) fn depreciate(&mut self, amount: Cost) {
        self.acost = self.acost.saturating_sub(amount.0);
    }

    /// The tracked block, if any.
    pub(crate) fn tracked(&self) -> Option<BlockAddr> {
        self.lru_block
    }

    /// Forgets the tracked block; the next [`sync_to`](Self::sync_to) reloads.
    pub(crate) fn reset(&mut self) {
        self.lru_block = None;
        self.acost = 0;
    }

    /// Must be called when `block` is hit, evicted or invalidated: if it is
    /// the tracked block, the tracker resets so a later return of the same
    /// block to the LRU position reloads a fresh `Acost`.
    pub(crate) fn note_departure(&mut self, block: BlockAddr) {
        if self.lru_block == Some(block) {
            self.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(block, cost)` of an LRU entry.
    fn lru(block: u64, cost: u64) -> Option<(BlockAddr, Cost)> {
        Some((BlockAddr(block), Cost(cost)))
    }

    #[test]
    fn sync_loads_lru_cost_once() {
        let mut t = AcostTracker::default();
        t.sync_to(lru(2, 8));
        assert_eq!(t.acost(), 8);
        t.depreciate(Cost(3));
        assert_eq!(t.acost(), 5);
        // Same LRU: depreciation persists across syncs.
        t.sync_to(lru(2, 8));
        assert_eq!(t.acost(), 5);
    }

    #[test]
    fn sync_reloads_on_lru_change() {
        let mut t = AcostTracker::default();
        t.sync_to(lru(2, 8));
        t.depreciate(Cost(8));
        assert_eq!(t.acost(), 0);
        t.sync_to(lru(3, 4));
        assert_eq!(t.acost(), 4);
    }

    #[test]
    fn departure_of_tracked_block_resets() {
        let mut t = AcostTracker::default();
        t.sync_to(lru(2, 8));
        t.depreciate(Cost(6));
        t.note_departure(BlockAddr(2));
        assert_eq!(t.tracked(), None);
        // Same block back in LRU position: Acost reloads fully.
        t.sync_to(lru(2, 8));
        assert_eq!(t.acost(), 8);
    }

    #[test]
    fn departure_of_other_block_is_ignored() {
        let mut t = AcostTracker::default();
        t.sync_to(lru(2, 8));
        t.depreciate(Cost(1));
        t.note_departure(BlockAddr(1));
        assert_eq!(t.tracked(), Some(BlockAddr(2)));
        assert_eq!(t.acost(), 7);
    }

    #[test]
    fn depreciation_saturates() {
        let mut t = AcostTracker::default();
        t.sync_to(lru(2, 8));
        t.depreciate(Cost(100));
        assert_eq!(t.acost(), 0);
    }

    #[test]
    fn empty_region_clears() {
        let mut t = AcostTracker::default();
        t.sync_to(lru(1, 5));
        assert_eq!(t.acost(), 5);
        t.sync_to(None);
        assert_eq!(t.tracked(), None);
    }
}
