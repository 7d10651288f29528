//! First-in-first-out replacement, a secondary baseline.

use crate::addr::{BlockAddr, Way};
use crate::cost::Cost;
use crate::policy::{EvictionPolicy, Residents};

/// FIFO for one set: evicts the block that was filled the longest ago,
/// regardless of hits since then.
#[derive(Debug, Clone, Default)]
pub struct Fifo {
    /// The set's filled ways, oldest fill first.
    order: Vec<Way>,
}

impl Fifo {
    /// Creates the core of one set, with no fill seen yet.
    #[must_use]
    pub fn new() -> Self {
        Fifo::default()
    }
}

impl EvictionPolicy for Fifo {
    fn name(&self) -> &'static str {
        "FIFO"
    }

    fn victim(&mut self, residents: &dyn Residents) -> Way {
        // The oldest fill; the LRU block if bookkeeping ever desynchronizes
        // (it should not).
        match self.order.first() {
            Some(&w) => w,
            None => residents.lru().way,
        }
    }

    fn on_fill(&mut self, _block: BlockAddr, way: Way, _cost: Cost) {
        self.order.retain(|&w| w != way);
        self.order.push(way);
    }

    fn on_remove(&mut self, _block: BlockAddr, way: Option<Way>) {
        if let Some(way) = way {
            self.order.retain(|&w| w != way);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Geometry;
    use crate::cache::{AccessType, Cache};

    #[test]
    fn evicts_in_fill_order_despite_hits() {
        // 2-way set; fill A then B, touch A, fill C: FIFO evicts A (oldest
        // fill) even though A is the MRU block.
        let geom = Geometry::new(128, 64, 2); // one set
        let mut c = Cache::new(geom, Fifo::new);
        let (a, b, x) = (BlockAddr(0), BlockAddr(1), BlockAddr(2));
        c.access(a, AccessType::Read, Cost(1));
        c.access(b, AccessType::Read, Cost(1));
        assert!(c.access(a, AccessType::Read, Cost(1)).hit);
        c.access(x, AccessType::Read, Cost(1));
        assert!(!c.contains(a), "FIFO must evict the oldest fill");
        assert!(c.contains(b));
        assert!(c.contains(x));
    }

    #[test]
    fn invalidation_removes_from_queue() {
        let geom = Geometry::new(128, 64, 2);
        let mut c = Cache::new(geom, Fifo::new);
        let (a, b, x) = (BlockAddr(0), BlockAddr(1), BlockAddr(2));
        c.access(a, AccessType::Read, Cost(1));
        c.access(b, AccessType::Read, Cost(1));
        c.invalidate(a);
        c.access(x, AccessType::Read, Cost(1)); // fills the invalid way
        assert!(c.contains(b) && c.contains(x));
        // Next fill should evict b (oldest remaining), not x.
        c.access(BlockAddr(3), AccessType::Read, Cost(1));
        assert!(!c.contains(b));
        assert!(c.contains(x));
    }

    #[test]
    fn sets_keep_their_own_fill_order() {
        // Two 2-way sets: blocks 0/2/4 map to set 0, blocks 1/3/5 to set 1.
        let geom = Geometry::new(256, 64, 2);
        let mut c = Cache::new(geom, Fifo::new);
        for b in [0u64, 1, 3, 2, 0, 4, 5] {
            c.access(BlockAddr(b), AccessType::Read, Cost(1));
        }
        let mut resident: Vec<u64> = c.resident_blocks().map(|b| b.0).collect();
        resident.sort_unstable();
        assert_eq!(resident, [2, 3, 4, 5]);
    }
}
