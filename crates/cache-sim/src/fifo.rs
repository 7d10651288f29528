//! First-in-first-out replacement, a secondary baseline.

use crate::addr::{BlockAddr, SetIndex, Way};
use crate::cost::Cost;
use crate::policy::{InvalidateKind, ReplacementPolicy, SetView};

/// FIFO: evicts the block that was filled into the set the longest ago,
/// regardless of hits since then.
#[derive(Debug, Clone, Default)]
pub struct Fifo {
    /// Per-set fill order, oldest first.
    queues: Vec<Vec<Way>>,
}

impl Fifo {
    /// Creates a FIFO policy for a cache with `num_sets` sets.
    #[must_use]
    pub fn new(num_sets: usize) -> Self {
        Fifo {
            queues: vec![Vec::new(); num_sets],
        }
    }

    fn queue(&mut self, set: SetIndex) -> &mut Vec<Way> {
        if self.queues.len() <= set.0 {
            self.queues.resize(set.0 + 1, Vec::new());
        }
        &mut self.queues[set.0]
    }
}

impl ReplacementPolicy for Fifo {
    fn name(&self) -> &'static str {
        "FIFO"
    }

    fn victim(&mut self, set: SetIndex, view: &SetView<'_>) -> Way {
        let q = self.queue(set);
        // The oldest queued way that is still resident; falls back to the LRU
        // block if bookkeeping ever desynchronizes (it should not).
        match q.first().copied() {
            Some(w) => w,
            None => view.lru().way,
        }
    }

    fn on_fill(&mut self, set: SetIndex, _block: BlockAddr, way: Way, _cost: Cost) {
        let q = self.queue(set);
        q.retain(|&w| w != way);
        q.push(way);
    }

    fn on_invalidate(
        &mut self,
        set: SetIndex,
        _block: BlockAddr,
        resident: Option<(Way, usize)>,
        _kind: InvalidateKind,
    ) {
        if let Some((way, _)) = resident {
            self.queue(set).retain(|&w| w != way);
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
        let mut c = Cache::new(geom, Fifo::new(1));
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
        let mut c = Cache::new(geom, Fifo::new(1));
        let (a, b, x) = (BlockAddr(0), BlockAddr(1), BlockAddr(2));
        c.access(a, AccessType::Read, Cost(1));
        c.access(b, AccessType::Read, Cost(1));
        c.invalidate(a, InvalidateKind::Coherence);
        c.access(x, AccessType::Read, Cost(1)); // fills the invalid way
        assert!(c.contains(b) && c.contains(x));
        // Next fill should evict b (oldest remaining), not x.
        c.access(BlockAddr(3), AccessType::Read, Cost(1));
        assert!(!c.contains(b));
        assert!(c.contains(x));
    }
}
