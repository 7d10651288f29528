//! Least-recently-used replacement — the paper's baseline policy.

use crate::addr::Way;
use crate::policy::{EvictionPolicy, Residents};

/// Plain LRU: always evicts the block at the bottom of the recency stack.
///
/// The recency stack itself is maintained by the driver, so this core is
/// stateless, and one value serves every set.
///
/// # Examples
///
/// ```
/// use cache_sim::{Cache, Geometry, Lru, AccessType, Cost, BlockAddr};
///
/// let mut cache = Cache::new(Geometry::new(256, 64, 2), Lru::new);
/// let out = cache.access(BlockAddr(1), AccessType::Read, Cost(5));
/// assert!(!out.hit);
/// let out = cache.access(BlockAddr(1), AccessType::Read, Cost(5));
/// assert!(out.hit);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Lru;

impl Lru {
    /// Creates a new LRU core.
    #[must_use]
    pub fn new() -> Self {
        Lru
    }
}

impl EvictionPolicy for Lru {
    fn name(&self) -> &'static str {
        "LRU"
    }

    #[inline]
    fn victim(&mut self, residents: &dyn Residents) -> Way {
        residents.lru().way
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::BlockAddr;
    use crate::cost::Cost;
    use crate::policy::{SetView, WayView};

    #[test]
    fn picks_lru_position() {
        let entries = [(Way(1), 1, 1), (Way(0), 2, 9)].map(|(way, b, c)| WayView {
            way,
            block: BlockAddr(b),
            cost: Cost(c),
        });
        let mut p = Lru::new();
        assert_eq!(p.victim(&SetView::new(&entries)), Way(0));
        assert_eq!(p.name(), "LRU");
    }
}
