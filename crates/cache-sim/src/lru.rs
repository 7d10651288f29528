//! Least-recently-used replacement — the paper's baseline policy.

use crate::addr::{SetIndex, Way};
use crate::policy::{ReplacementPolicy, SetView};

/// Plain LRU: always evicts the block at the bottom of the recency stack.
///
/// The recency stack itself is maintained by the [`Cache`](crate::Cache), so
/// this policy is stateless.
///
/// # Examples
///
/// ```
/// use cache_sim::{Cache, Geometry, Lru, AccessType, Cost, BlockAddr};
///
/// let mut cache = Cache::new(Geometry::new(256, 64, 2), Lru::new());
/// let out = cache.access(BlockAddr(1), AccessType::Read, Cost(5));
/// assert!(!out.hit);
/// let out = cache.access(BlockAddr(1), AccessType::Read, Cost(5));
/// assert!(out.hit);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Lru;

impl Lru {
    /// Creates a new LRU policy.
    #[must_use]
    pub fn new() -> Self {
        Lru
    }
}

impl ReplacementPolicy for Lru {
    fn name(&self) -> &'static str {
        "LRU"
    }

    fn victim(&mut self, _set: SetIndex, view: &SetView<'_>) -> Way {
        view.lru().way
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::BlockAddr;
    use crate::cost::Cost;
    use crate::policy::WayView;

    #[test]
    fn picks_lru_position() {
        let entries = vec![
            WayView {
                way: Way(1),
                block: BlockAddr(1),
                cost: Cost(1),
                dirty: false,
            },
            WayView {
                way: Way(0),
                block: BlockAddr(2),
                cost: Cost(9),
                dirty: false,
            },
        ];
        let mut p = Lru::new();
        assert_eq!(p.victim(SetIndex(0), &SetView::new(&entries)), Way(0));
        assert_eq!(p.name(), "LRU");
    }
}
