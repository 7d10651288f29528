//! Random replacement, a secondary baseline.
//!
//! Uses a small deterministic xorshift generator so runs are reproducible
//! without pulling a dependency into the substrate crate.

use crate::addr::{SetIndex, Way};
use crate::policy::{ReplacementPolicy, SetView};

/// Random replacement: evicts a uniformly random resident block.
#[derive(Debug, Clone)]
pub struct RandomEvict {
    state: u64,
}

impl RandomEvict {
    /// Creates a random policy seeded with `seed` (zero is remapped to a
    /// fixed nonzero constant, since xorshift cannot leave state zero).
    #[must_use]
    pub fn new(seed: u64) -> Self {
        RandomEvict {
            state: if seed == 0 {
                0x9E37_79B9_7F4A_7C15
            } else {
                seed
            },
        }
    }

    fn next(&mut self) -> u64 {
        // xorshift64*
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

impl Default for RandomEvict {
    fn default() -> Self {
        RandomEvict::new(1)
    }
}

impl ReplacementPolicy for RandomEvict {
    fn name(&self) -> &'static str {
        "Random"
    }

    fn victim(&mut self, _set: SetIndex, view: &SetView<'_>) -> Way {
        let idx = (self.next() % view.len() as u64) as usize;
        view.at(idx).way
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::BlockAddr;
    use crate::cost::Cost;
    use crate::policy::WayView;

    #[test]
    fn deterministic_for_same_seed() {
        let entries: Vec<WayView> = (0..4)
            .map(|i| WayView {
                way: Way(i),
                block: BlockAddr(i as u64),
                cost: Cost(1),
                dirty: false,
            })
            .collect();
        let view = SetView::new(&entries);
        let mut a = RandomEvict::new(42);
        let mut b = RandomEvict::new(42);
        for _ in 0..100 {
            assert_eq!(a.victim(SetIndex(0), &view), b.victim(SetIndex(0), &view));
        }
    }

    #[test]
    fn covers_all_ways_eventually() {
        let entries: Vec<WayView> = (0..4)
            .map(|i| WayView {
                way: Way(i),
                block: BlockAddr(i as u64),
                cost: Cost(1),
                dirty: false,
            })
            .collect();
        let view = SetView::new(&entries);
        let mut p = RandomEvict::new(7);
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[p.victim(SetIndex(0), &view).0] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "random policy should touch every way"
        );
    }
}
