//! Random replacement, a secondary baseline.
//!
//! Uses a small deterministic xorshift generator so runs are reproducible
//! without pulling a dependency into the substrate crate.

use crate::addr::Way;
use crate::policy::{EvictionPolicy, Residents};

/// Random replacement for one set: evicts the block in a uniformly random
/// way.
#[derive(Debug, Clone)]
pub struct RandomEvict {
    ways: u64,
    state: u64,
}

impl RandomEvict {
    /// Creates the core of a `ways`-way set, seeded with `seed` (zero is
    /// remapped to a fixed nonzero constant, since xorshift cannot leave
    /// state zero).
    #[must_use]
    pub fn new(ways: usize, seed: u64) -> Self {
        RandomEvict {
            ways: ways as u64,
            state: if seed == 0 {
                0x9E37_79B9_7F4A_7C15
            } else {
                seed
            },
        }
    }

    /// A factory of `ways`-way cores for [`Cache::new`](crate::Cache::new)
    /// that seeds the `k`-th core it builds with `seed + k`, so no two sets
    /// draw the same stream.
    pub fn per_set(ways: usize, seed: u64) -> impl FnMut() -> RandomEvict {
        let mut next = seed;
        move || {
            let core = RandomEvict::new(ways, next);
            next = next.wrapping_add(1);
            core
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

impl EvictionPolicy for RandomEvict {
    fn name(&self) -> &'static str {
        "Random"
    }

    fn victim(&mut self, residents: &dyn Residents) -> Way {
        // A full set holds a block in every way.
        let way = Way((self.next() % self.ways) as usize);
        residents.at_way(way).unwrap_or_else(|| residents.lru()).way
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::BlockAddr;
    use crate::cost::Cost;
    use crate::policy::{SetView, WayView};

    fn full_set() -> Vec<WayView> {
        (0..4)
            .map(|i| WayView {
                way: Way(i),
                block: BlockAddr(i as u64),
                cost: Cost(1),
            })
            .collect()
    }

    #[test]
    fn deterministic_for_same_seed() {
        let entries = full_set();
        let view = SetView::new(&entries);
        let mut a = RandomEvict::new(4, 42);
        let mut b = RandomEvict::new(4, 42);
        for _ in 0..100 {
            assert_eq!(a.victim(&view), b.victim(&view));
        }
    }

    #[test]
    fn covers_all_ways_eventually() {
        let entries = full_set();
        let view = SetView::new(&entries);
        let mut p = RandomEvict::new(4, 7);
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[p.victim(&view).0] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "random policy should touch every way"
        );
    }

    #[test]
    fn per_set_cores_draw_distinct_streams() {
        let entries = full_set();
        let view = SetView::new(&entries);
        let mut cores = RandomEvict::per_set(4, 42);
        let (mut a, mut b) = (cores(), cores());
        let draws = |c: &mut RandomEvict| (0..32).map(|_| c.victim(&view).0).collect::<Vec<_>>();
        assert_ne!(draws(&mut a), draws(&mut b));
        assert_eq!(draws(&mut cores()), draws(&mut RandomEvict::new(4, 44)));
    }
}
