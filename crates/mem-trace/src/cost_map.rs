//! Static cost mappings for the two-cost experiments (Section 3).
//!
//! A [`CostMap`] splits memory blocks into two classes and gives each class
//! one miss cost — the paper's "two static costs". Two mappings from the
//! paper:
//!
//! * [`RandomCostMap`] — every block is independently high-cost with
//!   probability `haf` (the *high-cost access fraction* knob of Section
//!   3.2), decided by a seeded hash of the block address so the mapping is
//!   deterministic and storage-free;
//! * [`FirstTouchCostMap`] — blocks homed remotely (under first-touch
//!   placement) are high-cost, locally-homed blocks low-cost (Section 3.3).
//!
//! Because the class of a block does not depend on the pair, a trace can be
//! classified once and run under every cost ratio (`csr_harness`'s
//! `PricedTrace`).

use crate::first_touch::FirstTouchPlacement;
use crate::record::ProcId;
use cache_sim::{BlockAddr, Cost, CostPair};
use std::borrow::Borrow;

/// Assigns each block one of two static miss costs, from the perspective
/// of one observing processor.
pub trait CostMap {
    /// The low and high miss costs.
    fn pair(&self) -> CostPair;

    /// Whether `block` is a high-cost block.
    fn is_high_cost(&self, block: BlockAddr) -> bool;

    /// The miss cost of `block`.
    fn cost_of(&self, block: BlockAddr) -> Cost {
        self.pair().pick(self.is_high_cost(block))
    }
}

/// Uniform pseudo-random assignment of high costs to blocks.
#[derive(Debug, Clone)]
pub struct RandomCostMap {
    pair: CostPair,
    /// High-cost probability threshold scaled to u64 range.
    threshold: u64,
    seed: u64,
}

impl RandomCostMap {
    /// Creates a map in which each block is high-cost with probability
    /// `haf`, with costs from `pair`.
    ///
    /// # Panics
    ///
    /// Panics if `haf` is not within `[0, 1]`.
    #[must_use]
    pub fn new(haf: f64, pair: CostPair, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&haf),
            "HAF must be in [0, 1], got {haf}"
        );
        let threshold = if haf >= 1.0 {
            u64::MAX
        } else {
            (haf * u64::MAX as f64) as u64
        };
        RandomCostMap {
            pair,
            threshold,
            seed,
        }
    }

    fn hash(&self, block: BlockAddr) -> u64 {
        // One SplitMix64 step keyed by (block ^ seed): uniform,
        // deterministic and stateless (shared with the workload kernels).
        crate::workloads::Splitmix::new(block.0 ^ self.seed.rotate_left(17)).next_u64()
    }
}

impl CostMap for RandomCostMap {
    fn pair(&self) -> CostPair {
        self.pair
    }

    fn is_high_cost(&self, block: BlockAddr) -> bool {
        if self.threshold == u64::MAX {
            return true;
        }
        self.hash(block) < self.threshold
    }
}

/// High cost for remotely-homed blocks, low cost for local ones.
///
/// The placement is owned or borrowed (`P = &FirstTouchPlacement`), so one
/// placement serves every cost ratio without a copy.
#[derive(Debug, Clone)]
pub struct FirstTouchCostMap<P = FirstTouchPlacement> {
    placement: P,
    me: ProcId,
    pair: CostPair,
    block_bytes: u64,
}

impl<P: Borrow<FirstTouchPlacement>> FirstTouchCostMap<P> {
    /// Creates a map for references by processor `me` under `placement`.
    #[must_use]
    pub fn new(placement: P, me: ProcId, pair: CostPair, block_bytes: u64) -> Self {
        FirstTouchCostMap {
            placement,
            me,
            pair,
            block_bytes,
        }
    }

    /// The underlying placement.
    #[must_use]
    pub fn placement(&self) -> &FirstTouchPlacement {
        self.placement.borrow()
    }
}

impl<P: Borrow<FirstTouchPlacement>> CostMap for FirstTouchCostMap<P> {
    fn pair(&self) -> CostPair {
        self.pair
    }

    fn is_high_cost(&self, block: BlockAddr) -> bool {
        self.placement()
            .is_remote(self.me, block.base_addr(self.block_bytes))
    }
}

/// A fixed uniform cost for every block (useful to verify that the
/// cost-sensitive policies degenerate to LRU when costs are equal).
#[derive(Debug, Clone, Copy)]
pub struct UniformCostMap(pub Cost);

impl CostMap for UniformCostMap {
    fn pair(&self) -> CostPair {
        CostPair::new(self.0, self.0)
    }

    fn is_high_cost(&self, _block: BlockAddr) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{Trace, TraceRecord};
    use crate::stats::TraceCensus;
    use cache_sim::Addr;

    #[test]
    fn random_map_fraction_tracks_haf() {
        for &haf in &[0.0, 0.1, 0.3, 0.5, 0.9, 1.0] {
            let m = RandomCostMap::new(haf, CostPair::ratio(4), 42);
            let high = (0..20_000u64)
                .filter(|&b| m.is_high_cost(BlockAddr(b)))
                .count();
            let measured = high as f64 / 20_000.0;
            assert!(
                (measured - haf).abs() < 0.02,
                "haf {haf}: measured {measured}"
            );
        }
    }

    #[test]
    fn random_map_is_deterministic_per_seed() {
        let a = RandomCostMap::new(0.5, CostPair::ratio(2), 7);
        let b = RandomCostMap::new(0.5, CostPair::ratio(2), 7);
        let c = RandomCostMap::new(0.5, CostPair::ratio(2), 8);
        let same =
            (0..1000u64).all(|x| a.is_high_cost(BlockAddr(x)) == b.is_high_cost(BlockAddr(x)));
        let differ =
            (0..1000u64).any(|x| a.is_high_cost(BlockAddr(x)) != c.is_high_cost(BlockAddr(x)));
        assert!(same);
        assert!(differ);
    }

    #[test]
    fn random_map_costs_match_pair() {
        let m = RandomCostMap::new(0.5, CostPair::ratio(8), 1);
        for b in 0..100u64 {
            let c = m.cost_of(BlockAddr(b));
            assert!(c == Cost(1) || c == Cost(8));
            assert_eq!(c == Cost(8), m.is_high_cost(BlockAddr(b)));
        }
    }

    #[test]
    #[should_panic(expected = "HAF must be in")]
    fn rejects_bad_haf() {
        let _ = RandomCostMap::new(1.5, CostPair::ratio(2), 0);
    }

    #[test]
    fn first_touch_map_marks_remote_blocks() {
        let mut t = Trace::new(2);
        t.push(TraceRecord::write(ProcId(1), Addr(0))); // block 0 homed at P1
        t.push(TraceRecord::write(ProcId(0), Addr(64))); // block 1 homed at P0
        let placement = TraceCensus::from_trace(64, &t).into_placement();
        let borrowed = FirstTouchCostMap::new(&placement, ProcId(0), CostPair::ratio(16), 64);
        let m = FirstTouchCostMap::new(placement.clone(), ProcId(0), CostPair::ratio(16), 64);
        for m in [&borrowed as &dyn CostMap, &m] {
            assert!(m.is_high_cost(BlockAddr(0)));
            assert_eq!(m.cost_of(BlockAddr(0)), Cost(16));
            assert!(!m.is_high_cost(BlockAddr(1)));
            assert_eq!(m.cost_of(BlockAddr(1)), Cost(1));
        }
    }

    #[test]
    fn uniform_map_is_flat() {
        let m = UniformCostMap(Cost(3));
        assert_eq!(m.cost_of(BlockAddr(1)), Cost(3));
        assert!(!m.is_high_cost(BlockAddr(1)));
        assert_eq!(m.pair(), CostPair::new(Cost(3), Cost(3)));
    }
}
