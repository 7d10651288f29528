//! Criticality-based costs for uniprocessors (the paper's Section 7
//! future-work direction): "if we could predict the nature of the next
//! access to a cached block, we could assign a high cost to critical load
//! misses and low cost to store misses and non-critical load misses".
//!
//! [`CriticalityCostMap`] classifies blocks by the *kind* of accesses they
//! receive: blocks whose references are predominantly loads get the high
//! (load-criticality) cost; write-dominated blocks — whose misses a store
//! buffer hides — get the low cost. The classification is computed offline
//! from the trace, standing in for the criticality predictors of
//! Srinivasan et al. that the paper cites.

use crate::cost_map::CostMap;
use crate::record::Trace;
use cache_sim::{AccessType, BlockAddr, CostPair};
use std::collections::HashMap;

/// High cost for load-dominated blocks, low cost for store-dominated ones.
#[derive(Debug, Clone)]
pub struct CriticalityCostMap {
    load_dominated: HashMap<u64, bool>,
    pair: CostPair,
}

impl CriticalityCostMap {
    /// Classifies every block of `trace`: a block is *load-dominated*
    /// (critical) when more than `load_threshold` of its references are
    /// reads.
    ///
    /// # Panics
    ///
    /// Panics if `load_threshold` is not within `[0, 1]`.
    #[must_use]
    pub fn from_trace(trace: &Trace, pair: CostPair, load_threshold: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&load_threshold),
            "threshold must be in [0, 1], got {load_threshold}"
        );
        let mut counts: HashMap<u64, (u64, u64)> = HashMap::new();
        for rec in trace {
            let e = counts.entry(rec.block(64).0).or_insert((0, 0));
            match rec.op {
                AccessType::Read => e.0 += 1,
                AccessType::Write => e.1 += 1,
            }
        }
        let load_dominated = counts
            .into_iter()
            .map(|(b, (r, w))| (b, r as f64 > load_threshold * (r + w) as f64))
            .collect();
        CriticalityCostMap {
            load_dominated,
            pair,
        }
    }

    /// Fraction of classified blocks that are load-dominated.
    #[must_use]
    pub fn critical_fraction(&self) -> f64 {
        if self.load_dominated.is_empty() {
            return 0.0;
        }
        self.load_dominated.values().filter(|&&v| v).count() as f64
            / self.load_dominated.len() as f64
    }
}

impl CostMap for CriticalityCostMap {
    fn pair(&self) -> CostPair {
        self.pair
    }

    fn is_high_cost(&self, block: BlockAddr) -> bool {
        self.load_dominated.get(&block.0).copied().unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{ProcId, TraceRecord};
    use cache_sim::{Addr, Cost};

    #[test]
    fn classifies_by_access_mix() {
        let mut t = Trace::new(1);
        // Block 0: all reads. Block 1: all writes. Block 2: mixed 50/50.
        for _ in 0..4 {
            t.push(TraceRecord::read(ProcId(0), Addr(0)));
            t.push(TraceRecord::write(ProcId(0), Addr(64)));
        }
        t.push(TraceRecord::read(ProcId(0), Addr(128)));
        t.push(TraceRecord::write(ProcId(0), Addr(128)));
        let m = CriticalityCostMap::from_trace(&t, CostPair::ratio(8), 0.6);
        assert!(m.is_high_cost(BlockAddr(0)));
        assert!(!m.is_high_cost(BlockAddr(1)));
        assert!(
            !m.is_high_cost(BlockAddr(2)),
            "50% reads is below the 60% threshold"
        );
        assert_eq!(m.cost_of(BlockAddr(0)), Cost(8));
        assert_eq!(m.cost_of(BlockAddr(1)), Cost(1));
    }

    #[test]
    fn unseen_blocks_are_low_cost() {
        let t = Trace::new(1);
        let m = CriticalityCostMap::from_trace(&t, CostPair::ratio(4), 0.5);
        assert!(!m.is_high_cost(BlockAddr(999)));
        assert_eq!(m.critical_fraction(), 0.0);
    }

    #[test]
    fn critical_fraction_counts() {
        let mut t = Trace::new(1);
        t.push(TraceRecord::read(ProcId(0), Addr(0)));
        t.push(TraceRecord::write(ProcId(0), Addr(64)));
        let m = CriticalityCostMap::from_trace(&t, CostPair::ratio(4), 0.5);
        assert!((m.critical_fraction() - 0.5).abs() < 1e-12);
    }
}
