//! Offline (clairvoyant) replacement baselines.
//!
//! Two offline references complement the on-line algorithms:
//!
//! * [`simulate_belady`] — Belady's OPT, which minimizes the **miss count**
//!   of a set-associative cache by always evicting the resident block whose
//!   next reference is farthest in the future.
//! * [`simulate_cost_greedy`] — a cost-aware clairvoyant heuristic: dead
//!   blocks (never referenced again) are evicted first; otherwise the block
//!   with the farthest next reference among the *cheapest* resident blocks
//!   is chosen.
//!
//! The second is *not* the paper's optimal CSOPT (Jeong & Dubois, SPAA
//! 1999) — CSOPT requires branch-and-bound over reservation schedules —
//! but it provides a useful clairvoyant reference point for the aggregate
//! cost, and it degenerates to Belady's OPT under uniform costs. This is an
//! extension beyond the paper, used by the benches to situate the on-line
//! algorithms.

use std::collections::HashMap;

use cache_sim::{BlockAddr, Cost, Geometry};

/// One event of an offline trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A reference to `block` whose miss (if it misses) costs `cost`.
    Access {
        /// Referenced block.
        block: BlockAddr,
        /// Cost charged if this access misses.
        cost: Cost,
    },
    /// A coherence invalidation of `block` (e.g. a remote write).
    Invalidate {
        /// Invalidated block.
        block: BlockAddr,
    },
}

/// Results of an offline simulation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OfflineStats {
    /// Number of `Access` events.
    pub accesses: u64,
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
    /// Sum of the costs of all misses.
    pub aggregate_cost: Cost,
}

/// Which clairvoyant eviction rule to apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Rule {
    Belady,
    CostGreedy,
}

/// Simulates Belady's OPT (miss-count optimal) on `events`.
///
/// # Examples
///
/// ```
/// use cache_sim::{BlockAddr, Cost, Geometry};
/// use csr::opt::{simulate_belady, TraceEvent};
///
/// let geom = Geometry::new(128, 64, 2); // one 2-way set
/// let ev = |b: u64| TraceEvent::Access { block: BlockAddr(b), cost: Cost(1) };
/// // A B C A B: filling C evicts B (its next use is farther than A's), so
/// // B misses once more: 4 misses, versus 5 under LRU (which evicts A).
/// let stats = simulate_belady(&geom, &[ev(0), ev(1), ev(2), ev(0), ev(1)]);
/// assert_eq!(stats.misses, 4);
/// ```
#[must_use]
pub fn simulate_belady(geom: &Geometry, events: &[TraceEvent]) -> OfflineStats {
    simulate(geom, events, Rule::Belady)
}

/// Simulates the cost-aware clairvoyant heuristic on `events`.
#[must_use]
pub fn simulate_cost_greedy(geom: &Geometry, events: &[TraceEvent]) -> OfflineStats {
    simulate(geom, events, Rule::CostGreedy)
}

/// For each event index, the index of the next `Access` to the same block
/// (`usize::MAX` when there is none). `Invalidate` events get `usize::MAX`.
fn next_use_table(events: &[TraceEvent]) -> Vec<usize> {
    let mut next = vec![usize::MAX; events.len()];
    let mut last_seen: HashMap<BlockAddr, usize> = HashMap::new();
    for (i, ev) in events.iter().enumerate().rev() {
        if let TraceEvent::Access { block, .. } = ev {
            next[i] = last_seen.get(block).copied().unwrap_or(usize::MAX);
            last_seen.insert(*block, i);
        }
    }
    next
}

#[derive(Debug, Clone, Copy)]
struct Resident {
    block: BlockAddr,
    cost: Cost,
    next_use: usize,
}

fn simulate(geom: &Geometry, events: &[TraceEvent], rule: Rule) -> OfflineStats {
    let next = next_use_table(events);
    let mut sets: Vec<Vec<Resident>> = vec![Vec::new(); geom.num_sets()];
    let mut stats = OfflineStats::default();

    for (i, ev) in events.iter().enumerate() {
        match *ev {
            TraceEvent::Invalidate { block } => {
                let set = &mut sets[geom.set_of(block).0];
                set.retain(|r| r.block != block);
            }
            TraceEvent::Access { block, cost } => {
                stats.accesses += 1;
                let set_idx = geom.set_of(block).0;
                let set = &mut sets[set_idx];
                if let Some(r) = set.iter_mut().find(|r| r.block == block) {
                    stats.hits += 1;
                    r.next_use = next[i];
                    continue;
                }
                stats.misses += 1;
                stats.aggregate_cost += cost;
                if set.len() >= geom.assoc() {
                    let victim_idx = match rule {
                        Rule::Belady => set
                            .iter()
                            .enumerate()
                            .max_by_key(|(_, r)| r.next_use)
                            .map(|(idx, _)| idx)
                            .expect("nonempty set"),
                        Rule::CostGreedy => {
                            // Dead blocks first (free to evict); otherwise
                            // the farthest-used among the cheapest blocks.
                            if let Some((idx, _)) = set
                                .iter()
                                .enumerate()
                                .find(|(_, r)| r.next_use == usize::MAX)
                            {
                                idx
                            } else {
                                let min_cost =
                                    set.iter().map(|r| r.cost).min().expect("nonempty set");
                                set.iter()
                                    .enumerate()
                                    .filter(|(_, r)| r.cost == min_cost)
                                    .max_by_key(|(_, r)| r.next_use)
                                    .map(|(idx, _)| idx)
                                    .expect("nonempty min-cost class")
                            }
                        }
                    };
                    set.swap_remove(victim_idx);
                }
                set.push(Resident {
                    block,
                    cost,
                    next_use: next[i],
                });
            }
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_sim::{AccessType, Cache, Lru};

    fn acc(b: u64, c: u64) -> TraceEvent {
        TraceEvent::Access {
            block: BlockAddr(b),
            cost: Cost(c),
        }
    }

    fn one_set(assoc: usize) -> Geometry {
        Geometry::new(64 * assoc as u64, 64, assoc)
    }

    #[test]
    fn belady_beats_lru_on_cyclic_pattern() {
        // Cyclic access over assoc+1 blocks: LRU misses everything, OPT does
        // not.
        let geom = one_set(2);
        let trace: Vec<TraceEvent> = (0..30).map(|i| acc(i % 3, 1)).collect();
        let opt = simulate_belady(&geom, &trace);
        let mut lru = Cache::new(geom, Lru::new);
        for ev in &trace {
            if let TraceEvent::Access { block, cost } = ev {
                lru.access(*block, AccessType::Read, *cost);
            }
        }
        assert_eq!(lru.stats().misses, 30, "LRU thrashes the cyclic pattern");
        // OPT's steady-state miss rate on m blocks over k frames is
        // (m-k)/(m-1) = 1/2 here: 2 cold + 14 steady misses = 16.
        assert_eq!(opt.misses, 16);
    }

    #[test]
    fn hit_accounting_matches() {
        let geom = one_set(2);
        let trace = vec![acc(0, 1), acc(0, 1), acc(0, 1)];
        let s = simulate_belady(&geom, &trace);
        assert_eq!(s.accesses, 3);
        assert_eq!(s.hits, 2);
        assert_eq!(s.misses, 1);
        assert_eq!(s.aggregate_cost, Cost(1));
    }

    #[test]
    fn invalidation_forces_remiss() {
        let geom = one_set(2);
        let trace = vec![
            acc(0, 5),
            TraceEvent::Invalidate {
                block: BlockAddr(0),
            },
            acc(0, 5),
        ];
        let s = simulate_belady(&geom, &trace);
        assert_eq!(s.misses, 2);
        assert_eq!(s.aggregate_cost, Cost(10));
    }

    #[test]
    fn cost_greedy_prefers_cheap_victims() {
        // 2-way set: expensive A, cheap B, both re-referenced later; filling
        // C should displace B (cheap), saving cost over Belady tie.
        let geom = one_set(2);
        let trace = vec![
            acc(0, 9), // A
            acc(1, 1), // B
            acc(2, 1), // C: evict among A/B
            acc(0, 9),
            acc(1, 1),
        ];
        let s = simulate_cost_greedy(&geom, &trace);
        // Misses: A, B, C, then B only (A kept). Cost = 9+1+1+1 = 12.
        assert_eq!(s.aggregate_cost, Cost(12));
        let b = simulate_belady(&geom, &trace);
        assert!(s.aggregate_cost < b.aggregate_cost || b.misses <= s.misses);
    }

    #[test]
    fn cost_greedy_equals_belady_under_uniform_costs_here() {
        let geom = one_set(2);
        let trace: Vec<TraceEvent> = (0..40).map(|i| acc((i * 7) % 5, 1)).collect();
        let a = simulate_belady(&geom, &trace);
        let b = simulate_cost_greedy(&geom, &trace);
        // Not necessarily identical victim-by-victim (tie-breaks differ),
        // but the dead-block-first rule keeps it within OPT's miss count on
        // this small pattern.
        assert_eq!(a.accesses, b.accesses);
        assert!(b.misses >= a.misses, "Belady is the miss-count floor");
    }

    #[test]
    fn next_use_table_is_correct() {
        let trace = vec![acc(0, 1), acc(1, 1), acc(0, 1)];
        let next = next_use_table(&trace);
        assert_eq!(next, vec![2, usize::MAX, usize::MAX]);
    }
}
