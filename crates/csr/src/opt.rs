//! Belady's OPT, the offline (clairvoyant) replacement baseline that
//! minimizes the **miss count** of a set-associative cache by always
//! evicting the resident block whose next reference is farthest in the
//! future, and the trace types it shares with [`crate::csopt`], the
//! cost-optimal schedule.

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
                    let victim_idx = set
                        .iter()
                        .enumerate()
                        .max_by_key(|(_, r)| r.next_use)
                        .map(|(idx, _)| idx)
                        .expect("nonempty set");
                    set.swap_remove(victim_idx);
                }
                set.push(Resident {
                    block,
                    next_use: next[i],
                });
            }
        }
    }
    stats
}

/// For each event index, the index of the next `Access` to the same block
/// (`usize::MAX` when the block is invalidated first, or never accessed
/// again). `Invalidate` events get `usize::MAX`.
fn next_use_table(events: &[TraceEvent]) -> Vec<usize> {
    let mut next = vec![usize::MAX; events.len()];
    let mut last_seen: HashMap<BlockAddr, usize> = HashMap::new();
    for (i, ev) in events.iter().enumerate().rev() {
        match *ev {
            TraceEvent::Access { block, .. } => {
                next[i] = last_seen.insert(block, i).unwrap_or(usize::MAX);
            }
            TraceEvent::Invalidate { block } => {
                last_seen.remove(&block);
            }
        }
    }
    next
}

#[derive(Debug, Clone, Copy)]
struct Resident {
    block: BlockAddr,
    next_use: usize,
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
    fn belady_evicts_a_block_about_to_be_invalidated() {
        // Filling C evicts A, whose next use comes after its invalidation,
        // and keeps B, which then hits: 4 misses. Keeping A, whose next
        // access is nearer, would miss 5 times.
        let geom = one_set(2);
        let inv_a = TraceEvent::Invalidate {
            block: BlockAddr(0),
        };
        let trace = vec![acc(0, 1), acc(1, 1), acc(2, 1), inv_a, acc(0, 1), acc(1, 1)];
        assert_eq!(simulate_belady(&geom, &trace).misses, 4);
    }

    #[test]
    fn next_use_table_is_correct() {
        let trace = vec![acc(0, 1), acc(1, 1), acc(0, 1)];
        let next = next_use_table(&trace);
        assert_eq!(next, vec![2, usize::MAX, usize::MAX]);
    }
}
