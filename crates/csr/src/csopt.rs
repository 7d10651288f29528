//! CSOPT: the offline *optimal* replacement schedule for caches with
//! non-uniform miss costs (Jeong & Dubois, SPAA 1999 — the paper's ref \[6\]).
//!
//! The paper's key offline insight is that with non-uniform costs the victim
//! cannot be chosen greedily at replacement time, even with full knowledge of
//! the future: the optimal schedule may *reserve* a block through several
//! replacements. CSOPT therefore searches over eviction schedules. This
//! implementation does so exactly, with a per-set dynamic program over
//! reachable cache contents:
//!
//! * state = the set of resident blocks (≤ associativity);
//! * on a hit the state is unchanged at cost 0;
//! * on a miss, the missed block is filled (demand-fill, like the on-line
//!   policies) and every possible victim — or using a free frame — branches;
//! * states are merged by minimum accumulated cost per layer.
//!
//! The layer width is bounded by C(N, s) for N distinct blocks mapping to
//! the set; [`CsoptLimits`] aborts gracefully on workloads where that
//! explodes. For the small traces used in tests and ablations it is exact,
//! which makes it a true lower-bound oracle for GD/BCL/DCL/ACL.

use crate::opt::{OfflineStats, TraceEvent};
use cache_sim::{Cost, Geometry};
use std::collections::HashMap;

/// Resource limits for the exact search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CsoptLimits {
    /// Maximum simultaneous states per set layer before giving up.
    pub max_states: usize,
}

impl Default for CsoptLimits {
    fn default() -> Self {
        CsoptLimits {
            max_states: 200_000,
        }
    }
}

/// Computes the optimal aggregate miss cost for `events` on a cache of
/// `geom`, or `None` if the state space exceeds `limits`.
///
/// The returned [`OfflineStats`] carries the optimal aggregate cost; its
/// `misses` field reports the miss count *of the optimal-cost schedule*
/// (which may exceed Belady's minimum miss count — that is the whole point
/// of cost-sensitivity).
#[must_use]
pub fn simulate_csopt(
    geom: &Geometry,
    events: &[TraceEvent],
    limits: CsoptLimits,
) -> Option<OfflineStats> {
    // Partition events by set; sets are independent.
    let mut per_set: HashMap<usize, Vec<&TraceEvent>> = HashMap::new();
    for ev in events {
        let block = match ev {
            TraceEvent::Access { block, .. } | TraceEvent::Invalidate { block } => *block,
        };
        per_set.entry(geom.set_of(block).0).or_default().push(ev);
    }

    let mut totals = OfflineStats::default();
    for (_set, evs) in per_set {
        let (stats, ok) = solve_set(geom.assoc(), &evs, limits);
        if !ok {
            return None;
        }
        totals.accesses += stats.accesses;
        totals.hits += stats.hits;
        totals.misses += stats.misses;
        totals.aggregate_cost += stats.aggregate_cost;
    }
    Some(totals)
}

/// One DP state: sorted resident block ids (small-index remapped).
type State = Vec<u16>;

fn solve_set(assoc: usize, events: &[&TraceEvent], limits: CsoptLimits) -> (OfflineStats, bool) {
    // Remap blocks to dense u16 ids.
    let mut ids: HashMap<u64, u16> = HashMap::new();
    let mut id_of = |b: u64| -> u16 {
        let next = ids.len() as u16;
        *ids.entry(b).or_insert(next)
    };

    // frontier: state -> (min aggregate cost, misses along that path, hits)
    let mut frontier: HashMap<State, (u64, u64, u64)> = HashMap::new();
    frontier.insert(Vec::new(), (0, 0, 0));
    let mut accesses = 0u64;

    for ev in events {
        match ev {
            TraceEvent::Invalidate { block } => {
                let id = id_of(block.0);
                let mut next: HashMap<State, (u64, u64, u64)> = HashMap::new();
                for (mut state, v) in frontier.drain() {
                    state.retain(|&x| x != id);
                    merge(&mut next, state, v);
                }
                frontier = next;
            }
            TraceEvent::Access { block, cost } => {
                accesses += 1;
                let id = id_of(block.0);
                let mut next: HashMap<State, (u64, u64, u64)> = HashMap::new();
                for (state, (c, m, h)) in frontier.drain() {
                    if state.binary_search(&id).is_ok() {
                        // Hit: no branching.
                        merge(&mut next, state, (c, m, h + 1));
                        continue;
                    }
                    let miss_cost = c + cost.0;
                    if state.len() < assoc {
                        let mut s = state.clone();
                        insert_sorted(&mut s, id);
                        merge(&mut next, s, (miss_cost, m + 1, h));
                    } else {
                        // Branch over every victim choice.
                        for victim_idx in 0..state.len() {
                            let mut s = state.clone();
                            s.remove(victim_idx);
                            insert_sorted(&mut s, id);
                            merge(&mut next, s, (miss_cost, m + 1, h));
                        }
                    }
                }
                frontier = next;
                if frontier.len() > limits.max_states {
                    return (OfflineStats::default(), false);
                }
            }
        }
    }

    // The optimum over all terminal states.
    let best = frontier
        .values()
        .min_by_key(|(c, _, _)| *c)
        .copied()
        .unwrap_or((0, 0, 0));
    (
        OfflineStats {
            accesses,
            hits: best.2,
            misses: best.1,
            aggregate_cost: Cost(best.0),
        },
        true,
    )
}

fn insert_sorted(state: &mut State, id: u16) {
    match state.binary_search(&id) {
        Ok(_) => {}
        Err(pos) => state.insert(pos, id),
    }
}

fn merge(map: &mut HashMap<State, (u64, u64, u64)>, state: State, v: (u64, u64, u64)) {
    map.entry(state)
        .and_modify(|cur| {
            if v.0 < cur.0 {
                *cur = v;
            }
        })
        .or_insert(v);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opt::simulate_belady;
    use cache_sim::{AccessType, BlockAddr, Cache, Lru};

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
    fn matches_belady_under_uniform_costs() {
        // With uniform costs, minimum cost = minimum misses, so CSOPT's
        // aggregate cost equals Belady's miss count.
        let geom = one_set(2);
        let trace: Vec<TraceEvent> = (0..40).map(|i| acc((i * 7) % 5, 1)).collect();
        let csopt = simulate_csopt(&geom, &trace, CsoptLimits::default()).expect("small trace");
        let belady = simulate_belady(&geom, &trace);
        assert_eq!(csopt.aggregate_cost.0, belady.misses);
    }

    #[test]
    fn beats_belady_when_costs_differ() {
        // The paper's motivating example shape: an expensive block whose
        // reuse Belady sacrifices (it evicts by farthest-use only).
        let geom = one_set(2);
        let trace = vec![
            acc(0, 10), // expensive
            acc(1, 1),
            acc(2, 1), // must evict: Belady evicts by distance, CSOPT by cost
            acc(1, 1),
            acc(0, 10),
        ];
        let csopt = simulate_csopt(&geom, &trace, CsoptLimits::default()).expect("small");
        let belady = simulate_belady(&geom, &trace);
        assert!(
            csopt.aggregate_cost < belady.aggregate_cost,
            "CSOPT {} !< Belady {}",
            csopt.aggregate_cost,
            belady.aggregate_cost
        );
    }

    #[test]
    fn lower_bounds_lru() {
        let geom = one_set(4);
        let mut trace = Vec::new();
        let mut x = 12345u64;
        for _ in 0..300 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let b = (x >> 33) % 9;
            trace.push(acc(b, if b.is_multiple_of(3) { 8 } else { 1 }));
        }
        let csopt = simulate_csopt(&geom, &trace, CsoptLimits::default()).expect("small");
        let mut lru = Cache::new(geom, Lru::new);
        for ev in &trace {
            if let TraceEvent::Access { block, cost } = ev {
                lru.access(*block, AccessType::Read, *cost);
            }
        }
        assert!(csopt.aggregate_cost <= lru.stats().aggregate_cost);
    }

    #[test]
    fn invalidations_are_handled() {
        let geom = one_set(2);
        let trace = vec![
            acc(0, 5),
            TraceEvent::Invalidate {
                block: BlockAddr(0),
            },
            acc(0, 5),
        ];
        let s = simulate_csopt(&geom, &trace, CsoptLimits::default()).expect("small");
        assert_eq!(s.aggregate_cost, Cost(10));
        assert_eq!(s.misses, 2);
    }

    #[test]
    fn state_limit_aborts_gracefully() {
        let geom = one_set(8);
        let trace: Vec<TraceEvent> = (0..4000).map(|i| acc((i * 37) % 64, 1)).collect();
        let tiny = CsoptLimits { max_states: 4 };
        assert!(simulate_csopt(&geom, &trace, tiny).is_none());
    }
}
