//! CSOPT: the offline *optimal* replacement schedule for caches with
//! non-uniform miss costs (Jeong & Dubois, SPAA 1999 — the paper's ref \[6\]).
//!
//! The paper's key offline insight is that with non-uniform costs the victim
//! cannot be chosen greedily at replacement time, even with full knowledge of
//! the future: the optimal schedule may *reserve* a block through several
//! replacements. With blocks of one size, finding that schedule is weighted
//! paging, which is a min-cost flow (Chrobak, Karloff, Payne &
//! Vishwanathan, 1991). Sets are independent; in a set of `s` ways the block
//! just accessed is always resident, so between two accesses `s − 1` frames
//! hold everything else. Per set:
//!
//! * one node per access, in trace order;
//! * a line edge t → t+1 of capacity `s − 1` and cost 0: frames left idle;
//! * for each reuse of a block, accesses i and j with no invalidation of it
//!   in between and j > i + 1, an edge i → j−1 of capacity 1 and cost
//!   `−c_j`: the block kept in one of those frames until it hits at j (a
//!   reuse at j = i + 1 always hits);
//! * `s − 1` units pushed from the first access to the last.
//!
//! Every flow is a schedule and the cheapest is integral, so the optimum is
//! the cost of missing every access plus the cheapest flow's cost. The graph
//! is a DAG: one pass in node order gives the potentials, then at most
//! `s − 1` Dijkstra augmentations find the flow.
//!
//! Fed the stream an L2 receives, the result lower-bounds every policy on
//! that L2. When the L1 is direct-mapped with no more sets than the L2
//! (DESIGN.md invariant 9), inclusion never takes a block from the L1, so
//! the L2's input does not depend on its policy, and the result bounds the
//! whole inclusive hierarchy.

use crate::opt::{OfflineStats, TraceEvent};
use cache_sim::{BlockAddr, Geometry};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// Computes the optimal aggregate miss cost for `events` on a cache of
/// `geom`.
///
/// The returned [`OfflineStats`] carries the optimal aggregate cost; its
/// `hits` and `misses` are those of one optimal-cost schedule, which may
/// miss more often than Belady's — that is the whole point of
/// cost-sensitivity. When several schedules cost the same, which one is
/// reported is fixed but arbitrary.
#[must_use]
pub fn simulate_csopt(geom: &Geometry, events: &[TraceEvent]) -> OfflineStats {
    let mut per_set = vec![Vec::new(); geom.num_sets()];
    for ev in events {
        let (TraceEvent::Access { block, .. } | TraceEvent::Invalidate { block }) = *ev;
        per_set[geom.set_of(block).0].push(*ev);
    }
    let mut stats = OfflineStats::default();
    for set in &per_set {
        solve_set(geom.assoc() as i64 - 1, set, &mut stats);
    }
    stats
}

/// Adds to `stats` the optimum of one set's `events`, with `spare` frames
/// beside the block just accessed.
fn solve_set(spare: i64, events: &[TraceEvent], stats: &mut OfflineStats) {
    let mut net = Network::default();
    // Every reuse with its edge (none when it always hits) and the cost its
    // hit saves.
    let mut reuses = Vec::new();
    let mut last: HashMap<BlockAddr, usize> = HashMap::new();
    for ev in events {
        match *ev {
            TraceEvent::Invalidate { block } => {
                last.remove(&block);
            }
            TraceEvent::Access { block, cost } => {
                stats.accesses += 1;
                stats.misses += 1;
                stats.aggregate_cost += cost;
                let t = net.out.len();
                net.out.push(Vec::new());
                if t > 0 {
                    net.add(t - 1, t, spare, 0);
                }
                let edge = match last.insert(block, t) {
                    Some(i) if i + 1 < t => Some(net.add(i, t - 1, 1, -(cost.0 as i64))),
                    Some(_) => None,
                    None => continue,
                };
                reuses.push((edge, cost));
            }
        }
    }
    if spare > 0 && net.out.len() > 1 {
        net.min_cost_flow(spare);
    }
    for (edge, cost) in reuses {
        if edge.is_none_or(|e| net.cap[e] == 0) {
            stats.hits += 1;
            stats.misses -= 1;
            stats.aggregate_cost.0 -= cost.0;
        }
    }
}

/// A flow network in residual form: edge `e`'s reverse is `e ^ 1`. Every
/// edge [`add`](Self::add)ed runs from a lower node to a higher one.
#[derive(Default)]
struct Network {
    out: Vec<Vec<usize>>,
    to: Vec<usize>,
    cap: Vec<i64>,
    cost: Vec<i64>,
}

impl Network {
    /// Adds an edge `from → to` and its empty reverse; returns the edge.
    fn add(&mut self, from: usize, to: usize, cap: i64, cost: i64) -> usize {
        for (at, head, cap, cost) in [(from, to, cap, cost), (to, from, 0, -cost)] {
            self.out[at].push(self.to.len());
            self.to.push(head);
            self.cap.push(cap);
            self.cost.push(cost);
        }
        self.to.len() - 2
    }

    /// Pushes `units` from the first node to the last at least cost, by
    /// successive shortest paths. The line edges keep every node reachable
    /// until the last unit is pushed.
    fn min_cost_flow(&mut self, mut units: i64) {
        let n = self.out.len();
        // Shortest distances over the DAG, in node order: reduced costs
        // start out non-negative.
        let mut pot = vec![i64::MAX; n];
        pot[0] = 0;
        for u in 0..n {
            for &e in &self.out[u] {
                if self.cap[e] > 0 {
                    pot[self.to[e]] = pot[self.to[e]].min(pot[u] + self.cost[e]);
                }
            }
        }
        while units > 0 {
            let mut dist = vec![i64::MAX; n];
            let mut via = vec![usize::MAX; n];
            let mut heap = BinaryHeap::from([Reverse((0, 0))]);
            dist[0] = 0;
            while let Some(Reverse((d, u))) = heap.pop() {
                if d > dist[u] {
                    continue;
                }
                for &e in &self.out[u] {
                    let v = self.to[e];
                    let reached = d + self.cost[e] + pot[u] - pot[v];
                    if self.cap[e] > 0 && reached < dist[v] {
                        dist[v] = reached;
                        via[v] = e;
                        heap.push(Reverse((reached, v)));
                    }
                }
            }
            for (p, d) in pot.iter_mut().zip(&dist) {
                *p += d;
            }
            let path: Vec<usize> = std::iter::successors(Some(via[n - 1]), |&e| {
                Some(via[self.to[e ^ 1]]).filter(|&e| e != usize::MAX)
            })
            .collect();
            let push = path.iter().map(|&e| self.cap[e]).fold(units, i64::min);
            for e in path {
                self.cap[e] -= push;
                self.cap[e ^ 1] += push;
            }
            units -= push;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opt::simulate_belady;
    use cache_sim::{AccessType, Cache, Cost, Lru};

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
        let csopt = simulate_csopt(&geom, &trace);
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
        let csopt = simulate_csopt(&geom, &trace);
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
        let csopt = simulate_csopt(&geom, &trace);
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
        let s = simulate_csopt(&geom, &trace);
        assert_eq!(s.aggregate_cost, Cost(10));
        assert_eq!(s.misses, 2);
    }
}
