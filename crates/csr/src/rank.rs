//! The GreedyDual family: one inflation-offset rank core, two key
//! functions.
//!
//! GreedyDual and GDSF are the same algorithm. Every block carries a
//! priority `prio = L + key(freq, cost)`, stamped on fill and restamped on
//! every hit with the region-wide inflation offset `L` of that moment; the
//! victim is the block of least `prio` (ties toward the LRU end, the only
//! place locality enters the decision), and evicting it raises `L` to its
//! priority. Long-idle blocks keep their old stamp while `L` climbs past
//! them, so new traffic displaces stale heavyweights without any decay
//! sweep. The members differ only in `key`, picked at the type level by
//! [`RankCore`]'s `KEY` parameter:
//!
//! | core | `key(freq, cost)` | source |
//! |------|-------------------|--------|
//! | [`GdCore`] | `cost` | paper Section 2.1; Young 1994 |
//! | [`GdsfCore`] | `freq · cost` | Cherkasova 1998 |
//!
//! The core keeps its own recency order (a clock value per way, renewed on
//! every fill and hit) and finds the argmin of `(prio, clock)` itself. A
//! cache set's few ways are simply scanned. A larger region — a key-value
//! shard has tens of thousands — gets a min-heap, refreshed lazily: a fill
//! queues the way once, a hit only rewrites the way's rank. `L` never
//! decreases and `key` never falls with `freq`, so a hit can only raise
//! `prio` — every queued entry is a lower bound of its way's true rank, and
//! the first top that is still exact is the minimum (Young, *On-Line File
//! Caching*). A top that a hit has outdated is requeued at its current rank;
//! one a refill superseded, or whose way the driver has vacated, is dropped.
//! An eviction there costs O(log ways) amortized and visits no survivor.
//!
//! The logic lives in [`RankCore`], one region's [`EvictionPolicy`]; the
//! simulator's cache drives one per set.

use crate::eviction::{overgrown, report_victim, EvictionPolicy, Residents};
use cache_sim::{BlockAddr, Cost, Way, WayView};
use csr_obs::{NopObserver, Observer};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The values of [`RankCore`]'s `KEY`, indexing [`NAMES`].
const COST: u8 = 0;
const FREQ_COST: u8 = 1;
const NAMES: [&str; 2] = ["GD", "GDSF"];

/// Regions of at most this many ways are scanned; larger ones keep the heap.
/// The simulator holds a core per cache set, thousands of them, and what a
/// core keeps per way is what it costs there: at the paper's 4 ways a scan
/// is a comparison per way, the heap some 20 ns and 32 bytes a way more.
const SCAN_WAYS: usize = 8;

/// What the core remembers per way.
#[derive(Debug, Clone, Copy, Default)]
struct Rank {
    /// Access count (reset on fill).
    freq: u64,
    /// `L-at-last-touch + key(freq, cost)`.
    prio: u64,
    /// The core clock at the last touch (fill or hit): the way's place in
    /// the recency order, which breaks ties between equal priorities.
    touched: u64,
}

/// What a region too large to scan keeps beside its ranks.
#[derive(Debug, Clone)]
struct Lazy {
    /// Min-heap of `(prio, touched, way)` as of the push; see the module
    /// docs for when an entry is exact, outdated or dead.
    heap: BinaryHeap<Reverse<(u64, u64, usize)>>,
    /// Per way, the `touched` value its one live heap entry carries.
    queued: Vec<u64>,
}

impl Lazy {
    /// Queues `way` at `rank`, superseding the entry it had.
    fn push(&mut self, way: usize, rank: Rank) {
        self.queued[way] = rank.touched;
        self.heap.push(Reverse((rank.prio, rank.touched, way)));
    }

    /// The resident of least `(prio, touched)`, off the heap.
    fn pop_least(&mut self, ranks: &[Rank], residents: &dyn Residents) -> Option<(u64, WayView)> {
        while let Some(Reverse((prio, touched, way))) = self.heap.pop() {
            if self.queued[way] != touched {
                continue; // superseded by a refill of the way
            }
            let Some(resident) = residents.at_way(Way(way)) else {
                continue; // the block left without being chosen here
            };
            if ranks[way].touched != touched {
                // Hit since it was queued: requeue at its current rank.
                self.push(way, ranks[way]);
                continue;
            }
            return Some((prio, resident));
        }
        None
    }
}

/// The inflation-offset rank core for a single replacement region of a
/// fixed number of ways. `KEY` picks the member of the family; the two
/// aliases below are its only values.
#[derive(Debug, Clone)]
pub struct RankCore<const KEY: u8, O: Observer = NopObserver> {
    ranks: Vec<Rank>,
    /// `None` for a region of at most [`SCAN_WAYS`] ways, which is scanned.
    lazy: Option<Box<Lazy>>,
    /// The inflation offset `L`: the priority of the last evicted block.
    age: u64,
    /// Counts touches; never repeats a value, starts above `Rank::default`.
    clock: u64,
    obs: O,
}

/// GreedyDual (GD) adapted to processor caches (Section 2.1): `key = cost`.
///
/// GD is *cost-centric*: the victim is always the block with the least
/// remaining value `H`, regardless of recency. On a fill `H` is set to the
/// block's miss cost; on a hit the full miss cost is restored; when a block
/// is victimized, its `H` is deducted from every remaining block in the set.
///
/// That deduct-from-all form and this core's `prio = L + cost` are the same
/// algorithm (Young's Landlord, the `L` of CAMP): `prio_i = H_i + L` holds
/// at all times, so the argmin and its tie-break are the same scan, and
/// `H_i ≥ 0` means the new `L` is exactly the victim's `prio` — one region
/// walk per eviction instead of two, identical decisions short of `u64`
/// saturation (`tests/gd_differential.rs` checks it victim by victim).
///
/// GD is `s`-competitive with the offline optimum (Young, 1994; checked
/// against CSOPT in `tests/hierarchy_properties.rs`) and works well for wide
/// cost differentials, but the paper shows it is much less effective than
/// the locality-centric BCL/DCL/ACL when cost ratios are small.
///
/// # Examples
///
/// ```
/// use cache_sim::{Cache, Geometry, AccessType, Cost, BlockAddr};
/// use csr::GdCore;
///
/// let geom = Geometry::new(16 * 1024, 64, 4);
/// let mut cache = Cache::new(geom, || GdCore::new(geom.assoc()));
/// cache.access(BlockAddr(1), AccessType::Read, Cost(8)); // high-cost block
/// cache.access(BlockAddr(1), AccessType::Read, Cost(8)); // hit restores H
/// ```
pub type GdCore<O = NopObserver> = RankCore<COST, O>;

/// GreedyDual-Size-Frequency (GDSF, Cherkasova 1998): `key = freq · cost /
/// size`.
///
/// The cost-aware member that also counts reuse. Blocks survive by being
/// expensive to refetch *or* frequently reused — a cheap block must earn
/// its keep with hits, while an expensive block gets a head start that
/// still decays as `L` climbs. `size` is fixed at 1 until the size-aware
/// roadmap item lands.
pub type GdsfCore<O = NopObserver> = RankCore<FREQ_COST, O>;

impl<const KEY: u8> RankCore<KEY> {
    /// Creates a core for a region of `ways` blockframes.
    #[must_use]
    pub fn new(ways: usize) -> Self {
        const { assert!(KEY <= FREQ_COST, "KEY is one of COST, FREQ_COST") };
        RankCore {
            ranks: vec![Rank::default(); ways],
            lazy: (ways > SCAN_WAYS).then(|| {
                Box::new(Lazy {
                    heap: BinaryHeap::new(),
                    queued: vec![0; ways],
                })
            }),
            age: 0,
            clock: 0,
            obs: NopObserver,
        }
    }
}

impl<const KEY: u8, O: Observer> RankCore<KEY, O> {
    /// The current inflation offset `L`.
    #[must_use]
    pub fn age(&self) -> u64 {
        self.age
    }

    /// Entries in the lazy heap, dead ones included (bounded by
    /// [`overgrown`] against the number of ways).
    #[must_use]
    pub fn queued(&self) -> usize {
        self.lazy.as_ref().map_or(0, |lazy| lazy.heap.len())
    }

    /// Attaches a decision observer, replacing any existing one.
    #[must_use]
    pub fn with_observer<O2: Observer>(self, obs: O2) -> RankCore<KEY, O2> {
        RankCore {
            ranks: self.ranks,
            lazy: self.lazy,
            age: self.age,
            clock: self.clock,
            obs,
        }
    }

    /// The resident of least `(prio, touched)` — ties resolve toward the LRU
    /// end — by looking at every way this core has filled.
    fn scan(&mut self, residents: &dyn Residents) -> Option<(u64, WayView)> {
        loop {
            let filled = self
                .ranks
                .iter()
                .enumerate()
                .filter(|(_, r)| r.touched != 0);
            let (way, rank) = filled.min_by_key(|(_, r)| (r.prio, r.touched))?;
            if let Some(resident) = residents.at_way(Way(way)) {
                return Some((rank.prio, resident));
            }
            // The block left without being chosen here: forget its rank.
            self.ranks[way].touched = 0;
        }
    }

    /// Stamps `way` with `freq` accesses since its fill at the current
    /// offset and moves it to the MRU end of the core's recency order.
    fn stamp(&mut self, way: Way, freq: u64, cost: Cost) -> &mut Rank {
        let key = match KEY {
            COST => cost.0,
            // When sizes arrive, the division lands here.
            _ => freq.saturating_mul(cost.0),
        };
        self.clock += 1;
        let rank = &mut self.ranks[way.0];
        rank.freq = freq;
        rank.prio = self.age.saturating_add(key);
        rank.touched = self.clock;
        rank
    }
}

impl<const KEY: u8, O: Observer> EvictionPolicy for RankCore<KEY, O> {
    fn name(&self) -> &'static str {
        NAMES[KEY as usize]
    }

    fn victim(&mut self, residents: &dyn Residents) -> Way {
        let least = match &mut self.lazy {
            None => self.scan(residents),
            Some(lazy) => lazy.pop_least(&self.ranks, residents),
        };
        // Nothing this core ranked is resident (fresh or desynced core):
        // the LRU block goes.
        let Some((prio, chosen)) = least else {
            return report_victim(&self.obs, residents, residents.lru());
        };
        // Inflation: the evicted priority becomes the region offset.
        self.age = self.age.max(prio);
        report_victim(&self.obs, residents, chosen)
    }

    fn on_hit(&mut self, block: BlockAddr, way: Way, cost: Cost, _is_lru: bool) {
        // Restamp at the block's full miss cost (stored in its blockframe).
        self.stamp(way, self.ranks[way.0].freq.saturating_add(1), cost);
        self.obs.on_hit(block, cost);
    }

    fn on_miss(&mut self, block: BlockAddr, _lru: Option<(BlockAddr, Cost)>) {
        self.obs.on_miss(block);
    }

    fn on_fill(&mut self, _block: BlockAddr, way: Way, cost: Cost) {
        let rank = *self.stamp(way, 1, cost);
        let Some(lazy) = &mut self.lazy else {
            return;
        };
        lazy.push(way.0, rank);
        let Lazy { heap, queued } = &mut **lazy;
        if overgrown(heap.len(), queued.len()) {
            heap.retain(|Reverse((_, t, w))| queued[*w] == *t);
        }
    }
}

#[cfg(test)]
mod tests {
    mod gd {
        use super::super::*;
        use cache_sim::{AccessType, Cache, Geometry};

        /// One-set, 2-way cache for controlled scenarios.
        fn cache2() -> Cache<GdCore> {
            let geom = Geometry::new(128, 64, 2);
            Cache::new(geom, || GdCore::new(geom.assoc()))
        }

        #[test]
        fn victimizes_cheapest_not_lru() {
            let mut c = cache2();
            c.access(BlockAddr(0), AccessType::Read, Cost(8)); // high cost
            c.access(BlockAddr(1), AccessType::Read, Cost(1)); // low cost, MRU
                                                               // Block 0 is LRU but expensive: GD evicts block 1.
            c.access(BlockAddr(2), AccessType::Read, Cost(1));
            assert!(c.contains(BlockAddr(0)));
            assert!(!c.contains(BlockAddr(1)));
            assert_eq!(c.stats().non_lru_evictions, 1);
        }

        #[test]
        fn eviction_depreciates_survivors() {
            let mut c = cache2();
            c.access(BlockAddr(0), AccessType::Read, Cost(8));
            c.access(BlockAddr(1), AccessType::Read, Cost(3));
            c.access(BlockAddr(2), AccessType::Read, Cost(1)); // evicts 1 (H=3): H(0) = 8-3 = 5
                                                               // Next eviction: H(0)=5, H(2)=1 -> evicts 2, H(0) drops to 4.
            c.access(BlockAddr(3), AccessType::Read, Cost(1));
            assert!(c.contains(BlockAddr(0)));
            assert!(!c.contains(BlockAddr(2)));
            // Two more cheap evictions exhaust block 0's H: 4-1=3, 3-1=2, ...
            for b in 4..8u64 {
                c.access(BlockAddr(b), AccessType::Read, Cost(1));
            }
            assert!(!c.contains(BlockAddr(0)), "H must eventually deplete");
        }

        #[test]
        fn hit_restores_full_cost() {
            let mut c = cache2();
            c.access(BlockAddr(0), AccessType::Read, Cost(4));
            c.access(BlockAddr(1), AccessType::Read, Cost(1));
            c.access(BlockAddr(2), AccessType::Read, Cost(1)); // evicts 1, H(0)=3
            c.access(BlockAddr(0), AccessType::Read, Cost(4)); // hit: H(0) restored to 4
                                                               // Evict: H(0)=4 vs H(2)=1 -> 2 goes.
            c.access(BlockAddr(3), AccessType::Read, Cost(1));
            assert!(c.contains(BlockAddr(0)));
            assert!(!c.contains(BlockAddr(2)));
        }

        #[test]
        fn ties_break_toward_lru() {
            let mut c = cache2();
            c.access(BlockAddr(0), AccessType::Read, Cost(5));
            c.access(BlockAddr(1), AccessType::Read, Cost(5));
            // Equal H: the LRU block (0) must be chosen.
            c.access(BlockAddr(2), AccessType::Read, Cost(5));
            assert!(!c.contains(BlockAddr(0)));
            assert!(c.contains(BlockAddr(1)));
            assert_eq!(c.stats().non_lru_evictions, 0);
        }

        #[test]
        fn uniform_costs_behave_like_lru_on_this_sequence() {
            // With all costs equal and H restored on hits, recently-touched
            // blocks always have maximal H, so eviction falls to the LRU end.
            let geom = Geometry::new(256, 64, 4);
            let mut c = Cache::new(geom, || GdCore::new(geom.assoc()));
            for b in [0u64, 4, 8, 12] {
                c.access(BlockAddr(b), AccessType::Read, Cost(2));
            }
            c.access(BlockAddr(0), AccessType::Read, Cost(2)); // touch 0
            c.access(BlockAddr(16), AccessType::Read, Cost(2)); // evict: LRU is 4
            assert!(!c.contains(BlockAddr(4)));
            assert!(c.contains(BlockAddr(0)));
        }

        #[test]
        fn sets_are_driven_independently() {
            // Two sets (block line 64, 2 ways, 256 bytes): blocks 0/2/4 map to
            // set 0, blocks 1/3/5 to set 1; each set's own core evicts its LRU.
            let geom = Geometry::new(256, 64, 2);
            let mut c = Cache::new(geom, || GdCore::new(geom.assoc()));
            for b in [0u64, 2, 4, 1, 3, 5] {
                c.access(BlockAddr(b), AccessType::Read, Cost(1));
            }
            assert_eq!(c.stats().evictions, 2, "one eviction per set");
            assert!(!c.contains(BlockAddr(0)) && !c.contains(BlockAddr(1)));
        }
    }

    mod gdsf {
        use super::super::*;
        use cache_sim::{AccessType, Cache, Geometry};

        /// One-set, 2-way cache for controlled scenarios.
        fn cache2() -> Cache<GdsfCore> {
            let geom = Geometry::new(128, 64, 2);
            Cache::new(geom, || GdsfCore::new(geom.assoc()))
        }

        #[test]
        fn expensive_block_outranks_cheap_mru() {
            let mut c = cache2();
            c.access(BlockAddr(0), AccessType::Read, Cost(8)); // K = 8, LRU
            c.access(BlockAddr(1), AccessType::Read, Cost(1)); // K = 1, MRU
            c.access(BlockAddr(2), AccessType::Read, Cost(1));
            assert!(c.contains(BlockAddr(0)));
            assert!(!c.contains(BlockAddr(1)));
            assert_eq!(c.stats().non_lru_evictions, 1);
        }

        #[test]
        fn frequency_compensates_for_low_cost() {
            let mut c = cache2();
            for _ in 0..8 {
                c.access(BlockAddr(0), AccessType::Read, Cost(1)); // K = 8
            }
            c.access(BlockAddr(1), AccessType::Read, Cost(4)); // K = 4
            c.access(BlockAddr(2), AccessType::Read, Cost(1));
            assert!(c.contains(BlockAddr(0)), "hot cheap block survives");
            assert!(!c.contains(BlockAddr(1)));
        }

        #[test]
        fn aging_erodes_an_idle_expensive_block() {
            let mut c = cache2();
            c.access(BlockAddr(0), AccessType::Read, Cost(4)); // K = 4
            for b in 1..8u64 {
                // Cheap one-touch stream: L climbs one per eviction until the
                // newcomers outrank the idle expensive block.
                c.access(BlockAddr(b), AccessType::Read, Cost(1));
            }
            assert!(!c.contains(BlockAddr(0)), "idle expensive block ages out");
        }

        #[test]
        fn uniform_costs_tie_toward_lru() {
            let mut c = cache2();
            c.access(BlockAddr(0), AccessType::Read, Cost(2));
            c.access(BlockAddr(1), AccessType::Read, Cost(2));
            c.access(BlockAddr(2), AccessType::Read, Cost(2));
            assert!(!c.contains(BlockAddr(0)));
            assert_eq!(c.stats().non_lru_evictions, 0);
        }
    }
}
