//! The GreedyDual family: one inflation-offset rank core, three key
//! functions.
//!
//! GreedyDual, GDSF and LFUDA are the same algorithm. Every block carries a
//! priority `prio = L + key(freq, cost)`, stamped on fill and restamped on
//! every hit with the region-wide inflation offset `L` of that moment; the
//! victim is the block of least `prio` (ties toward the LRU end, the only
//! place locality enters the decision), and evicting it raises `L` to its
//! priority. Long-idle blocks keep their old stamp while `L` climbs past
//! them, so new traffic displaces stale heavyweights without any decay
//! sweep. The members differ only in `key`, picked at the type level by
//! [`RankCore`]'s `KEY` parameter:
//!
//! | core / per-set policy | `key(freq, cost)` | source |
//! |-----------------------|-------------------|--------|
//! | [`GdCore`] / [`GreedyDual`] | `cost` | paper Section 2.1; Young 1994 |
//! | [`GdsfCore`] / [`Gdsf`] | `freq · cost` | Cherkasova 1998 |
//! | [`LfudaCore`] / [`Lfuda`] | `freq` | Arlitt et al. 2000 |
//!
//! The single-region logic lives in [`RankCore`] (an [`EvictionPolicy`]);
//! the `PerSet` aliases replicate one core per set for the simulator.

use crate::eviction::{report_victim, EvictionPolicy, PerSet};
use cache_sim::{BlockAddr, Cost, Geometry, SetView, Way};
use csr_obs::{NopObserver, Observer};

/// The values of [`RankCore`]'s `KEY`, indexing [`NAMES`].
const COST: u8 = 0;
const FREQ_COST: u8 = 1;
const FREQ: u8 = 2;
const NAMES: [&str; 3] = ["GD", "GDSF", "LFUDA"];

/// What the core remembers per way.
#[derive(Debug, Clone, Copy, Default)]
struct Rank {
    /// Access count (reset on fill).
    freq: u64,
    /// `L-at-last-touch + key(freq, cost)`.
    prio: u64,
}

/// The inflation-offset rank core for a single replacement region of a
/// fixed number of ways. `KEY` picks the member of the family; the three
/// aliases below are its only values.
#[derive(Debug, Clone)]
pub struct RankCore<const KEY: u8, O: Observer = NopObserver> {
    ranks: Vec<Rank>,
    /// The inflation offset `L`: the priority of the last evicted block.
    age: u64,
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

/// LFU with Dynamic Aging (LFUDA, Arlitt et al.): `key = freq`.
///
/// Pure LFU never forgets: a block that was hot last week outranks
/// everything accessed today; the rising offset `L` fixes that.
/// Cost-oblivious ([`GdsfCore`] is the cost-aware sibling).
pub type LfudaCore<O = NopObserver> = RankCore<FREQ, O>;

impl<const KEY: u8> RankCore<KEY> {
    /// Creates a core for a region of `ways` blockframes.
    #[must_use]
    pub fn new(ways: usize) -> Self {
        const { assert!(KEY <= FREQ, "KEY is one of COST, FREQ_COST, FREQ") };
        RankCore {
            ranks: vec![Rank::default(); ways],
            age: 0,
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

    /// Attaches a decision observer, replacing any existing one.
    #[must_use]
    pub fn with_observer<O2: Observer>(self, obs: O2) -> RankCore<KEY, O2> {
        RankCore {
            ranks: self.ranks,
            age: self.age,
            obs,
        }
    }

    /// Stamps `way` with `freq` accesses since its fill at the current
    /// offset.
    fn stamp(&mut self, way: Way, freq: u64, cost: Cost) {
        let key = match KEY {
            COST => cost.0,
            // When sizes arrive, the division lands here.
            FREQ_COST => freq.saturating_mul(cost.0),
            _ => freq,
        };
        self.ranks[way.0] = Rank {
            freq,
            prio: self.age.saturating_add(key),
        };
    }
}

impl<const KEY: u8, O: Observer> EvictionPolicy for RankCore<KEY, O> {
    fn name(&self) -> &'static str {
        NAMES[KEY as usize]
    }

    fn victim(&mut self, view: &SetView<'_>) -> Way {
        // Minimum-prio block; scanning LRU -> MRU with a strict `<` makes
        // ties resolve toward the LRU end.
        let mut best: Option<(usize, u64)> = None;
        for (pos, e) in view.iter().enumerate().rev() {
            let val = self.ranks[e.way.0].prio;
            match best {
                Some((_, b)) if b <= val => {}
                _ => best = Some((pos, val)),
            }
        }
        let (pos, min) = best.expect("victim() requires a non-empty set");
        // Inflation: the evicted priority becomes the region offset.
        self.age = self.age.max(min);
        report_victim(&self.obs, view, pos)
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
        self.stamp(way, 1, cost);
    }
}

/// The GreedyDual replacement policy (one [`GdCore`] per set).
///
/// # Examples
///
/// ```
/// use cache_sim::{Cache, Geometry, AccessType, Cost, BlockAddr};
/// use csr::GreedyDual;
///
/// let geom = Geometry::new(16 * 1024, 64, 4);
/// let mut cache = Cache::new(geom, GreedyDual::new(&geom));
/// cache.access(BlockAddr(1), AccessType::Read, Cost(8)); // high-cost block
/// cache.access(BlockAddr(1), AccessType::Read, Cost(8)); // hit restores H
/// ```
pub type GreedyDual<O = NopObserver> = PerSet<GdCore<O>>;
/// The GDSF replacement policy (one [`GdsfCore`] per set).
pub type Gdsf<O = NopObserver> = PerSet<GdsfCore<O>>;
/// The LFUDA replacement policy (one [`LfudaCore`] per set).
pub type Lfuda<O = NopObserver> = PerSet<LfudaCore<O>>;

impl<const KEY: u8> PerSet<RankCore<KEY>> {
    /// Creates the policy for the given cache geometry.
    #[must_use]
    pub fn new(geom: &Geometry) -> Self {
        PerSet::from_fn(geom, || RankCore::new(geom.assoc()))
    }
}

impl<const KEY: u8, O: Observer> PerSet<RankCore<KEY, O>> {
    /// Attaches a decision observer; every set's core receives a clone.
    #[must_use]
    pub fn with_observer<O2: Observer + Clone>(self, obs: O2) -> PerSet<RankCore<KEY, O2>> {
        self.map_cores(|c| c.with_observer(obs.clone()))
    }
}

#[cfg(test)]
mod tests {
    mod gd {
        use super::super::*;
        use cache_sim::{AccessType, Cache};

        /// One-set, 2-way cache for controlled scenarios.
        fn cache2() -> Cache<GreedyDual> {
            let geom = Geometry::new(128, 64, 2);
            Cache::new(geom, GreedyDual::new(&geom))
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
            let mut c = Cache::new(geom, GreedyDual::new(&geom));
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
            let mut c = Cache::new(geom, GreedyDual::new(&geom));
            for b in [0u64, 2, 4, 1, 3, 5] {
                c.access(BlockAddr(b), AccessType::Read, Cost(1));
            }
            assert_eq!(c.stats().evictions, 2, "one eviction per set");
            assert!(!c.contains(BlockAddr(0)) && !c.contains(BlockAddr(1)));
        }
    }

    mod gdsf {
        use super::super::*;
        use cache_sim::{AccessType, Cache};

        /// One-set, 2-way cache for controlled scenarios.
        fn cache2() -> Cache<Gdsf> {
            let geom = Geometry::new(128, 64, 2);
            Cache::new(geom, Gdsf::new(&geom))
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

    mod lfuda {
        use super::super::*;
        use cache_sim::{AccessType, Cache};

        /// One-set, 2-way cache for controlled scenarios.
        fn cache2() -> Cache<Lfuda> {
            let geom = Geometry::new(128, 64, 2);
            Cache::new(geom, Lfuda::new(&geom))
        }

        #[test]
        fn frequency_outranks_recency() {
            let mut c = cache2();
            c.access(BlockAddr(0), AccessType::Read, Cost(1));
            c.access(BlockAddr(0), AccessType::Read, Cost(1));
            c.access(BlockAddr(0), AccessType::Read, Cost(1)); // K(0) = 3
            c.access(BlockAddr(1), AccessType::Read, Cost(1)); // K(1) = 1, MRU
            c.access(BlockAddr(2), AccessType::Read, Cost(1));
            assert!(c.contains(BlockAddr(0)));
            assert!(!c.contains(BlockAddr(1)));
            assert_eq!(c.stats().non_lru_evictions, 1);
        }

        #[test]
        fn aging_eventually_displaces_stale_heavyweights() {
            let mut c = cache2();
            for _ in 0..3 {
                c.access(BlockAddr(0), AccessType::Read, Cost(1)); // K(0) = 3
            }
            // A one-touch stream: each fill enters at K = L + 1, each eviction
            // raises L, until the newcomers match the idle heavyweight.
            for b in 1..5u64 {
                c.access(BlockAddr(b), AccessType::Read, Cost(1));
            }
            assert!(
                !c.contains(BlockAddr(0)),
                "the idle high-frequency block must age out"
            );
        }

        #[test]
        fn ties_break_toward_lru() {
            let mut c = cache2();
            c.access(BlockAddr(0), AccessType::Read, Cost(1));
            c.access(BlockAddr(1), AccessType::Read, Cost(1));
            c.access(BlockAddr(2), AccessType::Read, Cost(1));
            assert!(!c.contains(BlockAddr(0)));
            assert_eq!(c.stats().non_lru_evictions, 0);
        }
    }
}
