//! A region that never evicts must not grow its core.
//!
//! The queue cores supersede entries instead of unlinking them (a hit
//! re-enqueues in SLRU and CAMP, a removal leaves its entry behind in all of
//! them, the GreedyDual heap keeps the entry of a vacated way), and stale
//! entries used to leave only through `victim`. A cache whose working set
//! fits never calls `victim`: SLRU and CAMP grew by one entry per hit, the
//! others by one per remove-and-refill, without bound. Here a quarter-full
//! 64-way set takes a million hits and a hundred thousand invalidate/refill
//! cycles under each core, and what the core has queued must stay within
//! `csr::eviction::overgrown`'s `2 * live + 16`.
//!
//! LRU and BCL own no collection; DCL's and ACL's only one is the shadow
//! directory, whose capacity is fixed at construction and checked here too.

use cache_sim::{AccessType, BlockAddr, Cache, Cost, Geometry, InvalidateKind, SetIndex};
use csr::{
    Acl, AclCore, Camp, CampCore, Dcl, DclCore, EvictionPolicy, Gdsf, GreedyDual, Lfuda, PerSet,
    RankCore, S3Fifo, S3FifoCore, Slru, SlruCore,
};

const WAYS: usize = 64;
const RESIDENT: u64 = (WAYS / 4) as u64;
const HITS: u64 = 1_000_000;
const CYCLES: u64 = 100_000;

/// SplitMix64, inline so the crate's tests stay dependency-free.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % n
    }
}

/// One key in four is expensive, so CAMP has more than one bucket.
fn cost_of(block: u64) -> Cost {
    Cost(if block.is_multiple_of(4) { 32 } else { 1 })
}

fn one_set() -> Geometry {
    Geometry::new(64 * WAYS as u64, 64, WAYS)
}

fn stays_bounded<C: EvictionPolicy>(policy: PerSet<C>, queued: impl Fn(&C) -> usize) {
    let mut cache = Cache::new(one_set(), policy);
    let name = cache.policy().core(SetIndex(0)).name();
    let mut rng = Rng(0x51_0BAD);
    let mut worst = 0;
    let mut access = |cache: &mut Cache<PerSet<C>>, block: u64| {
        cache.access(BlockAddr(block), AccessType::Read, cost_of(block));
        worst = worst.max(queued(cache.policy().core(SetIndex(0))));
    };
    for block in 0..RESIDENT {
        access(&mut cache, block);
    }
    for _ in 0..HITS {
        access(&mut cache, rng.below(RESIDENT));
    }
    for _ in 0..CYCLES {
        let block = rng.below(RESIDENT);
        cache.invalidate(BlockAddr(block), InvalidateKind::Flush);
        access(&mut cache, block); // the refill
        access(&mut cache, rng.below(RESIDENT));
    }
    assert_eq!(cache.stats().evictions, 0, "{name}: the set never fills");
    assert!(
        worst <= 2 * WAYS + 16,
        "{name}: {worst} entries queued for {RESIDENT} resident blocks in {WAYS} ways"
    );
}

#[test]
fn rank_heaps_stay_bounded_without_evictions() {
    let geom = one_set();
    stays_bounded(GreedyDual::new(&geom), RankCore::queued);
    stays_bounded(Gdsf::new(&geom), RankCore::queued);
    stays_bounded(Lfuda::new(&geom), RankCore::queued);
}

#[test]
fn fifo_and_segment_queues_stay_bounded_without_evictions() {
    let geom = one_set();
    stays_bounded(S3Fifo::new(&geom), S3FifoCore::queued);
    stays_bounded(Slru::new(&geom), SlruCore::queued);
    stays_bounded(Camp::new(&geom), CampCore::queued);
}

#[test]
fn shadow_directories_stay_bounded_without_evictions() {
    let geom = one_set();
    stays_bounded(Dcl::new(&geom), |c: &DclCore| c.etd().len());
    stays_bounded(Acl::new(&geom), |c: &AclCore| c.etd().len());
}
