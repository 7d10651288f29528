//! A region that never evicts must not grow its core.
//!
//! A cache whose working set fits never calls `victim`, so whatever a core
//! accumulates on hits and on remove-and-refill must be bounded by something
//! else. Here a quarter-full 64-way set takes a million hits and a hundred
//! thousand invalidate/refill cycles under each core.
//!
//! * The queue cores (S3-FIFO, CAMP) thread their queues through the
//!   ways and size them at construction: they must not allocate at all, which
//!   a counting wrapper around the system allocator makes a hard failure (in
//!   an integration test because the library is `#![forbid(unsafe_code)]`).
//!   A queue that superseded entries instead of unlinking them would grow by
//!   one per hit or per remove-and-refill here, without bound.
//! * The GreedyDual heap keeps the entry of a vacated way until it surfaces
//!   or is compacted away: what it has queued must stay within
//!   `csr::eviction::overgrown`'s `2 * live + 16`.
//! * LRU and BCL own no collection; DCL's and ACL's only one is the shadow
//!   directory, whose capacity is fixed at construction and checked here too.

use cache_sim::{AccessType, BlockAddr, Cache, Cost, Geometry, SetIndex};
use csr::{AclCore, CampCore, DclCore, EvictionPolicy, GdCore, GdsfCore, RankCore, S3FifoCore};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    /// Allocations made by *this* thread: the harness runs this file's tests
    /// on parallel threads. Const-initialised and without a destructor, so
    /// touching it from inside the allocator never allocates.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: allocations during thread teardown are simply not counted.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

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

/// Runs the never-evicting traffic over `cache`, calling `each` on the
/// set's core after every access.
fn never_evicting<C: EvictionPolicy>(mut cache: Cache<C>, mut each: impl FnMut(&C)) {
    let name = cache.core(SetIndex(0)).name();
    let mut rng = Rng(0x51_0BAD);
    let mut access = |cache: &mut Cache<C>, block: u64| {
        cache.access(BlockAddr(block), AccessType::Read, cost_of(block));
        each(cache.core(SetIndex(0)));
    };
    for block in 0..RESIDENT {
        access(&mut cache, block);
    }
    for _ in 0..HITS {
        access(&mut cache, rng.below(RESIDENT));
    }
    for _ in 0..CYCLES {
        let block = rng.below(RESIDENT);
        cache.invalidate(BlockAddr(block));
        access(&mut cache, block); // the refill
        access(&mut cache, rng.below(RESIDENT));
    }
    assert_eq!(cache.stats().evictions, 0, "{name}: the set never fills");
}

fn stays_bounded<C: EvictionPolicy>(core: impl FnMut() -> C, queued: impl Fn(&C) -> usize) {
    let mut worst = 0;
    let cache = Cache::new(one_set(), core);
    never_evicting(cache, |core| worst = worst.max(queued(core)));
    assert!(
        worst <= 2 * WAYS + 16,
        "{worst} entries queued for {RESIDENT} resident blocks in {WAYS} ways"
    );
}

/// From the first fill on: the core was sized when it was built.
fn allocates_nothing<C: EvictionPolicy>(core: impl FnMut() -> C) {
    let cache = Cache::new(one_set(), core);
    let name = cache.core(SetIndex(0)).name();
    let before = ALLOCATIONS.with(Cell::get);
    never_evicting(cache, |_| {});
    let allocated = ALLOCATIONS.with(Cell::get) - before;
    assert_eq!(allocated, 0, "{name}: {allocated} allocations");
}

#[test]
fn rank_heaps_stay_bounded_without_evictions() {
    stays_bounded(|| GdCore::new(WAYS), RankCore::queued);
    stays_bounded(|| GdsfCore::new(WAYS), RankCore::queued);
}

#[test]
fn fifo_and_segment_queues_allocate_nothing_without_evictions() {
    allocates_nothing(|| S3FifoCore::new(WAYS));
    allocates_nothing(|| CampCore::new(WAYS));
}

#[test]
fn shadow_directories_stay_bounded_without_evictions() {
    let geom = one_set();
    stays_bounded(|| DclCore::for_geometry(&geom), |c: &DclCore| c.etd().len());
    stays_bounded(|| AclCore::for_geometry(&geom), |c: &AclCore| c.etd().len());
}
