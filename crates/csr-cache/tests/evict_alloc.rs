//! An eviction allocates nothing.
//!
//! The region answers its core's questions from the lists it keeps, so a
//! steady state of evicting inserts — a full shard, every insert a miss —
//! must make no heap allocation at all: no copy of the recency order, and no
//! map-node churn when a cost class drains and refills. A counting wrapper
//! around the system allocator makes that a hard failure. It lives in an
//! integration test (its own crate) because the library is
//! `#![forbid(unsafe_code)]` and `GlobalAlloc` needs `unsafe`.

use csr_cache::{CsrCache, Policy};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hash::{BuildHasher, Hasher};

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

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
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

const CAPACITY: usize = 256;

/// Hashes a `u64` key to the same value on every run. The shard's key index
/// grows its table once, when tombstones have used up its headroom, and when
/// that happens depends on the hash values: with the default per-process
/// seed it fell inside the measured window in one run in twenty.
#[derive(Clone, Copy, Default)]
struct FixedState;

struct Mixed(u64);

impl Hasher for Mixed {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("keys are u64");
    }

    fn write_u64(&mut self, key: u64) {
        // SplitMix64's finalizer.
        let z = (key ^ (key >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        self.0 = z ^ (z >> 31);
    }
}

impl BuildHasher for FixedState {
    type Hasher = Mixed;

    fn build_hasher(&self) -> Mixed {
        Mixed(0)
    }
}

/// The benchmark's mix — one key in 16 costs 32, the rest 1 — plus forty
/// costs so rare (one key in 300 each, fewer than one per capacity) that
/// each one's class is empty between one member's eviction and the next
/// one's arrival: enough classes to span several map nodes, which removing
/// and re-adding them would free and allocate.
fn cost_of(key: u64) -> u64 {
    match key % 300 {
        rare @ 1..=40 => 100 + rare,
        _ if key.is_multiple_of(16) => 32,
        _ => 1,
    }
}

fn evicting_inserts_allocate_nothing(policy: Policy) {
    let cache: CsrCache<u64, u64, FixedState> = CsrCache::builder(CAPACITY)
        .shards(1)
        .policy(policy)
        .cost_fn(|k: &u64, _v: &u64| cost_of(*k))
        .hasher(FixedState)
        .build();
    // Every key is new, so every insert past the first `CAPACITY` evicts.
    // The warm-up lets the key index grow to its final table size and the
    // core fill whatever it keeps (DCL's shadow directory, S3-FIFO's ghost).
    let mut keys = 0u64..;
    for key in keys.by_ref().take(40 * CAPACITY) {
        cache.insert(key, key);
    }
    let evictions = cache.stats().evictions;

    let before = allocations();
    for key in keys.take(10_000) {
        cache.insert(key, key);
    }
    let allocated = allocations() - before;

    assert_eq!(cache.stats().evictions - evictions, 10_000);
    assert_eq!(cache.len(), CAPACITY);
    assert_eq!(
        allocated, 0,
        "{policy}: {allocated} allocations in 10k evicting inserts"
    );
}

#[test]
fn lru_evictions_allocate_nothing() {
    evicting_inserts_allocate_nothing(Policy::Lru);
}

#[test]
fn dcl_evictions_allocate_nothing() {
    evicting_inserts_allocate_nothing(Policy::Dcl);
}

#[test]
fn camp_evictions_allocate_nothing() {
    evicting_inserts_allocate_nothing(Policy::Camp);
}

#[test]
fn s3fifo_evictions_allocate_nothing() {
    evicting_inserts_allocate_nothing(Policy::S3Fifo);
}
