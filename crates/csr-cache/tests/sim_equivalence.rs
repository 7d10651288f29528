//! Deterministic single-thread equivalence: a 1-shard `CsrCache` driven
//! with an identity hasher must make exactly the same residency decisions
//! as the `cache-sim` simulator running the same policy on one set of the
//! same associativity over an identical reference stream.
//!
//! The identity hasher makes the policy-visible block identity equal the
//! raw key, so the shard's policy core and the simulator's per-set core
//! observe byte-for-byte identical event streams.

use cache_sim::{AccessType, BlockAddr, Cache, Cost, EvictionPolicy, Geometry, Lru};
use csr::{AclCore, BclCore, CampCore, DclCore, GdCore, GdsfCore, S3FifoCore};
use csr_cache::{CsrCache, Policy};
use std::hash::{BuildHasher, Hasher};

const ACCESSES: usize = 4000;

/// A hasher whose output is the last `u64` written — `hash(k) == k`.
#[derive(Clone, Default)]
struct IdentityState;

struct IdentityHasher(u64);

impl Hasher for IdentityHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        // u64's Hash impl goes through write_u64; this path is only taken
        // by HashMap metadata writes on some platforms.
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }
    fn write_u64(&mut self, i: u64) {
        self.0 = i;
    }
}

impl BuildHasher for IdentityState {
    type Hasher = IdentityHasher;
    fn build_hasher(&self) -> IdentityHasher {
        IdentityHasher(0)
    }
}

/// Skewed costs: every fourth key is 16x more expensive to re-fetch.
fn two_costs(key: u64) -> u64 {
    if key.is_multiple_of(4) {
        16
    } else {
        1
    }
}

/// Five costs, so the region keeps more classes than the paper's two and the
/// reservation scan has to pick among their tails.
fn five_costs(key: u64) -> u64 {
    [1, 2, 4, 16, 64][(key % 5) as usize]
}

/// Deterministic LCG reference stream over a universe of `keys`.
fn stream(keys: u64) -> impl Iterator<Item = u64> {
    let mut state = 0x1E12_AC4Eu64;
    std::iter::repeat_with(move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) % keys
    })
    .take(ACCESSES)
}

/// The paper's associativity doubled, and a set no hardware has: the shard
/// side answers from its lists whatever the size, the simulator side still
/// walks the set's recency stack.
fn run_equivalence<C: EvictionPolicy>(policy: Policy, sim_core: impl Fn(&Geometry) -> C) {
    for ways in [8, 64] {
        for cost_of in [two_costs, five_costs] {
            let geom = Geometry::new((ways * 64) as u64, 64, ways); // exactly one set
            assert_eq!(geom.num_sets(), 1);
            run_one(policy, || sim_core(&geom), geom, cost_of);
        }
    }
}

fn run_one<C: EvictionPolicy>(
    policy: Policy,
    sim_core: impl FnMut() -> C,
    geom: Geometry,
    cost_of: fn(u64) -> u64,
) {
    let ways = geom.assoc();
    let keys = 3 * ways as u64;
    let mut sim = Cache::new(geom, sim_core);

    let cache: CsrCache<u64, u64, IdentityState> = CsrCache::builder(ways)
        .shards(1)
        .policy(policy)
        .cost_fn(move |k: &u64, _v: &u64| cost_of(*k))
        .hasher(IdentityState)
        .build();
    assert_eq!(cache.capacity(), ways);

    for (step, key) in stream(keys).enumerate() {
        sim.access(BlockAddr(key), AccessType::Read, Cost(cost_of(key)));
        if cache.get(&key).is_none() {
            cache.insert(key, key);
        }

        for probe in 0..keys {
            assert_eq!(
                cache.contains(&probe),
                sim.contains(BlockAddr(probe)),
                "{policy}, {ways} ways: residency of key {probe} diverged after step {step} (key {key})",
            );
        }
    }

    let stats = cache.stats();
    assert_eq!(stats.lookups, ACCESSES as u64);
    assert_eq!(stats.hits + stats.misses, stats.lookups);
    assert_eq!(
        stats.aggregate_miss_cost,
        sim.stats().aggregate_cost.0,
        "{policy}, {ways} ways: aggregate miss cost diverged",
    );
    assert_eq!(stats.misses, stats.insertions);
}

#[test]
fn lru_cache_matches_simulator() {
    run_equivalence(Policy::Lru, |_| Lru::new());
}

#[test]
fn gd_cache_matches_simulator() {
    run_equivalence(Policy::Gd, |g| GdCore::new(g.assoc()));
}

#[test]
fn bcl_cache_matches_simulator() {
    run_equivalence(Policy::Bcl, |_| BclCore::new());
}

#[test]
fn dcl_cache_matches_simulator() {
    run_equivalence(Policy::Dcl, DclCore::for_geometry);
}

#[test]
fn acl_cache_matches_simulator() {
    run_equivalence(Policy::Acl, AclCore::for_geometry);
}

#[test]
fn s3fifo_cache_matches_simulator() {
    run_equivalence(Policy::S3Fifo, |g| S3FifoCore::new(g.assoc()));
}

#[test]
fn gdsf_cache_matches_simulator() {
    run_equivalence(Policy::Gdsf, |g| GdsfCore::new(g.assoc()));
}

#[test]
fn camp_cache_matches_simulator() {
    run_equivalence(Policy::Camp, |g| CampCore::new(g.assoc()));
}
