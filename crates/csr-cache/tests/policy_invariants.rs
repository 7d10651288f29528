//! Cross-policy invariant suite: every core behind [`Policy`] — the
//! paper's cost-sensitive set and the modern zoo — must uphold the shard
//! contract under identical churn:
//!
//! * victims are always valid occupied ways (the shard would index out of
//!   its slab and panic otherwise),
//! * the entry accounting balances: every insertion is either still
//!   resident, was evicted, or was removed,
//! * a fixed seed and a fixed hasher make runs bit-for-bit reproducible,
//! * decision events delivered to an [`Observer`](csr_obs::Observer)
//!   agree with [`CacheStats`](csr_cache::CacheStats).

use csr_cache::{CsrCache, Policy};
use csr_obs::CountingObserver;
use std::collections::hash_map::DefaultHasher;
use std::hash::BuildHasher;
use std::sync::Arc;

/// Deterministic hasher (`DefaultHasher::new()` uses fixed keys), so the
/// same workload maps keys to the same shards and slots on every run.
#[derive(Clone, Default)]
struct FixedState;

impl BuildHasher for FixedState {
    type Hasher = DefaultHasher;
    fn build_hasher(&self) -> DefaultHasher {
        DefaultHasher::new()
    }
}

/// Deterministic LCG for reproducible workloads.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

const CAPACITY: usize = 128;
const KEYS: u64 = 600;

fn build(policy: Policy) -> CsrCache<u64, u64, FixedState> {
    CsrCache::builder(CAPACITY)
        .shards(2)
        .hasher(FixedState)
        .policy(policy)
        .cost_fn(|k, _v| if k % 7 == 0 { 32 } else { 1 + k % 4 })
        .build()
}

/// Get-then-insert churn with occasional in-place updates and removes:
/// exercises every policy callback (hit, miss, fill, evict, remove).
fn churn(cache: &CsrCache<u64, u64, FixedState>, ops: usize, seed: u64) {
    let mut rng = Lcg(seed);
    for i in 0..ops {
        let key = rng.next() % KEYS;
        match i % 23 {
            7 => {
                cache.insert(key, key.wrapping_mul(31));
            }
            15 => {
                cache.remove(&key);
            }
            _ => {
                if cache.get(&key).is_none() {
                    cache.insert(key, key * 3);
                }
            }
        }
    }
}

/// The keys-much-larger-than-capacity churn forces evictions in every
/// shard; any core returning an out-of-range or unoccupied way would
/// panic the shard's slab indexing long before the asserts run.
#[test]
fn every_policy_survives_churn_and_accounting_balances() {
    for policy in Policy::ALL {
        let cache = build(policy);
        churn(&cache, 40_000, 0xFEED);
        let stats = cache.stats();
        let name = policy.name();

        assert!(cache.len() <= CAPACITY, "{name}: over capacity");
        assert!(stats.evictions > 0, "{name}: churn never evicted");
        assert!(stats.hits > 0 && stats.misses > 0, "{name}: degenerate run");
        assert_eq!(stats.lookups, stats.hits + stats.misses, "{name}");
        // Every filled entry is resident, was evicted, or was removed.
        assert_eq!(
            stats.insertions,
            stats.evictions + stats.removals + cache.len() as u64,
            "{name}: entry accounting does not balance"
        );
    }
}

#[test]
fn every_policy_survives_clear_mid_churn() {
    for policy in Policy::ALL {
        let cache = build(policy);
        churn(&cache, 10_000, 0xC1EA);
        cache.clear();
        assert_eq!(cache.len(), 0, "{}", policy.name());
        churn(&cache, 10_000, 0xC1EB);
        let stats = cache.stats();
        assert!(!cache.is_empty(), "{}: dead after clear", policy.name());
        assert_eq!(
            stats.insertions,
            stats.evictions + stats.removals + cache.len() as u64,
            "{}: accounting broken across clear",
            policy.name()
        );
    }
}

#[test]
fn fixed_seed_runs_are_deterministic_for_every_policy() {
    for policy in Policy::ALL {
        let a = build(policy);
        let b = build(policy);
        churn(&a, 30_000, 0xD3AD);
        churn(&b, 30_000, 0xD3AD);
        let name = policy.name();
        assert_eq!(a.stats(), b.stats(), "{name}: stats diverged");
        assert_eq!(a.len(), b.len(), "{name}: occupancy diverged");
        for key in 0..KEYS {
            assert_eq!(
                a.contains(&key),
                b.contains(&key),
                "{name}: contents diverged at key {key}"
            );
        }
    }
}

/// The shard delivers `on_miss` once per missing access — a get-miss, or
/// a fresh insert no get-miss just preceded — and `on_hit` once per
/// get-hit and per in-place update, so the observer's counts relate to the
/// cache stats by exact identities, for every core in the zoo. Every
/// get-miss of the churn is filled at once, and every other fresh insert
/// is a set of an absent key: one miss per insertion.
#[test]
fn observer_events_match_stats_for_every_policy() {
    for policy in Policy::ALL {
        let obs = Arc::new(CountingObserver::default());
        let cache: CsrCache<u64, u64, FixedState> = CsrCache::builder(CAPACITY)
            .shards(2)
            .hasher(FixedState)
            .policy(policy)
            .observer(obs.clone())
            .cost_fn(|k, _v| if k % 7 == 0 { 32 } else { 1 + k % 4 })
            .build();
        churn(&cache, 20_000, 0x0B5E);

        let stats = cache.stats();
        let counts = obs.counts();
        let name = policy.name();
        assert_eq!(counts.hits, stats.hits + stats.updates, "{name}: hits");
        assert_eq!(counts.misses, stats.insertions, "{name}: misses");
        assert_eq!(counts.evictions, stats.evictions, "{name}: evictions");
    }
}
