//! The sharded, thread-safe, cost-aware cache.

use cache_sim::BlockAddr;
use csr::Policy;
use csr_obs::{MetricsObserver, Registry, Sampler, SharedObserver};
use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hash};
use std::sync::Arc;

use crate::shard::{Shard, ShardMetrics};
use crate::stats::CacheStats;

/// The user-supplied miss-cost function: invoked once per fill with the key
/// and value being inserted, returning the cost of re-obtaining that entry
/// on a future miss (latency, bytes, money — any additive unit).
pub type CostFn<K, V> = dyn Fn(&K, &V) -> u64 + Send + Sync;

/// Configures and builds a [`CsrCache`]. Created by [`CsrCache::builder`].
pub struct CacheBuilder<K, V, S = RandomState> {
    capacity: usize,
    shards: Option<usize>,
    policy: Policy,
    cost_fn: Arc<CostFn<K, V>>,
    hasher: S,
    registry: Option<Arc<Registry>>,
    observer: Option<SharedObserver>,
    sample_every: u64,
}

impl<K, V> CacheBuilder<K, V, RandomState> {
    fn new(capacity: usize) -> Self {
        CacheBuilder {
            capacity,
            shards: None,
            policy: Policy::Lru,
            cost_fn: Arc::new(|_, _| 1),
            hasher: RandomState::new(),
            registry: None,
            observer: None,
            sample_every: Sampler::DEFAULT_EVERY,
        }
    }
}

impl<K, V, S> CacheBuilder<K, V, S> {
    /// Sets the number of shards. Rounded up to a power of two and capped
    /// so that every shard holds at least one entry. Defaults to a power
    /// of two near the machine's available parallelism.
    #[must_use]
    pub fn shards(mut self, shards: usize) -> Self {
        assert!(shards > 0, "shard count must be positive");
        self.shards = Some(shards);
        self
    }

    /// Selects the replacement policy ([`Policy`]); LRU by default.
    #[must_use]
    pub fn policy(mut self, policy: Policy) -> Self {
        self.policy = policy;
        self
    }

    /// Registers the cache's metrics in `registry`:
    ///
    /// * `csr_policy_events_total{policy, event}` — decision counters
    ///   (hits, misses, evictions, reservations, depreciations, ETD hits,
    ///   automaton flips) fed by the shards' policy cores;
    /// * `csr_cache_op_latency_ns{policy, op, shard}` — sampled per-shard
    ///   `get`/`insert` latency histograms (see
    ///   [`latency_sample_every`](Self::latency_sample_every)).
    ///
    /// Export the registry with `csr_obs::export::prometheus` or
    /// `csr_obs::export::json` (also available through
    /// [`CsrCache::registry`]).
    #[must_use]
    pub fn metrics(mut self, registry: Arc<Registry>) -> Self {
        self.registry = Some(registry);
        self
    }

    /// Attaches a decision observer to every shard's policy core. `obs` is
    /// shared by all shards, which call it under their respective locks;
    /// pass an `Arc<CountingObserver>` or `Arc<EventTracer>` from `csr_obs`
    /// and keep a clone to read.
    ///
    /// Composes with [`metrics`](Self::metrics): both receive every event.
    #[must_use]
    pub fn observer(mut self, obs: SharedObserver) -> Self {
        self.observer = Some(obs);
        self
    }

    /// Sets the latency sampling interval: one in `n` operations (per
    /// shard, per op kind) is timed and recorded when
    /// [`metrics`](Self::metrics) is enabled. Defaults to 64.
    ///
    /// # Sampling skew
    ///
    /// Deterministic 1-in-`n` sampling is not uniform over *time*: ops are
    /// picked by arrival rank, so phases issuing many fast ops contribute
    /// proportionally more samples than sparse phases — the histogram
    /// approximates the per-operation latency distribution, not the
    /// time-weighted one. The timed ops also carry the cost of two clock
    /// reads (tens of nanoseconds), slightly inflating the recorded tail.
    /// `n = 1` times every operation exactly at maximal overhead.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[must_use]
    pub fn latency_sample_every(mut self, n: u64) -> Self {
        assert!(n > 0, "sample interval must be positive");
        self.sample_every = n;
        self
    }

    /// Sets the miss-cost function. Uniform cost 1 by default (under which
    /// every cost-sensitive policy degenerates to its LRU behaviour).
    #[must_use]
    pub fn cost_fn(mut self, f: impl Fn(&K, &V) -> u64 + Send + Sync + 'static) -> Self {
        self.cost_fn = Arc::new(f);
        self
    }

    /// Replaces the hash builder (shared by shard selection and the shard
    /// index maps). Useful for deterministic tests.
    #[must_use]
    pub fn hasher<S2: BuildHasher + Clone>(self, hasher: S2) -> CacheBuilder<K, V, S2> {
        CacheBuilder {
            capacity: self.capacity,
            shards: self.shards,
            policy: self.policy,
            cost_fn: self.cost_fn,
            hasher,
            registry: self.registry,
            observer: self.observer,
            sample_every: self.sample_every,
        }
    }
}

impl<K: Hash + Eq + Clone, V, S: BuildHasher + Clone> CacheBuilder<K, V, S> {
    /// Builds the cache.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn build(self) -> CsrCache<K, V, S> {
        assert!(self.capacity > 0, "cache capacity must be positive");
        let requested = self.shards.unwrap_or_else(default_shards);
        let shards = effective_shards(requested, self.capacity);
        let per_shard = self.capacity.div_ceil(shards);

        let policy_name = self.policy.name();
        // Every shard's core receives the metrics feed and the user
        // observer, combined.
        let policy_obs: Option<SharedObserver> = match (&self.registry, self.observer) {
            (Some(reg), Some(user)) => {
                let metrics = MetricsObserver::new(reg, policy_name);
                Some(Arc::new((metrics, user)))
            }
            (Some(reg), None) => Some(Arc::new(MetricsObserver::new(reg, policy_name))),
            (None, Some(user)) => Some(user),
            (None, None) => None,
        };

        let mut cores = self.policy.cores(per_shard, 0, policy_obs);
        let shard_vec: Vec<Shard<K, V, S>> = (0..shards)
            .map(|i| {
                let metrics = self
                    .registry
                    .as_ref()
                    .map(|r| ShardMetrics::new(r, policy_name, i, self.sample_every));
                Shard::new(per_shard, cores(), self.hasher.clone(), metrics)
            })
            .collect();
        CsrCache {
            shards: shard_vec.into_boxed_slice(),
            shard_bits: shards.trailing_zeros(),
            hasher: self.hasher,
            cost_fn: self.cost_fn,
            policy: self.policy,
            registry: self.registry,
        }
    }
}

/// A power of two near the machine's parallelism, in `[1, 64]`.
fn default_shards() -> usize {
    let n = std::thread::available_parallelism().map_or(8, std::num::NonZeroUsize::get);
    n.next_power_of_two().min(64)
}

/// Rounds the requested shard count to a power of two no larger than
/// `capacity` (every shard must hold at least one entry).
fn effective_shards(requested: usize, capacity: usize) -> usize {
    let cap_pow2 = if capacity.is_power_of_two() {
        capacity
    } else {
        capacity.next_power_of_two() / 2
    };
    requested.next_power_of_two().min(cap_pow2).max(1)
}

/// A thread-safe, sharded, cost-aware key-value cache.
///
/// Keys are hashed once; the hash picks the shard (high bits) and doubles
/// as the entry's stable *block identity* for the replacement policy (the
/// shard's [`EvictionPolicy`](csr::EvictionPolicy) core sees 64-bit "block
/// addresses", exactly like the simulator policies do). Each shard is an
/// independently locked LRU region of `capacity / shards` entries, evicting
/// via the configured cost-sensitive policy; statistics counters are
/// readable without taking any lock.
///
/// # Examples
///
/// ```
/// use csr_cache::{CsrCache, Policy};
///
/// let cache: CsrCache<u64, String> = CsrCache::builder(1024)
///     .policy(Policy::Dcl)
///     .cost_fn(|_k: &u64, v: &String| 1 + v.len() as u64) // bigger values cost more to refetch
///     .build();
///
/// cache.insert(1, "expensive remote row".to_string());
/// assert_eq!(cache.get(&1).as_deref(), Some("expensive remote row"));
/// assert_eq!(cache.stats().hits, 1);
/// ```
pub struct CsrCache<K, V, S = RandomState> {
    shards: Box<[Shard<K, V, S>]>,
    shard_bits: u32,
    hasher: S,
    cost_fn: Arc<CostFn<K, V>>,
    policy: Policy,
    registry: Option<Arc<Registry>>,
}

impl<K: Hash + Eq + Clone, V> CsrCache<K, V, RandomState> {
    /// A cache of `capacity` entries with default settings: LRU policy,
    /// uniform cost 1, and the machine's available parallelism rounded up
    /// to a power of two, at most 64, as the shard count.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        CsrCache::builder(capacity).build()
    }

    /// Starts configuring a cache of `capacity` entries.
    #[must_use]
    pub fn builder(capacity: usize) -> CacheBuilder<K, V, RandomState> {
        CacheBuilder::new(capacity)
    }
}

impl<K: Hash + Eq + Clone, V, S: BuildHasher> CsrCache<K, V, S> {
    fn locate(&self, key: &K) -> (usize, BlockAddr) {
        let h = self.hasher.hash_one(key);
        let shard = if self.shard_bits == 0 {
            0
        } else {
            (h >> (64 - self.shard_bits)) as usize
        };
        (shard, BlockAddr(h))
    }

    /// Looks `key` up, promoting it to most recently used on a hit.
    ///
    /// Returns a clone of the cached value — the lock is released before
    /// the caller touches it.
    pub fn get(&self, key: &K) -> Option<V>
    where
        V: Clone,
    {
        let (shard, id) = self.locate(key);
        self.shards[shard].get(key, id)
    }

    /// Inserts `key -> value`, charging the configured cost function and
    /// evicting per policy if the shard is full. Returns the previous
    /// value when `key` was already resident (an in-place update).
    pub fn insert(&self, key: K, value: V) -> Option<V> {
        let (shard, id) = self.locate(&key);
        let cost = (self.cost_fn)(&key, &value);
        self.shards[shard].insert(key, value, cost, id)
    }

    /// Inserts `key -> value` with an explicit, caller-measured miss cost,
    /// bypassing the configured [`CostFn`] — the *dynamic-cost* path.
    ///
    /// Where [`insert`](Self::insert) prices entries through a static
    /// function of key and value, this entry point lets a read-through
    /// caller charge whatever the miss actually cost (the measured fetch
    /// latency, bytes moved over the wire, …), so the cost-sensitive
    /// policies optimize a live signal instead of a model. Returns the
    /// previous value when `key` was already resident.
    ///
    /// The cost is clamped to at least 1: a measurement that truncates to
    /// zero (a sub-microsecond fetch timed in microseconds, say) must not
    /// produce an entry the cost-sensitive policies treat as free to
    /// evict.
    pub fn insert_with_cost(&self, key: K, value: V, cost: u64) -> Option<V> {
        let (shard, id) = self.locate(&key);
        self.shards[shard].insert(key, value, cost.max(1), id)
    }

    /// Read-through lookup with *single-flight* fetch coalescing: returns
    /// the cached value on a hit; on a miss, exactly one caller per key
    /// runs `fetch` (returning the value plus its measured miss cost, in
    /// any additive unit) while concurrent callers for the same key block
    /// and share that one outcome. This closes the get-miss/insert race of
    /// the naive cache-aside idiom — a stampede of N threads on a cold key
    /// performs one fetch, not N.
    ///
    /// The fetch runs without any shard lock held: other keys (even in the
    /// same shard) proceed at full speed while an origin fetch is slow.
    /// Coalesced callers are visible as
    /// [`CacheStats::coalesced_fetches`](crate::CacheStats). The measured
    /// cost is clamped to at least 1 (see
    /// [`insert_with_cost`](Self::insert_with_cost)).
    ///
    /// # Panics
    ///
    /// If `fetch` panics, the panic propagates to the fetching caller;
    /// blocked callers retry (one of them fetching anew).
    pub fn get_or_insert_with<F>(&self, key: K, fetch: F) -> V
    where
        V: Clone,
        F: FnOnce() -> (V, u64),
    {
        let fetched: Result<Option<V>, std::convert::Infallible> =
            self.try_get_or_insert_with(key, || Ok(Some(fetch())));
        match fetched {
            Ok(v) => v.expect("infallible fetch always yields a value"),
            Err(never) => match never {},
        }
    }

    /// Fallible [`get_or_insert_with`](Self::get_or_insert_with): `fetch`
    /// distinguishes the three ways a read-through can resolve.
    ///
    /// * `Ok(Some((value, cost)))` — the origin supplied the value; it is
    ///   inserted with the given measured cost (clamped to ≥ 1) and
    ///   shared with every coalesced waiter.
    /// * `Ok(None)` — the origin authoritatively *has no such key*:
    ///   nothing is inserted, and `Ok(None)` is returned to the caller
    ///   and to every coalesced waiter of the same fetch.
    /// * `Err(e)` — the origin *failed* (unreachable, timed out, …):
    ///   nothing is inserted, the error propagates to the leading caller,
    ///   and — unlike a miss — waiters do **not** share it. Each waiter
    ///   retries with its own `fetch` (one of them leading the next
    ///   attempt), re-examining the cache through an uncounted probe so
    ///   the access's one recorded miss is not double-booked.
    ///
    /// # Errors
    ///
    /// Returns `fetch`'s error when this caller led the fetch and the
    /// origin failed.
    pub fn try_get_or_insert_with<F, E>(&self, key: K, fetch: F) -> Result<Option<V>, E>
    where
        V: Clone,
        F: FnOnce() -> Result<Option<(V, u64)>, E>,
    {
        let (shard, id) = self.locate(&key);
        self.shards[shard].try_get_or_insert_with(key, id, fetch)
    }

    /// Removes `key`, returning its value if it was resident.
    pub fn remove(&self, key: &K) -> Option<V> {
        let (shard, _) = self.locate(key);
        self.shards[shard].remove(key)
    }

    /// Whether `key` is currently resident (no recency side effects).
    pub fn contains(&self, key: &K) -> bool {
        let (shard, _) = self.locate(key);
        self.shards[shard].contains(key)
    }

    /// Drops every entry (counted as removals; statistics are kept).
    pub fn clear(&self) {
        for s in self.shards.iter() {
            s.clear();
        }
    }

    /// Resident entries across all shards, without locking.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards.iter().map(Shard::len).sum()
    }

    /// Whether no entry is resident.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total capacity: `shards * per-shard capacity`. At least the
    /// capacity requested at build time (rounded up to fill every shard
    /// equally).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.shards.iter().map(Shard::capacity).sum()
    }

    /// Number of independently locked shards.
    #[must_use]
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Name of the configured replacement policy.
    #[must_use]
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    /// The metrics registry attached via
    /// [`CacheBuilder::metrics`](crate::CacheBuilder::metrics), if any —
    /// snapshot it and feed `csr_obs::export::{prometheus, json}`.
    #[must_use]
    pub fn registry(&self) -> Option<&Arc<Registry>> {
        self.registry.as_ref()
    }

    /// Clones every resident `(key, value, cost)` triple out of the
    /// cache — the snapshot primitive for persistence layers.
    ///
    /// Entries come out **shard by shard, LRU first within each shard**:
    /// the ordering hint a restart needs, because replaying the triples
    /// in returned order through [`insert_with_cost`](Self::insert_with_cost)
    /// (keys land back in their original shards) reconstructs each
    /// shard's recency list and refills the policy cores LRU first — so
    /// GD/BCL/DCL eviction ordering survives a dump/reload round trip.
    ///
    /// **Lock-light, not atomic**: each shard is locked only while its
    /// own entries are cloned out, so concurrent writers stall on one
    /// shard at a time and the combined snapshot is a per-shard- (not
    /// cache-) consistent cut. A persistence layer pairs it with a
    /// write-ahead log precisely to cover the gap.
    #[must_use]
    pub fn export_entries(&self) -> Vec<(K, V, u64)>
    where
        V: Clone,
    {
        let mut out = Vec::with_capacity(self.len());
        for s in self.shards.iter() {
            out.extend(s.export_entries());
        }
        out
    }

    /// A cache-wide statistics snapshot (lock-free; see
    /// [`CacheStats`] for the consistency caveat under concurrency).
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for s in self.shards.iter() {
            total.merge(&s.stats());
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lru_cache(capacity: usize, shards: usize) -> CsrCache<u64, u64> {
        CsrCache::builder(capacity).shards(shards).build()
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let c = lru_cache(8, 1);
        assert_eq!(c.insert(1, 10), None);
        assert_eq!(c.get(&1), Some(10));
        assert_eq!(c.insert(1, 11), Some(10), "overwrite returns the old value");
        assert_eq!(c.remove(&1), Some(11));
        assert_eq!(c.get(&1), None);
        assert!(c.is_empty());
        let s = c.stats();
        assert_eq!((s.lookups, s.hits, s.misses), (2, 1, 1));
        assert_eq!((s.insertions, s.updates, s.removals), (1, 1, 1));
    }

    #[test]
    fn lru_evicts_in_recency_order() {
        let c = lru_cache(2, 1);
        c.insert(1, 1);
        c.insert(2, 2);
        c.get(&1); // 2 becomes LRU
        c.insert(3, 3);
        assert!(c.contains(&1));
        assert!(!c.contains(&2));
        assert!(c.contains(&3));
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn capacity_is_never_exceeded() {
        let c = lru_cache(16, 4);
        for k in 0..1000u64 {
            c.insert(k, k);
            assert!(c.len() <= c.capacity());
        }
    }

    #[test]
    fn dcl_shard_reserves_expensive_lru() {
        // Single shard of 2: the shard-level replay of the paper's
        // Section 2.2 scenario (and of csr::Dcl's own unit test).
        let c: CsrCache<u64, u64> = CsrCache::builder(2)
            .shards(1)
            .policy(Policy::Dcl)
            .cost_fn(|k, _v| if *k == 0 { 8 } else { 1 })
            .build();
        c.insert(0, 0); // expensive, becomes LRU
        c.insert(1, 1); // cheap, MRU
        c.insert(2, 2); // full: DCL reserves key 0, evicts cheap key 1
        assert!(c.contains(&0), "expensive LRU entry must be reserved");
        assert!(!c.contains(&1));
        let s = c.stats();
        assert_eq!(s.reservations, 1);
        assert_eq!(s.aggregate_miss_cost, 8 + 1 + 1);
    }

    #[test]
    fn uniform_costs_make_policies_agree_with_lru() {
        for policy in Policy::ALL {
            let c: CsrCache<u64, u64> = CsrCache::builder(4).shards(1).policy(policy).build();
            for k in 0..6u64 {
                c.insert(k, k);
            }
            for k in 0..2u64 {
                assert!(
                    !c.contains(&k),
                    "{policy}: key {k} should have been evicted"
                );
            }
            for k in 2..6u64 {
                assert!(c.contains(&k), "{policy}: key {k} should be resident");
            }
        }
    }

    #[test]
    fn shard_rounding() {
        let c = lru_cache(10, 4);
        assert_eq!(c.num_shards(), 4);
        assert_eq!(c.capacity(), 12, "10/4 rounds up to 3 per shard");
        // More shards than capacity: clamp so each shard holds >= 1 entry.
        let c = lru_cache(3, 8);
        assert_eq!(c.num_shards(), 2);
        assert_eq!(c.capacity(), 4);
        // Power-of-two round-up of the request.
        let c = lru_cache(64, 3);
        assert_eq!(c.num_shards(), 4);
    }

    #[test]
    fn clear_empties_and_counts_removals() {
        let c = lru_cache(8, 2);
        for k in 0..8u64 {
            c.insert(k, k);
        }
        let resident = c.len() as u64;
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.stats().removals, resident);
        // The cache stays usable after clear.
        c.insert(1, 1);
        assert_eq!(c.get(&1), Some(1));
    }

    #[test]
    fn export_entries_walks_lru_to_mru_with_costs() {
        let c: CsrCache<u64, u64> = CsrCache::builder(4)
            .shards(1)
            .policy(Policy::Gd)
            .cost_fn(|k, _| 10 + k)
            .build();
        for k in 0..4u64 {
            c.insert(k, k * 100);
        }
        c.get(&0); // 0 becomes MRU: order is now 1, 2, 3, 0
        let entries = c.export_entries();
        assert_eq!(
            entries,
            vec![(1, 100, 11), (2, 200, 12), (3, 300, 13), (0, 0, 10)],
            "LRU-first order with the fill-time costs"
        );
        // Exporting is side-effect free: stats and residency unchanged.
        assert_eq!(c.len(), 4);
        assert_eq!(c.stats().lookups, 1);
    }

    #[test]
    fn export_reimport_preserves_eviction_ordering() {
        let build = || -> CsrCache<u64, u64> {
            CsrCache::builder(4)
                .shards(1)
                .policy(Policy::Gd)
                .cost_fn(|_, _| 1)
                .build()
        };
        let a = build();
        // Expensive entries (cost 50) first, then cheap ones (cost 1).
        a.insert_with_cost(0, 0, 50);
        a.insert_with_cost(1, 1, 50);
        a.insert_with_cost(2, 2, 1);
        a.insert_with_cost(3, 3, 1);
        let b = build();
        for (k, v, cost) in a.export_entries() {
            b.insert_with_cost(k, v, cost);
        }
        // Pressure: two new cheap fills must evict the two cheap
        // residents, proving the reimported costs (not just the values)
        // drive GreedyDual exactly as they did pre-export.
        b.insert_with_cost(4, 4, 1);
        b.insert_with_cost(5, 5, 1);
        assert!(
            b.contains(&0) && b.contains(&1),
            "expensive entries survive"
        );
        assert!(!b.contains(&2) && !b.contains(&3), "cheap entries evict");
    }

    #[test]
    fn stats_identity_holds_single_threaded() {
        let c = lru_cache(32, 4);
        for k in 0..200u64 {
            if c.get(&(k % 50)).is_none() {
                c.insert(k % 50, k);
            }
        }
        let s = c.stats();
        assert_eq!(s.hits + s.misses, s.lookups);
        assert_eq!(s.insertions, s.misses);
    }
}
