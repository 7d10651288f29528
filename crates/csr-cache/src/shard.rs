//! One independently locked shard: a key index over a [`Region`] (slab,
//! recency list and policy core), plus the single-flight fetch table and
//! counters.
//!
//! A shard is to the key-value cache what one set is to a hardware cache:
//! the policy core sees the shard as a single replacement region whose
//! "ways" are slab slots and whose "block addresses" are the stable 64-bit
//! key hashes. As with the tag aliasing of Section 4.3, a hash collision
//! can at worst make a policy depreciate a reservation it should not have —
//! never affect correctness of the key-value mapping itself, which always
//! compares full keys.

use cache_sim::{BlockAddr, BoxedPolicy};
use csr_obs::{Histogram, Registry, Sampler};
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Instant;

use crate::region::Region;
use crate::stats::CacheStats;

/// Per-shard counters: mutated under the shard lock, loaded without it.
#[derive(Debug, Default)]
pub(crate) struct ShardCounters {
    lookups: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    updates: AtomicU64,
    evictions: AtomicU64,
    reservations: AtomicU64,
    removals: AtomicU64,
    aggregate_miss_cost: AtomicU64,
    coalesced_fetches: AtomicU64,
    resident: AtomicU64,
}

impl ShardCounters {
    fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self) -> CacheStats {
        CacheStats {
            lookups: self.lookups.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            updates: self.updates.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            reservations: self.reservations.load(Ordering::Relaxed),
            removals: self.removals.load(Ordering::Relaxed),
            aggregate_miss_cost: self.aggregate_miss_cost.load(Ordering::Relaxed),
            coalesced_fetches: self.coalesced_fetches.load(Ordering::Relaxed),
        }
    }
}

/// Per-shard wall-clock latency instrumentation, registered when the cache
/// is built with [`CacheBuilder::metrics`](crate::CacheBuilder::metrics).
///
/// Latencies are **sampled**: one in `sample_every` operations (counted per
/// shard, per op kind) is timed with [`Instant`] and recorded in
/// nanoseconds. Sampling keeps the disabled-in-practice cost of two clock
/// reads off the hot path, at the price of a skew documented on
/// [`CacheBuilder::latency_sample_every`](crate::CacheBuilder::latency_sample_every).
pub(crate) struct ShardMetrics {
    get_ns: OpTimer,
    insert_ns: OpTimer,
}

impl ShardMetrics {
    /// Prometheus family name of the op-latency histograms.
    pub(crate) const LATENCY_FAMILY: &'static str = "csr_cache_op_latency_ns";

    pub(crate) fn new(registry: &Registry, policy: &str, shard: usize, sample_every: u64) -> Self {
        let shard = shard.to_string();
        let hist = |op: &str| {
            registry.histogram(
                Self::LATENCY_FAMILY,
                "Sampled cache operation latency in nanoseconds",
                &[("policy", policy), ("op", op), ("shard", &shard)],
            )
        };
        ShardMetrics {
            get_ns: OpTimer::new(hist("get"), sample_every),
            insert_ns: OpTimer::new(hist("insert"), sample_every),
        }
    }
}

/// A sampled histogram of one operation's latency.
struct OpTimer {
    hist: Arc<Histogram>,
    sampler: Sampler,
}

impl OpTimer {
    fn new(hist: Arc<Histogram>, sample_every: u64) -> Self {
        OpTimer {
            hist,
            sampler: Sampler::new(sample_every),
        }
    }

    /// Starts a timer for one in every `sample_every` calls.
    fn maybe_start(&self) -> Option<Instant> {
        self.sampler.start()
    }

    fn finish(&self, started: Option<Instant>) {
        if let Some(t0) = started {
            let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.hist.record(ns);
        }
    }
}

/// The outcome of one in-flight read-through fetch, shared between the
/// fetching thread (the *leader*) and any threads that arrived while the
/// fetch was running (the *waiters*).
enum FlightState<V> {
    /// The leader is still fetching.
    Pending,
    /// The fetch finished: the origin's value (`None` when the origin has
    /// no entry for the key — nothing was inserted).
    Done(Option<V>),
    /// The leader's fetch returned an error (the origin failed, not "the
    /// origin has no entry"): nothing was inserted and waiters must retry
    /// with their own fetch — an error is never shared as a miss.
    Errored,
    /// The leader panicked or abandoned the fetch; waiters must retry.
    Failed,
}

/// One in-flight fetch: waiters block on the condvar until the leader
/// resolves the state.
struct Flight<V> {
    state: Mutex<FlightState<V>>,
    done: Condvar,
}

impl<V> Flight<V> {
    fn new() -> Self {
        Flight {
            state: Mutex::new(FlightState::Pending),
            done: Condvar::new(),
        }
    }

    fn resolve(&self, outcome: FlightState<V>) {
        *self.state.lock().expect("flight lock poisoned") = outcome;
        self.done.notify_all();
    }
}

impl<V: Clone> Flight<V> {
    /// Blocks until the leader resolves the flight. `Some(outcome)` is the
    /// leader's result — `Some(None)` being the authoritative "origin has
    /// no entry". `None` means the leader errored or panicked and the
    /// caller must retry from the top (possibly leading the next fetch).
    fn wait(&self) -> Option<Option<V>> {
        let mut state = self.state.lock().expect("flight lock poisoned");
        loop {
            match &*state {
                FlightState::Pending => {
                    state = self.done.wait(state).expect("flight lock poisoned");
                }
                FlightState::Done(v) => return Some(v.clone()),
                FlightState::Errored | FlightState::Failed => return None,
            }
        }
    }
}

/// Removes the leader's flight entry and fails its waiters if the fetch
/// closure panics (the panic then propagates out of the leader unchanged;
/// waiters retry and elect a new leader).
struct FlightGuard<'a, K: Hash + Eq, V> {
    inflight: &'a Mutex<HashMap<K, Arc<Flight<V>>>>,
    key: Option<K>,
    flight: &'a Flight<V>,
}

impl<K: Hash + Eq, V> Drop for FlightGuard<'_, K, V> {
    fn drop(&mut self) {
        if let Some(key) = self.key.take() {
            // A destructor must not panic: if the leader is already
            // unwinding with `inflight` held (a poisoned shard made its
            // insert panic), a second panic here would abort the process.
            // Removing one key leaves the table valid at every step.
            self.inflight
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .remove(&key);
            self.flight.resolve(FlightState::Failed);
        }
    }
}

struct ShardState<K, V, S> {
    /// key -> region slot.
    map: HashMap<K, u32, S>,
    region: Region<(K, V)>,
}

pub(crate) struct Shard<K, V, S> {
    state: Mutex<ShardState<K, V, S>>,
    /// In-flight read-through fetches, keyed by the key being fetched.
    /// Lock order: `inflight` may be held while taking `state` (leader
    /// completion), never the other way around.
    inflight: Mutex<HashMap<K, Arc<Flight<V>>>>,
    counters: ShardCounters,
    capacity: usize,
    metrics: Option<ShardMetrics>,
}

impl<K: Hash + Eq + Clone, V, S: BuildHasher> Shard<K, V, S> {
    pub(crate) fn new(
        capacity: usize,
        policy: BoxedPolicy,
        hasher: S,
        metrics: Option<ShardMetrics>,
    ) -> Self {
        assert!(capacity > 0, "shard capacity must be positive");
        Shard {
            state: Mutex::new(ShardState {
                map: HashMap::with_capacity_and_hasher(capacity, hasher),
                region: Region::new(capacity, policy),
            }),
            inflight: Mutex::new(HashMap::new()),
            counters: ShardCounters::default(),
            capacity,
            metrics,
        }
    }

    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Resident entries, readable without the lock.
    pub(crate) fn len(&self) -> usize {
        self.counters.resident.load(Ordering::Relaxed) as usize
    }

    pub(crate) fn stats(&self) -> CacheStats {
        self.counters.snapshot()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ShardState<K, V, S>> {
        // A panic while holding the lock leaves the shard in an undefined
        // intermediate state; propagating the poison (panicking here) is
        // the correct containment.
        self.state.lock().expect("shard lock poisoned")
    }

    pub(crate) fn get(&self, key: &K, id: BlockAddr) -> Option<V>
    where
        V: Clone,
    {
        let timer = self.metrics.as_ref().map(|m| &m.get_ns);
        let started = timer.and_then(OpTimer::maybe_start);
        ShardCounters::bump(&self.counters.lookups);
        let mut st = self.lock();
        let result = match st.map.get(key).copied() {
            Some(i) => {
                let value = st.region.touch(i).payload.1.clone();
                ShardCounters::bump(&self.counters.hits);
                Some(value)
            }
            None => {
                st.region.miss(id);
                ShardCounters::bump(&self.counters.misses);
                None
            }
        };
        drop(st);
        if let Some(t) = timer {
            t.finish(started);
        }
        result
    }

    /// Inserts `key -> value` with miss cost `cost`, evicting per policy if
    /// the shard is full. Returns the previous value when overwriting.
    pub(crate) fn insert(&self, key: K, value: V, cost: u64, id: BlockAddr) -> Option<V> {
        let timer = self.metrics.as_ref().map(|m| &m.insert_ns);
        let started = timer.and_then(OpTimer::maybe_start);
        let result = self.insert_locked(key, value, cost, id);
        if let Some(t) = timer {
            t.finish(started);
        }
        result
    }

    fn insert_locked(&self, key: K, value: V, cost: u64, id: BlockAddr) -> Option<V> {
        let mut st = self.lock();
        if let Some(i) = st.map.get(&key).copied() {
            // Overwrite in place: an access, then a refill at the new cost.
            let old = std::mem::replace(&mut st.region.refresh(i, cost).1, value);
            ShardCounters::bump(&self.counters.updates);
            return Some(old);
        }

        // The insert of an absent key is itself a missing access.
        let (i, evicted) = st.region.insert(id, cost, (key.clone(), value));
        if let Some(evicted) = evicted {
            if evicted.reserved {
                ShardCounters::bump(&self.counters.reservations);
            }
            st.map.remove(&evicted.slot.payload.0);
            ShardCounters::bump(&self.counters.evictions);
            self.counters.resident.fetch_sub(1, Ordering::Relaxed);
        }
        st.map.insert(key, i);
        // Counter mutations stay inside the lock region: the lock
        // serializes them per shard, so `resident` (read lock-free by
        // `len`) can transiently undercount but never exceed capacity.
        ShardCounters::bump(&self.counters.insertions);
        self.counters
            .aggregate_miss_cost
            .fetch_add(cost, Ordering::Relaxed);
        self.counters.resident.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// A lookup that touches no counters and no policy state. Only for
    /// [`Self::try_get_or_insert_with`]'s leader-candidate recheck and its
    /// retry-after-failed-leader path: the caller has already paid one
    /// counted miss for this access, and the probe exists solely to spot
    /// a fill that raced in (or to re-examine the cache after the leader's
    /// fetch errored) — counting it again would double-book the miss.
    fn probe(&self, key: &K) -> Option<V>
    where
        V: Clone,
    {
        let st = self.lock();
        st.map
            .get(key)
            .map(|&i| st.region.slot(i).payload.1.clone())
    }

    /// Single-flight read-through lookup. On a miss, exactly one caller
    /// (the *leader*) runs `fetch`; callers arriving for the same key
    /// while the fetch is in flight block and share the leader's outcome
    /// instead of issuing duplicate fetches. `Ok(Some((value, cost)))`
    /// from `fetch` inserts the value with the given (measured) miss cost,
    /// clamped to at least 1 so no dynamically priced entry is ever free
    /// to evict; `Ok(None)` means the origin authoritatively has no such
    /// key and nothing is inserted.
    ///
    /// `Err` from `fetch` means the *origin failed* — distinct from "the
    /// origin has no entry". The error propagates to the leader, nothing
    /// is inserted, and waiters retry with their own fetch (one becoming
    /// the next leader) instead of sharing the failure as a miss. A
    /// waiter's retry re-examines the cache through the stat-free probe,
    /// not a counted `get`: the access already paid its one counted miss
    /// on the way in, and a leader failure must not double-book it.
    ///
    /// If `fetch` panics, the panic propagates out of the leader and every
    /// waiter retries exactly as for an error.
    pub(crate) fn try_get_or_insert_with<F, E>(
        &self,
        key: K,
        id: BlockAddr,
        fetch: F,
    ) -> Result<Option<V>, E>
    where
        V: Clone,
        F: FnOnce() -> Result<Option<(V, u64)>, E>,
    {
        enum Role<V> {
            Leader(Arc<Flight<V>>),
            Waiter(Arc<Flight<V>>),
        }
        // Consumed by at most one leadership run; a caller that keeps
        // losing the leader election keeps waiting and never needs it.
        let mut fetch = Some(fetch);
        let mut first_pass = true;
        loop {
            let cached = if first_pass {
                self.get(&key, id)
            } else {
                // Retry after a failed leader: off the books (see above).
                self.probe(&key)
            };
            first_pass = false;
            if let Some(v) = cached {
                return Ok(Some(v));
            }
            let role = {
                let mut inflight = self.inflight.lock().expect("inflight lock poisoned");
                if let Some(f) = inflight.get(&key) {
                    Role::Waiter(Arc::clone(f))
                } else {
                    // About to lead — but the previous leader may have
                    // completed (insert, then flight removal, both under
                    // this lock) between our miss above and taking the
                    // lock. Recheck while holding it: a miss here is
                    // authoritative. The probe stays off the books — the
                    // counted `get` above already recorded this access.
                    if let Some(v) = self.probe(&key) {
                        return Ok(Some(v));
                    }
                    let f = Arc::new(Flight::new());
                    inflight.insert(key.clone(), Arc::clone(&f));
                    Role::Leader(f)
                }
            };
            match role {
                Role::Waiter(f) => match f.wait() {
                    Some(outcome) => {
                        ShardCounters::bump(&self.counters.coalesced_fetches);
                        return Ok(outcome);
                    }
                    // The leader errored or panicked; retry (possibly
                    // becoming leader with our own, still-unused fetch).
                    None => continue,
                },
                Role::Leader(f) => {
                    let mut guard = FlightGuard {
                        inflight: &self.inflight,
                        key: Some(key.clone()),
                        flight: &f,
                    };
                    let run = fetch.take().expect("fetch unused until leadership");
                    let fetched = run(); // on panic: guard fails the flight
                    match fetched {
                        Ok(resolved) => {
                            let mut inflight =
                                self.inflight.lock().expect("inflight lock poisoned");
                            let outcome = resolved.map(|(v, cost)| {
                                self.insert(key.clone(), v.clone(), cost.max(1), id);
                                v
                            });
                            let key = guard.key.take().expect("guard still armed");
                            inflight.remove(&key);
                            drop(inflight);
                            f.resolve(FlightState::Done(outcome.clone()));
                            return Ok(outcome);
                        }
                        Err(e) => {
                            let mut inflight =
                                self.inflight.lock().expect("inflight lock poisoned");
                            let key = guard.key.take().expect("guard still armed");
                            inflight.remove(&key);
                            drop(inflight);
                            f.resolve(FlightState::Errored);
                            return Err(e);
                        }
                    }
                }
            }
        }
    }

    pub(crate) fn remove(&self, key: &K) -> Option<V> {
        let mut st = self.lock();
        let i = st.map.remove(key)?;
        let slot = st.region.remove(i);
        ShardCounters::bump(&self.counters.removals);
        self.counters.resident.fetch_sub(1, Ordering::Relaxed);
        Some(slot.payload.1)
    }

    pub(crate) fn contains(&self, key: &K) -> bool {
        self.lock().map.contains_key(key)
    }

    pub(crate) fn clear(&self) {
        let mut st = self.lock();
        let dropped = st.region.clear();
        st.map.clear();
        self.counters.removals.fetch_add(dropped, Ordering::Relaxed);
        self.counters.resident.fetch_sub(dropped, Ordering::Relaxed);
    }

    /// Clones every resident `(key, value, cost)` triple out of the shard
    /// in LRU → MRU order (the recency-replay order: re-inserting the
    /// triples in this order through `insert` reconstructs both the
    /// recency list and, for cost-sensitive policies warmed by fills, the
    /// eviction ordering). Touches no counters and no policy state; holds
    /// the shard lock only for the duration of the walk.
    pub(crate) fn export_entries(&self) -> Vec<(K, V, u64)>
    where
        V: Clone,
    {
        let st = self.lock();
        let mut out = Vec::with_capacity(st.map.len());
        out.extend(
            st.region
                .lru_to_mru()
                .map(|(i, s)| (s.payload.0.clone(), s.payload.1.clone(), st.region.cost(i))),
        );
        out
    }
}
