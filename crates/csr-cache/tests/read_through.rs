//! The read-through, single-flight path: `get_or_insert_with` /
//! `try_get_or_insert_with` / `insert_with_cost`.
//!
//! The headline property is stampede suppression: N threads missing the
//! same cold key perform ONE origin fetch, with the other N-1 callers
//! blocking on the in-flight fetch and sharing its outcome (counted as
//! `CacheStats::coalesced_fetches`).

use csr_cache::{CsrCache, Policy};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::Duration;

#[test]
fn hit_returns_without_fetching() {
    let cache: CsrCache<u64, u64> = CsrCache::new(8);
    cache.insert(1, 10);
    let v = cache.get_or_insert_with(1, || panic!("must not fetch on a hit"));
    assert_eq!(v, 10);
    let s = cache.stats();
    assert_eq!((s.hits, s.coalesced_fetches), (1, 0));
}

#[test]
fn miss_fetches_once_and_charges_the_measured_cost() {
    let cache: CsrCache<u64, u64> = CsrCache::builder(8)
        .shards(1)
        // A static cost function that must NOT be consulted by the
        // dynamic-cost path.
        .cost_fn(|_k, _v| 999)
        .build();
    let v = cache.get_or_insert_with(7, || (70, 42));
    assert_eq!(v, 70);
    assert_eq!(cache.get(&7), Some(70));
    let s = cache.stats();
    assert_eq!(s.insertions, 1);
    assert_eq!(
        s.aggregate_miss_cost, 42,
        "the fetch's measured cost must be charged, not the CostFn"
    );
}

#[test]
fn insert_with_cost_bypasses_the_cost_fn() {
    let cache: CsrCache<u64, u64> = CsrCache::builder(8).shards(1).cost_fn(|_k, _v| 999).build();
    cache.insert_with_cost(1, 1, 5);
    assert_eq!(cache.stats().aggregate_miss_cost, 5);
    // The static path still goes through the cost function.
    cache.insert(2, 2);
    assert_eq!(cache.stats().aggregate_miss_cost, 5 + 999);
}

#[test]
fn try_variant_does_not_cache_absent_keys() {
    let cache: CsrCache<u64, u64> = CsrCache::new(8);
    let fetches = AtomicU64::new(0);
    for _ in 0..3 {
        let out = cache.try_get_or_insert_with(9, || {
            fetches.fetch_add(1, Ordering::Relaxed);
            Ok::<_, ()>(None)
        });
        assert_eq!(out, Ok(None));
    }
    assert_eq!(
        fetches.load(Ordering::Relaxed),
        3,
        "absent keys are not negatively cached: every call re-fetches"
    );
    assert!(cache.is_empty());
    assert_eq!(cache.stats().insertions, 0);
}

#[test]
fn fetch_error_propagates_and_caches_nothing() {
    let cache: CsrCache<u64, u64> = CsrCache::new(8);
    let out = cache.try_get_or_insert_with(3, || Err("origin down"));
    assert_eq!(out, Err("origin down"));
    assert!(cache.is_empty());
    let s = cache.stats();
    assert_eq!((s.lookups, s.misses, s.insertions), (1, 1, 0));
    // The origin recovers: the same key now fills normally.
    let out = cache.try_get_or_insert_with(3, || Ok::<_, &str>(Some((30, 7))));
    assert_eq!(out, Ok(Some(30)));
    assert_eq!(cache.stats().aggregate_miss_cost, 7);
}

/// Zero is not a valid dynamic cost: a sub-resolution measurement must
/// clamp to 1 instead of producing an entry that cost-sensitive policies
/// evict for free.
#[test]
fn dynamic_cost_zero_clamps_to_one() {
    let cache: CsrCache<u64, u64> = CsrCache::builder(8).shards(1).build();
    cache.insert_with_cost(1, 10, 0);
    assert_eq!(cache.stats().aggregate_miss_cost, 1);
    let v = cache.get_or_insert_with(2, || (20, 0));
    assert_eq!(v, 20);
    let s = cache.stats();
    assert_eq!(s.insertions, 2);
    assert_eq!(
        s.aggregate_miss_cost, 2,
        "both zero-cost fills must have been clamped to 1"
    );
}

/// The satellite's 2-thread stampede: both threads miss the same cold key
/// at the same moment; the fetch closure must run exactly once.
#[test]
fn two_thread_stampede_fetches_once() {
    let cache: Arc<CsrCache<String, u64>> = Arc::new(CsrCache::new(64));
    let fetches = Arc::new(AtomicU64::new(0));
    let barrier = Arc::new(Barrier::new(2));

    let workers: Vec<_> = (0..2)
        .map(|_| {
            let cache = Arc::clone(&cache);
            let fetches = Arc::clone(&fetches);
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                barrier.wait();
                cache.get_or_insert_with("hot".to_string(), || {
                    fetches.fetch_add(1, Ordering::Relaxed);
                    // A slow origin: long enough that the second thread
                    // reliably arrives while the fetch is in flight.
                    thread::sleep(Duration::from_millis(100));
                    (1234, 100_000)
                })
            })
        })
        .collect();
    for w in workers {
        assert_eq!(w.join().expect("worker panicked"), 1234);
    }

    assert_eq!(
        fetches.load(Ordering::Relaxed),
        1,
        "exactly one origin fetch for a stampeded key"
    );
    let s = cache.stats();
    assert_eq!(s.insertions, 1);
    assert_eq!(s.aggregate_miss_cost, 100_000);
    assert_eq!(
        s.coalesced_fetches, 1,
        "the second thread must have ridden the first thread's fetch"
    );
}

/// Many threads, many keys: fetch count equals distinct-key count, never
/// the call count.
#[test]
fn stampede_coalesces_across_many_threads() {
    const THREADS: usize = 8;
    const KEYS: u64 = 16;
    let cache: Arc<CsrCache<u64, u64>> = Arc::new(CsrCache::new(1024));
    let fetches = Arc::new(AtomicU64::new(0));
    let barrier = Arc::new(Barrier::new(THREADS));

    let workers: Vec<_> = (0..THREADS)
        .map(|_| {
            let cache = Arc::clone(&cache);
            let fetches = Arc::clone(&fetches);
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                barrier.wait();
                for k in 0..KEYS {
                    let v = cache.get_or_insert_with(k, || {
                        fetches.fetch_add(1, Ordering::Relaxed);
                        thread::sleep(Duration::from_millis(2));
                        (k * 10, 1)
                    });
                    assert_eq!(v, k * 10);
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("worker panicked");
    }

    assert_eq!(
        fetches.load(Ordering::Relaxed),
        KEYS,
        "one fetch per distinct key, not per calling thread"
    );
    let s = cache.stats();
    assert_eq!(s.insertions, KEYS);
    assert_eq!(s.hits + s.misses, s.lookups);
}

/// The satellite's leader-error stress: the leader's fetch fails while a
/// pack of waiters is coalesced behind it. Waiters must distinguish "the
/// leader errored" (retry with their own fetch) from "the origin has no
/// entry" (which would return `None` to everyone), and the retry must not
/// double-count the miss each waiter already paid on the way in.
#[test]
fn leader_error_wakes_waiters_to_retry_without_double_counting() {
    const WAITERS: u64 = 7;
    let cache: Arc<CsrCache<u64, u64>> = Arc::new(CsrCache::builder(64).shards(1).build());
    let fetches = Arc::new(AtomicU64::new(0));
    // Leader + waiters + the unblocking rendezvous inside the leader's
    // fetch closure: everyone is en route before the fetch fails.
    let barrier = Arc::new(Barrier::new(WAITERS as usize + 1));

    let leader = {
        let cache = Arc::clone(&cache);
        let barrier = Arc::clone(&barrier);
        thread::spawn(move || {
            cache.try_get_or_insert_with(5, move || {
                barrier.wait(); // every waiter thread is launched
                thread::sleep(Duration::from_millis(50)); // ... and coalesced
                Err("origin down")
            })
        })
    };
    let waiters: Vec<_> = (0..WAITERS)
        .map(|_| {
            let cache = Arc::clone(&cache);
            let barrier = Arc::clone(&barrier);
            let fetches = Arc::clone(&fetches);
            thread::spawn(move || {
                barrier.wait();
                cache.try_get_or_insert_with(5, move || {
                    fetches.fetch_add(1, Ordering::Relaxed);
                    Ok::<_, &str>(Some((55, 9)))
                })
            })
        })
        .collect();

    assert_eq!(
        leader.join().expect("leader must not panic"),
        Err("origin down"),
        "the origin failure must reach the leading caller"
    );
    for w in waiters {
        assert_eq!(
            w.join().expect("waiter must not panic"),
            Ok(Some(55)),
            "waiters retry after a leader error instead of inheriting it"
        );
    }
    assert_eq!(
        fetches.load(Ordering::Relaxed),
        1,
        "exactly one waiter re-led the fetch; the rest coalesced again"
    );
    let s = cache.stats();
    assert_eq!(s.insertions, 1);
    assert_eq!(s.aggregate_miss_cost, 9);
    // The double-counting regression would show up as extra lookups or
    // misses from the waiters' retry pass: every caller must be on the
    // books exactly once. (A pathologically delayed waiter may score its
    // one lookup as a hit, so only the totals are exact.)
    assert_eq!(
        s.lookups,
        WAITERS + 1,
        "each caller pays exactly one counted lookup; retries stay off the books"
    );
    assert_eq!(s.hits + s.misses, s.lookups);
}

/// A panicking leader must not wedge its waiters: they retry, one of them
/// fetching successfully.
#[test]
fn leader_panic_releases_waiters() {
    let cache: Arc<CsrCache<u64, u64>> = Arc::new(CsrCache::new(8));
    let barrier = Arc::new(Barrier::new(2));

    let leader = {
        let cache = Arc::clone(&cache);
        let barrier = Arc::clone(&barrier);
        thread::spawn(move || {
            cache.get_or_insert_with(5, move || {
                barrier.wait(); // the waiter is definitely en route
                thread::sleep(Duration::from_millis(50));
                panic!("origin exploded");
            })
        })
    };
    let waiter = {
        let cache = Arc::clone(&cache);
        let barrier = Arc::clone(&barrier);
        thread::spawn(move || {
            barrier.wait();
            // Arrive while the doomed fetch is in flight.
            thread::sleep(Duration::from_millis(5));
            cache.get_or_insert_with(5, || (55, 1))
        })
    };

    assert!(leader.join().is_err(), "the leader's panic must propagate");
    assert_eq!(waiter.join().expect("waiter must not panic"), 55);
    assert_eq!(cache.get(&5), Some(55));
}

/// A value whose `Clone` panics while armed: the hit path clones under the
/// shard lock, so reading an armed value poisons that shard.
struct Grenade {
    armed: bool,
}

impl Clone for Grenade {
    fn clone(&self) -> Self {
        assert!(!self.armed, "armed value cloned");
        Grenade { armed: false }
    }
}

/// A shard poisoned while a leader is fetching makes the leader's insert
/// panic with the in-flight table locked. That must fail this one request
/// (the flight guard cleans up during unwinding), not panic again inside
/// the guard's destructor and abort the process.
#[test]
fn poisoned_shard_fails_the_leader_without_aborting() {
    let cache: CsrCache<u64, Grenade> = CsrCache::builder(8).shards(1).build();
    cache.insert(1, Grenade { armed: true });
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        cache.try_get_or_insert_with(2, || {
            let poisoned = catch_unwind(AssertUnwindSafe(|| cache.get(&1)));
            assert!(poisoned.is_err(), "cloning the armed value must panic");
            Ok::<_, ()>(Some((Grenade { armed: false }, 1)))
        })
    }));
    assert!(
        outcome.is_err(),
        "the leader must see the poisoned shard as a panic it can catch"
    );
}

/// The single-flight path composes with every policy and keeps the stats
/// identities intact under concurrency.
#[test]
fn read_through_under_all_policies() {
    for policy in Policy::ALL {
        let cache: Arc<CsrCache<u64, u64>> =
            Arc::new(CsrCache::builder(128).shards(4).policy(policy).build());
        let workers: Vec<_> = (0..4)
            .map(|t| {
                let cache = Arc::clone(&cache);
                thread::spawn(move || {
                    for i in 0..2_000u64 {
                        let k = (i * 7 + t) % 512;
                        let v = cache.get_or_insert_with(k, || (k + 1, 1 + k % 9));
                        assert_eq!(v, k + 1, "{policy}: wrong value for {k}");
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().expect("worker panicked");
        }
        let s = cache.stats();
        assert_eq!(s.hits + s.misses, s.lookups, "{policy}");
        assert!(cache.len() <= cache.capacity(), "{policy}");
    }
}
