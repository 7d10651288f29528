//! End-to-end fault tolerance: a real server over a failing origin.
//!
//! The scenarios the resilience stack exists for, exercised through real
//! sockets: a flaky origin under sustained load, a scripted outage that
//! walks the circuit breaker through open → half-open → closed, stale
//! values served (flagged `STALE`) while the origin is down, the typed
//! `ORIGIN_ERROR` reply when there is nothing to degrade to, and the
//! zero-latency-origin regression (no cache entry may carry miss cost 0).

use csr_serve::resilience::{BackoffSchedule, ResilienceConfig};
use csr_serve::server::{serve, ServerConfig, ServerHandle};
use csr_serve::{Client, FaultBacking, MemoryBacking, OriginError, SimBacking};
use std::sync::Arc;
use std::time::Duration;

/// A resilience config tuned for test speed: fast backoff, a 3-failure
/// breaker with a short cooldown, a deadline tight enough to cut the
/// injected hangs.
fn fast_resilience() -> ResilienceConfig {
    ResilienceConfig {
        deadline: Some(Duration::from_millis(10)),
        retries: 2,
        backoff: BackoffSchedule {
            base: Duration::from_micros(100),
            cap: Duration::from_millis(2),
        },
        breaker_threshold: 3,
        breaker_cooldown: Duration::from_millis(100),
    }
}

fn fault_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        capacity: 512,
        shards: Some(4),
        workers: 8,
        idle_timeout: Duration::from_secs(5),
        write_timeout: Duration::from_secs(5),
        resilience: fast_resilience(),
        // Large enough that everything ever fetched stays refetchable.
        stale_capacity: Some(8192),
        ..ServerConfig::default()
    }
}

fn metric(handle: &ServerHandle, needle: &str) -> u64 {
    let text = csr_obs::export::prometheus(&handle.registry().snapshot());
    text.lines()
        .find(|l| l.starts_with(needle) && !l.starts_with('#'))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("metric {needle} not found in:\n{text}"))
}

/// The headline acceptance scenario: a 10k-op run against an origin that
/// errors ~10% of the time and occasionally hangs past the deadline. The
/// run must complete without a worker or connection dying (`ORIGIN_ERROR`
/// replies are fine, transport errors are not), and afterwards the
/// breaker is walked through a full open → re-close cycle and a
/// guaranteed stale serve.
#[test]
fn flaky_origin_survives_a_10k_op_run() {
    let origin = Arc::new(SimBacking {
        fast: Duration::ZERO,
        slow: Duration::ZERO,
        slow_every: 8,
        value_len: 32,
    });
    let fault = Arc::new(
        FaultBacking::new(origin, 0xfa117, 0.10, 0.002).hang_for(Duration::from_millis(25)),
    );
    let handle = serve(
        fault_config(),
        Arc::clone(&fault) as Arc<dyn csr_serve::Backing>,
    )
    .expect("server starts");

    const THREADS: u64 = 4;
    const OPS_PER_THREAD: u64 = 2_500; // 10k total
    const KEYS: u64 = 2_048; // 4x the capacity: constant evict + refetch
    let addr = handle.addr();
    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).expect("connect");
                let mut origin_errors = 0u64;
                for i in 0..OPS_PER_THREAD {
                    let key = format!("key:{}", (i * 13 + t * 7) % KEYS);
                    match c.get_value(&key) {
                        Ok(Some(_)) => {}
                        Ok(None) => panic!("sim origin always resolves, got END for {key}"),
                        Err(e) => {
                            assert!(
                                e.get_ref().is_some_and(|i| i.is::<OriginError>()),
                                "only ORIGIN_ERROR is acceptable, got: {e}"
                            );
                            origin_errors += 1;
                        }
                    }
                }
                origin_errors
            })
        })
        .collect();
    let origin_errors: u64 = workers
        .into_iter()
        .map(|w| w.join().expect("no worker may die"))
        .sum();

    let stats = handle.cache_stats();
    assert_eq!(
        stats.lookups,
        THREADS * OPS_PER_THREAD,
        "every op reached the cache"
    );
    assert!(stats.insertions > 0);
    // The cost-0 invariant, via its aggregate proxy: every insertion
    // charged at least 1, so the aggregate can never undercut the count.
    assert!(
        stats.aggregate_miss_cost >= stats.insertions,
        "aggregate cost {} < insertions {}: some entry was charged 0",
        stats.aggregate_miss_cost,
        stats.insertions
    );
    // ~10% injected error rate, 2 retries: failures must have been both
    // observed (metrics) and mostly absorbed (the run completed).
    assert!(metric(&handle, "csr_serve_origin_errors_total") > 0);
    assert!(metric(&handle, "csr_serve_origin_retries_total") > 0);
    let _ = origin_errors; // may be 0 if stale serves absorbed everything

    // Deterministic epilogue: force a full breaker cycle and a stale
    // serve on top of the noisy run. The noisy run may have left the
    // breaker open (10% errors against a threshold of 3), so prime the
    // stale store with a bounded retry loop until a fetch lands.
    let mut c = Client::connect(addr).expect("connect");
    let primed = (0..100).any(|_| match c.get_value("stale-probe") {
        Ok(Some(_)) => true,
        _ => {
            std::thread::sleep(Duration::from_millis(20));
            false
        }
    });
    assert!(
        primed,
        "stale store never primed against the healthy origin"
    );
    fault.set_failing(true);
    // Uncached keys fail through to the breaker: with threshold 3 and
    // every attempt failing, the breaker must open.
    for i in 0..6 {
        let _ = c.get_value(&format!("fresh:{i}"));
    }
    assert!(
        metric(
            &handle,
            "csr_serve_origin_breaker_transitions_total{to=\"open\"}"
        ) >= 1,
        "breaker never opened under a total outage"
    );
    // A stale serve while the origin is failing: the probe key was
    // fetched successfully above, then evict it so the next GET misses.
    assert!(c.del("stale-probe").unwrap());
    let v = c
        .get_value("stale-probe")
        .expect("stale serve, not an error")
        .expect("stale serve, not END");
    assert!(v.stale, "a degraded read must carry the STALE flag");
    assert!(metric(&handle, "csr_serve_origin_stale_served_total") >= 1);

    // Origin recovers — to its noisy self, so a half-open probe can still
    // draw one of the ~10% injected errors and re-open the breaker: allow
    // it at most three cooldowns to re-close.
    fault.set_failing(false);
    let recovered = (0..3).any(|_| {
        std::thread::sleep(Duration::from_millis(150));
        matches!(c.get("fresh:recovered"), Ok(Some(_)))
    });
    assert!(recovered, "no half-open probe landed in three cooldowns");
    assert!(
        metric(
            &handle,
            "csr_serve_origin_breaker_transitions_total{to=\"closed\"}"
        ) >= 1,
        "breaker never re-closed after recovery"
    );

    handle
        .shutdown()
        .expect("clean shutdown after the flaky run");
}

/// A scripted outage window drives the breaker deterministically: closed
/// under healthy traffic, open after `threshold` consecutive failures
/// (fail-fast observed as instant ORIGIN_ERRORs), half-open after the
/// cooldown, closed again on a successful probe.
#[test]
fn breaker_opens_and_recloses_under_scripted_outage() {
    let inner = Arc::new(SimBacking {
        fast: Duration::ZERO,
        slow: Duration::ZERO,
        slow_every: 0,
        value_len: 8,
    });
    let fault = Arc::new(FaultBacking::new(inner, 1, 0.0, 0.0));
    let config = ServerConfig {
        resilience: ResilienceConfig {
            retries: 0, // 1 request = 1 origin attempt: exact accounting
            breaker_threshold: 3,
            breaker_cooldown: Duration::from_millis(100),
            deadline: None,
            ..fast_resilience()
        },
        stale_capacity: Some(0), // pure ORIGIN_ERROR path, no stale serves
        ..fault_config()
    };
    let handle =
        serve(config, Arc::clone(&fault) as Arc<dyn csr_serve::Backing>).expect("server starts");
    let mut c = Client::connect(handle.addr()).expect("connect");

    // Healthy: breaker closed, gauge 0.
    for i in 0..4 {
        assert!(c.get(&format!("warm:{i}")).unwrap().is_some());
    }
    assert_eq!(metric(&handle, "csr_serve_origin_breaker_state"), 0);

    // Total outage: three consecutive failures open the breaker.
    fault.set_failing(true);
    for i in 0..3 {
        assert!(c.get(&format!("down:{i}")).is_err());
    }
    assert_eq!(metric(&handle, "csr_serve_origin_breaker_state"), 1);
    assert_eq!(
        metric(
            &handle,
            "csr_serve_origin_breaker_transitions_total{to=\"open\"}"
        ),
        1
    );
    // While open, requests fail fast without touching the origin.
    let before = fault.requests();
    assert!(c.get("down:fast-fail").is_err());
    assert_eq!(
        fault.requests(),
        before,
        "an open breaker must not let the request reach the origin"
    );

    // Recovery + cooldown: the next request is the half-open probe; its
    // success re-closes the breaker and traffic flows again.
    fault.set_failing(false);
    std::thread::sleep(Duration::from_millis(130));
    assert!(c.get("probe").unwrap().is_some());
    assert_eq!(metric(&handle, "csr_serve_origin_breaker_state"), 0);
    assert_eq!(
        metric(
            &handle,
            "csr_serve_origin_breaker_transitions_total{to=\"half_open\"}"
        ),
        1
    );
    assert_eq!(
        metric(
            &handle,
            "csr_serve_origin_breaker_transitions_total{to=\"closed\"}"
        ),
        1
    );
    handle.shutdown().expect("clean shutdown");
}

/// Serve-stale end to end: a key fetched once stays servable through an
/// origin failure, flagged `STALE`, charged its last successful measured
/// cost — and the stale re-insert makes the *next* read a plain hit.
#[test]
fn stale_values_carry_the_flag_and_the_last_measured_cost() {
    let origin = Arc::new(MemoryBacking::new());
    origin.put("doc", b"contents".to_vec());
    let fault = Arc::new(FaultBacking::new(origin, 1, 0.0, 0.0));
    let handle = serve(
        fault_config(),
        Arc::clone(&fault) as Arc<dyn csr_serve::Backing>,
    )
    .expect("server starts");
    let mut c = Client::connect(handle.addr()).expect("connect");

    // Healthy fetch: not stale; the stale store now holds the copy.
    let v = c.get_value("doc").unwrap().expect("origin has it");
    assert_eq!(v.data, b"contents");
    assert!(!v.stale);
    let cost_before = handle.cache_stats().aggregate_miss_cost;

    // Evict it, then break the origin: the read degrades to the stale
    // copy instead of erroring, after every retry has failed.
    assert!(c.del("doc").unwrap());
    fault.set_failing(true);
    let (retries, attempts) = (
        metric(&handle, "csr_serve_origin_retries_total"),
        fault.requests(),
    );
    let v = c.get_value("doc").unwrap().expect("stale copy exists");
    assert_eq!(v.data, b"contents");
    assert!(v.stale, "a degraded read must carry the STALE flag");
    assert_eq!(
        metric(&handle, "csr_serve_origin_retries_total") - retries,
        2
    );
    assert_eq!(
        fault.requests() - attempts,
        3,
        "one attempt and two retries"
    );

    // The stale re-insert charged a real (clamped ≥ 1) cost back into
    // the cache, and made the key a plain hit while still degraded.
    let stats = handle.cache_stats();
    assert!(stats.aggregate_miss_cost > cost_before);
    assert!(stats.aggregate_miss_cost >= stats.insertions);
    let v = c.get_value("doc").unwrap().expect("now cached again");
    assert!(!v.stale, "the re-inserted copy serves as a normal hit");

    // A key never successfully fetched has nothing to fall back on: the
    // typed recoverable ORIGIN_ERROR, and the connection survives it.
    let err = c.get_value("never-seen").expect_err("no stale copy");
    let origin_err = err
        .get_ref()
        .and_then(|inner| inner.downcast_ref::<OriginError>())
        .expect("typed OriginError");
    assert!(!origin_err.reason.is_empty());
    fault.set_failing(false);
    // The failures above opened the breaker: wait out its cooldown so
    // the recovery read is the successful half-open probe.
    std::thread::sleep(Duration::from_millis(150));
    assert!(
        c.get("never-seen").unwrap().is_none(),
        "the same connection keeps working after ORIGIN_ERROR, and a \
         healthy origin's 'no entry' is an authoritative END, not an error"
    );
    handle.shutdown().expect("clean shutdown");
}

/// A mid-batch `ORIGIN_ERROR` must not desynchronize a pipelined
/// connection: the client drains the batch's remaining replies, fails the
/// call with the first origin error, and the next request on the same
/// connection gets its own reply — not a leftover from the aborted batch.
#[test]
fn pipelined_origin_error_leaves_the_connection_usable() {
    let origin = Arc::new(MemoryBacking::new());
    origin.put("a", b"alpha".to_vec());
    origin.put("c", b"gamma".to_vec());
    let fault = Arc::new(FaultBacking::new(origin, 1, 0.0, 0.0));
    let config = ServerConfig {
        resilience: ResilienceConfig {
            retries: 0,
            breaker_threshold: 100, // one failure must not open it
            ..fast_resilience()
        },
        stale_capacity: Some(0), // pure ORIGIN_ERROR path, no stale serves
        ..fault_config()
    };
    let handle =
        serve(config, Arc::clone(&fault) as Arc<dyn csr_serve::Backing>).expect("server starts");
    let mut c = Client::connect(handle.addr()).expect("connect");

    // Cache "a" and "c" while healthy; "b" will fault through to the
    // origin mid-batch.
    assert!(c.get("a").unwrap().is_some());
    assert!(c.get("c").unwrap().is_some());
    fault.set_failing(true);
    let err = c
        .get_pipelined(&["a", "b", "c"])
        .expect_err("the faulting middle key fails the batch");
    assert!(
        err.get_ref().is_some_and(|i| i.is::<OriginError>()),
        "the batch fails with the typed origin error, got: {err}"
    );

    // Same connection: each next reply must belong to its own request,
    // not to a leftover of the aborted batch.
    assert_eq!(c.get("a").unwrap(), Some(b"alpha".to_vec()));
    assert_eq!(c.get("c").unwrap(), Some(b"gamma".to_vec()));
    fault.set_failing(false);
    assert!(
        c.get("b").unwrap().is_none(),
        "healthy origin authoritatively has no b: END, not an error"
    );
    handle.shutdown().expect("clean shutdown");
}

/// The zero-latency regression: an origin that answers in under a
/// microsecond must still produce entries with measured cost ≥ 1, or the
/// cost-sensitive policies would treat every such entry as free to evict.
#[test]
fn zero_latency_origin_never_yields_cost_zero_entries() {
    let origin = Arc::new(MemoryBacking::new());
    const N: u64 = 64;
    for i in 0..N {
        origin.put(format!("k{i}"), b"v".to_vec());
    }
    let handle = serve(fault_config(), origin).expect("server starts");
    let mut c = Client::connect(handle.addr()).expect("connect");
    for i in 0..N {
        assert!(c.get(&format!("k{i}")).unwrap().is_some());
    }
    let stats = handle.cache_stats();
    assert_eq!(stats.insertions, N);
    assert!(
        stats.aggregate_miss_cost >= N,
        "aggregate {} < {} insertions: an in-memory fetch was charged 0",
        stats.aggregate_miss_cost,
        N
    );
    handle.shutdown().expect("clean shutdown");
}
