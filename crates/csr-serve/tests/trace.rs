//! Request-tracing end-to-end tests: a real server on a loopback socket,
//! traced through the wire `TRACE` token and through its own sampling.
//! The acceptance scenarios: resilience outcomes (retry, breaker
//! fail-fast, stale serve) show up as span annotations; 1-in-N sampling
//! keeps every Nth request; and an untraced request records nothing.

use csr_obs::{Json, TraceConfig, TraceContext};
use csr_serve::resilience::{BackoffSchedule, ResilienceConfig};
use csr_serve::server::{serve, ServerConfig};
use csr_serve::{Client, FaultBacking, MemoryBacking};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn ctx(trace_id: u64, span_id: u64) -> TraceContext {
    TraceContext {
        trace_id,
        span_id,
        sampled: true,
    }
}

/// Fetches and parses a node's TRACES dump, polling briefly: the server
/// finishes a request's trace *after* writing its reply, so the entry
/// can trail the response by a scheduling beat.
fn poll_traces(addr: &str, want: usize) -> Vec<Json> {
    let deadline = Instant::now() + Duration::from_secs(2);
    loop {
        let text = Client::connect(addr)
            .and_then(|mut c| c.traces())
            .expect("TRACES fetch");
        let entries: Vec<Json> = text
            .lines()
            .map(|l| Json::parse(l).expect("TRACES line parses"))
            .collect();
        if entries.len() >= want || Instant::now() > deadline {
            return entries;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn spans(entry: &Json) -> &[Json] {
    entry.get("spans").and_then(Json::as_arr).unwrap_or(&[])
}

fn span_named<'a>(entry: &'a Json, name: &str) -> Option<&'a Json> {
    spans(entry)
        .iter()
        .find(|s| s.get("name").and_then(Json::as_str) == Some(name))
}

fn event_names(entry: &Json) -> Vec<String> {
    spans(entry)
        .iter()
        .flat_map(|s| s.get("events").and_then(Json::as_arr).unwrap_or(&[]))
        .filter_map(|e| e.get("name").and_then(Json::as_str))
        .map(str::to_owned)
        .collect()
}

fn field<'a>(j: &'a Json, key: &str) -> &'a str {
    j.get(key).and_then(Json::as_str).unwrap_or("")
}

/// With tracing entirely off (no sampling, no slow threshold, no
/// incoming context) the tracer records nothing and TRACES stays empty.
#[test]
fn untraced_requests_record_nothing() {
    let origin = Arc::new(MemoryBacking::new());
    origin.put("k", b"v".to_vec());
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        ..ServerConfig::default()
    };
    let handle = serve(config, origin).expect("server starts");
    let mut c = Client::connect(handle.addr()).expect("connect");
    for _ in 0..20 {
        assert!(c.get_value("k").expect("get").is_some());
    }
    let stats = c.stats().expect("stats");
    let stat = |name: &str| {
        stats
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
            .unwrap_or("")
    };
    assert_eq!(stat("traces_recorded"), "0");
    assert_eq!(stat("traces_dropped"), "0");
    assert_eq!(c.traces().expect("TRACES"), "");
    handle.shutdown().expect("clean shutdown");
}

/// 1-in-N sampling without any client cooperation: the server itself
/// promotes every Nth request to a kept trace.
#[test]
fn local_sampling_retains_every_nth_request() {
    let origin = Arc::new(MemoryBacking::new());
    for i in 0..8 {
        origin.put(format!("k{i}"), b"v".to_vec());
    }
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        trace: TraceConfig {
            sample_every: 4,
            ..TraceConfig::default()
        },
        ..ServerConfig::default()
    };
    let handle = serve(config, origin).expect("server starts");
    let mut c = Client::connect(handle.addr()).expect("connect");
    for i in 0..8 {
        assert!(c.get_value(&format!("k{i}")).expect("get").is_some());
    }
    let entries = poll_traces(&handle.addr().to_string(), 2);
    assert_eq!(entries.len(), 2, "8 requests at 1-in-4 keep exactly 2");
    for e in &entries {
        assert!(span_named(e, "request").is_some());
        assert!(span_named(e, "parse").is_some());
        assert!(span_named(e, "cache").is_some());
    }
    handle.shutdown().expect("clean shutdown");
}

/// The resilience stack annotates the trace instead of vanishing into
/// it: retries, the stale serve, the origin error, and — once the
/// breaker opens — the fail-fast all appear as span events.
#[test]
fn resilience_outcomes_annotate_the_trace() {
    let origin = Arc::new(MemoryBacking::new());
    origin.put("doc", b"contents".to_vec());
    let fault = Arc::new(FaultBacking::new(origin, 1, 0.0, 0.0));
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        capacity: 512,
        resilience: ResilienceConfig {
            deadline: None,
            retries: 2,
            backoff: BackoffSchedule {
                base: Duration::from_micros(100),
                cap: Duration::from_millis(2),
            },
            breaker_threshold: 3,
            breaker_cooldown: Duration::from_secs(60),
        },
        stale_capacity: Some(64),
        ..ServerConfig::default()
    };
    let handle =
        serve(config, Arc::clone(&fault) as Arc<dyn csr_serve::Backing>).expect("server starts");
    let mut c = Client::connect(handle.addr()).expect("connect");

    // Healthy traced fetch, then evict and break the origin.
    assert!(c
        .get_value_traced("doc", Some(ctx(1, 1)))
        .expect("healthy get")
        .is_some());
    assert!(c.del("doc").expect("del"));
    fault.set_failing(true);

    // Degraded traced read: 3 failed attempts (2 retry events), then the
    // stale copy. The 3 failures also trip the breaker.
    let v = c
        .get_value_traced("doc", Some(ctx(2, 1)))
        .expect("degraded get")
        .expect("stale copy exists");
    assert!(v.stale);

    // Fail-fast traced read: the open breaker rejects before the origin.
    let err = c
        .get_value_traced("never-seen", Some(ctx(3, 1)))
        .expect_err("breaker is open and there is no stale copy");
    assert!(err.get_ref().is_some(), "typed origin error expected");

    let entries = poll_traces(&handle.addr().to_string(), 3);
    let by_id = |id: u64| {
        entries
            .iter()
            .find(|e| field(e, "trace_id") == format!("{id:016x}"))
            .unwrap_or_else(|| panic!("trace {id} missing"))
    };
    let degraded = by_id(2);
    let names = event_names(degraded);
    assert!(
        names.iter().filter(|n| *n == "retry").count() >= 2,
        "expected the failed attempts as retry events, got {names:?}"
    );
    assert!(
        names.contains(&"origin_error".to_owned()),
        "expected an origin_error event, got {names:?}"
    );
    assert!(
        span_named(degraded, "stale").is_some(),
        "the stale serve must be a span of its own"
    );
    let fast_failed = by_id(3);
    let names = event_names(fast_failed);
    assert!(
        names.contains(&"breaker_fail_fast".to_owned()),
        "expected a breaker_fail_fast event, got {names:?}"
    );
    handle.shutdown().expect("clean shutdown");
}
