//! Distributed-tracing end-to-end tests: real nodes on loopback
//! sockets, traced through the wire `TRACE` token. The acceptance
//! scenarios: a forwarded cluster GET leaves one trace whose fragments
//! — one per node — link parent to child across the hop; resilience
//! outcomes (retry, breaker fail-fast, stale serve) show up as span
//! annotations; and an untraced request records nothing.

use csr_obs::{Json, TraceConfig, TraceContext};
use csr_serve::cluster::PeerConfig;
use csr_serve::resilience::{BackoffSchedule, ResilienceConfig};
use csr_serve::server::{serve, ServerConfig};
use csr_serve::{Client, ClusterNode, FaultBacking, MemoryBacking, Ring};
use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn reserve_addrs(n: usize) -> Vec<String> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("reserve port"))
        .collect();
    listeners
        .iter()
        .map(|l| l.local_addr().expect("local addr").to_string())
        .collect()
}

fn node_config(addr: &str, nodes: Vec<ClusterNode>) -> ServerConfig {
    ServerConfig {
        addr: addr.to_owned(),
        capacity: 1024,
        shards: Some(4),
        workers: 4,
        idle_timeout: Duration::from_secs(5),
        write_timeout: Duration::from_secs(5),
        cluster: Some(PeerConfig {
            node_id: addr.to_owned(),
            nodes,
            ..PeerConfig::default()
        }),
        ..ServerConfig::default()
    }
}

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

/// The headline scenario: a traced GET that forwards leaves exactly one
/// trace, reassembled from two fragments — the caller's (root under the
/// client's span, plus the `forward` hop span) and the owner's (its root
/// parented under that hop span). One trace id, one hop, correct links.
#[test]
fn forwarded_get_is_one_trace_with_linked_spans_across_nodes() {
    let addrs = reserve_addrs(2);
    let nodes: Vec<ClusterNode> = addrs
        .iter()
        .map(|a| ClusterNode::addr_only(a.clone()))
        .collect();
    let ring = Ring::new(addrs.clone(), 64, 0);
    let origin = Arc::new(MemoryBacking::new());
    let key = (0..)
        .map(|k| format!("key-{k}"))
        .find(|k| ring.owner_index(k) == 1)
        .expect("some key owned by node 1");
    origin.put(key.clone(), b"remote".to_vec());
    let handles: Vec<_> = addrs
        .iter()
        .map(|a| serve(node_config(a, nodes.clone()), origin.clone()).expect("node starts"))
        .collect();

    let client_ctx = ctx(0xc0ffee, 0xdec0de);
    let mut c = Client::connect(addrs[0].as_str()).expect("connect");
    let v = c
        .get_value_traced(&key, Some(client_ctx))
        .expect("get")
        .expect("present");
    assert!(v.forwarded, "the key lives on node 1: the read must hop");

    let local = poll_traces(&addrs[0], 1);
    let remote = poll_traces(&addrs[1], 1);
    assert_eq!(local.len(), 1, "one traced request, one local entry");
    assert_eq!(remote.len(), 1, "one hop, one remote entry");

    // Both fragments belong to the client's trace.
    let want_id = format!("{:016x}", client_ctx.trace_id);
    assert_eq!(field(&local[0], "trace_id"), want_id);
    assert_eq!(field(&remote[0], "trace_id"), want_id);

    // The caller's root hangs under the client's span; the hop span
    // exists exactly once cluster-wide and parents the remote root.
    let local_root = span_named(&local[0], "request").expect("local root span");
    assert_eq!(
        field(local_root, "parent_id"),
        format!("{:016x}", client_ctx.span_id)
    );
    let hop = span_named(&local[0], "forward").expect("forward hop span");
    let remote_root = span_named(&remote[0], "request").expect("remote root span");
    assert_eq!(
        field(remote_root, "parent_id"),
        field(hop, "span_id"),
        "the remote root must link under the caller's forward span"
    );
    assert!(
        span_named(&remote[0], "forward").is_none(),
        "the owner answers locally: exactly one hop in the trace"
    );
    // The owner did the actual work: cache miss, origin fetch.
    assert!(span_named(&remote[0], "cache").is_some());
    assert!(span_named(&remote[0], "origin").is_some());

    // The per-phase histograms derive from the same spans.
    for (handle, phase) in [(&handles[0], "forward"), (&handles[1], "origin")] {
        let text = csr_obs::export::prometheus(&handle.registry().snapshot());
        let needle = format!("csr_serve_phase_us_count{{phase=\"{phase}\"}} 1");
        assert!(text.contains(&needle), "missing {needle} in:\n{text}");
    }
    for h in handles {
        h.shutdown().expect("clean shutdown");
    }
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
