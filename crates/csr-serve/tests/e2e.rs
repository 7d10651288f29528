//! End-to-end tests: a real server on a loopback socket, exercised
//! through the client library (and a raw socket where the test is about
//! the wire format itself).

use csr_cache::Policy;
use csr_serve::client::Timeouts;
use csr_serve::server::{serve, ReportSink, ServerConfig, ServerHandle};
use csr_serve::{
    Backing, BackingError, Client, FaultBacking, InfallibleBacking, MemoryBacking, SimBacking,
};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

fn test_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        capacity: 1024,
        shards: Some(4),
        workers: 4,
        idle_timeout: Duration::from_secs(5),
        write_timeout: Duration::from_secs(5),
        ..ServerConfig::default()
    }
}

/// The current value of one metric series, by its exposition prefix.
fn metric(handle: &ServerHandle, series: &str) -> f64 {
    let text = csr_obs::export::prometheus(&handle.registry().snapshot());
    text.lines()
        .find(|l| l.starts_with(series))
        .and_then(|l| l.split_whitespace().last())
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("metric {series} not found in:\n{text}"))
}

/// An origin with two booby-trapped key families: `boom*` panics inside
/// the fetch, `slow*` takes 300 ms. Everything else comes from memory.
struct TrappedOrigin(MemoryBacking);

impl Backing for TrappedOrigin {
    fn try_fetch(&self, key: &str) -> Result<Option<Vec<u8>>, BackingError> {
        assert!(!key.starts_with("boom"), "origin panic for {key}");
        if key.starts_with("slow") {
            std::thread::sleep(Duration::from_millis(300));
        }
        Ok(self.0.fetch(key).or_else(|| Some(b"late".to_vec())))
    }
}

fn trapped_origin() -> Arc<TrappedOrigin> {
    let inner = MemoryBacking::new();
    inner.put("k", b"v".to_vec());
    Arc::new(TrappedOrigin(inner))
}

#[test]
fn round_trips_every_verb() {
    let origin = Arc::new(MemoryBacking::new());
    origin.put("greeting", b"hello".to_vec());
    let handle = serve(test_config(), origin).expect("server starts");
    let mut c = Client::connect(handle.addr()).expect("connect");

    // Read-through: the origin supplies the first read, the cache the next.
    assert_eq!(c.get("greeting").unwrap().as_deref(), Some(&b"hello"[..]));
    assert_eq!(c.get("greeting").unwrap().as_deref(), Some(&b"hello"[..]));
    assert_eq!(c.get("absent").unwrap(), None);

    // Explicit store and invalidation.
    c.set("color", b"teal").unwrap();
    assert_eq!(c.get("color").unwrap().as_deref(), Some(&b"teal"[..]));
    assert!(c.del("color").unwrap());
    assert!(!c.del("color").unwrap());

    let stats = c.stats().unwrap();
    let stat = |name: &str| {
        stats
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.clone())
            .unwrap_or_else(|| panic!("missing stat {name}"))
    };
    assert_eq!(stat("policy"), "DCL");
    assert_eq!(stat("hits").parse::<u64>().unwrap(), 2); // greeting re-read + color read
    assert!(stat("misses").parse::<u64>().unwrap() >= 2);
    assert_eq!(stat("requests_del"), "2");

    let metrics = c.metrics().unwrap();
    assert!(metrics.contains("csr_serve_requests_total"));
    assert!(metrics.contains("csr_serve_connections_total"));
    assert!(metrics.contains("csr_policy_events_total"));
    // The connection started parked and was handed to a worker.
    assert!(metrics.contains("csr_serve_parked_connections"));
    assert!(metric(&handle, "csr_serve_handoffs_total") >= 1.0);
    c.quit().unwrap();
    handle.shutdown().expect("clean shutdown");
}

#[test]
fn pipelined_requests_answer_in_order() {
    let origin = Arc::new(MemoryBacking::new());
    for i in 0..8 {
        origin.put(format!("k{i}"), format!("v{i}").into_bytes());
    }
    let handle = serve(test_config(), origin).expect("server starts");

    let mut c = Client::connect(handle.addr()).expect("connect");
    let keys: Vec<String> = (0..8).map(|i| format!("k{i}")).collect();
    let refs: Vec<&str> = keys.iter().map(String::as_str).collect();
    let got = c.get_pipelined(&refs).unwrap();
    for (i, v) in got.iter().enumerate() {
        assert_eq!(v.as_deref(), Some(format!("v{i}").as_bytes()));
    }

    // Same thing on a raw socket: one write carrying several commands,
    // including an invalid (recoverable) one mid-stream.
    let mut raw = TcpStream::connect(handle.addr()).unwrap();
    raw.write_all(b"GET k0\r\nBOGUS\r\nGET k1\r\nQUIT\r\n")
        .unwrap();
    let mut reply = String::new();
    raw.read_to_string(&mut reply).unwrap();
    let crc0 = format!("{:08x}", csr_serve::proto::crc32(b"v0"));
    let crc1 = format!("{:08x}", csr_serve::proto::crc32(b"v1"));
    assert!(reply.starts_with(&format!("VALUE k0 2 {crc0}\r\nv0\r\nEND\r\n")));
    assert!(reply.contains("CLIENT_ERROR"));
    assert!(reply.contains(&format!("VALUE k1 2 {crc1}\r\nv1\r\nEND\r\n")));
    handle.shutdown().expect("clean shutdown");
}

#[test]
fn measured_fetch_latency_becomes_the_miss_cost() {
    // Every key is slow: one read-through must charge at least the
    // origin's sleep in microseconds.
    let origin = Arc::new(SimBacking {
        fast: Duration::from_millis(3),
        slow: Duration::from_millis(3),
        slow_every: 1,
        value_len: 8,
    });
    let handle = serve(test_config(), origin).expect("server starts");
    let mut c = Client::connect(handle.addr()).expect("connect");
    assert!(c.get("anything").unwrap().is_some());
    let stats = handle.cache_stats();
    assert_eq!(stats.misses, 1);
    assert!(
        stats.aggregate_miss_cost >= 3_000,
        "measured cost {} below the 3ms origin latency",
        stats.aggregate_miss_cost
    );
    handle.shutdown().expect("clean shutdown");
}

/// The server's side of one scripted raw-socket conversation, byte for
/// byte: read-through hits and misses, a store, deletes, pipelining, a
/// recoverable garbage line, a recoverable overlong key, and `QUIT`.
const TRANSCRIPT: &str = "VALUE alpha 3 7a6c86f1\r\none\r\nEND\r\n\
    VALUE alpha 3 7a6c86f1\r\none\r\nEND\r\n\
    END\r\n\
    STORED\r\n\
    VALUE c 4 b3e79689\r\nteal\r\nEND\r\n\
    DELETED\r\n\
    NOT_FOUND\r\n\
    CLIENT_ERROR unknown command \"BOGUS\"\r\n\
    CLIENT_ERROR command line too long\r\n\
    VALUE beta 16 ce693cec\r\ntwo-longer-value\r\nEND\r\n\
    STORED\r\n\
    VALUE p 3 eb8eba67\r\nxyz\r\nEND\r\n";

#[test]
fn scripted_conversation_matches_the_pinned_transcript() {
    let origin = Arc::new(MemoryBacking::new());
    origin.put("alpha", b"one".to_vec());
    origin.put("beta", b"two-longer-value".to_vec());
    let config = ServerConfig {
        capacity: 1024,
        workers: 4,
        ..ServerConfig::default()
    };
    let handle = serve(config, origin).expect("server starts");
    let mut raw = TcpStream::connect(handle.addr()).expect("connect");
    raw.set_nodelay(true).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let long_key = "k".repeat(400);
    let script = format!(
        "GET alpha\r\nGET alpha\r\nGET missing\r\nSET c 4\r\nteal\r\n\
         GET c\r\nDEL c\r\nDEL c\r\nBOGUS VERB\r\nGET {long_key}\r\n\
         GET beta\r\nSET p 3\r\nxyz\r\nGET p\r\nQUIT\r\n"
    );
    // Two writes with a pause: the first ends inside a frame, so the
    // server must carry a partial frame across the gap.
    let (head, tail) = script.split_at(script.len() / 2 + 3);
    raw.write_all(head.as_bytes()).unwrap();
    std::thread::sleep(Duration::from_millis(30));
    raw.write_all(tail.as_bytes()).unwrap();
    let mut reply = Vec::new();
    raw.read_to_end(&mut reply).expect("read to EOF after QUIT");
    assert_eq!(String::from_utf8_lossy(&reply), TRANSCRIPT);
    handle.shutdown().expect("clean shutdown");
}

#[test]
fn saturated_server_sheds_with_server_busy() {
    let config = ServerConfig {
        max_conns: 2,
        ..test_config()
    };
    let origin = Arc::new(MemoryBacking::new());
    origin.put("alpha", b"one".to_vec());
    let handle = serve(config, origin).expect("server starts");
    let addr = handle.addr();

    // Two residents hold the ceiling…
    let mut residents: Vec<Client> = (0..2).map(|_| Client::connect(addr).unwrap()).collect();
    for c in &mut residents {
        assert!(c.get("alpha").unwrap().is_some());
    }
    // …the third is shed explicitly. The accept and the shed reply are
    // asynchronous to the connect, so poll briefly.
    let deadline = Instant::now() + Duration::from_secs(5);
    let shed_reply = loop {
        let mut raw = TcpStream::connect(addr).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        let mut buf = Vec::new();
        let _ = raw.read_to_end(&mut buf);
        if !buf.is_empty() || Instant::now() > deadline {
            break buf;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    assert_eq!(
        String::from_utf8_lossy(&shed_reply),
        "SERVER_BUSY\r\n",
        "the over-ceiling connection gets the explicit shed reply"
    );

    // Room opens up once a resident leaves.
    residents.pop();
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        if let Ok(mut c) = Client::connect(addr) {
            if let Ok(Some(v)) = c.get("alpha") {
                assert_eq!(&v[..], b"one");
                break;
            }
        }
        assert!(
            Instant::now() < deadline,
            "a freed slot must readmit connections"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    handle.shutdown().expect("clean shutdown");
}

/// Shutdown with every kind of connection open: it finishes the request
/// in flight, cuts idle and half-sent connections at once instead of
/// waiting out their timeouts, and flushes the final report.
#[test]
fn shutdown_drains_cuts_idle_connections_and_flushes_the_report() {
    let report_path =
        std::env::temp_dir().join(format!("csr-serve-e2e-report-{}.prom", std::process::id()));
    let _ = std::fs::remove_file(&report_path);
    let config = ServerConfig {
        report: Some(ReportSink {
            path: report_path.clone(),
            // Longer than the test: only the final shutdown flush writes.
            interval: Duration::from_secs(60),
        }),
        ..test_config()
    };
    let handle = serve(config, trapped_origin()).expect("server starts");
    let addr = handle.addr();

    let mut active = Client::connect(addr).expect("connect");
    assert!(active.get("k").unwrap().is_some());
    // Connections that never send, and one that stops mid-request:
    // shutdown must not wait out their 5 s idle timeout.
    let idle: Vec<TcpStream> = (0..8).map(|_| TcpStream::connect(addr).unwrap()).collect();
    let mut partial = TcpStream::connect(addr).unwrap();
    partial.write_all(b"GET half-a-requ").unwrap();
    // A request still executing when shutdown begins.
    let mut in_flight = TcpStream::connect(addr).unwrap();
    in_flight.write_all(b"GET slow-key\r\n").unwrap();
    std::thread::sleep(Duration::from_millis(100));

    let t0 = Instant::now();
    handle.shutdown().expect("clean shutdown");
    assert!(
        t0.elapsed() < Duration::from_secs(2),
        "drain took {:?}, idle connections were not cut",
        t0.elapsed()
    );

    // The request in flight was answered before its connection closed.
    in_flight
        .set_read_timeout(Some(Duration::from_secs(2)))
        .unwrap();
    let mut reply = String::new();
    in_flight.read_to_string(&mut reply).unwrap();
    assert!(reply.starts_with("VALUE slow-key 4 "), "got {reply:?}");
    // The idle peers see an orderly close.
    for mut peer in idle.into_iter().chain([partial]) {
        peer.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        let mut buf = [0u8; 16];
        assert_eq!(peer.read(&mut buf).unwrap(), 0);
    }

    let report = std::fs::read_to_string(&report_path).expect("report written");
    assert!(
        report.contains("csr_serve_requests_total"),
        "final flush missing server families: {report:.0?}"
    );
    let _ = std::fs::remove_file(&report_path);
}

/// One panicking request costs its own connection only, never a worker.
#[test]
fn handler_panic_kills_one_connection_not_the_pool() {
    let config = ServerConfig {
        workers: 2,
        ..test_config()
    };
    let handle = serve(config, trapped_origin()).expect("server starts");
    let addr = handle.addr();

    // Trip panics on more connections than there are workers, so a
    // worker-killing bug cannot hide behind a spare.
    for i in 0..4 {
        let mut raw = TcpStream::connect(addr).unwrap();
        raw.write_all(format!("GET boom-{i}\r\n").as_bytes())
            .unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut buf = Vec::new();
        // The connection dies without a reply; EOF (or a reset) both
        // read as "no bytes, closed".
        let _ = raw.read_to_end(&mut buf);
        assert!(
            buf.is_empty(),
            "panicking request must close without a reply, got {:?}",
            String::from_utf8_lossy(&buf)
        );
    }

    // The pool must still serve, repeatedly, on fresh connections.
    for _ in 0..3 {
        let mut c = Client::connect(addr).expect("connect after panics");
        assert_eq!(
            c.get("k").expect("pool survived").as_deref(),
            Some(&b"v"[..])
        );
    }
    // The counter is bumped after the unwinding handler has already
    // closed the socket, so the client can get ahead of it: poll,
    // bounded, instead of reading once.
    let panics = "csr_serve_worker_panics_total";
    let deadline = Instant::now() + Duration::from_secs(2);
    while metric(&handle, panics) < 4.0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(
        metric(&handle, panics) >= 4.0,
        "{panics} must count the panics"
    );
    handle.shutdown().expect("clean shutdown");
}

/// Idle connections park on the poller and hold no worker: two workers
/// keep serving past hundreds of them.
#[test]
fn idle_connections_hold_no_worker() {
    let config = ServerConfig {
        workers: 2,
        ..test_config()
    };
    let handle = serve(config, trapped_origin()).expect("server starts");
    let addr = handle.addr();
    let idle: Vec<TcpStream> = (0..300)
        .map(|i| {
            TcpStream::connect(addr).unwrap_or_else(|e| panic!("idle connection {i} refused: {e}"))
        })
        .collect();
    let parked = "csr_serve_parked_connections";
    let deadline = Instant::now() + Duration::from_secs(5);
    while metric(&handle, parked) < 300.0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(metric(&handle, parked), 300.0, "every idle peer is parked");
    // Requests still flow promptly past the idle crowd.
    let mut c = Client::connect(addr).expect("connect");
    for _ in 0..10 {
        assert_eq!(c.get("k").unwrap().as_deref(), Some(&b"v"[..]));
    }
    // And the idle connections are all still live.
    for (i, mut s) in idle.into_iter().enumerate() {
        s.write_all(b"GET k\r\n")
            .unwrap_or_else(|e| panic!("idle conn {i} died: {e}"));
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut first = [0u8; 5];
        s.read_exact(&mut first)
            .unwrap_or_else(|e| panic!("idle conn {i} got no reply: {e}"));
        assert_eq!(&first, b"VALUE");
    }
    handle.shutdown().expect("clean shutdown");
}

/// A busy connection keeps its worker only while nobody else waits: with
/// one worker, three closed-loop clients that stay connected all finish.
/// (A thread-per-connection pool serves the second client only after the
/// first disconnects.)
#[test]
fn one_worker_takes_turns_between_busy_clients() {
    let config = ServerConfig {
        workers: 1,
        ..test_config()
    };
    let handle = serve(config, trapped_origin()).expect("server starts");
    let addr = handle.addr();
    let all_done = Arc::new(Barrier::new(3));
    let clients: Vec<_> = (0..3)
        .map(|_| {
            let all_done = Arc::clone(&all_done);
            std::thread::spawn(move || {
                let timeouts = Timeouts {
                    connect: Duration::from_secs(5),
                    read: Duration::from_secs(5),
                    write: Duration::from_secs(5),
                };
                let t0 = Instant::now();
                let served = Client::connect_with(addr, &timeouts).and_then(|mut c| {
                    for _ in 0..200 {
                        c.get("k")?;
                    }
                    Ok(c)
                });
                let took = t0.elapsed();
                // Hold the connection until every client is through.
                all_done.wait();
                served.map(|_| took)
            })
        })
        .collect();
    for (i, client) in clients.into_iter().enumerate() {
        let took = client
            .join()
            .unwrap()
            .unwrap_or_else(|e| panic!("client {i} starved: {e}"));
        assert!(
            took < Duration::from_secs(4),
            "client {i} took {took:?} for 200 GETs"
        );
    }
    handle.shutdown().expect("clean shutdown");
}

/// The reproducible serving demo from the issue: a bimodal origin where
/// one key in eight costs ~20x, identical Zipf traffic against LRU and
/// DCL, and the cost-sensitive policy must pay less total measured miss
/// cost at a comparable hit rate.
#[test]
fn dcl_pays_less_measured_miss_cost_than_lru() {
    fn run(policy: Policy) -> (f64, u64) {
        let origin = Arc::new(SimBacking {
            fast: Duration::ZERO,
            slow: Duration::from_millis(2),
            slow_every: 8,
            value_len: 16,
        });
        let config = ServerConfig {
            capacity: 256,
            shards: Some(1),
            policy,
            ..test_config()
        };
        let handle = serve(config, origin).expect("server starts");
        let mut c = Client::connect(handle.addr()).expect("connect");

        // Deterministic Zipf(0.9) stream over 2048 keys, single client so
        // the access order (and thus the policy decisions) is exact.
        let mut rng = mem_trace::rng::SplitMix64::new(7);
        let mut cdf = Vec::with_capacity(2048);
        let mut total = 0.0f64;
        for rank in 1..=2048u64 {
            total += (rank as f64).powf(-0.9);
            cdf.push(total);
        }
        for _ in 0..6000 {
            let r = rng.next_f64() * total;
            let idx = cdf.partition_point(|&p| p < r).min(cdf.len() - 1);
            let key = format!("key:{idx}");
            assert!(c.get(&key).unwrap().is_some());
        }
        let stats = handle.cache_stats();
        handle.shutdown().expect("clean shutdown");
        (stats.hit_rate(), stats.aggregate_miss_cost)
    }

    // The comparison rides on *measured* costs, so scheduler noise on a
    // loaded box can occasionally make "fast" fetches look expensive and
    // wash out the gap. Give the stochastic claim a couple of attempts;
    // a real regression fails all of them.
    let mut last = String::new();
    for _ in 0..3 {
        let (lru_hit, lru_cost) = run(Policy::Lru);
        let (dcl_hit, dcl_cost) = run(Policy::Dcl);
        // Equal hit-rate ballpark: DCL trades some raw hit rate at most.
        if dcl_hit <= lru_hit - 0.15 {
            last = format!("DCL hit rate {dcl_hit:.3} collapsed vs LRU {lru_hit:.3}");
            continue;
        }
        if (dcl_cost as f64) >= 0.95 * lru_cost as f64 {
            last = format!("DCL measured cost {dcl_cost} not below LRU's {lru_cost}");
            continue;
        }
        return;
    }
    panic!("{last}");
}

/// The `csr_serve_phase_us_count{phase=...}` value in a `METRICS` body.
fn phase_count(metrics: &str, phase: &str) -> u64 {
    let series = format!("csr_serve_phase_us_count{{phase=\"{phase}\"}} ");
    metrics
        .lines()
        .find_map(|l| l.strip_prefix(series.as_str()))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no {series} in:\n{metrics}"))
}

/// A default daemon times one `GET`/`SET`/`DEL` in 64, with no flag: the
/// first request and every 64th after it, over one connection in order.
#[test]
fn default_daemon_fills_its_phase_histograms() {
    const K: u64 = 8;
    const SETS: u64 = 10;
    let origin = Arc::new(MemoryBacking::new());
    origin.put("hot", b"v".to_vec());
    let handle = serve(ServerConfig::default(), origin).expect("server starts");
    let mut c = Client::connect(handle.addr()).expect("connect");
    // Every 16th GET misses on a key of its own, so the sampled ones (the
    // 64th) all run the origin fetch, as do the unsampled 16th, 32nd and
    // 48th and the first GET of `hot`.
    for i in 0..64 * K {
        if i % 16 == 0 {
            assert_eq!(c.get(&format!("miss:{i}")).unwrap(), None);
        } else {
            assert_eq!(c.get("hot").unwrap().as_deref(), Some(&b"v"[..]));
        }
    }
    for i in 0..SETS {
        c.set(&format!("set:{i}"), b"x").unwrap();
    }
    let metrics = c.metrics().unwrap();
    // 64·K GETs then SETS SETs: the K sampled GETs and one sampled SET.
    let sampled = (64 * K + SETS).div_ceil(64);
    assert_eq!(sampled, K + 1);
    for phase in ["request", "parse", "cache"] {
        assert_eq!(phase_count(&metrics, phase), sampled, "phase {phase}");
    }
    assert_eq!(
        phase_count(&metrics, "origin"),
        K,
        "only the sampled misses"
    );
    assert_eq!(phase_count(&metrics, "stale"), 0);
    c.quit().unwrap();
    handle.shutdown().expect("clean shutdown");

    // Over a failing origin, every GET of an evicted key that was once
    // fetched is a stale serve; the 64th request is one of them.
    let inner = Arc::new(MemoryBacking::new());
    inner.put("doc", b"contents".to_vec());
    let fault = Arc::new(FaultBacking::new(inner, 1, 0.0, 0.0));
    let handle = serve(
        ServerConfig::default(),
        Arc::clone(&fault) as Arc<dyn Backing>,
    )
    .expect("server starts");
    let mut c = Client::connect(handle.addr()).expect("connect");
    assert!(!c.get_value("doc").unwrap().expect("origin has it").stale);
    fault.set_failing(true);
    for _ in 0..40 {
        assert!(c.del("doc").unwrap());
        assert!(c.get_value("doc").unwrap().expect("stale copy").stale);
    }
    let metrics = c.metrics().unwrap();
    assert!(phase_count(&metrics, "stale") >= 1);
    assert_eq!(phase_count(&metrics, "request"), 2, "81 requests sample 2");
    c.quit().unwrap();
    handle.shutdown().expect("clean shutdown");
}

/// The family names of PROTOCOL.md § `METRICS`'s catalogue table.
fn catalogued_families() -> Vec<String> {
    let doc = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../PROTOCOL.md"))
        .expect("read PROTOCOL.md");
    let section = doc
        .split("\n### `METRICS`")
        .nth(1)
        .and_then(|s| s.split("\n## ").next())
        .expect("PROTOCOL.md has a METRICS section");
    section
        .lines()
        .filter_map(|l| l.strip_prefix("| `"))
        .filter_map(|l| l.split('`').next())
        .map(str::to_owned)
        .collect()
}

/// Every family a default daemon and a persisting one emit is named in
/// the catalogue.
#[test]
fn every_metric_family_is_catalogued() {
    let catalogue = catalogued_families();
    let dir = std::env::temp_dir().join(format!("csr-serve-e2e-catalogue-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let persisting = ServerConfig {
        persist: Some(csr_serve::PersistConfig {
            dir: dir.clone(),
            ..csr_serve::PersistConfig::default()
        }),
        ..test_config()
    };
    for config in [test_config(), persisting] {
        let handle = serve(config, Arc::new(MemoryBacking::new())).expect("server starts");
        let mut c = Client::connect(handle.addr()).expect("connect");
        let metrics = c.metrics().unwrap();
        let families: Vec<&str> = metrics
            .lines()
            .filter_map(|l| l.strip_prefix("# TYPE "))
            .filter_map(|l| l.split(' ').next())
            .collect();
        assert!(
            families.len() >= 18,
            "a daemon emits its families: {families:?}"
        );
        for family in families {
            assert!(
                catalogue.iter().any(|f| f == family),
                "{family} is missing from PROTOCOL.md § METRICS"
            );
        }
        c.quit().unwrap();
        handle.shutdown().expect("clean shutdown");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
