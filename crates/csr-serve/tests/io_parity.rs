//! Engine-parity and connection-lifecycle regression tests: the event
//! engine (`IoMode::Event`) must speak byte-for-byte the same protocol
//! as the blocking engine, and the lifecycle bugs fixed alongside it
//! (droppable shutdown wake, pool-killing handler panics) must stay
//! fixed in both.

use csr_serve::server::{serve, ServerConfig};
use csr_serve::{Backing, BackingError, Client, InfallibleBacking, IoMode, MemoryBacking};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn config(io: IoMode) -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        capacity: 1024,
        shards: Some(4),
        io,
        workers: 4,
        reactors: 2,
        backlog: 4,
        idle_timeout: Duration::from_secs(5),
        write_timeout: Duration::from_secs(5),
        ..ServerConfig::default()
    }
}

const BOTH: [IoMode; 2] = [IoMode::Blocking, IoMode::Event];

fn seeded_origin() -> Arc<MemoryBacking> {
    let origin = Arc::new(MemoryBacking::new());
    origin.put("alpha", b"one".to_vec());
    origin.put("beta", b"two-longer-value".to_vec());
    origin
}

/// One scripted raw-socket conversation, returned as the exact reply
/// bytes. Covers hits, misses, stores, deletes, pipelining, a
/// recoverable garbage line, a recoverable oversize key, and QUIT.
fn scripted_conversation(addr: std::net::SocketAddr) -> Vec<u8> {
    let mut raw = TcpStream::connect(addr).expect("connect");
    raw.set_nodelay(true).unwrap();
    let long_key = "k".repeat(400); // overlong command line, recoverable
    let script = format!(
        "GET alpha\r\nGET alpha\r\nGET missing\r\nSET c 4\r\nteal\r\n\
         GET c\r\nDEL c\r\nDEL c\r\nBOGUS VERB\r\nGET {long_key}\r\n\
         GET beta\r\nSET p 3\r\nxyz\r\nGET p\r\nQUIT\r\n"
    );
    // Two writes with a pause: exercises partial-frame accumulation.
    let (head, tail) = script.split_at(script.len() / 2 + 3);
    raw.write_all(head.as_bytes()).unwrap();
    std::thread::sleep(Duration::from_millis(30));
    raw.write_all(tail.as_bytes()).unwrap();
    let mut reply = Vec::new();
    raw.read_to_end(&mut reply).expect("read to EOF after QUIT");
    reply
}

#[test]
fn scripted_conversation_is_byte_identical_across_engines() {
    let replies: Vec<Vec<u8>> = BOTH
        .map(|io| {
            let handle = serve(config(io), seeded_origin()).expect("server starts");
            let reply = scripted_conversation(handle.addr());
            handle.shutdown().expect("clean shutdown");
            reply
        })
        .into_iter()
        .collect();
    assert!(
        !replies[0].is_empty(),
        "the conversation must produce output"
    );
    assert_eq!(
        String::from_utf8_lossy(&replies[0]),
        String::from_utf8_lossy(&replies[1]),
        "blocking and event replies diverged"
    );
}

#[test]
fn event_mode_round_trips_every_verb() {
    let handle = serve(config(IoMode::Event), seeded_origin()).expect("server starts");
    let mut c = Client::connect(handle.addr()).expect("connect");

    assert_eq!(c.get("alpha").unwrap().as_deref(), Some(&b"one"[..]));
    assert_eq!(c.get("alpha").unwrap().as_deref(), Some(&b"one"[..]));
    assert_eq!(c.get("absent").unwrap(), None);
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
    assert_eq!(stat("io_mode"), "event");
    assert_eq!(stat("hits").parse::<u64>().unwrap(), 2);

    let metrics = c.metrics().unwrap();
    assert!(metrics.contains("csr_serve_reactor_threads"));
    assert!(metrics.contains("csr_serve_reactor_polls_total"));
    assert!(metrics.contains("csr_serve_reactor_exec_dispatched_total"));
    c.quit().unwrap();
    handle.shutdown().expect("clean shutdown");
}

#[test]
fn blocking_mode_reports_its_io_mode_in_stats() {
    let handle = serve(config(IoMode::Blocking), seeded_origin()).expect("server starts");
    let mut c = Client::connect(handle.addr()).expect("connect");
    let stats = c.stats().unwrap();
    assert!(
        stats.iter().any(|(n, v)| n == "io_mode" && v == "blocking"),
        "STATS must carry io_mode=blocking"
    );
    handle.shutdown().expect("clean shutdown");
}

/// The satellite-1 regression: `begin_shutdown`'s acceptor wake used to
/// be one best-effort `TcpStream::connect` that a saturated accept queue
/// could swallow, hanging shutdown until the next real client. Saturate
/// the server (tiny pool, tiny queue, a held worker, extra queued
/// connections) and require shutdown to complete promptly anyway.
#[test]
fn shutdown_completes_promptly_under_accept_saturation() {
    let cfg = ServerConfig {
        workers: 1,
        backlog: 1,
        ..config(IoMode::Blocking)
    };
    let handle = serve(cfg, seeded_origin()).expect("server starts");
    let addr = handle.addr();

    // Occupy the only worker mid-connection…
    let mut busy = TcpStream::connect(addr).unwrap();
    busy.write_all(b"GET alpha\r\n").unwrap();
    let mut one = [0u8; 64];
    let _ = busy.read(&mut one).unwrap();
    // …and pile connections into the accept queue behind it.
    let _queued: Vec<TcpStream> = (0..4)
        .filter_map(|_| TcpStream::connect(addr).ok())
        .collect();

    let t0 = Instant::now();
    let done = std::thread::spawn(move || handle.shutdown());
    let result = loop {
        if done.is_finished() {
            break done.join().expect("shutdown thread");
        }
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "shutdown hung under a saturated accept queue"
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    result.expect("clean shutdown");
}

/// The same promptness holds for the event engine, where the wake is a
/// poller event rather than a loopback connect.
#[test]
fn event_shutdown_completes_promptly_with_idle_connections() {
    let handle = serve(config(IoMode::Event), seeded_origin()).expect("server starts");
    let addr = handle.addr();
    // A mix of idle and mid-request connections.
    let idle: Vec<TcpStream> = (0..8).map(|_| TcpStream::connect(addr).unwrap()).collect();
    let mut partial = TcpStream::connect(addr).unwrap();
    partial.write_all(b"GET half-a-requ").unwrap();

    let t0 = Instant::now();
    let done = std::thread::spawn(move || handle.shutdown());
    loop {
        if done.is_finished() {
            done.join().expect("shutdown thread").expect("clean");
            break;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "event-mode shutdown hung with idle connections"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    drop(idle);
}

/// An origin that panics on a marked key — the satellite-2 regression
/// vehicle: one panicking request must cost its own connection only,
/// never the serving pool.
struct PanickingBacking {
    inner: MemoryBacking,
}

impl Backing for PanickingBacking {
    fn try_fetch(&self, key: &str) -> Result<Option<Vec<u8>>, BackingError> {
        assert!(!key.starts_with("boom"), "origin panic for {key}");
        Ok(self.inner.fetch(key))
    }
}

fn panicking_origin() -> Arc<PanickingBacking> {
    let inner = MemoryBacking::new();
    inner.put("fine", b"ok".to_vec());
    Arc::new(PanickingBacking { inner })
}

fn worker_panics_metric(handle: &csr_serve::ServerHandle) -> u64 {
    let text = csr_obs::export::prometheus(&handle.registry().snapshot());
    text.lines()
        .find(|l| l.starts_with("csr_serve_worker_panics_total"))
        .and_then(|l| l.split_whitespace().last())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

#[test]
fn handler_panic_kills_one_connection_not_the_pool() {
    for io in BOTH {
        let cfg = ServerConfig {
            workers: 2,
            ..config(io)
        };
        let handle = serve(cfg, panicking_origin()).expect("server starts");
        let addr = handle.addr();
        let mode = io.name();

        // Trip panics on several connections — more than the pool size,
        // so a pool-draining bug cannot hide behind spare workers.
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
                "[{mode}] panicking request must close without a reply, got {:?}",
                String::from_utf8_lossy(&buf)
            );
        }

        // The pool must still serve — repeatedly, on fresh connections.
        for _ in 0..3 {
            let mut c = Client::connect(addr).expect("connect after panics");
            assert_eq!(
                c.get("fine").expect("pool survived").as_deref(),
                Some(&b"ok"[..]),
                "[{mode}] pool must keep serving after handler panics"
            );
        }
        // The counter is bumped after the unwinding handler has already
        // closed the socket, so the client can get ahead of it: poll,
        // bounded, instead of reading once.
        let deadline = Instant::now() + Duration::from_secs(2);
        while worker_panics_metric(&handle) < 4 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(
            worker_panics_metric(&handle) >= 4,
            "[{mode}] csr_serve_worker_panics_total must count the panics"
        );
        handle.shutdown().expect("clean shutdown");
    }
}

#[test]
fn event_mode_sheds_with_server_busy_at_max_conns() {
    let cfg = ServerConfig {
        max_conns: 2,
        ..config(IoMode::Event)
    };
    let handle = serve(cfg, seeded_origin()).expect("server starts");
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

#[test]
fn event_mode_holds_hundreds_of_idle_connections() {
    let handle = serve(config(IoMode::Event), seeded_origin()).expect("server starts");
    let addr = handle.addr();
    // Far more resident connections than executors or reactors — the
    // scaling property the engine exists for, scaled down to test size.
    let idle: Vec<TcpStream> = (0..300)
        .map(|i| {
            TcpStream::connect(addr).unwrap_or_else(|e| panic!("idle connection {i} refused: {e}"))
        })
        .collect();
    // Requests still flow promptly past the idle crowd.
    let mut c = Client::connect(addr).expect("connect");
    for _ in 0..10 {
        assert_eq!(c.get("alpha").unwrap().as_deref(), Some(&b"one"[..]));
    }
    // And the idle connections are all still live sockets.
    for (i, mut s) in idle.into_iter().enumerate() {
        s.write_all(b"GET beta\r\n")
            .unwrap_or_else(|e| panic!("idle conn {i} died: {e}"));
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut first = [0u8; 5];
        s.read_exact(&mut first)
            .unwrap_or_else(|e| panic!("idle conn {i} got no reply: {e}"));
        assert_eq!(&first, b"VALUE");
        drop(s);
    }
    handle.shutdown().expect("clean shutdown");
}
