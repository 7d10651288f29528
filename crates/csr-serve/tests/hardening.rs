//! Server-edge and client-socket hardening, end to end: deadlines on
//! every client socket (a stalled server can no longer wedge a caller),
//! the slowloris cutoff (a peer that sends half a line and stops loses
//! its worker fast, not at the idle timeout), and the normative size
//! limits (oversized lines and payloads get a recoverable error and the
//! connection resyncs instead of desynchronizing). The daemon's own edge
//! too: a flag it cannot run with is a usage error, never a panic.

use csr_serve::client::{Client, Timeouts};
use csr_serve::server::{serve, ServerConfig, ServerHandle};
use csr_serve::{proto, MemoryBacking};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn metric(handle: &ServerHandle, needle: &str) -> u64 {
    let text = csr_obs::export::prometheus(&handle.registry().snapshot());
    text.lines()
        .find(|l| l.starts_with(needle) && !l.starts_with('#'))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("metric {needle} not found in:\n{text}"))
}

fn origin_with_keys() -> Arc<MemoryBacking> {
    let origin = Arc::new(MemoryBacking::new());
    origin.put("k".to_owned(), b"v".to_vec());
    origin
}

/// Regression for the blocking-socket bug: a listener that accepts and
/// then never replies must cost a deadlined client a bounded wait, not
/// forever. (Before `Timeouts`, this test would hang.)
#[test]
fn client_deadlines_cut_a_stalled_server() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().unwrap();
    // Accept and hold connections open without ever replying.
    let held = std::thread::spawn(move || {
        let mut socks = Vec::new();
        for conn in listener.incoming().take(1) {
            socks.push(conn);
            // Keep them alive long past the client's deadline.
            std::thread::sleep(Duration::from_secs(5));
        }
    });

    let timeouts = Timeouts {
        connect: Duration::from_secs(2),
        read: Duration::from_millis(300),
        write: Duration::from_millis(300),
    };
    let mut c = Client::connect_with(addr, &timeouts).expect("tcp connect succeeds");
    let t0 = Instant::now();
    let err = c.get("k").expect_err("read must hit its deadline");
    assert!(
        matches!(
            err.kind(),
            std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock
        ),
        "expected a timeout, got {err:?}"
    );
    assert!(
        t0.elapsed() < Duration::from_secs(3),
        "deadline took {:?}, far past the configured 300ms",
        t0.elapsed()
    );
    drop(c);
    drop(held); // don't wait out the holder thread
}

/// A one-connection fake server: reads the request, writes `reply` and
/// holds the socket open until the client closes it.
fn fake_server(reply: Vec<u8>) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        let (mut sock, _) = listener.accept().expect("accept");
        let mut buf = [0u8; 512];
        let _ = sock.read(&mut buf);
        sock.write_all(&reply).expect("write reply");
        while sock.read(&mut buf).is_ok_and(|n| n > 0) {}
    });
    (addr, server)
}

/// A reply line that never ends is refused once it passes the line
/// bound, not left to grow until the read deadline.
#[test]
fn overlong_reply_line_fails_before_the_read_deadline() {
    let (addr, server) = fake_server(vec![b'x'; proto::MAX_LINE_LEN + 1]);
    let timeouts = Timeouts {
        read: Duration::from_secs(10),
        ..Timeouts::default()
    };
    let mut c = Client::connect_with(addr, &timeouts).expect("connect");
    let t0 = Instant::now();
    let err = c.get("k").expect_err("no reply line ever ends");
    assert!(err.to_string().contains("overlong"), "{err:?}");
    assert!(
        t0.elapsed() < Duration::from_secs(2),
        "took {:?}",
        t0.elapsed()
    );
    drop(c);
    server.join().expect("fake server");
}

/// The payload CRC is mandatory: a `VALUE` line without it is a
/// malformed reply, never data.
#[test]
fn value_reply_without_a_crc_is_malformed() {
    let (addr, server) = fake_server(b"VALUE k 3\r\nabc\r\nEND\r\n".to_vec());
    let mut c = Client::connect(addr).expect("connect");
    let err = c.get("k").expect_err("CRC-less VALUE");
    assert!(
        err.to_string().contains("unexpected server reply"),
        "{err:?}"
    );
    drop(c);
    server.join().expect("fake server");
}

/// The slowloris defense: with one worker and a tight partial-read
/// deadline, a connection that sends half a request and stalls costs the
/// worker only the grace period, and is cut at the deadline, well before
/// the idle timeout.
#[test]
fn slowloris_connection_is_cut_and_the_worker_reclaimed() {
    slowloris_is_cut_in(MID_LINE);
}

/// The same cutoff inside a `SET` payload: a stall is a stall wherever in
/// the frame it happens.
#[test]
fn slowloris_mid_payload_is_cut_and_the_worker_reclaimed() {
    slowloris_is_cut_in(MID_PAYLOAD);
}

/// Part of a request, and the fatal reply when the stream *ends* there.
type Partial = (&'static [u8], &'static str);
const MID_LINE: Partial = (b"GET ha", "CLIENT_ERROR unexpected EOF mid-line\r\n");
const MID_PAYLOAD: Partial = (
    b"SET k 10\r\nabc",
    "CLIENT_ERROR unexpected EOF in payload\r\n",
);

fn slowloris_is_cut_in((partial, eof_reply): Partial) {
    let config = ServerConfig {
        workers: 1,
        idle_timeout: Duration::from_secs(10),
        partial_read_deadline: Duration::from_millis(1000),
        ..ServerConfig::default()
    };
    let handle = serve(config, origin_with_keys()).expect("server starts");
    let errors = "csr_serve_requests_total{verb=\"error\"}";
    let drops = "csr_serve_conn_slowloris_drops_total";
    let errors_before = metric(&handle, errors);

    let mut sly = TcpStream::connect(handle.addr()).expect("connect");
    sly.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    sly.write_all(partial).expect("part of a request"); // the rest never comes
    let t0 = Instant::now();

    // The single worker parks the stalled connection after the grace
    // period, long before its deadline, and serves a normal client.
    let mut c = Client::connect(handle.addr()).expect("connect beside slowloris");
    assert_eq!(c.get("k").expect("get"), Some(b"v".to_vec()));
    assert_eq!(metric(&handle, drops), 0, "served before the deadline");

    let mut tail = String::new();
    sly.read_to_string(&mut tail)
        .expect("server closes the conn");
    assert!(
        t0.elapsed() < Duration::from_secs(3),
        "cut took {:?}: the partial deadline (1s) did not fire",
        t0.elapsed()
    );
    // Best-effort courtesy reply before the close.
    assert!(
        tail == "CLIENT_ERROR request read deadline exceeded\r\n" || tail.is_empty(),
        "unexpected tail: {tail:?}"
    );
    assert_eq!(metric(&handle, drops), 1);
    assert_eq!(
        metric(&handle, errors),
        errors_before,
        "a timeout is not a protocol error"
    );

    // A genuine EOF at the same point is one: framing broke, fatally.
    let mut cut = TcpStream::connect(handle.addr()).expect("connect");
    cut.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    cut.write_all(partial).unwrap();
    cut.shutdown(std::net::Shutdown::Write).unwrap();
    let mut tail = String::new();
    cut.read_to_string(&mut tail)
        .expect("server closes the conn");
    assert_eq!(tail, eof_reply);
    assert_eq!(metric(&handle, errors), errors_before + 1);

    // A pause inside a frame that is longer than the grace period but
    // inside the deadline is no slowloris: the frame completes after the
    // connection was parked with half of it.
    let mut slow = TcpStream::connect(handle.addr()).expect("connect");
    slow.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    slow.write_all(b"SET late 3\r\nab").unwrap();
    std::thread::sleep(Duration::from_millis(50));
    slow.write_all(b"c\r\n").unwrap();
    let mut stored = [0u8; 8];
    slow.read_exact(&mut stored).expect("the SET is answered");
    assert_eq!(&stored, b"STORED\r\n");
    assert_eq!(c.get("late").expect("get"), Some(b"abc".to_vec()));
    c.quit().unwrap();
    handle.shutdown().expect("clean shutdown");
}

/// An idle (but not mid-request) connection still gets the longer idle
/// timeout: the partial deadline must not fire between requests.
#[test]
fn idle_connections_outlive_the_partial_deadline() {
    let config = ServerConfig {
        workers: 2,
        idle_timeout: Duration::from_secs(10),
        partial_read_deadline: Duration::from_millis(200),
        ..ServerConfig::default()
    };
    let handle = serve(config, origin_with_keys()).expect("server starts");
    let mut c = Client::connect(handle.addr()).expect("connect");
    assert_eq!(c.get("k").expect("get"), Some(b"v".to_vec()));
    // Idle well past the partial deadline, then use the same connection.
    std::thread::sleep(Duration::from_millis(600));
    assert_eq!(
        c.get("k").expect("idle connection must still work"),
        Some(b"v".to_vec())
    );
    c.quit().unwrap();
    handle.shutdown().expect("clean shutdown");
}

/// An overlong command line is rejected recoverably: CLIENT_ERROR, the
/// limit counter ticks, and the *same connection* then answers a valid
/// request (frame resync).
#[test]
fn overlong_line_rejects_recoverably_and_resyncs() {
    let handle = serve(ServerConfig::default(), origin_with_keys()).expect("server starts");
    let mut raw = TcpStream::connect(handle.addr()).expect("connect");
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let huge = format!("GET {}\r\n", "x".repeat(4096));
    raw.write_all(huge.as_bytes()).unwrap();
    raw.write_all(b"GET k\r\n").unwrap();

    let mut reader = BufReader::new(raw.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(
        line.starts_with("CLIENT_ERROR"),
        "expected a recoverable reject, got {line:?}"
    );
    let mut value_line = String::new();
    reader.read_line(&mut value_line).unwrap();
    let crc = format!("{:08x}", proto::crc32(b"v"));
    assert_eq!(value_line, format!("VALUE k 1 {crc}\r\n"), "resync failed");
    let mut rest = [0u8; 8]; // the payload, its CRLF, and `END`
    reader.read_exact(&mut rest).unwrap();
    assert_eq!(&rest, b"v\r\nEND\r\n");

    // A newline-less flood far past any frame size is discarded as it
    // arrives — nothing of it is buffered — and the connection resyncs at
    // the newline that finally comes.
    raw.write_all(&vec![b'x'; 5 << 20]).unwrap();
    raw.write_all(b"\nGET k\r\n").unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert_eq!(line, "CLIENT_ERROR command line too long\r\n");
    value_line.clear();
    reader.read_line(&mut value_line).unwrap();
    assert_eq!(value_line, format!("VALUE k 1 {crc}\r\n"), "resync failed");
    assert!(
        metric(
            &handle,
            "csr_serve_conn_limit_rejects_total{limit=\"line\"}"
        ) >= 2
    );
    handle.shutdown().expect("clean shutdown");
}

/// An oversize SET payload (beyond the value limit but within the
/// swallow cap) is consumed and rejected recoverably; the connection
/// keeps working.
#[test]
fn oversize_set_payload_rejects_recoverably_and_resyncs() {
    let handle = serve(ServerConfig::default(), origin_with_keys()).expect("server starts");
    let mut raw = TcpStream::connect(handle.addr()).expect("connect");
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let too_big = proto::MAX_VALUE_LEN + 1;
    raw.write_all(format!("SET big {too_big}\r\n").as_bytes())
        .unwrap();
    raw.write_all(&vec![b'x'; too_big]).unwrap();
    raw.write_all(b"\r\nGET k\r\n").unwrap();

    let mut reader = BufReader::new(raw.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(
        line.starts_with("CLIENT_ERROR"),
        "expected a recoverable reject, got {line:?}"
    );
    let mut value_line = String::new();
    reader.read_line(&mut value_line).unwrap();
    let crc = format!("{:08x}", proto::crc32(b"v"));
    assert_eq!(value_line, format!("VALUE k 1 {crc}\r\n"), "resync failed");
    assert!(
        metric(
            &handle,
            "csr_serve_conn_limit_rejects_total{limit=\"value\"}"
        ) >= 1
    );
    handle.shutdown().expect("clean shutdown");
}

/// `serve` refuses `config` as invalid input, without panicking.
fn assert_refused(config: ServerConfig, what: &str) {
    let err = serve(config, origin_with_keys()).err().expect("refused");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}");
    assert_eq!(err.to_string(), format!("{what} must be positive"));
}

#[test]
fn serve_refuses_zero_workers() {
    let config = ServerConfig {
        workers: 0,
        ..ServerConfig::default()
    };
    assert_refused(config, "workers");
}

#[test]
fn serve_refuses_zero_capacity() {
    let config = ServerConfig {
        capacity: 0,
        ..ServerConfig::default()
    };
    assert_refused(config, "capacity");
}

#[test]
fn serve_refuses_zero_shards() {
    let config = ServerConfig {
        shards: Some(0),
        ..ServerConfig::default()
    };
    assert_refused(config, "shards");
}

/// Zero workers, entries or shards, the flags of the removed request
/// tracer, the JSON metrics format and the origin-hang knobs fail as usage
/// errors: exit 2 and a line naming the flag.
#[test]
fn unusable_daemon_flags_exit_2_naming_the_flag() {
    for (args, want) in [
        (&["--workers", "0"][..], "error: --workers must be positive"),
        (&["--capacity", "0"], "error: --capacity must be positive"),
        (&["--shards", "0"], "error: --shards must be positive"),
        (&["--policy", "slru"], "error: unknown policy 'slru'"),
        (&["--policy", "lfuda"], "error: unknown policy 'lfuda'"),
        (
            &["--trace-sample", "1"],
            "error: unknown flag '--trace-sample'",
        ),
        (
            &["--slow-trace-us", "1"],
            "error: unknown flag '--slow-trace-us'",
        ),
        (&["--trace-ring", "1"], "error: unknown flag '--trace-ring'"),
        (
            &["--trace-dump", "t.jsonl"],
            "error: unknown flag '--trace-dump'",
        ),
        (&["--slow-log"], "error: unknown flag '--slow-log'"),
        (
            &["--metrics-format", "json"],
            "error: unknown flag '--metrics-format'",
        ),
        (
            &["--fault-hang-rate", "0.1"],
            "error: unknown flag '--fault-hang-rate'",
        ),
        (
            &["--fault-hang-ms", "5"],
            "error: unknown flag '--fault-hang-ms'",
        ),
    ] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_csr-serve"))
            .args(["--addr", "127.0.0.1:0"])
            .args(args)
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn csr-serve");
        // A daemon that got past its flags would serve until killed.
        let deadline = Instant::now() + Duration::from_secs(10);
        while child.try_wait().expect("wait").is_none() {
            if Instant::now() > deadline {
                let _ = child.kill();
                panic!("{args:?}: csr-serve started instead of refusing the flag");
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let out = child.wait_with_output().expect("collect stderr");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.lines().any(|l| l == want), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}
