//! Protocol fuzzing: the parser must never panic, never allocate
//! unboundedly (the size limits cut in first), and — through a live
//! server — every reply to arbitrary input must be a well-formed frame
//! or a clean close. Three passes:
//!
//! 1. 100k seeded random byte frames through `read_request` in-process.
//! 2. Mutated-valid frames (truncations, bit flips, insertions,
//!    duplications of real commands) through the same loop.
//! 3. A socket pass: mutated garbage against a real server, every byte
//!    of every reply checked against the reply grammar (including CRC
//!    verification on `VALUE`/`DATA` payloads).

use csr_serve::proto::{self, Decoder, Frame, ProtoError, Request};
use csr_serve::server::{serve, ServerConfig};
use csr_serve::{Client, MemoryBacking};
use mem_trace::rng::SplitMix64;
use std::io::{BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

/// Bytes a frame is built from, biased toward protocol-looking content
/// (verbs, digits, separators) so the fuzz reaches deep parse paths, not
/// just "unknown command".
fn random_frame(rng: &mut SplitMix64, out: &mut Vec<u8>) {
    const VERBS: &[&[u8]] = &[
        b"GET", b"SET", b"DEL", b"STATS", b"METRICS", b"QUIT", b"get", b"SETT", b"GE", b"",
    ];
    const FILLER: &[u8] = b" \t0123456789abcXYZ:_-.\r\n\0\xff\x80";
    if rng.chance(0.7) {
        out.extend_from_slice(VERBS[rng.below(VERBS.len() as u64) as usize]);
        out.push(b' ');
    }
    let len = rng.below(48);
    for _ in 0..len {
        out.push(FILLER[rng.below(FILLER.len() as u64) as usize]);
    }
    if rng.chance(0.8) {
        out.extend_from_slice(b"\r\n");
    }
}

/// Drives `read_request` over one "connection's" bytes until it ends —
/// cleanly, fatally, or by I/O — counting recoverable errors (which must
/// leave the stream resynced for the next call). Returns (requests,
/// recoverable errors).
fn drain(input: &[u8]) -> (u64, u64) {
    let mut reader = BufReader::new(input);
    let (mut requests, mut recoverable) = (0u64, 0u64);
    loop {
        match proto::read_request(&mut reader) {
            Ok(None) => return (requests, recoverable),
            Ok(Some(_)) => requests += 1,
            Err(ProtoError::Client { fatal: false, .. }) => recoverable += 1,
            Err(ProtoError::Client { fatal: true, .. }) | Err(ProtoError::Io(_)) => {
                return (requests, recoverable)
            }
        }
    }
}

/// Pass 1: 100k seeded random frames. The assertion is the run itself —
/// no panic, no OOM — plus a sanity check that the fuzz actually
/// exercised both accept and reject paths.
#[test]
fn hundred_thousand_random_frames_never_panic() {
    let mut rng = SplitMix64::new(0xf022);
    let (mut frames, mut requests, mut recoverable) = (0u64, 0u64, 0u64);
    while frames < 100_000 {
        // Group frames into pipelined "connections" so recoverable
        // errors must resync mid-stream, not just at frame boundaries.
        let mut conn = Vec::new();
        let burst = 1 + rng.below(16);
        for _ in 0..burst {
            random_frame(&mut rng, &mut conn);
            frames += 1;
        }
        let (req, rec) = drain(&conn);
        requests += req;
        recoverable += rec;
    }
    assert!(frames >= 100_000);
    assert!(requests > 0, "fuzz never produced a valid request");
    assert!(recoverable > 0, "fuzz never produced a recoverable error");
}

/// A corpus of pipelines to mutate: valid ones, plus `FGET`, a verb
/// both parsers must reject as an unknown command.
fn corpus() -> Vec<Vec<u8>> {
    let crc = proto::crc32(b"abc");
    vec![
        b"GET key:1\r\n".to_vec(),
        b"SET key:1 3\r\nabc\r\n".to_vec(),
        format!("SET key:1 3 {crc:08x}\r\nabc\r\n").into_bytes(),
        b"DEL key:1\r\n".to_vec(),
        b"FGET key:1\r\n".to_vec(),
        b"STATS\r\n".to_vec(),
        b"METRICS\r\n".to_vec(),
        b"GET a\r\nGET b\r\nSET c 1\r\nx\r\nQUIT\r\n".to_vec(),
    ]
}

fn mutate(rng: &mut SplitMix64, frame: &[u8]) -> Vec<u8> {
    let mut out = frame.to_vec();
    match rng.below(4) {
        // Truncate at a random point.
        0 => {
            let cut = rng.below(out.len() as u64 + 1) as usize;
            out.truncate(cut);
        }
        // Flip one bit.
        1 => {
            if !out.is_empty() {
                let at = rng.below(out.len() as u64) as usize;
                out[at] ^= 1 << rng.below(8);
            }
        }
        // Insert a random byte.
        2 => {
            let at = rng.below(out.len() as u64 + 1) as usize;
            #[allow(clippy::cast_possible_truncation)]
            out.insert(at, rng.below(256) as u8);
        }
        // Duplicate a random slice.
        _ => {
            if !out.is_empty() {
                let a = rng.below(out.len() as u64) as usize;
                let b = rng.below(out.len() as u64) as usize;
                let (lo, hi) = (a.min(b), a.max(b));
                let dup = out[lo..hi].to_vec();
                out.extend_from_slice(&dup);
            }
        }
    }
    out
}

/// Pass 2: mutated-valid frames in-process — near-misses of real
/// commands reach the deepest parse paths.
#[test]
fn mutated_valid_frames_never_panic() {
    let mut rng = SplitMix64::new(0xc0bb);
    let corpus = corpus();
    for _ in 0..25_000 {
        let base = &corpus[rng.below(corpus.len() as u64) as usize];
        let mutated = mutate(&mut rng, base);
        drain(&mutated);
        // And with a valid chaser: resync either consumes it as payload
        // (a mutated SET length) or parses it — both fine, no panic.
        let mut chased = mutate(&mut rng, base);
        chased.extend_from_slice(b"GET chaser\r\n");
        drain(&chased);
    }
}

/// One step of reading a stream, comparable across parsers: what came out
/// (the request, or the client error's `msg`/`fatal`/`limit`) and the
/// stream offset it left the reader at — the resync point.
type Outcome = (String, usize);

/// Renders a read result; the flag says the stream ends here.
fn render(result: &Result<Option<Request>, ProtoError>) -> (String, bool) {
    match result {
        Ok(Some(request)) => (format!("{request:?}"), false),
        Ok(None) => ("EOF".to_owned(), true),
        Err(ProtoError::Client { msg, fatal, limit }) => {
            (format!("{msg:?} fatal={fatal} limit={limit:?}"), *fatal)
        }
        Err(ProtoError::Io(e)) => panic!("a slice cannot fail: {e}"),
    }
}

/// Every outcome of a pull parser over `stream`, up to the one that ends it.
fn outcomes_pulled(
    stream: &[u8],
    read: impl Fn(&mut &[u8]) -> Result<Option<Request>, ProtoError>,
) -> Vec<Outcome> {
    let mut rest = stream;
    let mut out = Vec::new();
    loop {
        let (text, last) = render(&read(&mut rest));
        out.push((text, stream.len() - rest.len()));
        if last {
            return out;
        }
    }
}

/// The same for the push decoder, handed `stream` in pieces of
/// `next_chunk()` bytes (the unconsumed rest of a piece is pushed again,
/// as the reactor does); `eof` is raised with the last piece.
fn outcomes_pushed(stream: &[u8], mut next_chunk: impl FnMut() -> usize) -> Vec<Outcome> {
    let mut decoder = Decoder::default();
    let (mut at, mut arrived) = (0, 0);
    let mut out = Vec::new();
    loop {
        if at == arrived {
            arrived = (arrived + next_chunk()).min(stream.len());
        }
        let (used, frame) = decoder.push(&stream[at..arrived], arrived == stream.len());
        at += used;
        let result = match frame {
            None => {
                assert_eq!(at, arrived, "no frame, yet bytes left unconsumed");
                continue;
            }
            Some(Frame::Request(request)) => Ok(Some(request)),
            Some(Frame::Error(e)) => Err(e),
            Some(Frame::Eof) => Ok(None),
        };
        let (text, last) = render(&result);
        out.push((text, at));
        if last {
            return out;
        }
    }
}

/// Pass 4: the decoder against the parser it replaced, and against
/// itself under arbitrary chunking.
#[test]
fn decoder_matches_the_reference_parser_under_any_chunking() {
    let mut rng = SplitMix64::new(0xd1ff);
    let corpus = corpus();
    // The limits' recoverable paths, which random bytes cannot reach: an
    // oversize-but-swallowable payload and an overlong line, each with a
    // follower that must parse after the resync.
    let mut oversize = format!("SET k {}\r\n", proto::MAX_VALUE_LEN + 7).into_bytes();
    oversize.resize(oversize.len() + proto::MAX_VALUE_LEN + 7, b'x');
    oversize.extend_from_slice(b"\r\nGET after\r\n");
    let mut overlong = vec![b'k'; 3 * proto::MAX_LINE_LEN];
    overlong.extend_from_slice(b"\nSET a 2\r\nhi\r\nGET after");
    let mut crafted = vec![oversize, overlong];

    let (mut requests, mut recoverable, mut fatal) = (0u64, 0u64, 0u64);
    for _ in 0..100_000 {
        let stream = crafted.pop().unwrap_or_else(|| {
            let mut stream = Vec::new();
            for _ in 0..1 + rng.below(16) {
                if rng.chance(0.5) {
                    let base = &corpus[rng.below(corpus.len() as u64) as usize];
                    stream.extend_from_slice(&mutate(&mut rng, base));
                } else {
                    random_frame(&mut rng, &mut stream);
                }
            }
            stream
        });
        let expect = outcomes_pulled(&stream, |r| reference::read_request(r));
        let pulled = outcomes_pulled(&stream, |r| proto::read_request(r));
        let whole = outcomes_pushed(&stream, || stream.len());
        let chunked = outcomes_pushed(&stream, || 1 + rng.below(97) as usize);
        for (name, got) in [
            ("read_request", &pulled),
            ("push whole", &whole),
            ("push chunked", &chunked),
        ] {
            assert_eq!(
                got,
                &expect,
                "{name} diverges from the reference on {:?}",
                String::from_utf8_lossy(&stream[..stream.len().min(400)])
            );
        }
        for (text, _) in &expect {
            match text {
                t if t.contains("fatal=true") => fatal += 1,
                t if t.contains("fatal=false") => recoverable += 1,
                t if t != "EOF" => requests += 1,
                _ => {}
            }
        }
    }
    // The streams reached every kind of outcome.
    assert!(requests > 10_000 && recoverable > 10_000 && fatal > 10_000);
}

/// The pull parser the decoder replaced: the test-only oracle.
#[path = "reference/proto.rs"]
mod reference;

/// Asserts `reply` is a well-formed frame stream per PROTOCOL.md: known
/// line shapes, length-framed payloads that match their declared CRC.
/// EOF at a frame boundary is a clean close; EOF inside a frame is not.
fn validate_reply_stream(reply: &[u8]) {
    let mut rest = reply;
    let next_line = |rest: &mut &[u8]| -> Option<Vec<u8>> {
        let pos = rest.windows(2).position(|w| w == b"\r\n")?;
        let line = rest[..pos].to_vec();
        *rest = &rest[pos + 2..];
        Some(line)
    };
    while !rest.is_empty() {
        let Some(line) = next_line(&mut rest) else {
            panic!("reply ends mid-line: {:?}", String::from_utf8_lossy(rest));
        };
        let text = String::from_utf8(line).expect("reply lines are UTF-8");
        let mut consume_payload = |declared_len: &str, crc_token: &str| {
            let len: usize = declared_len.parse().expect("declared length is numeric");
            assert!(rest.len() >= len + 2, "payload truncated in {text:?}");
            let (body, after) = rest.split_at(len);
            assert_eq!(&after[..2], b"\r\n", "payload not CRLF-terminated");
            let declared = u32::from_str_radix(crc_token, 16).expect("crc token is hex");
            assert_eq!(proto::crc32(body), declared, "crc mismatch in {text:?}");
            rest = &after[2..];
        };
        let tokens: Vec<&str> = text.split(' ').collect();
        match tokens.as_slice() {
            ["VALUE", _, len, crc] | ["VALUE", _, len, "STALE", crc] | ["DATA", len, crc] => {
                consume_payload(len, crc);
            }
            ["END" | "STORED" | "DELETED" | "NOT_FOUND" | "SERVER_BUSY"] => {}
            ["STAT", ..] => {}
            first
                if first
                    .first()
                    .is_some_and(|t| *t == "CLIENT_ERROR" || *t == "ORIGIN_ERROR") => {}
            other => panic!("unrecognized reply line: {other:?}"),
        }
    }
}

/// Pass 3: the same hostility through real sockets. Every connection's
/// full reply stream must parse as well-formed frames; afterwards a
/// clean client still round-trips (no worker was wedged or poisoned).
#[test]
fn server_replies_to_garbage_with_well_formed_frames() {
    // The canary key must be unreachable from the fuzz alphabet: corpus
    // frames contain working SETs (which store!), so checking a corpus
    // key afterwards would race the fuzz's own writes.
    let origin = Arc::new(MemoryBacking::new());
    origin.put("canary".to_owned(), b"v1".to_vec());
    let config = ServerConfig {
        workers: 8,
        idle_timeout: Duration::from_secs(2),
        partial_read_deadline: Duration::from_millis(500),
        ..ServerConfig::default()
    };
    let handle = serve(config, origin).expect("server starts");

    let mut rng = SplitMix64::new(0x50c2);
    let corpus = corpus();
    for conn_i in 0..48 {
        let mut payload = Vec::new();
        for _ in 0..24 {
            if rng.chance(0.5) {
                let base = &corpus[rng.below(corpus.len() as u64) as usize];
                payload.extend_from_slice(&mutate(&mut rng, base));
            } else {
                random_frame(&mut rng, &mut payload);
            }
        }
        let mut sock = TcpStream::connect(handle.addr()).expect("connect");
        sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        sock.write_all(&payload).expect("write garbage");
        // EOF our write half so the server drains to a decision.
        sock.shutdown(std::net::Shutdown::Write).unwrap();
        let mut reply = Vec::new();
        sock.read_to_end(&mut reply)
            .unwrap_or_else(|e| panic!("conn {conn_i}: read failed: {e}"));
        validate_reply_stream(&reply);
    }

    // The pool survived all of it.
    let mut c = Client::connect(handle.addr()).expect("connect after fuzz");
    assert_eq!(c.get("canary").expect("get"), Some(b"v1".to_vec()));
    c.quit().unwrap();
    handle.shutdown().expect("clean shutdown");
}
