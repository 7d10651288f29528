//! Blocking clients for the csr-serve protocol.
//!
//! One [`Client`] owns one connection. Calls are synchronous
//! request/response by default; [`Client::get_pipelined`] demonstrates the
//! protocol's pipelining (many requests on the wire before the first
//! response is read), which is how a latency-bound workload recovers
//! throughput without more connections. Every socket carries connect,
//! read, and write deadlines ([`Timeouts`]) — a hung or half-open server
//! can never wedge the caller forever.
//!
//! [`FailoverClient`] is the self-healing layer on top: it owns one server
//! address instead of a connection, reconnects through failures with
//! capped backoff and seeded jitter (the [`BackoffSchedule`] from
//! [`crate::resilience`]), transparently replays *idempotent* `GET`s after
//! a mid-call disconnect, and refuses to replay `SET` — a non-idempotent
//! op that died mid-flight surfaces as the typed
//! [`ConnectionError::MaybeApplied`] so the caller decides.

use crate::proto::{self, MAX_VALUE_LEN};
use crate::resilience::{mix64, BackoffSchedule};
use csr_obs::{Counter, Registry};
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::Duration;

/// Socket deadlines applied to every connection a client makes. All three
/// must be non-zero (a zero socket timeout is rejected by the OS).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timeouts {
    /// Deadline for establishing the TCP connection.
    pub connect: Duration,
    /// Deadline for each socket read (a reply that stalls longer fails
    /// with `TimedOut`/`WouldBlock` instead of blocking forever).
    pub read: Duration,
    /// Deadline for each socket write.
    pub write: Duration,
}

impl Default for Timeouts {
    /// Conservative interactive defaults: 5 s connect, 30 s read, 10 s
    /// write.
    fn default() -> Self {
        Timeouts {
            connect: Duration::from_secs(5),
            read: Duration::from_secs(30),
            write: Duration::from_secs(10),
        }
    }
}

/// A `GET` result carrying its reply flag: `stale` is set when the
/// server answered from its stale store because the origin failed (the
/// `STALE` token on the `VALUE` line).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Value {
    /// The value bytes.
    pub data: Vec<u8>,
    /// Whether this is a stale copy served while the origin is degraded.
    pub stale: bool,
}

/// The typed form of the server's recoverable `ORIGIN_ERROR` reply: the
/// origin fetch failed and no stale copy was available. Surfaced wrapped
/// in an [`io::Error`]; recover it with
/// `err.get_ref().and_then(|e| e.downcast_ref::<OriginError>())`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OriginError {
    /// The server's reason line.
    pub reason: String,
}

impl std::fmt::Display for OriginError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ORIGIN_ERROR {}", self.reason)
    }
}

impl std::error::Error for OriginError {}

/// The server rejected a `SET` because the payload checksum did not match
/// — the request was corrupted in flight. Framing is intact and the store
/// definitively did **not** happen, so re-issuing the `SET` is safe (the
/// one transport error after which a non-idempotent op may be replayed).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreRejected {
    /// The server's `CLIENT_ERROR` reply line.
    pub reason: String,
}

impl std::fmt::Display for StoreRejected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.reason)
    }
}

impl std::error::Error for StoreRejected {}

/// Why a [`FailoverClient`] call failed, surfaced wrapped in an
/// [`io::Error`]; recover it with [`ConnectionError::from_io`].
#[derive(Debug)]
pub enum ConnectionError {
    /// Every connection and retry attempt was exhausted without
    /// completing the call.
    Unavailable {
        /// Connection/replay attempts consumed before giving up.
        attempts: u32,
        /// The last underlying failure.
        source: io::Error,
    },
    /// A non-idempotent `SET` failed *after* its request may have
    /// reached the server: the op was *not* replayed, and whether it was
    /// applied is unknown. The caller must decide (re-read, re-issue
    /// if its application is idempotent, or surface the ambiguity).
    MaybeApplied {
        /// The underlying failure.
        source: io::Error,
    },
}

impl std::fmt::Display for ConnectionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConnectionError::Unavailable { attempts, source } => {
                write!(f, "server unavailable after {attempts} attempts: {source}")
            }
            ConnectionError::MaybeApplied { source } => write!(
                f,
                "connection failed mid-request; the operation may or may not have been applied: {source}"
            ),
        }
    }
}

impl std::error::Error for ConnectionError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ConnectionError::Unavailable { source, .. }
            | ConnectionError::MaybeApplied { source } => Some(source),
        }
    }
}

impl ConnectionError {
    /// Recovers a typed `ConnectionError` from an [`io::Error`] returned
    /// by a [`FailoverClient`] call, if it wraps one.
    #[must_use]
    pub fn from_io(e: &io::Error) -> Option<&ConnectionError> {
        e.get_ref().and_then(|inner| inner.downcast_ref())
    }

    /// Whether `e` is the [`ConnectionError::MaybeApplied`] ambiguity.
    #[must_use]
    pub fn is_maybe_applied(e: &io::Error) -> bool {
        matches!(
            ConnectionError::from_io(e),
            Some(ConnectionError::MaybeApplied { .. })
        )
    }
}

/// The `csr_serve_client_*` metric families: how often the self-healing
/// client had to heal. Register once per process and share across
/// [`FailoverClient`]s (the counters are `Arc`s into the registry).
#[derive(Clone)]
pub struct ClientMetrics {
    /// Successful connections after the first (healing events).
    pub reconnects: Arc<Counter>,
    /// Idempotent ops re-issued after a connection-level failure.
    pub replays: Arc<Counter>,
    /// Socket operations cut by their read/write/connect deadline.
    pub deadline_timeouts: Arc<Counter>,
}

impl ClientMetrics {
    /// Registers the client families in `registry`.
    #[must_use]
    pub fn new(registry: &Registry) -> Self {
        ClientMetrics {
            reconnects: registry.counter(
                "csr_serve_client_reconnects_total",
                "Successful client connections after the first (healing events)",
                &[],
            ),
            replays: registry.counter(
                "csr_serve_client_replays_total",
                "Idempotent client ops re-issued after a connection-level failure",
                &[],
            ),
            deadline_timeouts: registry.counter(
                "csr_serve_client_deadline_timeouts_total",
                "Client socket operations cut by a connect/read/write deadline",
                &[],
            ),
        }
    }
}

/// Shared view of a connection's one socket. `&TcpStream` is both `Read`
/// and `Write`, so the buffered reader and writer halves can share a
/// single file descriptor; the `try_clone` alternative `dup(2)`s a second
/// fd per connection, which halves how many connections fit under
/// `RLIMIT_NOFILE` — the difference between 10k and 20k open connections
/// for a scaling-curve load generator.
#[derive(Debug)]
struct SocketRef(Arc<TcpStream>);

impl Read for SocketRef {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        (&*self.0).read(buf)
    }
}

impl Write for SocketRef {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        (&*self.0).write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        (&*self.0).flush()
    }
}

/// A connection to a csr-serve server.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<SocketRef>,
    writer: BufWriter<SocketRef>,
}

impl Client {
    /// Connects to `addr` with the default [`Timeouts`] — connections made
    /// this way can no longer block forever on a hung or half-open server.
    ///
    /// # Errors
    ///
    /// Connection failures (including connect timeout).
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        Client::connect_with(addr, &Timeouts::default())
    }

    /// Connects to `addr` with explicit socket deadlines.
    ///
    /// # Errors
    ///
    /// Connection failures; the connect attempt itself is bounded by
    /// `timeouts.connect` per resolved address.
    pub fn connect_with(addr: impl ToSocketAddrs, timeouts: &Timeouts) -> io::Result<Client> {
        let mut last: Option<io::Error> = None;
        for a in addr.to_socket_addrs()? {
            match TcpStream::connect_timeout(&a, timeouts.connect) {
                Ok(stream) => {
                    stream.set_nodelay(true)?;
                    stream.set_read_timeout(Some(timeouts.read))?;
                    stream.set_write_timeout(Some(timeouts.write))?;
                    let stream = Arc::new(stream);
                    return Ok(Client {
                        reader: BufReader::new(SocketRef(Arc::clone(&stream))),
                        writer: BufWriter::new(SocketRef(stream)),
                    });
                }
                Err(e) => last = Some(e),
            }
        }
        Err(last.unwrap_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "address resolved to nothing")
        }))
    }

    /// Looks `key` up; `None` means neither the cache nor the origin has
    /// it. A stale copy served under origin failure is returned like any
    /// other value — use [`get_value`](Self::get_value) to observe the
    /// `STALE` flag.
    ///
    /// # Errors
    ///
    /// Transport failures and server-reported errors, including the
    /// recoverable `ORIGIN_ERROR` reply as a typed [`OriginError`].
    pub fn get(&mut self, key: &str) -> io::Result<Option<Vec<u8>>> {
        Ok(self.get_value(key)?.map(|v| v.data))
    }

    /// Looks `key` up, surfacing the degradation flag: the returned
    /// [`Value`] says whether the server answered with a stale copy.
    ///
    /// # Errors
    ///
    /// Transport failures and server-reported errors, including the
    /// recoverable `ORIGIN_ERROR` reply as a typed [`OriginError`].
    pub fn get_value(&mut self, key: &str) -> io::Result<Option<Value>> {
        write!(self.writer, "GET {key}\r\n")?;
        self.writer.flush()?;
        self.read_get_reply(key)
    }

    /// Issues every `GET` before reading any reply (one flush, one
    /// round-trip's worth of latency for the whole batch).
    ///
    /// # Errors
    ///
    /// Transport failures and server-reported errors. An `ORIGIN_ERROR`
    /// for any key in the batch fails the whole call with the *first*
    /// such error — but `ORIGIN_ERROR` is recoverable, so the remaining
    /// replies are still drained off the wire first and the connection
    /// stays usable afterwards. Issue keys individually when origin
    /// failures must be told apart per key.
    pub fn get_pipelined(&mut self, keys: &[&str]) -> io::Result<Vec<Option<Vec<u8>>>> {
        for key in keys {
            write!(self.writer, "GET {key}\r\n")?;
        }
        self.writer.flush()?;
        let mut out = Vec::with_capacity(keys.len());
        let mut first_origin_err: Option<io::Error> = None;
        for key in keys {
            match self.read_get_reply(key) {
                Ok(v) => out.push(v.map(|v| v.data)),
                // The server keeps sending the batch's remaining replies
                // after a recoverable ORIGIN_ERROR: returning
                // early here would desynchronize the stream and hand
                // leftover replies to the next call, so read every reply
                // before failing.
                Err(e) if is_origin_error(&e) => {
                    first_origin_err.get_or_insert(e);
                }
                // Transport/framing failures: stream position is already
                // lost, nothing left to drain.
                Err(e) => return Err(e),
            }
        }
        match first_origin_err {
            Some(e) => Err(e),
            None => Ok(out),
        }
    }

    /// Stores `key -> value`. The payload CRC32 is always sent, so a
    /// store corrupted in flight is rejected by the server instead of
    /// silently persisting garbage.
    ///
    /// # Errors
    ///
    /// Transport failures and server-reported errors. A checksum reject
    /// surfaces as a typed [`StoreRejected`] — the server definitively
    /// did *not* apply the store, so re-issuing it is safe.
    pub fn set(&mut self, key: &str, value: &[u8]) -> io::Result<()> {
        write!(
            self.writer,
            "SET {key} {} {:08x}\r\n",
            value.len(),
            proto::crc32(value)
        )?;
        self.writer.write_all(value)?;
        self.writer.write_all(b"\r\n")?;
        self.writer.flush()?;
        let line = self.read_line()?;
        match line.as_str() {
            "STORED" => Ok(()),
            l if l.starts_with("CLIENT_ERROR payload checksum mismatch") => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                StoreRejected { reason: line },
            )),
            other => Err(unexpected(other)),
        }
    }

    /// Deletes `key`; `true` if it was resident.
    ///
    /// # Errors
    ///
    /// Transport failures and server-reported errors.
    pub fn del(&mut self, key: &str) -> io::Result<bool> {
        write!(self.writer, "DEL {key}\r\n")?;
        self.writer.flush()?;
        match self.read_line()?.as_str() {
            "DELETED" => Ok(true),
            "NOT_FOUND" => Ok(false),
            other => Err(unexpected(other)),
        }
    }

    /// Fetches the server's `STATS` table as `(name, value)` pairs.
    ///
    /// # Errors
    ///
    /// Transport failures and server-reported errors.
    pub fn stats(&mut self) -> io::Result<Vec<(String, String)>> {
        self.writer.write_all(b"STATS\r\n")?;
        self.writer.flush()?;
        let mut out = Vec::new();
        loop {
            let line = self.read_line()?;
            if line == "END" {
                return Ok(out);
            }
            match line
                .strip_prefix("STAT ")
                .and_then(|rest| rest.split_once(' '))
            {
                Some((name, value)) => out.push((name.to_owned(), value.to_owned())),
                None => return Err(unexpected(&line)),
            }
        }
    }

    /// Fetches the Prometheus metrics exposition.
    ///
    /// # Errors
    ///
    /// Transport failures and server-reported errors.
    pub fn metrics(&mut self) -> io::Result<String> {
        self.fetch_data(b"METRICS\r\n")
    }

    /// Issues a verb answered with a length-prefixed `DATA` frame
    /// (`METRICS`) and returns its UTF-8 body.
    fn fetch_data(&mut self, verb: &[u8]) -> io::Result<String> {
        self.writer.write_all(verb)?;
        self.writer.flush()?;
        let line = self.read_line()?;
        let Some((len, crc)) = line.strip_prefix("DATA ").and_then(|r| r.split_once(' ')) else {
            return Err(unexpected(&line));
        };
        let body = self.read_payload(&line, len, crc)?;
        String::from_utf8(body).map_err(|_| io::Error::other("data body was not UTF-8"))
    }

    /// Sends `QUIT` and closes the connection cleanly.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn quit(mut self) -> io::Result<()> {
        self.writer.write_all(b"QUIT\r\n")?;
        self.writer.flush()
    }

    /// Reads one `GET` reply: `VALUE <key> <len> [STALE] <crc32>` +
    /// payload + `END`, a bare `END`, or the recoverable `ORIGIN_ERROR`
    /// line. The echoed key must match `expect_key`, so a request
    /// corrupted in flight into a *different valid key* can never return
    /// that other key's value as this one's.
    fn read_get_reply(&mut self, expect_key: &str) -> io::Result<Option<Value>> {
        let line = self.read_line()?;
        if line == "END" {
            return Ok(None);
        }
        if let Some(reason) = line.strip_prefix("ORIGIN_ERROR") {
            return Err(io::Error::other(OriginError {
                reason: reason.trim_start().to_owned(),
            }));
        }
        let rest = line
            .strip_prefix("VALUE ")
            .ok_or_else(|| unexpected(&line))?;
        let mut fields = rest.split(' ');
        let key = fields.next().ok_or_else(|| unexpected(&line))?;
        if key != expect_key {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("reply key {key:?} does not match requested {expect_key:?}"),
            ));
        }
        let (len, stale, crc) = match (fields.next(), fields.next(), fields.next(), fields.next()) {
            (Some(len), Some(crc), None, _) => (len, false, crc),
            (Some(len), Some("STALE"), Some(crc), None) => (len, true, crc),
            _ => return Err(unexpected(&line)),
        };
        let data = self.read_payload(&line, len, crc)?;
        Ok(Some(Value { data, stale }))
    }

    /// Reads the rest of a `VALUE` or `DATA` frame whose reply `line`
    /// declared `len` and `crc`: the payload, its CRLF and `END`. A
    /// payload that fails its CRC is reported as a malformed frame,
    /// never returned as data.
    fn read_payload(&mut self, line: &str, len: &str, crc: &str) -> io::Result<Vec<u8>> {
        let (Some(len), Some(crc)) = (
            len.parse::<usize>().ok().filter(|n| *n <= MAX_VALUE_LEN),
            parse_crc_token(crc),
        ) else {
            return Err(unexpected(line));
        };
        let mut body = vec![0u8; len];
        self.reader.read_exact(&mut body)?;
        let mut tail = [0u8; 2];
        self.reader.read_exact(&mut tail)?;
        if &tail != b"\r\n" {
            return Err(io::Error::other("payload not CRLF-terminated"));
        }
        if proto::crc32(&body) != crc {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "payload checksum mismatch",
            ));
        }
        match self.read_line()?.as_str() {
            "END" => Ok(body),
            other => Err(unexpected(other)),
        }
    }

    /// Reads one response line, without its terminator. At most
    /// [`proto::MAX_LINE_LEN`] bytes precede the newline, so the read
    /// stops one byte past that: a reply still without its newline there
    /// is refused at once instead of growing until the read deadline.
    fn read_line(&mut self) -> io::Result<String> {
        let limit = proto::MAX_LINE_LEN + 1;
        let mut line = String::new();
        let mut full = (&mut self.reader).take(limit as u64).read_line(&mut line)? == limit;
        if full && line.ends_with('\r') {
            // A longest line's CR: its LF is the one byte still due.
            full = (&mut self.reader).take(1).read_line(&mut line)? == 1;
        }
        if !line.ends_with('\n') {
            return Err(if full {
                io::Error::other("overlong response line")
            } else {
                io::Error::new(io::ErrorKind::UnexpectedEof, "server closed the connection")
            });
        }
        while line.ends_with('\n') || line.ends_with('\r') {
            line.pop();
        }
        Ok(line)
    }
}

/// Maps an error or unexpected reply line to an `io::Error`, preserving
/// the server's wording (`SERVER_BUSY`, `CLIENT_ERROR ...`).
fn unexpected(line: &str) -> io::Error {
    io::Error::other(format!("unexpected server reply: {line}"))
}

/// Whether `e` wraps the recoverable [`OriginError`] reply: the server
/// sent it *inside intact framing*, so the connection answered correctly
/// and there is nothing for the failover layer to heal and nothing to
/// drain-skip (transport and framing errors are not recoverable).
fn is_origin_error(e: &io::Error) -> bool {
    e.get_ref().is_some_and(|inner| inner.is::<OriginError>())
}

/// Whether `e` wraps a [`StoreRejected`] checksum reject (the server
/// answered inside intact framing and definitively did not store).
fn is_store_rejected(e: &io::Error) -> bool {
    e.get_ref().is_some_and(|inner| inner.is::<StoreRejected>())
}

/// Parses an 8-hex-digit CRC32 reply token.
fn parse_crc_token(tok: &str) -> Option<u32> {
    (tok.len() == 8 && tok.bytes().all(|b| b.is_ascii_hexdigit()))
        .then(|| u32::from_str_radix(tok, 16).ok())
        .flatten()
}

// ---------------------------------------------------------------------------
// The self-healing client

/// Tuning for a [`FailoverClient`].
#[derive(Debug, Clone, Copy)]
pub struct FailoverConfig {
    /// Socket deadlines for every connection.
    pub timeouts: Timeouts,
    /// Backoff between reconnect/replay attempts (capped exponential with
    /// seeded jitter — the same schedule the server uses against its
    /// origin).
    pub backoff: BackoffSchedule,
    /// Total connection + replay attempts per call before giving up.
    pub max_attempts: u32,
    /// Seed for the backoff jitter — decorrelates concurrent clients.
    pub seed: u64,
}

impl Default for FailoverConfig {
    /// 1 ms → 200 ms backoff, 8 attempts.
    fn default() -> Self {
        FailoverConfig {
            timeouts: Timeouts::default(),
            backoff: BackoffSchedule {
                base: Duration::from_millis(1),
                cap: Duration::from_millis(200),
            },
            max_attempts: 8,
            seed: 0,
        }
    }
}

/// A self-healing client for one server address.
///
/// Connections are made lazily and healed transparently: any
/// connection-level failure (transport error, deadline, corrupted or
/// unparseable reply) drops the connection and reconnects, with a
/// capped-backoff sleep between attempts. Idempotent ops
/// ([`get`](Self::get), [`get_value`](Self::get_value),
/// [`get_pipelined`](Self::get_pipelined)) are then replayed; the
/// non-idempotent [`set`](Self::set) is **not** — once its request may
/// have left, failure surfaces as [`ConnectionError::MaybeApplied`]. The
/// server's recoverable `ORIGIN_ERROR` reply passes straight through: the
/// connection answered correctly, there is nothing to heal. Other verbs
/// go through a plain [`Client`].
pub struct FailoverClient {
    addr: String,
    config: FailoverConfig,
    metrics: Option<ClientMetrics>,
    conn: Option<Client>,
    /// Whether any connection ever succeeded (reconnect accounting).
    ever_connected: bool,
    /// Backoff sleeps taken (jitter decorrelation stream).
    retries: u64,
}

impl FailoverClient {
    /// A client for the server at `addr`. No connection is made until the
    /// first call.
    #[must_use]
    pub fn new(addr: String, config: FailoverConfig) -> FailoverClient {
        FailoverClient {
            addr,
            config,
            metrics: None,
            conn: None,
            ever_connected: false,
            retries: 0,
        }
    }

    /// Attaches the `csr_serve_client_*` counters this client feeds.
    #[must_use]
    pub fn with_metrics(mut self, metrics: ClientMetrics) -> FailoverClient {
        self.metrics = Some(metrics);
        self
    }

    /// Looks `key` up (idempotent: replayed through failures).
    ///
    /// # Errors
    ///
    /// [`ConnectionError::Unavailable`] when every attempt failed, or a
    /// passed-through recoverable server reply ([`OriginError`]).
    pub fn get(&mut self, key: &str) -> io::Result<Option<Vec<u8>>> {
        validate_key(key)?;
        self.run_op(true, |c| c.get(key))
    }

    /// Looks `key` up with its degradation flag (idempotent).
    ///
    /// # Errors
    ///
    /// As [`get`](Self::get).
    pub fn get_value(&mut self, key: &str) -> io::Result<Option<Value>> {
        validate_key(key)?;
        self.run_op(true, |c| c.get_value(key))
    }

    /// Pipelined batch of `GET`s (idempotent: the whole batch is replayed
    /// on a mid-batch disconnect).
    ///
    /// # Errors
    ///
    /// As [`get`](Self::get); an `ORIGIN_ERROR` inside the batch passes
    /// through after the batch's replies are drained.
    pub fn get_pipelined(&mut self, keys: &[&str]) -> io::Result<Vec<Option<Vec<u8>>>> {
        for key in keys {
            validate_key(key)?;
        }
        self.run_op(true, |c| c.get_pipelined(keys))
    }

    /// Stores `key -> value`. **Not replayed**: a failure after the
    /// request may have left surfaces as [`ConnectionError::MaybeApplied`]
    /// (the one exception is a server-side checksum reject, which
    /// definitively did not store and is retried).
    ///
    /// # Errors
    ///
    /// [`ConnectionError`] variants as above.
    pub fn set(&mut self, key: &str, value: &[u8]) -> io::Result<()> {
        validate_key(key)?;
        if value.len() > MAX_VALUE_LEN {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("value over MAX_VALUE_LEN ({MAX_VALUE_LEN} bytes)"),
            ));
        }
        self.run_op(false, |c| c.set(key, value))
    }

    /// Connects now instead of at the first call, within the attempt
    /// budget and backoff a call gets. A no-op while connected.
    ///
    /// # Errors
    ///
    /// The last connect failure once the budget is spent.
    pub fn connect(&mut self) -> io::Result<()> {
        self.ensure_connected(&mut 0)
    }

    /// Closes the current connection cleanly (best effort). The client
    /// remains usable — the next call reconnects.
    pub fn close(&mut self) {
        if let Some(client) = self.conn.take() {
            let _ = client.quit();
        }
    }

    /// Runs `op`, healing the connection through failures. `idempotent`
    /// gates replay: a non-idempotent op whose request may have left the
    /// building fails with [`ConnectionError::MaybeApplied`] instead of
    /// being re-issued.
    fn run_op<T>(
        &mut self,
        idempotent: bool,
        mut op: impl FnMut(&mut Client) -> io::Result<T>,
    ) -> io::Result<T> {
        let mut attempt: u32 = 0;
        loop {
            if let Err(e) = self.ensure_connected(&mut attempt) {
                return Err(io::Error::other(ConnectionError::Unavailable {
                    attempts: attempt,
                    source: e,
                }));
            }
            let client = self.conn.as_mut().expect("ensure_connected succeeded");
            match op(client) {
                Ok(v) => return Ok(v),
                // The server answered inside intact framing
                // (ORIGIN_ERROR): nothing to heal, the error is the answer.
                Err(e) if is_origin_error(&e) => return Err(e),
                // Checksum reject: the server definitively did NOT apply
                // the store and the stream is aligned — safe to re-issue
                // even for SET, on the same connection.
                Err(e) if is_store_rejected(&e) => {
                    attempt += 1;
                    if attempt >= self.config.max_attempts {
                        return Err(e);
                    }
                    self.count_replay();
                    self.sleep_backoff(attempt);
                }
                // Anything else poisons the connection: transport failure,
                // deadline, or a reply we could not trust (corruption).
                Err(e) => {
                    self.count_timeout(&e);
                    self.conn = None;
                    if !idempotent {
                        return Err(io::Error::other(ConnectionError::MaybeApplied {
                            source: e,
                        }));
                    }
                    attempt += 1;
                    if attempt >= self.config.max_attempts {
                        return Err(io::Error::other(ConnectionError::Unavailable {
                            attempts: attempt,
                            source: e,
                        }));
                    }
                    self.count_replay();
                    self.sleep_backoff(attempt);
                }
            }
        }
    }

    /// Connects if not connected, consuming attempts from the shared
    /// per-call budget and sleeping the backoff between failures.
    fn ensure_connected(&mut self, attempt: &mut u32) -> io::Result<()> {
        if self.conn.is_some() {
            return Ok(());
        }
        loop {
            match Client::connect_with(self.addr.as_str(), &self.config.timeouts) {
                Ok(client) => {
                    if let Some(m) = &self.metrics {
                        if self.ever_connected {
                            m.reconnects.inc();
                        }
                    }
                    self.ever_connected = true;
                    self.conn = Some(client);
                    return Ok(());
                }
                Err(e) => {
                    self.count_timeout(&e);
                    *attempt += 1;
                    if *attempt >= self.config.max_attempts {
                        return Err(e);
                    }
                    self.sleep_backoff(*attempt);
                }
            }
        }
    }

    fn count_replay(&self) {
        if let Some(m) = &self.metrics {
            m.replays.inc();
        }
    }

    /// Counts `e` if a connect/read/write deadline cut it.
    fn count_timeout(&self, e: &io::Error) {
        if let (Some(m), io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock) =
            (&self.metrics, e.kind())
        {
            m.deadline_timeouts.inc();
        }
    }

    /// Sleeps the capped-backoff delay before attempt `attempt`, jittered
    /// by a fresh deterministic stream per sleep.
    fn sleep_backoff(&mut self, attempt: u32) {
        self.retries += 1;
        let seed = mix64(self.config.seed, self.retries);
        std::thread::sleep(self.config.backoff.delay(attempt.saturating_sub(1), seed));
    }
}

fn validate_key(key: &str) -> io::Result<()> {
    if proto::valid_key(key) {
        Ok(())
    } else {
        Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("invalid key {key:?} (1..=250 printable ASCII, no spaces)"),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connection_error_downcasts_from_io() {
        let e = io::Error::other(ConnectionError::MaybeApplied {
            source: io::Error::new(io::ErrorKind::BrokenPipe, "gone"),
        });
        assert!(ConnectionError::is_maybe_applied(&e));
        match ConnectionError::from_io(&e) {
            Some(ConnectionError::MaybeApplied { source }) => {
                assert_eq!(source.kind(), io::ErrorKind::BrokenPipe);
            }
            other => panic!("bad downcast: {other:?}"),
        }
        let plain = io::Error::other("nope");
        assert!(!ConnectionError::is_maybe_applied(&plain));
        assert!(ConnectionError::from_io(&plain).is_none());
    }

    #[test]
    fn invalid_keys_are_rejected_client_side() {
        let mut fc = FailoverClient::new("127.0.0.1:1".into(), FailoverConfig::default());
        let err = fc.get("has space").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        let err = fc.set("", b"v").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }
}
