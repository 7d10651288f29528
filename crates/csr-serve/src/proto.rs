//! The wire protocol: a memcached-style, pipelined, line-oriented text
//! protocol (see `PROTOCOL.md` at the repository root for the normative
//! grammar).
//!
//! Framing is one algorithm, [`Decoder`]: a push decoder that is handed
//! bytes as they arrive, looks at each byte once, and consumes at most
//! through the end of one frame, so any number of pipelined requests may
//! share one connection; responses come back in request order. Between
//! pushes it keeps the only partial-frame state there is:
//!
//! * a partial command line, capped at [`MAX_LINE_LEN`] bytes (so a peer
//!   that never sends a newline cannot balloon memory);
//! * an overlong line being discarded up to its newline;
//! * a `SET` payload — exactly `len` bytes plus a trailing CRLF — filling
//!   the very `Vec<u8>` that becomes [`Request::Set`]'s value, or, for an
//!   oversize-but-swallowable payload, just a count of bytes to discard.
//!
//! The decoder never performs I/O and never sees an I/O error. The
//! server pushes socket reads into each connection's decoder directly,
//! so a frame may be split across any number of reads and parks;
//! [`read_request`] is the same decoder driven from a [`BufRead`], and
//! passes transport errors (timeouts included) through as
//! [`ProtoError::Io`] wherever in a frame they strike.
//!
//! Errors split into two classes with different connection fates:
//!
//! * **Recoverable** ([`ProtoError::Client`] with `fatal == false`) — the
//!   request was invalid but the parser knows exactly where the next
//!   request starts (unknown verb, bad key, wrong argument count, a line
//!   or payload over its size limit whose bytes were discarded up to the
//!   next frame boundary). The server answers `CLIENT_ERROR` and keeps
//!   the connection.
//! * **Fatal** (`fatal == true`, or an I/O error) — framing itself broke
//!   (EOF mid-line, missing payload terminator, a declared payload too
//!   large to even swallow): byte position in the stream is no longer
//!   trustworthy, so the server answers and closes.
//!
//! Length-framed payloads (`VALUE`/`DATA` replies, and `SET` requests from
//! this crate's client) carry a CRC32 so byte corruption *inside* a
//! payload — invisible to line framing — is still detected as a malformed
//! frame instead of being accepted as data.

use std::io::{self, BufRead, Write};

/// Maximum key length in bytes (memcached's classic limit).
pub const MAX_KEY_LEN: usize = 250;
/// Maximum `SET` payload length in bytes.
pub const MAX_VALUE_LEN: usize = 1 << 20;
/// Maximum command-line length in bytes, including the terminator —
/// comfortably a verb, a maximal key, a payload length and a CRC32.
pub const MAX_LINE_LEN: usize = MAX_KEY_LEN + 64;
/// Largest declared `SET` payload length the server will still *swallow*
/// (read and discard to keep framing) before replying a recoverable
/// "payload too large". Beyond this the connection closes instead — the
/// peer is either hostile or badly broken, and reading further would let
/// it stream gigabytes through the reject path.
pub const MAX_SWALLOW_LEN: usize = 4 << 20;

/// CRC-32 (IEEE 802.3, the zlib polynomial) lookup table, built at
/// compile time.
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE) of `data` — the payload integrity check carried on
/// length-framed payloads. Rendered on the wire as exactly 8 lowercase
/// hex digits.
#[must_use]
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = CRC32_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// One parsed client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// `GET <key>` — read-through lookup.
    Get(String),
    /// `SET <key> <len> [<crc32>]` + payload — explicit store.
    Set {
        /// The key to store under.
        key: String,
        /// The payload.
        value: Vec<u8>,
    },
    /// `DEL <key>` — invalidation.
    Del(String),
    /// `STATS` — one `STAT <name> <value>` line per counter.
    Stats,
    /// `METRICS` — Prometheus text exposition, length-framed.
    Metrics,
    /// `QUIT` — orderly connection close.
    Quit,
}

/// A protocol-level failure while reading one request.
#[derive(Debug)]
pub enum ProtoError {
    /// The transport failed (includes timeouts surfacing as
    /// `WouldBlock`/`TimedOut`).
    Io(io::Error),
    /// The peer sent something invalid. `fatal` says whether stream
    /// framing was lost (connection must close) or the next line can
    /// still be trusted.
    Client {
        /// Human-readable reason, echoed in the error reply.
        msg: String,
        /// Whether the connection must be closed.
        fatal: bool,
        /// Which normative size limit was violated, if any (`"line"`,
        /// `"key"`, or `"value"`) — feeds the server's
        /// `csr_serve_conn_limit_rejects_total{limit=...}` counter.
        limit: Option<&'static str>,
    },
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Io(e) => write!(f, "i/o error: {e}"),
            ProtoError::Client { msg, .. } => f.write_str(msg),
        }
    }
}

impl From<io::Error> for ProtoError {
    fn from(e: io::Error) -> Self {
        ProtoError::Io(e)
    }
}

impl ProtoError {
    fn client(msg: impl Into<String>) -> Self {
        ProtoError::Client {
            msg: msg.into(),
            fatal: false,
            limit: None,
        }
    }

    fn fatal(msg: impl Into<String>) -> Self {
        ProtoError::Client {
            msg: msg.into(),
            fatal: true,
            limit: None,
        }
    }

    fn limited(msg: impl Into<String>, limit: &'static str) -> Self {
        ProtoError::Client {
            msg: msg.into(),
            fatal: false,
            limit: Some(limit),
        }
    }

    fn fatal_limited(msg: impl Into<String>, limit: &'static str) -> Self {
        ProtoError::Client {
            msg: msg.into(),
            fatal: true,
            limit: Some(limit),
        }
    }
}

/// Whether `key` satisfies the key grammar: 1..=250 bytes of printable
/// ASCII excluding space (`0x21..=0x7E`).
#[must_use]
pub fn valid_key(key: &str) -> bool {
    !key.is_empty() && key.len() <= MAX_KEY_LEN && key.bytes().all(|b| (0x21..=0x7E).contains(&b))
}

fn overlong_line() -> ProtoError {
    ProtoError::limited("CLIENT_ERROR command line too long", "line")
}

/// One decoded unit of the request stream (see [`Decoder::push`]).
#[derive(Debug)]
pub enum Frame {
    /// A well-formed request.
    Request(Request),
    /// A grammar or limit violation — always [`ProtoError::Client`], the
    /// decoder performs no I/O. Unless it is `fatal`, the stream is
    /// positioned at the next frame boundary.
    Error(ProtoError),
    /// The peer closed the connection cleanly between requests.
    Eof,
}

/// The resumable request-frame decoder (see the module docs for its
/// states). One per connection; feed it with [`push`](Self::push).
#[derive(Debug, Default)]
pub struct Decoder {
    state: State,
}

#[derive(Debug)]
enum State {
    /// Reading a command line; holds what earlier pushes brought of it
    /// (at most [`MAX_LINE_LEN`] bytes). A line that arrives whole is
    /// parsed where it lies and never copied here.
    Line(Vec<u8>),
    /// Discarding the rest of an overlong line, up to its newline.
    Overlong,
    /// Reading a `SET` payload and its CRLF.
    Payload(Payload),
}

impl Default for State {
    fn default() -> Self {
        State::Line(Vec::new())
    }
}

/// What a well-formed command line amounts to.
enum Line {
    /// A request complete in its line.
    Request(Request),
    /// A `SET` head: the payload follows.
    Payload(Payload),
}

/// A `SET` whose payload is still arriving.
#[derive(Debug)]
struct Payload {
    /// The request being filled; `None` while discarding an oversize
    /// payload, rejected once swallowed.
    set: Option<PendingSet>,
    /// Payload bytes still to come.
    left: usize,
    /// The bytes after the payload (must turn out to be CRLF), and how
    /// many of the two have arrived.
    tail: [u8; 2],
    tail_len: usize,
}

#[derive(Debug)]
struct PendingSet {
    key: String,
    value: Vec<u8>,
    /// The declared CRC32, if any. Validated — the token's syntax
    /// included — only *after* the declared payload has been consumed:
    /// rejecting earlier would leave the payload bytes in the stream to
    /// be misread as commands.
    crc: Result<Option<u32>, ProtoError>,
}

impl Payload {
    /// Takes what `bytes` holds of the payload and its tail; returns how
    /// many bytes that was. The frame is complete once `tail_len == 2`.
    fn fill(&mut self, bytes: &[u8]) -> usize {
        let body = self.left.min(bytes.len());
        if let Some(set) = &mut self.set {
            set.value.extend_from_slice(&bytes[..body]);
        }
        self.left -= body;
        if self.left > 0 {
            return body;
        }
        let tail = (2 - self.tail_len).min(bytes.len() - body);
        self.tail[self.tail_len..self.tail_len + tail].copy_from_slice(&bytes[body..body + tail]);
        self.tail_len += tail;
        body + tail
    }

    /// The frame a fully read payload (and tail) amounts to.
    fn finish(self) -> Frame {
        if &self.tail != b"\r\n" {
            return Frame::Error(ProtoError::fatal("payload not CRLF-terminated"));
        }
        let Some(set) = self.set else {
            return Frame::Error(ProtoError::limited(
                "CLIENT_ERROR payload too large",
                "value",
            ));
        };
        match set.crc {
            Err(e) => Frame::Error(e),
            // The payload was length-framed and fully consumed, so the
            // stream is still aligned — but the bytes are not what the
            // client sent. Reject without storing.
            Ok(Some(expect)) if crc32(&set.value) != expect => {
                Frame::Error(ProtoError::client("CLIENT_ERROR payload checksum mismatch"))
            }
            Ok(_) => Frame::Request(Request::Set {
                key: set.key,
                value: set.value,
            }),
        }
    }
}

impl Decoder {
    /// Feeds the decoder the next bytes of the stream. Returns how many
    /// of them it consumed and the frame they completed, if any: it
    /// stops at the end of a frame (push the rest again for the next
    /// one), and otherwise consumes everything and waits for more.
    ///
    /// `eof` says that no byte will ever follow `bytes`: once those run
    /// out a frame is always returned — [`Frame::Eof`] at a frame
    /// boundary, the fatal mid-line / mid-payload error inside one.
    ///
    /// Lines end in `\r\n` or a bare `\n`. An overlong line and an
    /// oversize-but-swallowable payload are *recoverable*: their bytes
    /// are discarded up to the next frame boundary (holding nothing in
    /// memory) before the error is returned, so the connection can
    /// continue.
    pub fn push(&mut self, bytes: &[u8], eof: bool) -> (usize, Option<Frame>) {
        let mut used = 0;
        while used < bytes.len() {
            let rest = &bytes[used..];
            match std::mem::take(&mut self.state) {
                State::Line(mut line) => {
                    let Some(pos) = rest.iter().position(|&b| b == b'\n') else {
                        used = bytes.len();
                        if line.len() + rest.len() > MAX_LINE_LEN {
                            self.state = State::Overlong;
                        } else {
                            line.extend_from_slice(rest);
                            self.state = State::Line(line);
                        }
                        break;
                    };
                    used += pos + 1;
                    if line.len() + pos > MAX_LINE_LEN {
                        return (used, Some(Frame::Error(overlong_line())));
                    }
                    let parsed = if line.is_empty() {
                        parse_line(&rest[..pos])
                    } else {
                        line.extend_from_slice(&rest[..pos]);
                        parse_line(&line)
                    };
                    match parsed {
                        Ok(Line::Request(request)) => return (used, Some(Frame::Request(request))),
                        Ok(Line::Payload(payload)) => self.state = State::Payload(payload),
                        Err(e) => return (used, Some(Frame::Error(e))),
                    }
                }
                State::Overlong => match rest.iter().position(|&b| b == b'\n') {
                    Some(pos) => return (used + pos + 1, Some(Frame::Error(overlong_line()))),
                    None => {
                        used = bytes.len();
                        self.state = State::Overlong;
                    }
                },
                State::Payload(mut payload) => {
                    used += payload.fill(rest);
                    if payload.tail_len == 2 {
                        return (used, Some(payload.finish()));
                    }
                    self.state = State::Payload(payload);
                }
            }
        }
        if !eof {
            return (used, None);
        }
        let frame = match std::mem::take(&mut self.state) {
            State::Line(line) if line.is_empty() => Frame::Eof,
            State::Line(_) | State::Overlong => {
                Frame::Error(ProtoError::fatal("unexpected EOF mid-line"))
            }
            State::Payload(_) => Frame::Error(ProtoError::fatal("unexpected EOF in payload")),
        };
        (used, Some(frame))
    }
}

/// Reads the next request off `r`: the `fill_buf` → [`Decoder::push`] →
/// `consume` loop. `Ok(None)` means the peer closed the connection
/// cleanly between requests.
///
/// # Errors
///
/// [`ProtoError::Io`] on transport failure, [`ProtoError::Client`] on a
/// grammar violation (see the module docs for the recoverable/fatal
/// split).
pub fn read_request(r: &mut impl BufRead) -> Result<Option<Request>, ProtoError> {
    let mut decoder = Decoder::default();
    loop {
        let buf = match r.fill_buf() {
            Ok(buf) => buf,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(ProtoError::Io(e)),
        };
        let (used, frame) = decoder.push(buf, buf.is_empty());
        r.consume(used);
        match frame {
            Some(Frame::Request(request)) => return Ok(Some(request)),
            Some(Frame::Error(e)) => return Err(e),
            Some(Frame::Eof) => return Ok(None),
            None => {}
        }
    }
}

/// Parses one command line (terminator already stripped, bar a `\r`).
fn parse_line(line: &[u8]) -> Result<Line, ProtoError> {
    let line = line.strip_suffix(b"\r").unwrap_or(line);
    let line = std::str::from_utf8(line)
        .map_err(|_| ProtoError::client("CLIENT_ERROR command is not valid UTF-8"))?;
    let mut parts = line.split(' ').filter(|p| !p.is_empty());
    let verb = parts.next().unwrap_or("");
    let request = match verb {
        "GET" | "get" => Request::Get(parse_key(&mut parts)?),
        "DEL" | "del" => Request::Del(parse_key(&mut parts)?),
        "SET" | "set" => {
            let key = parse_key_keep_rest(&mut parts)?;
            let len: usize = parts
                .next()
                .ok_or_else(|| ProtoError::client("CLIENT_ERROR SET needs <key> <len> [<crc32>]"))
                .and_then(|l| {
                    l.parse()
                        .map_err(|_| ProtoError::client("CLIENT_ERROR bad payload length"))
                })?;
            // Optional payload CRC32 (8 hex digits). This crate's client
            // always sends it; bare netcat sessions may omit it.
            let crc_token = parts.next();
            if parts.next().is_some() {
                return Err(ProtoError::client("CLIENT_ERROR trailing arguments"));
            }
            if len > MAX_SWALLOW_LEN {
                // Too large to even read-and-discard; framing is
                // unsalvageable without streaming the peer's flood.
                return Err(ProtoError::fatal_limited("payload too large", "value"));
            }
            // Over the value limit: swallow the declared payload to keep
            // framing, then reject recoverably.
            let set = (len <= MAX_VALUE_LEN).then(|| PendingSet {
                key,
                value: Vec::with_capacity(len),
                crc: crc_token.map(parse_crc).transpose(),
            });
            return Ok(Line::Payload(Payload {
                set,
                left: len,
                tail: [0; 2],
                tail_len: 0,
            }));
        }
        "STATS" | "stats" => no_args(&mut parts, Request::Stats)?,
        "METRICS" | "metrics" => no_args(&mut parts, Request::Metrics)?,
        "QUIT" | "quit" => no_args(&mut parts, Request::Quit)?,
        "" => return Err(ProtoError::client("CLIENT_ERROR empty command")),
        other => {
            return Err(ProtoError::client(format!(
                "CLIENT_ERROR unknown command {other:?}"
            )))
        }
    };
    Ok(Line::Request(request))
}

/// Parses an 8-hex-digit CRC32 token.
fn parse_crc(token: &str) -> Result<u32, ProtoError> {
    if token.len() == 8 && token.bytes().all(|b| b.is_ascii_hexdigit()) {
        u32::from_str_radix(token, 16)
            .map_err(|_| ProtoError::client("CLIENT_ERROR bad payload checksum"))
    } else {
        Err(ProtoError::client("CLIENT_ERROR bad payload checksum"))
    }
}

fn parse_key<'a>(parts: &mut impl Iterator<Item = &'a str>) -> Result<String, ProtoError> {
    let key = parse_key_keep_rest(parts)?;
    if parts.next().is_some() {
        return Err(ProtoError::client("CLIENT_ERROR trailing arguments"));
    }
    Ok(key)
}

fn parse_key_keep_rest<'a>(
    parts: &mut impl Iterator<Item = &'a str>,
) -> Result<String, ProtoError> {
    let key = parts
        .next()
        .ok_or_else(|| ProtoError::client("CLIENT_ERROR missing key"))?;
    if !valid_key(key) {
        return Err(ProtoError::limited("CLIENT_ERROR invalid key", "key"));
    }
    Ok(key.to_owned())
}

fn no_args<'a>(
    parts: &mut impl Iterator<Item = &'a str>,
    request: Request,
) -> Result<Request, ProtoError> {
    if parts.next().is_some() {
        return Err(ProtoError::client("CLIENT_ERROR trailing arguments"));
    }
    Ok(request)
}

// ---------------------------------------------------------------------------
// Response writers (shared by the server and, for shapes, the client).

/// Writes a `VALUE <key> <len> <crc32>` + payload + `END` reply (a `GET`
/// hit). The trailing CRC32 token lets the client detect payload
/// corruption that line framing cannot see.
pub fn write_value(w: &mut impl Write, key: &str, value: &[u8]) -> io::Result<()> {
    write_value_flagged(w, key, value, "")
}

/// Writes a `VALUE <key> <len> STALE <crc32>` + payload + `END` reply: a
/// degraded `GET` answered from the stale store because the origin
/// failed. Same framing as [`write_value`] plus the `STALE` flag token.
pub fn write_stale_value(w: &mut impl Write, key: &str, value: &[u8]) -> io::Result<()> {
    write_value_flagged(w, key, value, "STALE ")
}

/// Writes a `VALUE` reply with `flag` (empty, or a token and its space)
/// between the length and the CRC32.
fn write_value_flagged(w: &mut impl Write, key: &str, value: &[u8], flag: &str) -> io::Result<()> {
    write!(
        w,
        "VALUE {key} {} {flag}{:08x}\r\n",
        value.len(),
        crc32(value)
    )?;
    w.write_all(value)?;
    w.write_all(b"\r\nEND\r\n")
}

/// Writes the recoverable `ORIGIN_ERROR <reason>` reply: the origin fetch
/// for a `GET` failed and no stale copy was available. The connection
/// stays open. Origin-supplied text flows into `reason` (an I/O error
/// message, say), so it is cut at a char boundary to keep the line within
/// [`MAX_LINE_LEN`] bytes before its CRLF, and any CR/LF in it is replaced
/// with spaces — written verbatim it would desynchronize the line framing.
pub fn write_origin_error(w: &mut impl Write, reason: &str) -> io::Result<()> {
    const PREFIX: &str = "ORIGIN_ERROR ";
    let mut end = reason.len().min(MAX_LINE_LEN - PREFIX.len());
    while !reason.is_char_boundary(end) {
        end -= 1;
    }
    let reason = &reason[..end];
    if reason.contains(['\r', '\n']) {
        let reason = reason.replace(['\r', '\n'], " ");
        write!(w, "{PREFIX}{reason}\r\n")
    } else {
        write!(w, "{PREFIX}{reason}\r\n")
    }
}

/// Writes the bare `END` reply (a `GET` miss with no origin value).
pub fn write_end(w: &mut impl Write) -> io::Result<()> {
    w.write_all(b"END\r\n")
}

/// Writes a length-framed `DATA <len> <crc32>` reply (the `METRICS`
/// payload).
pub fn write_data(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    write!(w, "DATA {} {:08x}\r\n", payload.len(), crc32(payload))?;
    w.write_all(payload)?;
    w.write_all(b"\r\nEND\r\n")
}

/// Writes one simple line reply (`STORED`, `DELETED`, `NOT_FOUND`,
/// `CLIENT_ERROR ...`, `SERVER_BUSY`, ...).
pub fn write_line(w: &mut impl Write, line: &str) -> io::Result<()> {
    write!(w, "{line}\r\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn get(key: &str) -> Request {
        Request::Get(key.into())
    }

    fn set(key: &str, value: &[u8]) -> Request {
        Request::Set {
            key: key.into(),
            value: value.to_vec(),
        }
    }

    fn parse_all(input: &[u8]) -> Vec<Result<Option<Request>, ProtoError>> {
        let mut r = BufReader::new(input);
        let mut out = Vec::new();
        loop {
            let res = read_request(&mut r);
            let stop = matches!(res, Ok(None) | Err(_));
            out.push(res);
            if stop {
                return out;
            }
        }
    }

    #[test]
    fn parses_a_pipelined_batch() {
        let input = b"GET a\r\nSET b 3\r\nxyz\r\nDEL c\r\nSTATS\r\nMETRICS\r\nQUIT\r\n";
        let reqs: Vec<Request> = parse_all(input)
            .into_iter()
            .map(|r| r.expect("parse"))
            .take_while(|r| r.is_some())
            .flatten()
            .collect();
        assert_eq!(
            reqs,
            vec![
                get("a"),
                set("b", b"xyz"),
                Request::Del("c".into()),
                Request::Stats,
                Request::Metrics,
                Request::Quit,
            ]
        );
    }

    #[test]
    fn accepts_bare_lf_and_lowercase() {
        let mut r = BufReader::new(&b"get k\n"[..]);
        assert_eq!(read_request(&mut r).unwrap(), Some(get("k")));
    }

    #[test]
    fn clean_eof_is_none() {
        let mut r = BufReader::new(&b""[..]);
        assert_eq!(read_request(&mut r).unwrap(), None);
    }

    #[test]
    fn eof_mid_line_is_fatal() {
        let mut r = BufReader::new(&b"GET half-a-comm"[..]);
        match read_request(&mut r) {
            Err(ProtoError::Client { fatal, .. }) => assert!(fatal),
            other => panic!("expected fatal error, got {other:?}"),
        }
    }

    #[test]
    fn set_payload_is_binary_safe() {
        // Payload contains CRLFs and command-lookalikes; the length frame
        // must win.
        let payload = b"GET x\r\nQUIT\r\n\x00\xff";
        let mut input = format!("SET k {}\r\n", payload.len()).into_bytes();
        input.extend_from_slice(payload);
        input.extend_from_slice(b"\r\nGET after\r\n");
        let mut r = BufReader::new(&input[..]);
        assert_eq!(read_request(&mut r).unwrap(), Some(set("k", payload)));
        assert_eq!(read_request(&mut r).unwrap(), Some(get("after")));
    }

    #[test]
    fn unknown_verb_is_recoverable() {
        for (line, verb) in [("FROB x", "FROB"), ("FGET k", "FGET"), ("TRACES", "TRACES")] {
            let input = format!("{line}\r\nGET y\r\n");
            let mut r = BufReader::new(input.as_bytes());
            match read_request(&mut r) {
                Err(ProtoError::Client { fatal, msg, .. }) => {
                    assert!(!fatal, "framing is intact: connection may continue");
                    assert_eq!(msg, format!("CLIENT_ERROR unknown command {verb:?}"));
                }
                other => panic!("expected client error, got {other:?}"),
            }
            // The next request parses fine off the same reader.
            assert_eq!(read_request(&mut r).unwrap(), Some(get("y")));
        }
    }

    #[test]
    fn key_grammar_is_enforced() {
        assert!(valid_key("user:42"));
        assert!(valid_key(&"k".repeat(MAX_KEY_LEN)));
        assert!(!valid_key(""));
        assert!(!valid_key(&"k".repeat(MAX_KEY_LEN + 1)));
        assert!(!valid_key("has space"));
        assert!(!valid_key("ctrl\x07char"));
        assert!(!valid_key("non-ascii-é"));
        let mut r = BufReader::new(&b"GET \x01\r\n"[..]);
        assert!(matches!(
            read_request(&mut r),
            Err(ProtoError::Client { fatal: false, .. })
        ));
    }

    #[test]
    fn overlong_line_is_recoverable_and_resyncs() {
        let mut input = b"GET ".to_vec();
        input.extend(std::iter::repeat_n(b'k', MAX_LINE_LEN + 10));
        input.extend_from_slice(b"\r\nGET after\r\n");
        let mut r = BufReader::new(&input[..]);
        match read_request(&mut r) {
            Err(ProtoError::Client { fatal, limit, .. }) => {
                assert!(!fatal, "an overlong line is discarded, not fatal");
                assert_eq!(limit, Some("line"));
            }
            other => panic!("expected recoverable limit error, got {other:?}"),
        }
        // The reader is positioned at the next frame boundary.
        assert_eq!(read_request(&mut r).unwrap(), Some(get("after")));
    }

    #[test]
    fn overlong_line_without_newline_hits_eof_fatally() {
        // No newline ever arrives: the discard runs into EOF, which is a
        // real framing loss.
        let input = vec![b'k'; MAX_LINE_LEN + 100];
        let mut r = BufReader::new(&input[..]);
        assert!(matches!(
            read_request(&mut r),
            Err(ProtoError::Client { fatal: true, .. })
        ));
    }

    #[test]
    fn oversize_payload_is_swallowed_recoverably() {
        let len = MAX_VALUE_LEN + 1;
        let mut input = format!("SET k {len}\r\n").into_bytes();
        input.extend(std::iter::repeat_n(b'x', len));
        input.extend_from_slice(b"\r\nGET after\r\n");
        let mut r = BufReader::new(&input[..]);
        match read_request(&mut r) {
            Err(ProtoError::Client { fatal, limit, .. }) => {
                assert!(!fatal, "a swallowable oversize payload is recoverable");
                assert_eq!(limit, Some("value"));
            }
            other => panic!("expected recoverable limit error, got {other:?}"),
        }
        assert_eq!(read_request(&mut r).unwrap(), Some(get("after")));
    }

    #[test]
    fn unswallowable_payload_is_fatal() {
        let input = format!("SET k {}\r\n", MAX_SWALLOW_LEN + 1).into_bytes();
        let mut r = BufReader::new(&input[..]);
        assert!(matches!(
            read_request(&mut r),
            Err(ProtoError::Client {
                fatal: true,
                limit: Some("value"),
                ..
            })
        ));
    }

    #[test]
    fn set_crc_is_verified_when_present() {
        // Correct CRC: stored.
        let mut input = format!("SET k 3 {:08x}\r\n", crc32(b"xyz")).into_bytes();
        input.extend_from_slice(b"xyz\r\n");
        let mut r = BufReader::new(&input[..]);
        assert_eq!(read_request(&mut r).unwrap(), Some(set("k", b"xyz")));

        // Wrong CRC: recoverable reject, stream stays aligned.
        let mut input = format!("SET k 3 {:08x}\r\n", crc32(b"xyz") ^ 1).into_bytes();
        input.extend_from_slice(b"xyz\r\nGET after\r\n");
        let mut r = BufReader::new(&input[..]);
        match read_request(&mut r) {
            Err(ProtoError::Client { fatal, msg, .. }) => {
                assert!(!fatal);
                assert!(msg.contains("checksum mismatch"));
            }
            other => panic!("expected checksum reject, got {other:?}"),
        }
        assert_eq!(read_request(&mut r).unwrap(), Some(get("after")));

        // Malformed CRC token: the payload is still consumed before the
        // reject (rejecting earlier would leave it in the stream to be
        // misread as commands), so the error is recoverable and the next
        // request parses.
        let mut r = BufReader::new(&b"SET k 3 nothex!!\r\nxyz\r\nGET after\r\n"[..]);
        assert!(matches!(
            read_request(&mut r),
            Err(ProtoError::Client { fatal: false, .. })
        ));
        assert_eq!(read_request(&mut r).unwrap(), Some(get("after")));
    }

    /// Pushes `input` whole; returns the first frame and the bytes
    /// consumed reaching it.
    fn push_once(input: &[u8], eof: bool) -> (usize, Option<Frame>) {
        Decoder::default().push(input, eof)
    }

    #[test]
    fn decoder_stops_at_the_end_of_the_first_frame() {
        match push_once(b"GET alpha\r\nGET beta\r\n", false) {
            (used, Some(Frame::Request(request))) => {
                assert_eq!(request, get("alpha"));
                assert_eq!(used, "GET alpha\r\n".len());
            }
            other => panic!("expected a parsed GET, got {other:?}"),
        }
    }

    #[test]
    fn decoder_waits_on_a_partial_line() {
        for partial in ["", "G", "GET ", "GET some-ke"] {
            match push_once(partial.as_bytes(), false) {
                (used, None) => assert_eq!(used, partial.len(), "all of it is taken"),
                other => panic!("{partial:?} must be incomplete, got {other:?}"),
            }
        }
        // ... and resumes where it stopped, never handed a byte twice.
        let mut decoder = Decoder::default();
        assert!(matches!(decoder.push(b"GET some-ke", false), (11, None)));
        match decoder.push(b"y\r\nGET next\r\n", false) {
            (3, Some(Frame::Request(request))) => assert_eq!(request, get("some-key")),
            other => panic!("expected the resumed GET, got {other:?}"),
        }
    }

    #[test]
    fn decoder_waits_on_a_partial_set_payload_and_tail() {
        // Header complete, payload cut off mid-way: incomplete, not the
        // fatal EOF error — running out of bytes is not end-of-stream.
        let mut decoder = Decoder::default();
        assert!(matches!(
            decoder.push(b"SET k 10\r\nabc", false),
            (13, None)
        ));
        assert!(matches!(decoder.push(b"defghij\r", false), (8, None)));
        match decoder.push(b"\nGET after\r\n", false) {
            (1, Some(Frame::Request(request))) => assert_eq!(request, set("k", b"abcdefghij")),
            other => panic!("expected the SET, got {other:?}"),
        }
        // Payload complete but the CRLF tail cut off: same story.
        assert!(matches!(push_once(b"SET k 3\r\nabc", false), (12, None)));
        assert!(matches!(push_once(b"SET k 3\r\nabc\r", false), (13, None)));
    }

    #[test]
    fn decoder_with_eof_reports_the_stream_end_outcomes() {
        // Clean EOF at a frame boundary.
        assert!(matches!(push_once(b"", true), (0, Some(Frame::Eof))));
        // EOF mid-line and mid-payload: the fatal errors, verbatim.
        for (input, expect) in [
            (&b"GET k"[..], "unexpected EOF mid-line"),
            (b"SET k 10\r\nabc", "unexpected EOF in payload"),
            (b"SET k 3\r\nabc\r", "unexpected EOF in payload"),
        ] {
            match push_once(input, true) {
                (used, Some(Frame::Error(ProtoError::Client { msg, fatal, .. }))) => {
                    assert!(fatal);
                    assert_eq!(msg, expect);
                    assert_eq!(used, input.len());
                }
                other => panic!("{input:?} + EOF must be fatal, got {other:?}"),
            }
        }
        // A frame that completes is returned first; EOF comes after it.
        let mut decoder = Decoder::default();
        assert!(matches!(
            decoder.push(b"GET k\r\n", true),
            (7, Some(Frame::Request(_)))
        ));
        assert!(matches!(decoder.push(b"", true), (0, Some(Frame::Eof))));
    }

    #[test]
    fn decoder_surfaces_recoverable_errors_at_the_resync_point() {
        // Oversize-but-swallowable payload: recoverable, fully consumed.
        let n = MAX_VALUE_LEN + 1;
        let mut buf = format!("SET k {n}\r\n").into_bytes();
        let header = buf.len();
        buf.extend(std::iter::repeat_n(b'x', n));
        buf.extend_from_slice(b"\r\nGET k\r\n");
        match push_once(&buf, false) {
            (used, Some(Frame::Error(ProtoError::Client { fatal, limit, .. }))) => {
                assert!(!fatal, "oversize payload is recoverable");
                assert_eq!(limit, Some("value"));
                assert_eq!(used, header + n + 2, "consumed to the resync point");
            }
            other => panic!("expected a recoverable limit error, got {other:?}"),
        }
    }

    #[test]
    fn decoder_discards_a_newline_less_flood_without_buffering_it() {
        // Far more than any frame, no newline: every push is swallowed
        // whole, and the one error comes at the newline.
        let mut decoder = Decoder::default();
        let chunk = vec![b'x'; 64 * 1024];
        for _ in 0..100 {
            assert!(matches!(decoder.push(&chunk, false), (used, None) if used == chunk.len()));
        }
        assert!(matches!(decoder.state, State::Overlong), "nothing is kept");
        match decoder.push(b"xx\nGET after\r\n", false) {
            (3, Some(Frame::Error(ProtoError::Client { fatal, limit, .. }))) => {
                assert!(!fatal);
                assert_eq!(limit, Some("line"));
            }
            other => panic!("expected the overlong-line error, got {other:?}"),
        }
    }

    #[test]
    fn crc32_matches_reference_vectors() {
        // The classic CRC-32/ISO-HDLC check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn missing_payload_terminator_is_fatal() {
        let mut r = BufReader::new(&b"SET k 2\r\nabXX"[..]);
        assert!(matches!(
            read_request(&mut r),
            Err(ProtoError::Client { fatal: true, .. })
        ));
    }

    #[test]
    fn response_writers_produce_the_documented_shapes() {
        let abc_crc = format!("{:08x}", crc32(b"abc"));
        let mut buf = Vec::new();
        write_value(&mut buf, "k", b"abc").unwrap();
        assert_eq!(
            buf,
            format!("VALUE k 3 {abc_crc}\r\nabc\r\nEND\r\n").as_bytes()
        );
        buf.clear();
        write_end(&mut buf).unwrap();
        assert_eq!(buf, b"END\r\n");
        buf.clear();
        write_data(&mut buf, b"metrics 1\n").unwrap();
        let data_crc = format!("{:08x}", crc32(b"metrics 1\n"));
        assert_eq!(
            buf,
            format!("DATA 10 {data_crc}\r\nmetrics 1\n\r\nEND\r\n").as_bytes()
        );
        buf.clear();
        write_line(&mut buf, "STORED").unwrap();
        assert_eq!(buf, b"STORED\r\n");
        buf.clear();
        write_stale_value(&mut buf, "k", b"abc").unwrap();
        assert_eq!(
            buf,
            format!("VALUE k 3 STALE {abc_crc}\r\nabc\r\nEND\r\n").as_bytes()
        );
        buf.clear();
        write_origin_error(&mut buf, "origin fetch timed out").unwrap();
        assert_eq!(buf, b"ORIGIN_ERROR origin fetch timed out\r\n");
    }

    #[test]
    fn trailing_arguments_are_recoverable_rejects() {
        // A word after a complete command, a `TRACE` context included,
        // is refused, and the stream resyncs on the next line.
        for line in [
            "GET k JUNK",
            "GET k TRACE 00000000000000ab.00000000000000cd",
            "DEL k extra",
            "STATS now",
        ] {
            let input = format!("{line}\r\nGET after\r\n");
            let mut r = BufReader::new(input.as_bytes());
            match read_request(&mut r) {
                Err(ProtoError::Client { fatal, msg, .. }) => {
                    assert!(!fatal, "{line:?} must be recoverable");
                    assert_eq!(msg, "CLIENT_ERROR trailing arguments", "{line:?}");
                }
                other => panic!("{line:?}: expected client error, got {other:?}"),
            }
            assert_eq!(read_request(&mut r).unwrap(), Some(get("after")));
        }
    }

    #[test]
    fn max_length_set_line_fits() {
        // The line budget: a verb, a maximal key, the largest payload
        // length and a CRC32.
        let key = "k".repeat(MAX_KEY_LEN);
        let line = format!("SET {key} {MAX_SWALLOW_LEN} 00000000\r\n");
        assert!(line.len() - 2 <= MAX_LINE_LEN, "budget regressed");
        let (used, frame) = Decoder::default().push(line.as_bytes(), false);
        assert_eq!(used, line.len());
        assert!(frame.is_none(), "the payload is awaited: {frame:?}");
    }

    #[test]
    fn origin_error_reason_is_sanitized_to_one_line() {
        // Origin-supplied text can carry CR/LF; written verbatim the tail
        // would parse as a second reply line and desync the stream.
        let mut buf = Vec::new();
        write_origin_error(&mut buf, "disk error\r\nEND").unwrap();
        assert_eq!(buf, b"ORIGIN_ERROR disk error  END\r\n");
        buf.clear();
        write_origin_error(&mut buf, "split\nreason").unwrap();
        assert_eq!(buf, b"ORIGIN_ERROR split reason\r\n");
    }

    #[test]
    fn long_origin_error_reason_is_cut_to_one_bounded_line() {
        // A 4 KB reason with CR/LF and a multi-byte char straddling the
        // cut still writes one line the client's reply bound accepts.
        let reason = "origin said\r\n".repeat(20) + &"é".repeat(2000);
        assert!(reason.len() >= 4096);
        let mut buf = Vec::new();
        write_origin_error(&mut buf, &reason).unwrap();
        assert!(buf.len() <= MAX_LINE_LEN + 2, "line is {} bytes", buf.len());
        assert!(buf.ends_with(b"\r\n"));
        let body = &buf[..buf.len() - 2];
        assert!(!body.contains(&b'\r') && !body.contains(&b'\n'));
        let text = std::str::from_utf8(body).expect("cut at a char boundary");
        assert!(text.starts_with("ORIGIN_ERROR origin said  origin said"));
    }
}
