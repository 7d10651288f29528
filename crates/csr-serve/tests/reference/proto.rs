//! TEST-ONLY REFERENCE. The parent commit's pull parser, kept verbatim as
//! the oracle the push decoder is compared against: it reads a `BufRead`
//! with one function per framing step (`read_line`, `discard_to_newline`,
//! `discard_exact`, `read_payload_tail`) where the decoder has states.
//! Test-only; not a second implementation anyone ships. `tests/proto_fuzz.rs`
//! includes it by `#[path]`. A deliberate grammar change goes into
//! `proto.rs::parse_line` and here; otherwise never edit it.

use csr_serve::proto::{
    crc32, valid_key, ProtoError, Request, MAX_LINE_LEN, MAX_SWALLOW_LEN, MAX_VALUE_LEN,
};
use std::io::BufRead;

fn error(msg: impl Into<String>, fatal: bool, limit: Option<&'static str>) -> ProtoError {
    ProtoError::Client {
        msg: msg.into(),
        fatal,
        limit,
    }
}

fn client(msg: impl Into<String>) -> ProtoError {
    error(msg, false, None)
}

fn fatal(msg: impl Into<String>) -> ProtoError {
    error(msg, true, None)
}

fn limited(msg: impl Into<String>, limit: &'static str) -> ProtoError {
    error(msg, false, Some(limit))
}

fn fatal_limited(msg: impl Into<String>, limit: &'static str) -> ProtoError {
    error(msg, true, Some(limit))
}

/// Reads one line, accepting `\r\n` or bare `\n`, rejecting lines longer
/// than `max` bytes. `Ok(None)` is a clean EOF *before any byte of a new
/// line*; EOF mid-line is an error.
///
/// An overlong line is a *recoverable* error: the rest of the line is
/// discarded up to (and including) the next newline, so the reader is
/// positioned at a frame boundary and the connection can continue. The
/// discard is bounded in memory (one buffer at a time) and bounded in
/// time by the caller's partial-request read deadline.
fn read_line(r: &mut impl BufRead, max: usize) -> Result<Option<Vec<u8>>, ProtoError> {
    let mut line = Vec::new();
    loop {
        let buf = r.fill_buf()?;
        if buf.is_empty() {
            return if line.is_empty() {
                Ok(None)
            } else {
                Err(fatal("unexpected EOF mid-line"))
            };
        }
        match buf.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                if line.len() + pos > max {
                    r.consume(pos + 1);
                    return Err(overlong_line());
                }
                line.extend_from_slice(&buf[..pos]);
                r.consume(pos + 1);
                if line.last() == Some(&b'\r') {
                    line.pop();
                }
                return Ok(Some(line));
            }
            None => {
                if line.len() + buf.len() > max {
                    discard_to_newline(r)?;
                    return Err(overlong_line());
                }
                line.extend_from_slice(buf);
                let n = buf.len();
                r.consume(n);
            }
        }
    }
}

fn overlong_line() -> ProtoError {
    limited("CLIENT_ERROR command line too long", "line")
}

/// Discards bytes up to and including the next newline, restoring frame
/// alignment after an overlong line. EOF before the newline is fatal.
fn discard_to_newline(r: &mut impl BufRead) -> Result<(), ProtoError> {
    loop {
        let buf = r.fill_buf()?;
        if buf.is_empty() {
            return Err(fatal("unexpected EOF mid-line"));
        }
        match buf.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                r.consume(pos + 1);
                return Ok(());
            }
            None => {
                let n = buf.len();
                r.consume(n);
            }
        }
    }
}

/// Discards exactly `n` payload bytes (an oversize but still swallowable
/// `SET` body). EOF inside the payload is fatal.
fn discard_exact(r: &mut impl BufRead, mut n: usize) -> Result<(), ProtoError> {
    while n > 0 {
        let buf = r.fill_buf()?;
        if buf.is_empty() {
            return Err(fatal("unexpected EOF in payload"));
        }
        let take = buf.len().min(n);
        r.consume(take);
        n -= take;
    }
    Ok(())
}

/// Reads the next request off `r`. `Ok(None)` means the peer closed the
/// connection cleanly between requests.
///
/// # Errors
///
/// [`ProtoError::Io`] on transport failure, [`ProtoError::Client`] on a
/// grammar violation (see the module docs for the recoverable/fatal
/// split).
pub fn read_request(r: &mut impl BufRead) -> Result<Option<Request>, ProtoError> {
    let line = match read_line(r, MAX_LINE_LEN)? {
        Some(line) => line,
        None => return Ok(None),
    };
    let line = std::str::from_utf8(&line)
        .map_err(|_| client("CLIENT_ERROR command is not valid UTF-8"))?;
    let mut parts = line.split(' ').filter(|p| !p.is_empty());
    let verb = parts.next().unwrap_or("");
    let request = match verb {
        "GET" | "get" => Request::Get(parse_key(&mut parts)?),
        "DEL" | "del" => Request::Del(parse_key(&mut parts)?),
        "SET" | "set" => {
            let key = parse_key_keep_rest(&mut parts)?;
            let len: usize = parts
                .next()
                .ok_or_else(|| client("CLIENT_ERROR SET needs <key> <len> [<crc32>]"))
                .and_then(|l| {
                    l.parse()
                        .map_err(|_| client("CLIENT_ERROR bad payload length"))
                })?;
            // Optional payload CRC32 (8 hex digits). This crate's client
            // always sends it; bare netcat sessions may omit it. The CRC
            // *value* is validated only *after* the declared payload has
            // been consumed — rejecting earlier would leave the payload
            // bytes in the stream to be misread as commands.
            let crc_token = parts.next();
            if parts.next().is_some() {
                return Err(client("CLIENT_ERROR trailing arguments"));
            }
            if len > MAX_VALUE_LEN {
                if len > MAX_SWALLOW_LEN {
                    // Too large to even read-and-discard; framing is
                    // unsalvageable without streaming the peer's flood.
                    return Err(fatal_limited("payload too large", "value"));
                }
                // Swallow the declared payload to keep framing, then
                // reject recoverably.
                discard_exact(r, len)?;
                read_payload_tail(r)?;
                return Err(limited("CLIENT_ERROR payload too large", "value"));
            }
            let mut value = vec![0u8; len];
            r.read_exact(&mut value)
                .map_err(|_| fatal("unexpected EOF in payload"))?;
            read_payload_tail(r)?;
            if let Some(expect) = crc_token.map(parse_crc).transpose()? {
                if crc32(&value) != expect {
                    // The payload was length-framed and fully consumed, so
                    // the stream is still aligned — but the bytes are not
                    // what the client sent. Reject without storing.
                    return Err(client("CLIENT_ERROR payload checksum mismatch"));
                }
            }
            Request::Set { key, value }
        }
        "STATS" | "stats" => no_args(&mut parts, Request::Stats)?,
        "METRICS" | "metrics" => no_args(&mut parts, Request::Metrics)?,
        "QUIT" | "quit" => no_args(&mut parts, Request::Quit)?,
        "" => return Err(client("CLIENT_ERROR empty command")),
        other => return Err(client(format!("CLIENT_ERROR unknown command {other:?}"))),
    };
    Ok(Some(request))
}

/// Parses an 8-hex-digit CRC32 token.
fn parse_crc(token: &str) -> Result<u32, ProtoError> {
    if token.len() == 8 && token.bytes().all(|b| b.is_ascii_hexdigit()) {
        u32::from_str_radix(token, 16).map_err(|_| client("CLIENT_ERROR bad payload checksum"))
    } else {
        Err(client("CLIENT_ERROR bad payload checksum"))
    }
}

/// Reads and checks the CRLF that terminates a length-framed payload.
fn read_payload_tail(r: &mut impl BufRead) -> Result<(), ProtoError> {
    let mut tail = [0u8; 2];
    r.read_exact(&mut tail)
        .map_err(|_| fatal("unexpected EOF in payload"))?;
    if &tail != b"\r\n" {
        return Err(fatal("payload not CRLF-terminated"));
    }
    Ok(())
}

fn parse_key<'a>(parts: &mut impl Iterator<Item = &'a str>) -> Result<String, ProtoError> {
    let key = parse_key_keep_rest(parts)?;
    if parts.next().is_some() {
        return Err(client("CLIENT_ERROR trailing arguments"));
    }
    Ok(key)
}

fn parse_key_keep_rest<'a>(
    parts: &mut impl Iterator<Item = &'a str>,
) -> Result<String, ProtoError> {
    let key = parts
        .next()
        .ok_or_else(|| client("CLIENT_ERROR missing key"))?;
    if !valid_key(key) {
        return Err(limited("CLIENT_ERROR invalid key", "key"));
    }
    Ok(key.to_owned())
}

fn no_args<'a>(
    parts: &mut impl Iterator<Item = &'a str>,
    request: Request,
) -> Result<Request, ProtoError> {
    if parts.next().is_some() {
        return Err(client("CLIENT_ERROR trailing arguments"));
    }
    Ok(request)
}
