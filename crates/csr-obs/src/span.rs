//! Span primitives for `csr-trace` (see [`crate::trace`]).
//!
//! A *span* is one timed phase of one request — parse, cache lookup,
//! origin fetch, stale serve — identified by a 64-bit id and linked to
//! its parent. Spans carry two clocks on purpose:
//!
//! * a **wall-clock anchor** (`start_us`, microseconds since the Unix
//!   epoch) so spans line up on one timeline with the caller's own
//!   (within clock skew) when a client-propagated trace is assembled;
//! * a **monotonic duration** (`dur_us`, measured with
//!   [`std::time::Instant`]) so the reported latency is immune to
//!   wall-clock steps.
//!
//! The wire form of a context is `"<trace_id>.<span_id>"`, both as
//! exactly sixteen lowercase hex digits — fixed-width so the protocol
//! line length stays bounded (see `PROTOCOL.md` § Tracing).

use std::sync::Arc;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// Microseconds since the Unix epoch, right now.
#[must_use]
pub fn unix_us() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| u64::try_from(d.as_micros()).unwrap_or(u64::MAX))
}

/// The propagated identity of a trace: which trace a request belongs to
/// and which span is its parent on the caller's side.
///
/// This is what travels on the wire as the optional `TRACE` token
/// (`GET <key> TRACE <trace_id>.<span_id>`): the receiving node starts
/// its own root span with `span_id` as the parent, joining the caller's
/// trace instead of starting a fresh one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceContext {
    /// The trace this request belongs to. Never zero.
    pub trace_id: u64,
    /// The caller-side span that caused this request. Never zero.
    pub span_id: u64,
    /// Whether the originator decided to keep this trace. A context
    /// parsed off the wire is always sampled — a caller only spends the
    /// token bytes on traces it intends to keep.
    pub sampled: bool,
}

impl TraceContext {
    /// Renders the wire form: `<trace_id>.<span_id>`, each as sixteen
    /// lowercase hex digits (33 bytes total).
    #[must_use]
    pub fn render(&self) -> String {
        format!("{:016x}.{:016x}", self.trace_id, self.span_id)
    }

    /// Parses the wire form. Returns `None` unless the input is exactly
    /// two sixteen-digit lowercase hex fields joined by `.`, neither
    /// zero (zero ids are reserved as "absent").
    #[must_use]
    pub fn parse(s: &str) -> Option<TraceContext> {
        let (t, p) = s.split_once('.')?;
        if t.len() != 16 || p.len() != 16 {
            return None;
        }
        if !t
            .bytes()
            .chain(p.bytes())
            .all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b))
        {
            return None;
        }
        let trace_id = u64::from_str_radix(t, 16).ok()?;
        let span_id = u64::from_str_radix(p, 16).ok()?;
        if trace_id == 0 || span_id == 0 {
            return None;
        }
        Some(TraceContext {
            trace_id,
            span_id,
            sampled: true,
        })
    }
}

/// A timestamped annotation inside a span — a retry attempt, a breaker
/// fail-fast, a deadline expiry. Events are how the resilience stack
/// shows up in a trace without getting spans of its own.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanEvent {
    /// Microseconds since the Unix epoch when the event fired.
    pub at_us: u64,
    /// The event kind (`"retry"`, `"breaker_open"`, `"deadline"`, …).
    pub name: &'static str,
    /// Free-form detail (attempt number, error text, …).
    pub detail: String,
}

/// One finished span: a named, timed phase of a request on one node.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    /// The trace this span belongs to.
    pub trace_id: u64,
    /// This span's id (unique within the trace).
    pub span_id: u64,
    /// The parent span's id; zero for a root with no parent.
    pub parent_id: u64,
    /// The phase name (`"request"`, `"parse"`, `"cache"`, `"origin"`,
    /// `"stale"`).
    pub name: &'static str,
    /// The emitting node's id (its listen address in csr-serve).
    pub node: Arc<str>,
    /// Wall-clock start, microseconds since the Unix epoch.
    pub start_us: u64,
    /// Monotonic duration in microseconds.
    pub dur_us: u64,
    /// Annotations that fired inside this span.
    pub events: Vec<SpanEvent>,
}

impl SpanRecord {
    /// The span as a JSON object (ids as fixed-width hex strings, the
    /// same encoding the wire uses; a zero `parent_id` renders `null`).
    #[must_use]
    pub fn to_json(&self) -> crate::Json {
        use crate::Json;
        Json::obj([
            ("span_id", Json::str(format!("{:016x}", self.span_id))),
            (
                "parent_id",
                if self.parent_id == 0 {
                    Json::Null
                } else {
                    Json::str(format!("{:016x}", self.parent_id))
                },
            ),
            ("name", Json::str(self.name)),
            ("node", Json::str(self.node.as_ref())),
            ("start_us", Json::uint(self.start_us)),
            ("dur_us", Json::uint(self.dur_us)),
            (
                "events",
                Json::Arr(
                    self.events
                        .iter()
                        .map(|e| {
                            Json::obj([
                                ("at_us", Json::uint(e.at_us)),
                                ("name", Json::str(e.name)),
                                ("detail", Json::str(e.detail.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// An open (still running) span: ids plus both clocks, accumulating
/// events until [`crate::trace::RequestTrace::finish_span`] seals it
/// into a [`SpanRecord`].
#[derive(Debug)]
pub struct SpanTimer {
    pub(crate) name: &'static str,
    pub(crate) span_id: u64,
    pub(crate) start_us: u64,
    pub(crate) started: Instant,
    pub(crate) events: Vec<SpanEvent>,
}

impl SpanTimer {
    /// Opens a span starting now.
    #[must_use]
    pub fn start(name: &'static str, span_id: u64) -> SpanTimer {
        SpanTimer {
            name,
            span_id,
            start_us: unix_us(),
            started: Instant::now(),
            events: Vec::new(),
        }
    }

    /// Opens a span retroactively anchored at `anchor` (an instant that
    /// was captured earlier, e.g. the first byte of a request). The
    /// wall-clock start is back-dated by the same amount.
    #[must_use]
    pub fn start_at(name: &'static str, span_id: u64, anchor: Instant) -> SpanTimer {
        let behind = u64::try_from(anchor.elapsed().as_micros()).unwrap_or(u64::MAX);
        SpanTimer {
            name,
            span_id,
            start_us: unix_us().saturating_sub(behind),
            started: anchor,
            events: Vec::new(),
        }
    }

    /// This span's id (the parent id for anything it causes).
    #[must_use]
    pub fn span_id(&self) -> u64 {
        self.span_id
    }

    /// Microseconds elapsed since the span opened.
    #[must_use]
    pub fn elapsed_us(&self) -> u64 {
        u64::try_from(self.started.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    /// Adds a timestamped annotation.
    pub fn event(&mut self, name: &'static str, detail: String) {
        self.events.push(SpanEvent {
            at_us: unix_us(),
            name,
            detail,
        });
    }

    /// Appends pre-built events (e.g. drained from the thread-local
    /// collector after an instrumented origin fetch).
    pub fn absorb_events(&mut self, events: Vec<SpanEvent>) {
        if self.events.is_empty() {
            self.events = events;
        } else {
            self.events.extend(events);
        }
    }

    /// Seals the span into a record.
    #[must_use]
    pub fn finish(self, trace_id: u64, parent_id: u64, node: Arc<str>) -> SpanRecord {
        let dur_us = self.elapsed_us();
        SpanRecord {
            trace_id,
            span_id: self.span_id,
            parent_id,
            name: self.name,
            node,
            start_us: self.start_us,
            dur_us,
            events: self.events,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_round_trips() {
        let ctx = TraceContext {
            trace_id: 0x0123_4567_89ab_cdef,
            span_id: 0xfedc_ba98_7654_3210,
            sampled: true,
        };
        let wire = ctx.render();
        assert_eq!(wire, "0123456789abcdef.fedcba9876543210");
        assert_eq!(wire.len(), 33);
        assert_eq!(TraceContext::parse(&wire), Some(ctx));
    }

    #[test]
    fn context_rejects_malformed() {
        for bad in [
            "",
            "0123456789abcdef",                   // no span half
            "0123456789abcdef.",                  // empty span half
            "123.456",                            // not fixed-width
            "0123456789abcdef.fedcba987654321g",  // non-hex
            "0123456789ABCDEF.fedcba9876543210",  // uppercase
            "0000000000000000.fedcba9876543210",  // zero trace id
            "0123456789abcdef.0000000000000000",  // zero span id
            "0123456789abcdef.fedcba9876543210x", // trailing junk
        ] {
            assert!(TraceContext::parse(bad).is_none(), "{bad:?} must fail");
        }
    }

    #[test]
    fn timer_backdates_anchor() {
        let anchor = Instant::now();
        std::thread::sleep(std::time::Duration::from_millis(5));
        let t = SpanTimer::start_at("parse", 1, anchor);
        let rec = t.finish(7, 0, Arc::from("n1"));
        assert!(rec.dur_us >= 5_000, "dur {}", rec.dur_us);
        // The back-dated wall clock start sits before "now".
        assert!(rec.start_us <= unix_us());
    }

    #[test]
    fn span_json_shape() {
        let mut t = SpanTimer::start("origin", 0x2a);
        t.event("retry", "attempt 1".to_owned());
        let rec = t.finish(0x1, 0x9, Arc::from("127.0.0.1:1"));
        let j = rec.to_json();
        assert_eq!(j.get("span_id").unwrap().as_str(), Some("000000000000002a"));
        assert_eq!(
            j.get("parent_id").unwrap().as_str(),
            Some("0000000000000009")
        );
        assert_eq!(j.get("name").unwrap().as_str(), Some("origin"));
        let events = j.get("events").unwrap().as_arr().unwrap();
        assert_eq!(events[0].get("name").unwrap().as_str(), Some("retry"));
        // Root spans render a null parent.
        let root = SpanTimer::start("request", 0x3).finish(0x1, 0, Arc::from("n"));
        assert_eq!(root.to_json().get("parent_id"), Some(&crate::Json::Null));
    }
}
