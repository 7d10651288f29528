//! `csr-trace`: a sampled distributed tracer with a bounded,
//! never-blocking ring of finished traces.
//!
//! Design constraints, in order:
//!
//! 1. **The untraced hot path costs nothing.** When a request carries no
//!    `TRACE` token and both sampling knobs are off, [`Tracer::begin`]
//!    is two field loads and returns `None` — no allocation, no atomic
//!    write, no ring traffic. The e2e suite asserts this.
//! 2. **Recording never blocks a request.** The ring is a fixed array of
//!    slots guarded by per-slot mutexes that writers only `try_lock`; a
//!    contended slot drops the trace (counted) instead of waiting.
//!    Readers ([`Tracer::snapshot`]) take real locks, which is safe
//!    because writers never wait on them.
//! 3. **Slow requests are never missed.** With `slow_us` set, *every*
//!    request is traced and the keep/drop decision moves to
//!    [`Tracer::finish`]: sampled traces are kept as before, and any
//!    trace over the threshold is kept regardless of the sample rate.
//!
//! Sampling semantics (normative, mirrored in `PROTOCOL.md`):
//!
//! * An incoming [`TraceContext`] (wire `TRACE` token) always traces and
//!   always keeps — explicit propagation wins, so a traced client
//!   observes its trace regardless of server knobs.
//! * `sample_every = N` keeps 1-in-N of locally originated requests.
//! * `slow_us = U` additionally keeps any request slower than U µs.
//!
//! The thread-local *event collector* ([`arm_events`] / [`emit_event`] /
//! [`take_events`]) lets deeply nested middleware (retry loops, circuit
//! breakers, deadline guards) annotate the current request's origin span
//! without threading a handle through every layer: the request handler
//! arms it only when the request is traced, so an unarmed [`emit_event`]
//! is a thread-local flag check.

use crate::json::Json;
use crate::span::{unix_us, SpanEvent, SpanRecord, SpanTimer, TraceContext};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Tracer knobs. All off by default: a default-configured tracer never
/// records anything on its own (it still honors incoming contexts).
#[derive(Clone, Copy, Debug)]
pub struct TraceConfig {
    /// Keep 1-in-N locally originated requests; 0 disables sampling.
    pub sample_every: u64,
    /// Keep any request slower than this many microseconds; 0 disables
    /// (and with it the trace-everything behavior it requires).
    pub slow_us: u64,
    /// Finished-trace ring capacity (entries). Oldest entries are
    /// overwritten.
    pub capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> TraceConfig {
        TraceConfig {
            sample_every: 0,
            slow_us: 0,
            capacity: 256,
        }
    }
}

/// One kept trace fragment: every span this node recorded for one
/// request, plus whether it crossed the slow threshold.
#[derive(Clone, Debug)]
pub struct TraceEntry {
    /// The trace the spans belong to.
    pub trace_id: u64,
    /// True when the root span exceeded the tracer's `slow_us`.
    pub slow: bool,
    /// The spans, root first.
    pub spans: Vec<SpanRecord>,
}

impl TraceEntry {
    /// The entry as a JSON object — one line of the JSONL export.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("trace_id", Json::str(format!("{:016x}", self.trace_id))),
            (
                "node",
                Json::str(
                    self.spans
                        .first()
                        .map_or("", |s| s.node.as_ref())
                        .to_owned(),
                ),
            ),
            ("slow", Json::Bool(self.slow)),
            (
                "spans",
                Json::Arr(self.spans.iter().map(SpanRecord::to_json).collect()),
            ),
        ])
    }
}

/// splitmix64-style finalizer: uncorrelates ids derived from a counter.
fn mix64(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The per-node tracer: sampling decisions, id generation, and the
/// bounded ring of kept traces.
pub struct Tracer {
    node: Arc<str>,
    config: TraceConfig,
    id_seed: u64,
    /// Locally originated request counter — drives 1-in-N sampling.
    seq: AtomicU64,
    /// Id-generation counter, separate from `seq` so root-id draws for
    /// propagated traces don't skew the sampling stream.
    ids: AtomicU64,
    /// Ring write cursor (monotonically increasing; slot = cursor % cap).
    head: AtomicU64,
    slots: Vec<Mutex<Option<TraceEntry>>>,
    recorded: AtomicU64,
    dropped: AtomicU64,
}

impl Tracer {
    /// Builds a tracer for `node` (the id stamped on every span —
    /// csr-serve uses the listen address).
    #[must_use]
    pub fn new(node: &str, config: TraceConfig) -> Tracer {
        let capacity = config.capacity.max(1);
        Tracer {
            node: Arc::from(node),
            config,
            id_seed: mix64(fnv1a(node), unix_us()) | 1,
            seq: AtomicU64::new(0),
            ids: AtomicU64::new(0),
            head: AtomicU64::new(0),
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
            recorded: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// The node id spans are stamped with.
    #[must_use]
    pub fn node(&self) -> &Arc<str> {
        &self.node
    }

    /// Whether this tracer ever records locally originated traces.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.config.sample_every > 0 || self.config.slow_us > 0
    }

    /// The configured slow threshold (µs; 0 = off).
    #[must_use]
    pub fn slow_us(&self) -> u64 {
        self.config.slow_us
    }

    /// Starts tracing one request, or returns `None` when this request
    /// is not traced (the zero-cost path).
    ///
    /// `incoming` is the wire context, if the request carried one;
    /// `anchor` is the instant the request started (first byte read), so
    /// the root span covers read + parse time retroactively.
    #[must_use]
    pub fn begin(&self, incoming: Option<TraceContext>, anchor: Instant) -> Option<RequestTrace> {
        let (trace_id, parent_id, forced) = match incoming {
            Some(ctx) => (ctx.trace_id, ctx.span_id, true),
            None => {
                if !self.enabled() {
                    return None;
                }
                let n = self.seq.fetch_add(1, Ordering::Relaxed);
                let sampled =
                    self.config.sample_every > 0 && n.is_multiple_of(self.config.sample_every);
                if !sampled && self.config.slow_us == 0 {
                    return None;
                }
                (mix64(self.id_seed, n) | 1, 0, sampled)
            }
        };
        let root_id = mix64(
            trace_id,
            self.ids.fetch_add(1, Ordering::Relaxed) ^ self.id_seed,
        ) | 1;
        Some(RequestTrace {
            trace_id,
            parent_id,
            forced,
            node: Arc::clone(&self.node),
            root: SpanTimer::start_at("request", root_id, anchor),
            children: Vec::new(),
            next_child: 0,
        })
    }

    /// Seals a request's trace: closes the root span, decides retention
    /// (forced-or-slow), and pushes kept traces into the ring. The
    /// returned [`FinishedRequest`] always carries the spans so the
    /// caller can feed phase histograms and the slow log from the same
    /// records the ring keeps.
    pub fn finish(&self, trace: RequestTrace) -> FinishedRequest {
        let RequestTrace {
            trace_id,
            parent_id,
            forced,
            node,
            root,
            mut children,
            ..
        } = trace;
        let root_span_id = root.span_id();
        let record = root.finish(trace_id, parent_id, node);
        let total_us = record.dur_us;
        let mut spans = Vec::with_capacity(1 + children.len());
        spans.push(record);
        spans.append(&mut children);
        let slow = self.config.slow_us > 0 && total_us >= self.config.slow_us;
        let retained = forced || slow;
        if retained {
            self.push(TraceEntry {
                trace_id,
                slow,
                spans: spans.clone(),
            });
        }
        FinishedRequest {
            trace_id,
            root_span_id,
            total_us,
            slow,
            retained,
            spans,
        }
    }

    /// Pushes a finished entry into the ring, never blocking: a slot
    /// whose lock is contended drops the entry instead.
    fn push(&self, entry: TraceEntry) {
        let cursor = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = usize::try_from(cursor).unwrap_or(0) % self.slots.len();
        match self.slots[slot].try_lock() {
            Ok(mut guard) => {
                *guard = Some(entry);
                self.recorded.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Traces kept in the ring, oldest slot first. Clones the entries;
    /// concurrent writers skip (and count) rather than wait.
    #[must_use]
    pub fn snapshot(&self) -> Vec<TraceEntry> {
        self.slots
            .iter()
            .filter_map(|slot| {
                slot.lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .clone()
            })
            .collect()
    }

    /// Traces successfully written to the ring so far.
    #[must_use]
    pub fn recorded(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }

    /// Traces dropped on slot contention.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// The ring as JSONL: one JSON object per line, one line per kept
    /// trace fragment (shape in [`TraceEntry::to_json`]).
    #[must_use]
    pub fn export_jsonl(&self) -> String {
        let mut out = String::new();
        for entry in self.snapshot() {
            out.push_str(&entry.to_json().render());
            out.push('\n');
        }
        out
    }

    /// The ring in Chrome trace-event format (a single JSON document,
    /// openable at `ui.perfetto.dev` or `chrome://tracing`).
    #[must_use]
    pub fn export_chrome(&self) -> String {
        chrome_trace(&self.snapshot()).render()
    }
}

/// Renders trace fragments (possibly merged from several nodes) as a
/// Chrome trace-event JSON document. Each node becomes a "process" (with
/// a `process_name` metadata record), each trace a "thread" within it,
/// and each span a complete (`ph:"X"`) event whose `ts` is the span's
/// wall-clock anchor — so spans from different nodes of one trace line
/// up on a shared timeline, within clock skew.
#[must_use]
pub fn chrome_trace(entries: &[TraceEntry]) -> Json {
    let mut events: Vec<Json> = Vec::new();
    let mut named_pids: Vec<u64> = Vec::new();
    for entry in entries {
        let tid = i64::try_from(entry.trace_id & 0x7fff_ffff)
            .unwrap_or(1)
            .max(1);
        for span in &entry.spans {
            let pid_raw = fnv1a(span.node.as_ref()) & 0x7fff_ffff;
            let pid = i64::try_from(pid_raw).unwrap_or(1).max(1);
            if !named_pids.contains(&pid_raw) {
                named_pids.push(pid_raw);
                events.push(Json::obj([
                    ("ph", Json::str("M")),
                    ("name", Json::str("process_name")),
                    ("pid", Json::Int(pid)),
                    ("tid", Json::Int(0)),
                    ("args", Json::obj([("name", Json::str(span.node.as_ref()))])),
                ]));
            }
            events.push(Json::obj([
                ("ph", Json::str("X")),
                ("name", Json::str(span.name)),
                ("cat", Json::str(if entry.slow { "slow" } else { "csr" })),
                ("pid", Json::Int(pid)),
                ("tid", Json::Int(tid)),
                ("ts", Json::uint(span.start_us)),
                ("dur", Json::uint(span.dur_us.max(1))),
                (
                    "args",
                    Json::obj([
                        ("trace_id", Json::str(format!("{:016x}", span.trace_id))),
                        ("span_id", Json::str(format!("{:016x}", span.span_id))),
                        ("parent_id", Json::str(format!("{:016x}", span.parent_id))),
                        (
                            "events",
                            Json::Arr(
                                span.events
                                    .iter()
                                    .map(|e| Json::str(format!("{} {}", e.name, e.detail)))
                                    .collect(),
                            ),
                        ),
                    ]),
                ),
            ]));
        }
    }
    Json::obj([("traceEvents", Json::Arr(events))])
}

/// One request's trace under construction: the open root span plus the
/// finished child spans. Built by [`Tracer::begin`], sealed by
/// [`Tracer::finish`].
#[derive(Debug)]
pub struct RequestTrace {
    trace_id: u64,
    parent_id: u64,
    forced: bool,
    node: Arc<str>,
    root: SpanTimer,
    children: Vec<SpanRecord>,
    next_child: u64,
}

impl RequestTrace {
    /// The trace id.
    #[must_use]
    pub fn trace_id(&self) -> u64 {
        self.trace_id
    }

    /// The root span's id.
    #[must_use]
    pub fn root_span_id(&self) -> u64 {
        self.root.span_id()
    }

    /// Opens a child span (of the root) starting now.
    #[must_use]
    pub fn begin_span(&mut self, name: &'static str) -> SpanTimer {
        SpanTimer::start(name, self.child_id())
    }

    /// Opens a child span backdated to `anchor` — for phases whose start
    /// could only be captured as an [`Instant`] (e.g. inside a closure
    /// that cannot borrow the trace).
    #[must_use]
    pub fn begin_span_at(&mut self, name: &'static str, anchor: Instant) -> SpanTimer {
        SpanTimer::start_at(name, self.child_id(), anchor)
    }

    /// Records a child span that ran from `anchor` until now — for
    /// phases only discovered after the fact, like parse time measured
    /// from the request's first byte.
    pub fn add_span_since(&mut self, name: &'static str, anchor: Instant) -> u64 {
        let timer = SpanTimer::start_at(name, self.child_id(), anchor);
        self.finish_span(timer)
    }

    /// Seals a child span opened with [`RequestTrace::begin_span`] and
    /// returns its duration in microseconds (the phase histogram value).
    pub fn finish_span(&mut self, timer: SpanTimer) -> u64 {
        let record = timer.finish(self.trace_id, self.root.span_id(), Arc::clone(&self.node));
        let dur = record.dur_us;
        self.children.push(record);
        dur
    }

    /// Adds a timestamped annotation to the root span.
    pub fn event(&mut self, name: &'static str, detail: String) {
        self.root.event(name, detail);
    }

    /// Appends pre-collected events (e.g. leftovers from the thread-local
    /// collector) to the root span. A no-op for an empty batch.
    pub fn absorb_events(&mut self, events: Vec<SpanEvent>) {
        self.root.absorb_events(events);
    }

    fn child_id(&mut self) -> u64 {
        self.next_child += 1;
        mix64(self.root.span_id(), self.next_child) | 1
    }
}

/// A sealed request trace: retention already decided, spans (root first)
/// handed back for phase histograms and the slow log.
#[derive(Debug)]
pub struct FinishedRequest {
    /// The trace id.
    pub trace_id: u64,
    /// The root span's id.
    pub root_span_id: u64,
    /// Root span duration — the whole request, µs.
    pub total_us: u64,
    /// Whether the request crossed the tracer's slow threshold.
    pub slow: bool,
    /// Whether the trace was written to the ring.
    pub retained: bool,
    /// All spans, root first.
    pub spans: Vec<SpanRecord>,
}

thread_local! {
    /// The per-thread event collector; `None` means unarmed.
    static EVENTS: RefCell<Option<Vec<SpanEvent>>> = const { RefCell::new(None) };
}

/// Arms the current thread's event collector. Until [`take_events`],
/// [`emit_event`] calls on this thread accumulate. Request handlers arm
/// only for traced requests, keeping unarmed emission allocation-free.
pub fn arm_events() {
    EVENTS.with(|slot| *slot.borrow_mut() = Some(Vec::new()));
}

/// Emits an event to the collector if armed; a no-op (and the `detail`
/// closure is never called) otherwise. Middleware calls this without
/// knowing whether the current request is traced.
pub fn emit_event(name: &'static str, detail: impl FnOnce() -> String) {
    EVENTS.with(|slot| {
        if let Some(events) = slot.borrow_mut().as_mut() {
            events.push(SpanEvent {
                at_us: unix_us(),
                name,
                detail: detail(),
            });
        }
    });
}

/// Disarms the collector and returns what accumulated since
/// [`arm_events`] (empty if it was never armed).
#[must_use]
pub fn take_events() -> Vec<SpanEvent> {
    EVENTS
        .with(|slot| slot.borrow_mut().take())
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_request(tracer: &Tracer, incoming: Option<TraceContext>) -> Option<FinishedRequest> {
        let mut trace = tracer.begin(incoming, Instant::now())?;
        let span = trace.begin_span("cache");
        trace.finish_span(span);
        Some(tracer.finish(trace))
    }

    #[test]
    fn disabled_tracer_does_nothing() {
        let tracer = Tracer::new("n1", TraceConfig::default());
        assert!(!tracer.enabled());
        for _ in 0..100 {
            assert!(tracer.begin(None, Instant::now()).is_none());
        }
        assert_eq!(tracer.recorded(), 0);
        assert_eq!(tracer.dropped(), 0);
        assert!(tracer.snapshot().is_empty());
        assert_eq!(tracer.export_jsonl(), "");
    }

    #[test]
    fn incoming_context_always_kept_even_when_disabled() {
        let tracer = Tracer::new("n1", TraceConfig::default());
        let ctx = TraceContext {
            trace_id: 0xabc,
            span_id: 0xdef,
            sampled: true,
        };
        let fin = run_request(&tracer, Some(ctx)).expect("incoming ctx must trace");
        assert!(fin.retained);
        assert_eq!(fin.trace_id, 0xabc);
        // The root span links under the caller's span.
        assert_eq!(fin.spans[0].parent_id, 0xdef);
        assert_eq!(fin.spans[0].name, "request");
        // The child links under the root.
        assert_eq!(fin.spans[1].parent_id, fin.spans[0].span_id);
        assert_eq!(tracer.recorded(), 1);
        let snap = tracer.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].trace_id, 0xabc);
    }

    #[test]
    fn one_in_n_sampling() {
        let tracer = Tracer::new(
            "n1",
            TraceConfig {
                sample_every: 4,
                slow_us: 0,
                capacity: 64,
            },
        );
        let kept = (0..32)
            .filter(|_| run_request(&tracer, None).is_some())
            .count();
        assert_eq!(kept, 8);
        assert_eq!(tracer.recorded(), 8);
    }

    #[test]
    fn slow_only_keeps_slow() {
        let tracer = Tracer::new(
            "n1",
            TraceConfig {
                sample_every: 0,
                slow_us: 2_000,
                capacity: 64,
            },
        );
        // Every request is traced (keep/drop decided at finish)...
        let fast = run_request(&tracer, None).expect("slow_us>0 traces everything");
        assert!(!fast.slow);
        assert!(!fast.retained);
        assert_eq!(tracer.recorded(), 0);
        // ...and a slow one is kept.
        let mut trace = tracer.begin(None, Instant::now()).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(3));
        trace.event("note", "slept".to_owned());
        let fin = tracer.finish(trace);
        assert!(fin.slow, "total {}", fin.total_us);
        assert!(fin.retained);
        assert_eq!(tracer.recorded(), 1);
        assert!(tracer.snapshot()[0].slow);
    }

    #[test]
    fn ring_overwrites_oldest() {
        let tracer = Tracer::new(
            "n1",
            TraceConfig {
                sample_every: 1,
                slow_us: 0,
                capacity: 4,
            },
        );
        for _ in 0..10 {
            run_request(&tracer, None).unwrap();
        }
        assert_eq!(tracer.recorded(), 10);
        assert_eq!(tracer.snapshot().len(), 4);
    }

    #[test]
    fn jsonl_lines_parse_and_chrome_export_is_one_document() {
        let tracer = Tracer::new(
            "127.0.0.1:11311",
            TraceConfig {
                sample_every: 1,
                slow_us: 0,
                capacity: 8,
            },
        );
        for _ in 0..3 {
            run_request(&tracer, None).unwrap();
        }
        let jsonl = tracer.export_jsonl();
        assert_eq!(jsonl.lines().count(), 3);
        for line in jsonl.lines() {
            let v = Json::parse(line).expect("each JSONL line parses");
            assert_eq!(v.get("node").unwrap().as_str(), Some("127.0.0.1:11311"));
            assert!(v.get("spans").unwrap().as_arr().unwrap().len() >= 2);
        }
        let chrome = Json::parse(&tracer.export_chrome()).expect("chrome export parses");
        let events = chrome.get("traceEvents").unwrap().as_arr().unwrap();
        // 3 traces × 2 spans + 1 process_name metadata record.
        assert_eq!(events.len(), 7);
        assert!(events
            .iter()
            .any(|e| e.get("ph").unwrap().as_str() == Some("M")));
    }

    #[test]
    fn event_collector_is_inert_until_armed() {
        let mut called = false;
        emit_event("retry", || {
            called = true;
            String::new()
        });
        assert!(!called, "unarmed emit must not build detail");
        assert!(take_events().is_empty());

        arm_events();
        emit_event("retry", || "attempt 1".to_owned());
        emit_event("deadline", || "800ms".to_owned());
        let events = take_events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].name, "retry");
        assert_eq!(events[0].detail, "attempt 1");
        // Taking disarms.
        emit_event("retry", || "attempt 2".to_owned());
        assert!(take_events().is_empty());
    }

    #[test]
    fn distinct_ids_per_trace_and_span() {
        let tracer = Tracer::new(
            "n1",
            TraceConfig {
                sample_every: 1,
                slow_us: 0,
                capacity: 64,
            },
        );
        let mut seen = std::collections::HashSet::new();
        for _ in 0..32 {
            let fin = run_request(&tracer, None).unwrap();
            assert!(seen.insert(fin.trace_id), "trace ids must not repeat");
            let mut span_ids = std::collections::HashSet::new();
            for s in &fin.spans {
                assert!(s.span_id != 0);
                assert!(span_ids.insert(s.span_id), "span ids unique in trace");
            }
        }
    }
}
