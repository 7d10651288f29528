//! Spans recorded by the benchmark around its own calls into each layer.
//! Kept in preallocated memory while the workload runs; written as one JSON
//! object per line when it ends.

use std::io::Write;
use std::path::Path;
use std::sync::OnceLock;
use std::time::Instant;

/// The instant every span of this process is measured from, so spans of
/// different lanes share one clock.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// One span. `parent` is the index of the enclosing span in the same buffer
/// plus one, or 0 for a root. `n` is how many calls the span covers: 1 for a
/// client round trip, the batch size where single calls are too short to
/// time (a span of 1024 parses, say).
#[derive(Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub req: u64,
    pub n: u32,
}

/// The spans of one thread (`lane`). A full buffer drops further spans and
/// counts them, so recording never allocates inside a timed window.
pub struct SpanBuf {
    lane: u32,
    spans: Vec<Span>,
    pub dropped: u64,
}

impl SpanBuf {
    pub fn new(lane: u32, capacity: usize) -> Self {
        epoch();
        SpanBuf {
            lane,
            spans: Vec::with_capacity(capacity),
            dropped: 0,
        }
    }

    fn record(&mut self, span: Span) -> u32 {
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return 0;
        }
        self.spans.push(span);
        self.spans.len() as u32
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(epoch()).as_nanos() as u64
    }

    /// A root span covering one call.
    pub fn push(&mut self, name: &'static str, start: Instant, end: Instant, req: u64) {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.record(Span {
            name,
            start_ns,
            end_ns,
            parent: 0,
            req,
            n: 1,
        });
    }

    /// Times `f`, which makes `n` calls into a layer, as a span under
    /// `parent`; returns the span's handle (for children) and nanoseconds
    /// per call.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: u32,
        req: u64,
        n: u32,
        f: impl FnOnce() -> R,
    ) -> (u32, f64, R) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        let id = self.record(Span {
            name,
            start_ns,
            end_ns,
            parent,
            req,
            n,
        });
        (id, (end_ns - start_ns) as f64 / f64::from(n), out)
    }

    /// Opens a span whose children are recorded before it closes.
    pub fn open(&mut self, name: &'static str, req: u64, n: u32) -> u32 {
        let now = self.ns(Instant::now());
        self.record(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: 0,
            req,
            n,
        })
    }

    pub fn close(&mut self, id: u32) {
        let now = self.ns(Instant::now());
        if let Some(span) = id
            .checked_sub(1)
            .and_then(|i| self.spans.get_mut(i as usize))
        {
            span.end_ns = now;
        }
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }
}

/// Writes the first `per_lane` spans of every buffer to `path`, one span per
/// line; returns how many it wrote. Span ids are `lane:index`, unique within
/// the file. Children are recorded after their parent, so a prefix of a
/// buffer never holds a child without its parent.
pub fn write_jsonl(path: &Path, bufs: &[&SpanBuf], per_lane: usize) -> std::io::Result<usize> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    let mut written = 0;
    for buf in bufs {
        for (i, s) in buf.spans.iter().enumerate().take(per_lane) {
            written += 1;
            let parent = match s.parent {
                0 => "null".to_owned(),
                p => format!("\"{}:{}\"", buf.lane, p),
            };
            writeln!(
                w,
                "{{\"id\":\"{}:{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"req\":{},\"n\":{}}}",
                buf.lane,
                i + 1,
                s.name,
                s.start_ns,
                s.end_ns,
                parent,
                s.req,
                s.n
            )?;
        }
    }
    w.flush()?;
    Ok(written)
}
