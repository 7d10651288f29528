//! The event-driven serving engine (`--io event`): a handful of reactor
//! threads multiplex every connection over [`crate::poller`], while a
//! pool of executor threads runs the requests.
//!
//! # Why split reactors from executors
//!
//! Request *execution* can block for real time: a cache miss runs the
//! resilience stack against the origin (deadlines, retries, a breaker —
//! seconds in the worst case), and single-flight coalescing parks
//! followers on a condvar. Running that on a reactor would stall every
//! connection the reactor owns. So reactors do only nonblocking work —
//! accept, read, parse, write — and hand each parsed request to the
//! executor pool ([`ServerConfig::workers`](crate::ServerConfig::workers)
//! threads). The executor renders the response into a pooled buffer and
//! posts it back to the owning reactor's completion queue, waking its
//! poller. This is the classic SEDA/staged shape: connection *count*
//! scales with the reactors (tens of thousands), request *concurrency*
//! with the executors.
//!
//! # Connection state machine
//!
//! Each connection is owned by exactly one reactor thread — no locks on
//! the hot path. Per connection: a [`Decoder`] holding whatever partial
//! frame has arrived, the not-yet-decoded rest of the last read burst, an
//! output queue of response chunks flushed with vectored writes, and two
//! flags (`executing`, `close_after_flush`). Socket reads are pushed
//! into the decoder — the same one the blocking engine drives from its
//! buffered socket — so grammar, limits and error strings cannot differ
//! between the engines, and each byte is looked at once however a frame
//! is split across reads.
//!
//! While a request executes, the connection's read interest is dropped:
//! one request in flight per connection, exactly the blocking engine's
//! cadence, with TCP's own receive window as the backpressure. That also
//! bounds what a connection buffers: one frame (capped by the protocol's
//! limits, inside the decoder) plus one read burst of pipelined
//! followers. An overlong line or oversize payload is discarded as it
//! arrives, holding nothing.
//!
//! # Drain semantics
//!
//! Shutdown wakes every poller. Each reactor deregisters the listener,
//! closes idle connections once their output drains, and lets executing
//! requests finish — their responses still flush before the close. A
//! reactor exits when it owns nothing; dropping its job sender closes
//! the executors' queue, and the supervisor joins reactors, then
//! executors, then flushes the final metrics report.

use crate::poller::{Event, Interest, Poller, WAKE_TOKEN};
use crate::proto::{self, Decoder, Frame, Request};
use crate::server::{respond, respond_error, ConnTimeouts, Shared};
use csr_obs::{Counter, Gauge, Reporter};
use std::collections::{HashMap, VecDeque};
use std::io::{self, IoSlice, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Token the shared listener is registered under on every reactor.
const LISTENER_TOKEN: u64 = 0;

/// Per-read scratch size; bounded reads keep one chatty peer from
/// starving the reactor's other connections (level-triggering re-reports
/// the remainder).
const READ_CHUNK: usize = 64 * 1024;

/// Max chunks handed to one `write_vectored` call.
const MAX_IOVEC: usize = 16;

/// Response buffers above this capacity are dropped rather than pooled —
/// one `TRACES` dump must not pin megabytes forever.
const POOL_MAX_BUF: usize = 256 * 1024;

/// Max pooled buffers (shared across reactors and executors).
const POOL_MAX_BUFS: usize = 128;

/// How often each reactor sweeps its connections for timeouts.
const SWEEP_EVERY: Duration = Duration::from_millis(100);

/// Poll timeout: the upper bound on sweep latency when fully idle.
const POLL_TIMEOUT: Duration = Duration::from_millis(250);

/// Event-engine knobs, resolved by `serve` from the `ServerConfig`.
pub(crate) struct EventParams {
    /// Reactor threads (0: one per hardware thread, capped at 8).
    pub(crate) reactors: usize,
    /// Executor threads running requests.
    pub(crate) executors: usize,
    /// Resident-connection ceiling (0: unbounded); past it new accepts
    /// are shed with `SERVER_BUSY`.
    pub(crate) max_conns: usize,
    pub(crate) timeouts: ConnTimeouts,
}

/// `csr_serve_reactor_*`: the event engine's own families, alongside the
/// engine-agnostic `csr_serve_*` ones.
struct ReactorMetrics {
    threads: Arc<Gauge>,
    connections: Arc<Gauge>,
    polls: Arc<Counter>,
    events: Arc<Counter>,
    wakeups: Arc<Counter>,
    dispatched: Arc<Counter>,
    completions: Arc<Counter>,
    queue_depth: Arc<Gauge>,
}

impl ReactorMetrics {
    fn new(registry: &csr_obs::Registry) -> Self {
        ReactorMetrics {
            threads: registry.gauge(
                "csr_serve_reactor_threads",
                "Reactor threads serving the event engine",
                &[],
            ),
            connections: registry.gauge(
                "csr_serve_reactor_connections",
                "Connections currently resident across all reactors",
                &[],
            ),
            polls: registry.counter(
                "csr_serve_reactor_polls_total",
                "Poller wait calls across all reactors",
                &[],
            ),
            events: registry.counter(
                "csr_serve_reactor_events_total",
                "Readiness events delivered across all reactors",
                &[],
            ),
            wakeups: registry.counter(
                "csr_serve_reactor_wakeups_total",
                "Cross-thread poller wakeups observed (completions, shutdown)",
                &[],
            ),
            dispatched: registry.counter(
                "csr_serve_reactor_exec_dispatched_total",
                "Requests handed from reactors to the executor pool",
                &[],
            ),
            completions: registry.counter(
                "csr_serve_reactor_exec_completions_total",
                "Responses posted back from executors to reactors",
                &[],
            ),
            queue_depth: registry.gauge(
                "csr_serve_reactor_exec_queue_depth",
                "Requests queued for an executor right now",
                &[],
            ),
        }
    }
}

/// State shared by all reactors and executors of one event server.
struct EventShared {
    shared: Arc<Shared>,
    rm: ReactorMetrics,
    conn_count: AtomicUsize,
    max_conns: usize,
    timeouts: ConnTimeouts,
    /// Recycled response/output buffers (executors pop, reactors push
    /// back once flushed).
    buffers: Mutex<Vec<Vec<u8>>>,
}

impl EventShared {
    fn pop_buffer(&self) -> Vec<u8> {
        self.buffers
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop()
            .unwrap_or_default()
    }

    fn recycle(&self, mut buf: Vec<u8>) {
        if buf.capacity() == 0 || buf.capacity() > POOL_MAX_BUF {
            return;
        }
        buf.clear();
        let mut pool = self.buffers.lock().unwrap_or_else(PoisonError::into_inner);
        if pool.len() < POOL_MAX_BUFS {
            pool.push(buf);
        }
    }
}

/// One reactor's cross-thread mailbox: executors post completions here
/// and wake the poller.
struct ReactorShared {
    poller: Arc<Poller>,
    completions: Mutex<Vec<Completion>>,
}

/// A parsed request in flight to the executor pool.
struct Job {
    reactor: usize,
    conn: u64,
    request: Request,
    anchor: Instant,
}

/// A rendered response on its way back to the owning reactor.
struct Completion {
    conn: u64,
    bytes: Vec<u8>,
    /// The handler panicked: close the connection without a reply (the
    /// blocking engine's behaviour), pool intact.
    panicked: bool,
}

/// What `spawn` hands back: the supervisor to join at shutdown, and the
/// per-reactor pollers (the shutdown wake strategy).
pub(crate) type EngineHandles = (JoinHandle<io::Result<()>>, Vec<Arc<Poller>>);

/// Spawns the event engine: reactors, executors, and a supervisor that
/// tears everything down in order. Returns the supervisor handle and the
/// per-reactor pollers (the shutdown wake strategy).
pub(crate) fn spawn(
    listener: TcpListener,
    shared: Arc<Shared>,
    reporter: Option<Reporter<std::fs::File>>,
    params: EventParams,
) -> io::Result<EngineHandles> {
    assert!(params.executors > 0, "need at least one executor");
    listener.set_nonblocking(true)?;
    let n_reactors = if params.reactors == 0 {
        std::thread::available_parallelism()
            .map_or(1, std::num::NonZeroUsize::get)
            .min(8)
    } else {
        params.reactors
    };

    let rm = ReactorMetrics::new(&shared.registry);
    rm.threads.set(n_reactors as i64);
    let ev = Arc::new(EventShared {
        shared,
        rm,
        conn_count: AtomicUsize::new(0),
        max_conns: params.max_conns,
        timeouts: params.timeouts,
        buffers: Mutex::new(Vec::new()),
    });

    // Pollers and listener clones are created up front so a resource
    // failure fails `serve` itself, not a background thread.
    let mailboxes: Vec<Arc<ReactorShared>> = (0..n_reactors)
        .map(|_| {
            Ok(Arc::new(ReactorShared {
                poller: Arc::new(Poller::new()?),
                completions: Mutex::new(Vec::new()),
            }))
        })
        .collect::<io::Result<_>>()?;
    let pollers: Vec<Arc<Poller>> = mailboxes.iter().map(|m| Arc::clone(&m.poller)).collect();
    let listeners: Vec<TcpListener> = (0..n_reactors)
        .map(|_| listener.try_clone())
        .collect::<io::Result<_>>()?;

    let (job_tx, job_rx) = std::sync::mpsc::channel::<Job>();
    let job_rx = Arc::new(Mutex::new(job_rx));
    let executors: Vec<JoinHandle<()>> = (0..params.executors)
        .map(|i| {
            let rx = Arc::clone(&job_rx);
            let ev = Arc::clone(&ev);
            let mailboxes = mailboxes.clone();
            std::thread::Builder::new()
                .name(format!("csr-exec-{i}"))
                .spawn(move || executor_loop(&rx, &ev, &mailboxes))
        })
        .collect::<io::Result<_>>()?;

    let reactors: Vec<JoinHandle<io::Result<()>>> = listeners
        .into_iter()
        .enumerate()
        .map(|(i, listener)| {
            let ev = Arc::clone(&ev);
            let rs = Arc::clone(&mailboxes[i]);
            let job_tx = job_tx.clone();
            std::thread::Builder::new()
                .name(format!("csr-reactor-{i}"))
                .spawn(move || Reactor::new(i, ev, rs, listener, job_tx)?.run())
        })
        .collect::<io::Result<_>>()?;
    // The executors' queue must close when the *reactors* are done, so
    // the supervisor keeps no sender of its own.
    drop(job_tx);

    let supervisor = std::thread::Builder::new()
        .name("csr-event-supervisor".to_owned())
        .spawn(move || {
            let mut result = Ok(());
            for r in reactors {
                match r.join() {
                    Ok(Ok(())) => {}
                    Ok(Err(e)) => result = result.and(Err(e)),
                    Err(panic) => std::panic::resume_unwind(panic),
                }
            }
            for e in executors {
                let _ = e.join();
            }
            match reporter {
                Some(rep) => result.and(rep.stop().map(|_| ())),
                None => result,
            }
        })?;
    Ok((supervisor, pollers))
}

/// One executor: run queued requests until the reactors drop the queue.
/// Panics are contained per-request (`csr_serve_worker_panics_total`),
/// mirroring the blocking workers.
fn executor_loop(rx: &Mutex<Receiver<Job>>, ev: &EventShared, mailboxes: &[Arc<ReactorShared>]) {
    loop {
        let job = {
            let queue = rx.lock().unwrap_or_else(PoisonError::into_inner);
            match queue.recv() {
                Ok(job) => job,
                Err(_) => return,
            }
        };
        ev.rm.queue_depth.add(-1);
        let Job {
            reactor,
            conn,
            request,
            anchor,
        } = job;
        let shared = &ev.shared;
        let rendered = catch_unwind(AssertUnwindSafe(|| {
            let mut out = ev.pop_buffer();
            // Writing into a Vec cannot fail.
            let _ = respond(request, shared, &mut out, anchor);
            out
        }));
        let completion = match rendered {
            Ok(bytes) => Completion {
                conn,
                bytes,
                panicked: false,
            },
            Err(_) => {
                shared.metrics.worker_panics.inc();
                Completion {
                    conn,
                    bytes: Vec::new(),
                    panicked: true,
                }
            }
        };
        let mailbox = &mailboxes[reactor];
        mailbox
            .completions
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(completion);
        ev.rm.completions.inc();
        mailbox.poller.wake();
    }
}

/// Output queue: response chunks flushed with vectored writes, drained
/// chunks recycled to the shared pool.
#[derive(Default)]
struct OutBuf {
    chunks: VecDeque<Vec<u8>>,
    /// Offset of the first unwritten byte in the front chunk.
    pos: usize,
    /// Total unwritten bytes.
    len: usize,
}

impl OutBuf {
    fn push(&mut self, chunk: Vec<u8>, ev: &EventShared) {
        if chunk.is_empty() {
            ev.recycle(chunk);
            return;
        }
        self.len += chunk.len();
        self.chunks.push_back(chunk);
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Writes as much as the socket accepts; `Ok(true)` once drained,
    /// `Ok(false)` on `WouldBlock`.
    fn flush(&mut self, stream: &mut TcpStream, ev: &EventShared) -> io::Result<bool> {
        while !self.chunks.is_empty() {
            let empty: &[u8] = &[];
            let mut slices = [IoSlice::new(empty); MAX_IOVEC];
            let mut n_slices = 0;
            for (i, chunk) in self.chunks.iter().take(MAX_IOVEC).enumerate() {
                let from = if i == 0 { self.pos } else { 0 };
                slices[i] = IoSlice::new(&chunk[from..]);
                n_slices = i + 1;
            }
            match stream.write_vectored(&slices[..n_slices]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "socket accepted zero bytes",
                    ))
                }
                Ok(n) => self.consume(n, ev),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) => return Err(e),
            }
        }
        Ok(true)
    }

    fn consume(&mut self, mut n: usize, ev: &EventShared) {
        self.len -= n;
        while n > 0 {
            let front_left = self.chunks[0].len() - self.pos;
            if n >= front_left {
                n -= front_left;
                self.pos = 0;
                // `n > 0` bytes were written out of `chunks`, so its front
                // (just indexed above) exists.
                let done = self.chunks.pop_front().expect("nonempty while consuming");
                ev.recycle(done);
            } else {
                self.pos += n;
                n = 0;
            }
        }
    }

    fn recycle_all(&mut self, ev: &EventShared) {
        self.pos = 0;
        self.len = 0;
        for chunk in self.chunks.drain(..) {
            ev.recycle(chunk);
        }
    }
}

/// One connection, owned by one reactor.
struct Conn {
    token: u64,
    stream: TcpStream,
    /// The frame in progress.
    decoder: Decoder,
    /// The last read burst; `buf[pos..]` is what the decoder has not been
    /// given yet (pipelined requests behind the one executing). Empty
    /// whenever reads are enabled.
    buf: Vec<u8>,
    pos: usize,
    out: OutBuf,
    /// A request is with the executor pool; reads are paused.
    executing: bool,
    /// Close once `out` drains (QUIT, fatal error, shutdown drain).
    close_after_flush: bool,
    /// The peer's write side is done; decode what is buffered with true
    /// EOF semantics and never read again.
    saw_eof: bool,
    /// Close now, discarding any undelivered output (transport error,
    /// timeout, handler panic).
    dead: bool,
    /// When the decoder first came up short on the request in progress —
    /// the slowloris clock, and the trace anchor once it dispatches.
    started: Option<Instant>,
    /// Last read progress or completion — the idle clock.
    last_activity: Instant,
    /// Last write progress while output was pending — the write-stall
    /// clock.
    last_write_progress: Instant,
    /// Interest currently registered with the poller.
    interest: Interest,
}

/// Everything a connection needs from its reactor to make progress.
struct Ctx<'a> {
    ev: &'a EventShared,
    poller: &'a Poller,
    job_tx: &'a Sender<Job>,
    reactor: usize,
}

impl Conn {
    /// Decodes and dispatches/answers as much of `buf` as possible, then
    /// flushes and re-registers interest. The single entry point after
    /// *any* progress: fresh reads, completions, or first registration.
    fn advance(&mut self, ctx: &Ctx<'_>) {
        while !(self.executing || self.close_after_flush || self.dead) {
            let unread = &self.buf[self.pos..];
            if unread.is_empty() && !self.saw_eof {
                break;
            }
            // Entering a drain between requests drops the connection just
            // like the blocking engine's between-requests shutdown check.
            if ctx.ev.shared.shutting_down() {
                self.close_after_flush = true;
                break;
            }
            let (used, frame) = self.decoder.push(unread, self.saw_eof);
            self.pos += used;
            match frame {
                // Mid-frame, everything consumed: wait for more data.
                None => {
                    self.started.get_or_insert_with(Instant::now);
                }
                Some(Frame::Request(Request::Quit) | Frame::Eof) => self.close_after_flush = true,
                Some(Frame::Request(request)) => {
                    let anchor = self.started.take().unwrap_or_else(Instant::now);
                    self.executing = true;
                    ctx.ev.rm.dispatched.inc();
                    ctx.ev.rm.queue_depth.add(1);
                    if ctx
                        .job_tx
                        .send(Job {
                            reactor: ctx.reactor,
                            conn: self.token,
                            request,
                            anchor,
                        })
                        .is_err()
                    {
                        // Executors are gone (drain raced us): nothing
                        // will answer, close out.
                        ctx.ev.rm.queue_depth.add(-1);
                        self.dead = true;
                    }
                }
                Some(Frame::Error(err)) => {
                    let mut chunk = ctx.ev.pop_buffer();
                    // Writing into a Vec cannot fail.
                    let fatal = respond_error(&err, &ctx.ev.shared, &mut chunk).unwrap_or(true);
                    self.out.push(chunk, ctx.ev);
                    self.close_after_flush = fatal;
                    self.started = None; // resynced: next bytes are a new request
                }
            }
        }
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        }
        self.flush_and_update(ctx);
    }

    /// Reads until `WouldBlock`/EOF (bounded per event for fairness),
    /// then advances the state machine.
    fn on_readable(&mut self, ctx: &Ctx<'_>, scratch: &mut [u8]) {
        if self.executing || self.saw_eof || self.close_after_flush {
            // Interest should already exclude reads here; a stale event
            // from before a modify is harmless.
            self.flush_and_update(ctx);
            return;
        }
        let mut budget = 4; // × READ_CHUNK per readiness event
        while budget > 0 && !self.dead {
            budget -= 1;
            match self.stream.read(scratch) {
                Ok(0) => {
                    self.saw_eof = true;
                    break;
                }
                Ok(n) => {
                    self.buf.extend_from_slice(&scratch[..n]);
                    self.last_activity = Instant::now();
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => budget += 1,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(_) => {
                    self.dead = true;
                }
            }
        }
        self.advance(ctx);
    }

    /// A response came back from the executor pool.
    fn on_completion(&mut self, completion: Completion, ctx: &Ctx<'_>) {
        self.executing = false;
        self.last_activity = Instant::now();
        if completion.panicked {
            ctx.ev.recycle(completion.bytes);
            self.dead = true;
            self.flush_and_update(ctx);
            return;
        }
        self.out.push(completion.bytes, ctx.ev);
        // Pipelined follow-ups may already be buffered.
        self.advance(ctx);
    }

    /// Flushes what the socket will take, closes if drained-and-done,
    /// and re-registers the poller interest to match the new state.
    fn flush_and_update(&mut self, ctx: &Ctx<'_>) {
        if self.dead {
            return;
        }
        if !self.out.is_empty() {
            match self.out.flush(&mut self.stream, ctx.ev) {
                Ok(_) => self.last_write_progress = Instant::now(),
                Err(_) => {
                    self.dead = true;
                    return;
                }
            }
        }
        if self.out.is_empty() && self.close_after_flush {
            self.dead = true;
            return;
        }
        let want = Interest {
            readable: !(self.executing || self.saw_eof || self.close_after_flush),
            writable: !self.out.is_empty(),
        };
        if want != self.interest {
            if ctx
                .poller
                .modify(self.stream.as_raw_fd(), self.token, want)
                .is_err()
            {
                self.dead = true;
                return;
            }
            self.interest = want;
        }
    }

    /// Timeout sweep for this connection; marks it dead / closing as the
    /// blocking engine's deadline plumbing would.
    fn sweep(&mut self, now: Instant, ctx: &Ctx<'_>) {
        let timeouts = &ctx.ev.timeouts;
        if !self.out.is_empty() && now.duration_since(self.last_write_progress) > timeouts.write {
            self.dead = true; // peer stopped reading: drop the connection
            return;
        }
        if self.executing {
            return; // the origin's own deadlines bound execution
        }
        if let Some(t0) = self.started {
            if now.duration_since(t0) > timeouts.partial {
                // Slowloris: same courtesy line, counter, and cut as the
                // blocking engine.
                ctx.ev.shared.metrics.slowloris_drops.inc();
                let mut chunk = ctx.ev.pop_buffer();
                let _ =
                    proto::write_line(&mut chunk, "CLIENT_ERROR request read deadline exceeded");
                self.out.push(chunk, ctx.ev);
                self.close_after_flush = true;
                self.flush_and_update(ctx);
            }
        } else if self.out.is_empty()
            && !self.close_after_flush
            && now.duration_since(self.last_activity) > timeouts.idle
        {
            self.dead = true; // idle cut, silent — as in blocking mode
        }
    }
}

/// One reactor thread: accepts, reads, parses, dispatches, flushes.
struct Reactor {
    idx: usize,
    ev: Arc<EventShared>,
    rs: Arc<ReactorShared>,
    listener: TcpListener,
    job_tx: Sender<Job>,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    draining: bool,
    scratch: Vec<u8>,
}

impl Reactor {
    fn new(
        idx: usize,
        ev: Arc<EventShared>,
        rs: Arc<ReactorShared>,
        listener: TcpListener,
        job_tx: Sender<Job>,
    ) -> io::Result<Reactor> {
        rs.poller
            .register(listener.as_raw_fd(), LISTENER_TOKEN, Interest::READ)?;
        Ok(Reactor {
            idx,
            ev,
            rs,
            listener,
            job_tx,
            conns: HashMap::new(),
            next_token: LISTENER_TOKEN + 1,
            draining: false,
            scratch: vec![0; READ_CHUNK],
        })
    }

    fn run(mut self) -> io::Result<()> {
        let mut events: Vec<Event> = Vec::new();
        let mut next_sweep = Instant::now() + SWEEP_EVERY;
        loop {
            if self.ev.shared.shutting_down() && !self.draining {
                self.enter_drain();
            }
            if self.draining && self.conns.is_empty() {
                return Ok(());
            }
            self.ev.rm.polls.inc();
            self.rs.poller.wait(&mut events, Some(POLL_TIMEOUT))?;
            self.ev.rm.events.add(events.len() as u64);
            let batch = std::mem::take(&mut events);
            for event in &batch {
                match event.token {
                    WAKE_TOKEN => self.ev.rm.wakeups.inc(),
                    LISTENER_TOKEN => self.accept_burst(),
                    token => self.on_conn_event(token, event),
                }
            }
            events = batch;
            self.drain_completions();
            let now = Instant::now();
            if now >= next_sweep {
                next_sweep = now + SWEEP_EVERY;
                self.sweep(now);
            }
        }
    }

    /// Accepts until `WouldBlock`, registering or shedding each socket.
    fn accept_burst(&mut self) {
        loop {
            let stream = match self.listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // Transient accept errors (EMFILE, aborted handshakes):
                // level-triggering retries on the next poll.
                Err(_) => break,
            };
            if self.draining || self.ev.shared.shutting_down() {
                continue; // drop: mirrors the blocking engine's drain
            }
            let metrics = &self.ev.shared.metrics;
            metrics.accepted.inc();
            if self.ev.max_conns > 0
                && self.ev.conn_count.load(Ordering::Relaxed) >= self.ev.max_conns
            {
                // Best-effort SERVER_BUSY: one nonblocking write. If the
                // kernel buffer cannot even take 13 bytes, the bare close
                // sheds just as clearly.
                metrics.shed.inc();
                let _ = stream.set_nonblocking(true);
                let _ = (&stream).write_all(b"SERVER_BUSY\r\n");
                continue;
            }
            if stream.set_nonblocking(true).is_err() {
                metrics.closed.inc();
                continue;
            }
            let _ = stream.set_nodelay(true);
            let token = self.next_token;
            self.next_token += 1;
            let interest = Interest::READ;
            if self
                .rs
                .poller
                .register(stream.as_raw_fd(), token, interest)
                .is_err()
            {
                metrics.closed.inc();
                continue;
            }
            self.ev.conn_count.fetch_add(1, Ordering::Relaxed);
            self.ev.rm.connections.add(1);
            metrics.active.add(1);
            let now = Instant::now();
            let conn = Conn {
                token,
                stream,
                decoder: Decoder::default(),
                buf: Vec::new(),
                pos: 0,
                out: OutBuf::default(),
                executing: false,
                close_after_flush: false,
                saw_eof: false,
                dead: false,
                started: None,
                last_activity: now,
                last_write_progress: now,
                interest,
            };
            self.conns.insert(token, conn);
            // A first request may already be queued on the socket; the
            // level-triggered poller reports it on the next wait.
        }
    }

    fn on_conn_event(&mut self, token: u64, event: &Event) {
        let ctx = Ctx {
            ev: &self.ev,
            poller: &self.rs.poller,
            job_tx: &self.job_tx,
            reactor: self.idx,
        };
        let Some(conn) = self.conns.get_mut(&token) else {
            return; // closed earlier this batch
        };
        if event.error {
            // RST / full hangup: undeliverable either way. Reported even
            // with reads paused, so close now rather than spin on it.
            conn.dead = true;
        } else {
            if event.writable && !conn.out.is_empty() {
                conn.flush_and_update(&ctx);
            }
            if (event.readable || event.hangup) && !conn.dead {
                conn.on_readable(&ctx, &mut self.scratch);
            }
        }
        if self.conns.get(&token).is_some_and(|c| c.dead) {
            self.close(token);
        }
    }

    fn drain_completions(&mut self) {
        let completed: Vec<Completion> = std::mem::take(
            &mut *self
                .rs
                .completions
                .lock()
                .unwrap_or_else(PoisonError::into_inner),
        );
        for completion in completed {
            let ctx = Ctx {
                ev: &self.ev,
                poller: &self.rs.poller,
                job_tx: &self.job_tx,
                reactor: self.idx,
            };
            let token = completion.conn;
            match self.conns.get_mut(&token) {
                Some(conn) => {
                    if self.draining {
                        conn.close_after_flush = true;
                    }
                    conn.on_completion(completion, &ctx);
                    if conn.dead {
                        self.close(token);
                    }
                }
                // The connection died while its request executed.
                None => self.ev.recycle(completion.bytes),
            }
        }
    }

    fn sweep(&mut self, now: Instant) {
        let mut dead: Vec<u64> = Vec::new();
        {
            let ctx = Ctx {
                ev: &self.ev,
                poller: &self.rs.poller,
                job_tx: &self.job_tx,
                reactor: self.idx,
            };
            for conn in self.conns.values_mut() {
                conn.sweep(now, &ctx);
                if conn.dead {
                    dead.push(conn.token);
                }
            }
        }
        for token in dead {
            self.close(token);
        }
    }

    /// Stops accepting and pushes every connection toward closure; called
    /// once when the shutdown flag is first observed.
    fn enter_drain(&mut self) {
        self.draining = true;
        let _ = self.rs.poller.deregister(self.listener.as_raw_fd());
        let mut dead: Vec<u64> = Vec::new();
        {
            let ctx = Ctx {
                ev: &self.ev,
                poller: &self.rs.poller,
                job_tx: &self.job_tx,
                reactor: self.idx,
            };
            for conn in self.conns.values_mut() {
                if !conn.executing {
                    // Idle or mid-read: close once pending output drains
                    // (immediately, for the common idle case). Executing
                    // connections finish their request first — the drain
                    // flag is applied when the completion lands.
                    conn.close_after_flush = true;
                    conn.flush_and_update(&ctx);
                }
                if conn.dead {
                    dead.push(conn.token);
                }
            }
        }
        for token in dead {
            self.close(token);
        }
    }

    fn close(&mut self, token: u64) {
        let Some(mut conn) = self.conns.remove(&token) else {
            return;
        };
        let _ = self.rs.poller.deregister(conn.stream.as_raw_fd());
        conn.out.recycle_all(&self.ev);
        self.ev.conn_count.fetch_sub(1, Ordering::Relaxed);
        self.ev.rm.connections.add(-1);
        self.ev.shared.metrics.active.add(-1);
        self.ev.shared.metrics.closed.inc();
    }
}
