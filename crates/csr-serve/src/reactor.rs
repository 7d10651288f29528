//! The serving engine: a fixed pool of worker threads serves busy
//! connections with plain blocking reads, and one poller thread holds
//! the idle ones.
//!
//! # Park idle connections, not requests
//!
//! A thread per connection is the cheapest way to serve a connection that
//! is talking — one `read`, one `write` per request, nothing in between —
//! but it cannot hold ten thousand mostly idle ones. Multiplexing every
//! request over epoll/kqueue holds any number of connections, but pays
//! the readiness wait and a cross-thread hand-off on *every* request. So
//! the engine multiplexes connections only while they are idle:
//!
//! * A worker serves a connection for as long as its next bytes arrive
//!   within [`GRACE`] and no parked connection is waiting for a worker.
//!   Its reads block with `GRACE` as the socket's read timeout, set once
//!   when the connection is accepted.
//! * When the peer goes quiet (or others are waiting), the worker *parks*
//!   the connection: it registers the socket with the [`Poller`] and
//!   files the connection in the parked table.
//! * The poller thread owns the listener; new sockets start parked. When
//!   a parked socket turns readable, the poller deregisters it and hands
//!   the connection to the workers' queue.
//!
//! A connection is one [`Conn`]: the socket (one descriptor, never
//! cloned), the [`Decoder`] holding whatever part of a frame has arrived,
//! and two clocks. It moves whole between the poller and the workers, so
//! a frame split across a park is simply finished by the next worker. A
//! worker always decodes everything it has read before it lets go, so no
//! other bytes travel with the connection.
//!
//! # Deadlines
//!
//! The poller sweeps the parked table every [`SWEEP_EVERY`]: a connection
//! idle between requests past the idle timeout is closed silently, and
//! one stalled inside a request past the partial-read deadline (a
//! slowloris) gets a best-effort `CLIENT_ERROR` line and is closed. A
//! worker applies the partial-read deadline too, to a peer that trickles
//! bytes fast enough never to park.
//!
//! # Shutdown
//!
//! Shutdown is the shared flag plus a wake of the poller and the worker
//! queue. The poller stops accepting; a worker finishes the request in
//! hand and closes its connection instead of parking it; then every
//! parked or queued connection is closed and the final report flushed.

use crate::poller::{Poller, WAKE_TOKEN};
use crate::proto::{self, Decoder, Frame, Request};
use crate::server::{respond, respond_error, Shared};
use csr_obs::{Counter, Gauge, Reporter};
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a worker waits for a connection's next bytes before parking
/// it. A closed-loop round trip over loopback takes about 10 µs, so a
/// peer that is still talking is back hundreds of times sooner; a peer
/// quiet for this long is idle, and would otherwise pin a thread. The
/// cost of guessing wrong is one park and hand-off: two `epoll_ctl`
/// calls, a readiness wait and a thread wake-up.
pub(crate) const GRACE: Duration = Duration::from_millis(5);

/// Token the listener is registered under.
const LISTENER_TOKEN: u64 = 0;

/// Per-worker read buffer.
const READ_CHUNK: usize = 16 * 1024;

/// Buffered replies past this size are written out before the rest of a
/// pipelined batch is served.
const FLUSH_AT: usize = 64 * 1024;

/// How often the poller sweeps parked connections for timeouts.
const SWEEP_EVERY: Duration = Duration::from_millis(100);

/// Engine knobs, resolved by `serve` from the `ServerConfig`.
pub(crate) struct EngineParams {
    pub(crate) workers: usize,
    /// Open-connection ceiling (0: unbounded); past it new connections
    /// are shed with `SERVER_BUSY`.
    pub(crate) max_conns: usize,
    pub(crate) idle: Duration,
    pub(crate) partial: Duration,
    pub(crate) write: Duration,
}

/// One client connection, parked or on a worker.
struct Conn {
    token: u64,
    stream: TcpStream,
    /// The frame in progress.
    decoder: Decoder,
    /// When the first byte of the request in progress arrived: the
    /// slowloris clock, and where a sampled request's phases start.
    started: Option<Instant>,
    /// When the connection was last parked: the idle clock.
    last_activity: Instant,
}

impl Conn {
    /// Whether the request in progress has outlived the partial-read
    /// deadline.
    fn overdue(&self, partial: Duration) -> bool {
        self.started.is_some_and(|t0| t0.elapsed() > partial)
    }
}

/// What a worker does with a connection it lets go of.
enum After {
    Park,
    Close,
}

/// State shared by the poller thread, the workers and the server handle.
pub(crate) struct Engine {
    shared: Arc<Shared>,
    params: EngineParams,
    poller: Poller,
    /// Idle connections, by token, each registered with the poller.
    parked: Mutex<HashMap<u64, Conn>>,
    /// Readable connections waiting for a worker.
    ready: Mutex<VecDeque<Conn>>,
    ready_cv: Condvar,
    /// `ready.len()`, stored under its lock and read without it after
    /// every batch. A hint only (connections pass through `ready`), hence
    /// `Relaxed`.
    queued: AtomicUsize,
    next_token: AtomicU64,
    parked_gauge: Arc<Gauge>,
    handoffs: Arc<Counter>,
}

/// Every critical section on the engine's tables is one insert, remove,
/// push or pop, so a table whose holder panicked is still consistent.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The descriptor the poller watches. (Targets without a `RawFd` have
/// no poller either: `Poller::new` fails there before any socket gets
/// this far.)
#[cfg(unix)]
fn fd(socket: &impl std::os::fd::AsRawFd) -> i32 {
    socket.as_raw_fd()
}

#[cfg(not(unix))]
fn fd<T>(_socket: &T) -> i32 {
    unreachable!("no poller on this target")
}

/// Starts the engine: the workers, and the poller thread, which also
/// supervises the shutdown. Returns that thread's handle and the engine
/// (for [`Engine::wake`]).
pub(crate) fn spawn(
    listener: TcpListener,
    shared: Arc<Shared>,
    reporter: Option<Reporter<std::fs::File>>,
    params: EngineParams,
) -> io::Result<(JoinHandle<io::Result<()>>, Arc<Engine>)> {
    let poller = Poller::new()?;
    listener.set_nonblocking(true)?;
    poller.register(fd(&listener), LISTENER_TOKEN)?;
    let registry = &shared.registry;
    let engine = Arc::new(Engine {
        parked_gauge: registry.gauge(
            "csr_serve_parked_connections",
            "Idle connections parked on the poller",
            &[],
        ),
        handoffs: registry.counter(
            "csr_serve_handoffs_total",
            "Parked connections handed to a worker once readable",
            &[],
        ),
        shared,
        params,
        poller,
        parked: Mutex::new(HashMap::new()),
        ready: Mutex::new(VecDeque::new()),
        ready_cv: Condvar::new(),
        queued: AtomicUsize::new(0),
        next_token: AtomicU64::new(LISTENER_TOKEN + 1),
    });
    let workers: Vec<JoinHandle<()>> = (0..engine.params.workers)
        .map(|i| {
            let engine = Arc::clone(&engine);
            std::thread::Builder::new()
                .name(format!("csr-worker-{i}"))
                .spawn(move || engine.work())
        })
        .collect::<io::Result<_>>()?;
    let poller_thread = {
        let engine = Arc::clone(&engine);
        std::thread::Builder::new()
            .name("csr-poller".to_owned())
            .spawn(move || {
                let polled = engine.poll(&listener);
                drop(listener); // refuse new connections from here on
                for w in workers {
                    let _ = w.join();
                }
                engine.close_all();
                // The last interval's numbers must reach the report file.
                let reported = reporter.map_or(Ok(()), |rep| rep.stop().map(|_| ()));
                polled.and(reported)
            })?
    };
    Ok((poller_thread, engine))
}

impl Engine {
    /// Gets the poller thread and every idle worker to look at the
    /// shutdown flag.
    pub(crate) fn wake(&self) {
        self.poller.wake();
        // Under the queue lock, so a worker between its flag check and
        // its wait cannot miss this.
        let _ready = lock(&self.ready);
        self.ready_cv.notify_all();
    }

    /// The poller thread: accept, hand readable parked connections to
    /// the workers, sweep for timeouts, until shutdown.
    fn poll(&self, listener: &TcpListener) -> io::Result<()> {
        let mut events = Vec::new();
        let mut next_sweep = Instant::now() + SWEEP_EVERY;
        while !self.shared.shutting_down() {
            self.poller.wait(&mut events, Some(SWEEP_EVERY))?;
            for event in &events {
                match event.token {
                    WAKE_TOKEN => {}
                    LISTENER_TOKEN => self.accept_burst(listener),
                    token => self.unpark(token),
                }
            }
            let now = Instant::now();
            if now >= next_sweep {
                next_sweep = now + SWEEP_EVERY;
                self.sweep(now);
            }
        }
        Ok(())
    }

    /// Accepts until `WouldBlock`, parking or shedding each socket.
    fn accept_burst(&self, listener: &TcpListener) {
        let metrics = &self.shared.metrics;
        loop {
            let stream = match listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // `WouldBlock`, or a transient error (EMFILE, an aborted
                // handshake) that level-triggering retries next turn.
                Err(_) => return,
            };
            metrics.accepted.inc();
            let max = self.params.max_conns;
            if max > 0 && metrics.active.get() >= i64::try_from(max).unwrap_or(i64::MAX) {
                // Best-effort SERVER_BUSY: one nonblocking write. If the
                // kernel buffer cannot even take 13 bytes, the bare close
                // sheds just as clearly.
                metrics.shed.inc();
                let _ = stream.set_nonblocking(true);
                let _ = (&stream).write_all(b"SERVER_BUSY\r\n");
                continue;
            }
            metrics.active.add(1);
            let conn = Conn {
                token: self.next_token.fetch_add(1, Ordering::Relaxed),
                stream,
                decoder: Decoder::default(),
                started: None,
                last_activity: Instant::now(),
            };
            // Workers read blocking, waiting at most `GRACE` (BSD sockets
            // inherit the listener's nonblocking flag).
            let s = &conn.stream;
            let configured = s
                .set_nonblocking(false)
                .and_then(|()| s.set_nodelay(true))
                .and_then(|()| s.set_read_timeout(Some(GRACE)))
                .and_then(|()| s.set_write_timeout(Some(self.params.write)));
            match configured {
                Ok(()) => self.park(conn),
                Err(_) => self.close(conn),
            }
        }
    }

    /// Files `conn` as idle and watches its socket.
    fn park(&self, mut conn: Conn) {
        conn.last_activity = Instant::now();
        let mut parked = lock(&self.parked);
        // Registered under the lock: a readiness event for this token
        // waits in `unpark` until the connection is in the table.
        if self.poller.register(fd(&conn.stream), conn.token).is_err() {
            drop(parked);
            self.close(conn);
            return;
        }
        parked.insert(conn.token, conn);
        self.parked_gauge.add(1);
    }

    /// A parked socket turned readable (or hung up): queue its
    /// connection for a worker.
    fn unpark(&self, token: u64) {
        let Some(conn) = lock(&self.parked).remove(&token) else {
            return;
        };
        let _ = self.poller.deregister(fd(&conn.stream));
        self.parked_gauge.add(-1);
        self.handoffs.inc();
        let mut ready = lock(&self.ready);
        ready.push_back(conn);
        self.queued.store(ready.len(), Ordering::Relaxed);
        drop(ready);
        self.ready_cv.notify_one();
    }

    /// Closes parked connections past their idle or partial-read
    /// deadline.
    fn sweep(&self, now: Instant) {
        let (idle, partial) = (self.params.idle, self.params.partial);
        let expired: Vec<(u64, Conn)> = lock(&self.parked)
            .extract_if(|_, c| {
                c.overdue(partial)
                    || (c.started.is_none() && now.duration_since(c.last_activity) > idle)
            })
            .collect();
        for (_, conn) in expired {
            let _ = self.poller.deregister(fd(&conn.stream));
            self.parked_gauge.add(-1);
            if conn.started.is_some() {
                self.cut_slow(&conn);
            }
            self.close(conn);
        }
    }

    /// The slowloris cut: counted, and the peer told why (best effort,
    /// one nonblocking write — it may not be listening).
    fn cut_slow(&self, conn: &Conn) {
        self.shared.metrics.slowloris_drops.inc();
        let _ = conn.stream.set_nonblocking(true);
        let _ = proto::write_line(
            &mut &conn.stream,
            "CLIENT_ERROR request read deadline exceeded",
        );
    }

    fn close(&self, conn: Conn) {
        drop(conn);
        self.shared.metrics.active.add(-1);
        self.shared.metrics.closed.inc();
    }

    /// After the workers have exited: closes every parked or queued
    /// connection.
    fn close_all(&self) {
        let parked: Vec<Conn> = lock(&self.parked).drain().map(|(_, c)| c).collect();
        self.parked_gauge.set(0);
        let queued: Vec<Conn> = lock(&self.ready).drain(..).collect();
        for conn in parked.into_iter().chain(queued) {
            self.close(conn);
        }
    }

    /// The next readable connection, or `None` once shutting down.
    fn next_ready(&self) -> Option<Conn> {
        let mut ready = lock(&self.ready);
        loop {
            if self.shared.shutting_down() {
                return None;
            }
            if let Some(conn) = ready.pop_front() {
                self.queued.store(ready.len(), Ordering::Relaxed);
                return Some(conn);
            }
            ready = self
                .ready_cv
                .wait(ready)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// One worker: serve readable connections until shutdown.
    ///
    /// Panic containment: a handler panic costs exactly its connection,
    /// never the worker (`csr_serve_worker_panics_total`).
    fn work(&self) {
        let (mut scratch, mut out) = (Vec::new(), Vec::new());
        while let Some(mut conn) = self.next_ready() {
            // Sized on first use: much of a large pool may never serve.
            scratch.resize(READ_CHUNK, 0);
            out.clear();
            let served = catch_unwind(AssertUnwindSafe(|| {
                self.serve(&mut conn, &mut scratch, &mut out)
            }));
            match served {
                Ok(Ok(After::Park)) => self.park(conn),
                Ok(Ok(After::Close) | Err(_)) => self.close(conn),
                Err(_) => {
                    self.shared.metrics.worker_panics.inc();
                    self.close(conn);
                }
            }
        }
    }

    /// Serves `conn` until it goes quiet for [`GRACE`], another
    /// connection is waiting, or it must close (EOF, `QUIT`, a fatal
    /// protocol error, a transport error, the partial-read deadline,
    /// shutdown).
    fn serve(&self, conn: &mut Conn, scratch: &mut [u8], out: &mut Vec<u8>) -> io::Result<After> {
        let shared = &*self.shared;
        loop {
            let n = match (&conn.stream).read(scratch) {
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    return Ok(if shared.shutting_down() {
                        After::Close
                    } else {
                        After::Park
                    });
                }
                Err(e) => return Err(e),
            };
            let eof = n == 0;
            let mut bytes = &scratch[..n];
            while !bytes.is_empty() || eof {
                let anchor = *conn.started.get_or_insert_with(Instant::now);
                let (used, frame) = conn.decoder.push(bytes, eof);
                bytes = &bytes[used..];
                let close = match frame {
                    None => break, // mid-frame, every byte taken
                    Some(Frame::Request(Request::Quit) | Frame::Eof) => true,
                    Some(Frame::Request(request)) => {
                        respond(request, shared, out, anchor)?;
                        false
                    }
                    Some(Frame::Error(err)) => respond_error(&err, shared, out)?,
                };
                conn.started = None;
                if close {
                    (&conn.stream).write_all(out)?;
                    return Ok(After::Close);
                }
                if out.len() >= FLUSH_AT {
                    (&conn.stream).write_all(out)?;
                    out.clear();
                }
            }
            (&conn.stream).write_all(out)?;
            out.clear();
            if conn.overdue(self.params.partial) {
                self.cut_slow(conn);
                return Ok(After::Close);
            }
            if shared.shutting_down() {
                return Ok(After::Close);
            }
            if self.queued.load(Ordering::Relaxed) > 0 {
                return Ok(After::Park);
            }
        }
    }
}
