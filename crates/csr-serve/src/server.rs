//! The TCP cache server over a [`CsrCache`], speaking the text protocol
//! of [`crate::proto`].
//!
//! # Connection model
//!
//! One engine, the private `reactor` module: a fixed pool of
//! [`workers`](ServerConfig::workers) threads serves each *busy*
//! connection with blocking reads, and one poller thread parks the *idle*
//! ones on epoll/kqueue ([`crate::poller`]) until their next request
//! arrives. Request throughput therefore scales with the workers and
//! connection count with the poller (tens of thousands). Past
//! [`max_conns`](ServerConfig::max_conns) open connections, new ones are
//! **load-shed**: the server replies `SERVER_BUSY` and closes at once,
//! turning overload into a fast, explicit signal.
//!
//! # Measured miss costs
//!
//! `GET` is read-through: a miss fetches from the [`Backing`] origin
//! through the cache's single-flight
//! [`try_get_or_insert_with`](CsrCache::try_get_or_insert_with), and the
//! wall-clock duration of that fetch — measured, in microseconds — is
//! charged as the entry's miss cost. The configured replacement policy
//! (DCL by default) therefore reserves exactly the entries that are
//! *observably* expensive to lose, the production analogue of the paper's
//! static cost ratios.
//!
//! # Fault tolerance
//!
//! The origin is fallible ([`Backing::try_fetch`]), so `serve` wraps it
//! in the [`crate::resilience`] middleware stack (deadline → breaker →
//! retry, per [`ServerConfig::resilience`]) before the cache ever sees
//! it. When a fetch still fails after all of that, the server degrades
//! instead of lying: if a previously fetched copy of the key exists in
//! the bounded *stale store*, it is served with the `STALE` flag (and
//! re-inserted into the cache at its last successful measured cost);
//! otherwise the client gets the recoverable `ORIGIN_ERROR` reply. An
//! origin failure is never conflated with "the origin has no entry" —
//! the single-flight layer in csr-cache propagates errors to coalesced
//! waiters so they retry rather than caching the failure.
//!
//! # Shutdown
//!
//! [`ServerHandle::shutdown`] (or dropping the handle) runs the graceful
//! sequence: stop accepting, let workers finish their in-flight requests,
//! close every connection, then flush the final metrics report.

use crate::backing::{Backing, BackingError};
use crate::cluster::{ClusterNode, ClusterServerMetrics, PeerConfig, PeerRouter};
use crate::persist::{PersistConfig, Persistence};
use crate::proto::{self, ProtoError, Request};
use crate::reactor::{self, Engine, EngineParams};
use crate::resilience::{OriginMetrics, ResilienceConfig, ResilientBacking};
use csr_cache::{CacheStats, CsrCache, Policy};
use csr_obs::trace::{arm_events, take_events};
use csr_obs::{
    Counter, Gauge, Histogram, Registry, ReportFormat, Reporter, RequestTrace, TraceConfig,
    TraceContext, Tracer,
};
use std::cell::Cell;
use std::collections::{HashMap, VecDeque};
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The cache's value type: cheaply clonable bytes (a `get` clones the
/// value out of the shard lock; an `Arc` makes that a refcount bump).
pub type Bytes = Arc<[u8]>;

/// The miss cost charged for values stored by an explicit client `SET`:
/// the server never measured a fetch for them, so they enter at the floor
/// and earn a real (measured) cost if a later read-through refill pays
/// one.
pub const SET_COST: u64 = 1;

/// Ceiling for a measured fetch/forward latency converted to a µs cost —
/// the counterpart of the ≥ 1 µs floor. A clock anomaly (suspend/resume,
/// a stepped clock, a u128→u64 overflow) must not mint an entry whose
/// cost is effectively infinite: GD/BCL/DCL would then never evict it.
/// 60 s is far beyond any deadline the resilience stack allows a real
/// fetch, so no honest measurement is distorted by the clamp.
pub const MAX_MEASURED_COST_US: u64 = 60_000_000;

/// Converts a measured elapsed time to the µs cost charged to the cache,
/// clamped to `[1, MAX_MEASURED_COST_US]` (see [`MAX_MEASURED_COST_US`]).
pub(crate) fn measured_cost_us(elapsed: Duration) -> u64 {
    u64::try_from(elapsed.as_micros())
        .unwrap_or(u64::MAX)
        .clamp(1, MAX_MEASURED_COST_US)
}

/// Periodic metrics dumping to a file (via [`Reporter`]).
#[derive(Debug, Clone)]
pub struct ReportSink {
    /// File the reporter (re)writes.
    pub path: PathBuf,
    /// Dump interval.
    pub interval: Duration,
    /// Dump format.
    pub format: ReportFormat,
}

/// Server configuration (see [`serve`]).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address, e.g. `127.0.0.1:11311` (port 0 picks a free port).
    pub addr: String,
    /// Cache capacity in entries.
    pub capacity: usize,
    /// Shard count override (`None`: one per hardware thread).
    pub shards: Option<usize>,
    /// Replacement policy.
    pub policy: Policy,
    /// Worker threads: how many connections are served at once. Idle
    /// connections wait on the poller and hold no worker.
    pub workers: usize,
    /// Open-connection ceiling: past it, new connections are shed with
    /// `SERVER_BUSY` (`0`: unbounded).
    pub max_conns: usize,
    /// A connection idle this long between requests is closed.
    pub idle_timeout: Duration,
    /// Total deadline for reading one request once its first byte has
    /// arrived. A peer that sends half a line and stops (slowloris) is
    /// cut after this long instead of lingering for the full
    /// [`idle_timeout`](Self::idle_timeout).
    pub partial_read_deadline: Duration,
    /// Write timeout for responses.
    pub write_timeout: Duration,
    /// Optional periodic metrics dump, flushed one final time on
    /// shutdown.
    pub report: Option<ReportSink>,
    /// Fault-tolerance middleware around the origin (deadline, retry,
    /// circuit breaker).
    pub resilience: ResilienceConfig,
    /// Entries the stale store retains for serve-stale degradation
    /// (`None`: match the cache capacity; `Some(0)` disables it).
    pub stale_capacity: Option<usize>,
    /// Cluster membership and peer-forwarding behaviour (`None`: the
    /// node runs standalone). An empty `node_id` is substituted with the
    /// bound listen address at startup (and appended to the membership
    /// if absent), so tests binding port 0 need no up-front address.
    pub cluster: Option<PeerConfig>,
    /// Distributed-tracing knobs (`PROTOCOL.md` § Tracing): 1-in-N
    /// sampling, the always-keep-slow threshold, and the kept-trace ring
    /// capacity. All off by default — incoming `TRACE` tokens are still
    /// honored.
    pub trace: TraceConfig,
    /// Print one structured line to stderr for every slow traced request
    /// (trace id, key, phase breakdown). Needs `trace.slow_us > 0` to
    /// classify anything as slow.
    pub slow_log: bool,
    /// Crash-safe persistence ([`crate::persist`]): WAL + snapshots in
    /// the given directory, with startup recovery replayed **before**
    /// the listener binds (`None`: in-memory only, the default).
    pub persist: Option<PersistConfig>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            capacity: 65_536,
            shards: None,
            policy: Policy::Dcl,
            workers: 64,
            max_conns: 0,
            idle_timeout: Duration::from_secs(30),
            partial_read_deadline: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            report: None,
            resilience: ResilienceConfig::default(),
            stale_capacity: None,
            cluster: None,
            trace: TraceConfig::default(),
            slow_log: false,
            persist: None,
        }
    }
}

/// The serve-stale fallback: the last successfully fetched copy of each
/// read-through key, with the measured cost that fetch paid. Bounded FIFO
/// by *recording* order (re-recording a key refreshes its slot lazily:
/// the old ring slot becomes a tombstone skipped at eviction time).
///
/// Values are `Arc<[u8]>` clones of what the cache stores, so the store
/// costs one refcount per entry, not a copy.
struct StaleStore {
    capacity: usize,
    inner: Mutex<StaleInner>,
}

#[derive(Default)]
struct StaleInner {
    entries: HashMap<String, StaleEntry>,
    /// Recording order, `(key, generation)`; a slot whose generation no
    /// longer matches the live entry is a tombstone.
    order: VecDeque<(String, u64)>,
    next_gen: u64,
}

struct StaleEntry {
    value: Bytes,
    /// The measured miss cost of the last successful fetch.
    cost: u64,
    gen: u64,
}

impl StaleStore {
    fn new(capacity: usize) -> Self {
        StaleStore {
            capacity,
            inner: Mutex::new(StaleInner::default()),
        }
    }

    /// Records a successful fetch of `key` (cost in µs, as charged to the
    /// cache).
    fn record(&self, key: &str, value: Bytes, cost: u64) {
        if self.capacity == 0 {
            return;
        }
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let gen = inner.next_gen;
        inner.next_gen += 1;
        inner
            .entries
            .insert(key.to_owned(), StaleEntry { value, cost, gen });
        inner.order.push_back((key.to_owned(), gen));
        while inner.entries.len() > self.capacity {
            match inner.order.pop_front() {
                Some((k, g)) => {
                    if inner.entries.get(&k).is_some_and(|e| e.gen == g) {
                        inner.entries.remove(&k);
                    } // else: tombstone of a since-refreshed key
                }
                None => break,
            }
        }
        // The eviction loop above only drains the ring while the map is
        // over capacity, so re-recording resident keys (the steady state)
        // would otherwise grow `order` by one tombstone per fetch, forever.
        // Compact eagerly once tombstones outnumber live slots: rebuild
        // the ring keeping only slots that still name the live generation.
        // Each rebuild is O(len) and at least halves the ring, so the
        // amortized cost per record stays O(1).
        let StaleInner { entries, order, .. } = &mut *inner;
        if order.len() > 2 * entries.len() {
            order.retain(|(k, g)| entries.get(k).is_some_and(|e| e.gen == *g));
        }
    }

    /// The last successful copy of `key`, if still retained.
    fn get(&self, key: &str) -> Option<(Bytes, u64)> {
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner
            .entries
            .get(key)
            .map(|e| (Arc::clone(&e.value), e.cost))
    }
}

/// Server-side metric families, registered alongside the cache's own
/// (`csr_cache_*`, `csr_policy_*`) in one shared [`Registry`] that the
/// `METRICS` command and the [`ReportSink`] both render.
pub(crate) struct ServerMetrics {
    pub(crate) accepted: Arc<Counter>,
    pub(crate) shed: Arc<Counter>,
    pub(crate) closed: Arc<Counter>,
    pub(crate) active: Arc<Gauge>,
    req_get: Arc<Counter>,
    req_fget: Arc<Counter>,
    req_set: Arc<Counter>,
    req_del: Arc<Counter>,
    req_stats: Arc<Counter>,
    req_metrics: Arc<Counter>,
    req_traces: Arc<Counter>,
    pub(crate) req_errors: Arc<Counter>,
    /// Requests rejected for exceeding a normative limit, by which limit
    /// (`line`, `key`, `value`). These are recoverable rejections — the
    /// connection resyncs and continues.
    limit_line: Arc<Counter>,
    limit_key: Arc<Counter>,
    limit_value: Arc<Counter>,
    /// Connections cut for stalling mid-request past the partial-line
    /// read deadline (slowloris defense, distinct from idle timeouts).
    pub(crate) slowloris_drops: Arc<Counter>,
    /// Handler panics caught without killing the worker that hosted them
    /// (the connection dies; the pool survives).
    pub(crate) worker_panics: Arc<Counter>,
    /// Measured read-through fetch latency (µs) — the distribution of the
    /// very numbers being fed to the policy as miss costs.
    fetch_us: Arc<Histogram>,
    /// Per-phase request durations, derived from trace spans.
    phases: PhaseMetrics,
}

/// Per-phase request-duration histograms (µs), one `phase` label value
/// per span name the tracer produces. Each phase records the very
/// duration its span reports, so the metrics and the exported traces
/// can never disagree about where time went.
struct PhaseMetrics {
    request: Arc<Histogram>,
    parse: Arc<Histogram>,
    cache: Arc<Histogram>,
    origin: Arc<Histogram>,
    forward: Arc<Histogram>,
    stale: Arc<Histogram>,
}

impl PhaseMetrics {
    fn new(registry: &Registry) -> Self {
        let phase = |name: &str| {
            registry.histogram(
                "csr_serve_phase_us",
                "Per-phase request duration in microseconds, derived from trace spans",
                &[("phase", name)],
            )
        };
        PhaseMetrics {
            request: phase("request"),
            parse: phase("parse"),
            cache: phase("cache"),
            origin: phase("origin"),
            forward: phase("forward"),
            stale: phase("stale"),
        }
    }

    /// Records `us` under the histogram matching a span name (unknown
    /// names are dropped rather than mislabeled).
    fn record(&self, phase: &str, us: u64) {
        match phase {
            "request" => self.request.record(us),
            "parse" => self.parse.record(us),
            "cache" => self.cache.record(us),
            "origin" => self.origin.record(us),
            "forward" => self.forward.record(us),
            "stale" => self.stale.record(us),
            _ => {}
        }
    }
}

impl ServerMetrics {
    fn new(registry: &Registry) -> Self {
        let conn = |event: &str| {
            registry.counter(
                "csr_serve_connections_total",
                "Connections by lifecycle event",
                &[("event", event)],
            )
        };
        let req = |verb: &str| {
            registry.counter(
                "csr_serve_requests_total",
                "Requests by verb",
                &[("verb", verb)],
            )
        };
        let limit = |kind: &str| {
            registry.counter(
                "csr_serve_conn_limit_rejects_total",
                "Requests rejected for exceeding a normative size limit",
                &[("limit", kind)],
            )
        };
        ServerMetrics {
            accepted: conn("accepted"),
            shed: conn("shed"),
            closed: conn("closed"),
            active: registry.gauge(
                "csr_serve_active_connections",
                "Open connections, parked or held by a worker",
                &[],
            ),
            req_get: req("get"),
            req_fget: req("fget"),
            req_set: req("set"),
            req_del: req("del"),
            req_stats: req("stats"),
            req_metrics: req("metrics"),
            req_traces: req("traces"),
            req_errors: req("error"),
            limit_line: limit("line"),
            limit_key: limit("key"),
            limit_value: limit("value"),
            slowloris_drops: registry.counter(
                "csr_serve_conn_slowloris_drops_total",
                "Connections cut for stalling mid-request past the partial-line deadline",
                &[],
            ),
            worker_panics: registry.counter(
                "csr_serve_worker_panics_total",
                "Connection-handler panics caught without killing the serving pool",
                &[],
            ),
            fetch_us: registry.histogram(
                "csr_serve_miss_fetch_us",
                "Measured origin fetch latency in microseconds (charged as miss cost)",
                &[],
            ),
            phases: PhaseMetrics::new(registry),
        }
    }

    /// The limit-reject counter for the proto layer's limit class.
    pub(crate) fn limit_reject(&self, kind: &str) -> &Counter {
        match kind {
            "key" => &self.limit_key,
            "value" => &self.limit_value,
            _ => &self.limit_line,
        }
    }

    fn limit_rejects(&self) -> u64 {
        self.limit_line.get() + self.limit_key.get() + self.limit_value.get()
    }
}

/// Cluster machinery a node carries when it runs in cluster mode.
struct ClusterState {
    router: PeerRouter,
    metrics: ClusterServerMetrics,
}

/// State shared by the engine's threads and the handle.
pub(crate) struct Shared {
    cache: CsrCache<String, Bytes>,
    /// The origin, already wrapped in the resilience stack.
    backing: Arc<dyn Backing>,
    pub(crate) registry: Arc<Registry>,
    pub(crate) metrics: ServerMetrics,
    origin_metrics: Arc<OriginMetrics>,
    stale: StaleStore,
    cluster: Option<ClusterState>,
    /// The node's request tracer (csr-trace); always present, dormant
    /// (zero per-request allocations) unless sampling/slow-capture is on
    /// or a request carries an incoming `TRACE` token.
    tracer: Tracer,
    /// Print a structured stderr line for each slow traced request.
    slow_log: bool,
    /// Crash-safe persistence engine (`None`: in-memory only).
    persist: Option<Persistence>,
    /// Ensures the final snapshot/flush runs exactly once.
    persist_done: AtomicBool,
    shutdown: AtomicBool,
    started: Instant,
}

impl Shared {
    pub(crate) fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// WAL-logs a stored entry (`cost` exactly as charged to the cache),
    /// taking the periodic snapshot when one falls due. No-op without
    /// persistence. For entries inserted by this caller (not by a cache
    /// fill closure), use [`store_persisted`](Self::store_persisted)
    /// instead — it makes the insert atomic with the append.
    fn persist_set(&self, key: &str, value: &[u8], cost: u64) {
        if let Some(p) = &self.persist {
            if p.log_set(key, value, cost) {
                p.snapshot(&self.cache);
            }
        }
    }

    /// Books a value whose fetch (from the origin or the owning peer)
    /// began at `t0`, for the cache fill about to insert it: the measured
    /// cost goes to `latency`, the copy and its cost to the stale store
    /// (for serve-stale degradation if the origin later fails), then to
    /// the WAL — which records the *measured* cost, so a restart
    /// reconstructs the eviction ordering, not just the data.
    fn fill(&self, key: &str, fetched: Vec<u8>, t0: Instant, latency: &Histogram) -> (Bytes, u64) {
        // Microseconds, floored at 1 so even a sub-µs origin read carries
        // nonzero weight with the policies, and ceilinged so a clock
        // anomaly cannot mint an unevictable entry.
        let cost = measured_cost_us(t0.elapsed());
        latency.record(cost);
        let bytes = Bytes::from(fetched);
        self.stale.record(key, Arc::clone(&bytes), cost);
        self.persist_set(key, &bytes, cost);
        (bytes, cost)
    }

    /// Inserts into the cache and WAL-logs the entry as one atomic step
    /// (the insert runs under the WAL append lock), so concurrent
    /// mutations of the same key reach the cache and the log in the
    /// same order — recovery replays exactly the history clients were
    /// acknowledged against.
    fn store_persisted(&self, key: &str, value: &Bytes, cost: u64) {
        match &self.persist {
            None => {
                self.cache
                    .insert_with_cost(key.to_owned(), Arc::clone(value), cost);
            }
            Some(p) => {
                let ((), due) = p.log_set_with(key, value, cost, || {
                    self.cache
                        .insert_with_cost(key.to_owned(), Arc::clone(value), cost);
                });
                if due {
                    p.snapshot(&self.cache);
                }
            }
        }
    }

    /// Removes from the cache and WAL-logs the invalidation as one
    /// atomic step, returning whether the key was resident. The DEL is
    /// logged even for a non-resident key: the WAL tail may hold an
    /// earlier SET for it (a fill that was since evicted), and without
    /// the tombstone replay would resurrect the invalidated value.
    fn remove_persisted(&self, key: &str) -> bool {
        match &self.persist {
            None => self.cache.remove(&key.to_owned()).is_some(),
            Some(p) => {
                let (removed, due) =
                    p.log_del_with(key, || self.cache.remove(&key.to_owned()).is_some());
                if due {
                    p.snapshot(&self.cache);
                }
                removed
            }
        }
    }

    /// The final persistence flush (snapshot + WAL prune), run once after
    /// the serving threads have drained.
    fn finish_persist(&self) {
        if self.persist_done.swap(true, Ordering::AcqRel) {
            return;
        }
        if let Some(p) = &self.persist {
            p.finish(&self.cache);
        }
    }
}

/// A running server. Dropping the handle shuts the server down
/// gracefully (ignoring errors); call [`shutdown`](Self::shutdown) to
/// observe them.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    /// The poller thread, which supervises the shutdown.
    supervisor: Option<JoinHandle<io::Result<()>>>,
    engine: Arc<Engine>,
}

impl ServerHandle {
    /// The bound listen address (with the real port when `:0` was asked).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared metrics registry (server + cache families).
    #[must_use]
    pub fn registry(&self) -> &Arc<Registry> {
        &self.shared.registry
    }

    /// A cache-wide statistics snapshot.
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        self.shared.cache.stats()
    }

    /// The node's request tracer — for exporting the kept-trace ring
    /// (JSONL / Chrome trace-event) at shutdown.
    #[must_use]
    pub fn tracer(&self) -> &Tracer {
        &self.shared.tracer
    }

    /// Gracefully shuts down: stop accepting, close idle connections, drain
    /// in-flight requests, flush the final metrics report.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the final report flush.
    pub fn shutdown(mut self) -> io::Result<()> {
        self.begin_shutdown();
        let joined = self.supervisor.take().map(JoinHandle::join);
        // Final snapshot after the serving threads drained: no appends
        // race the export, and the pruned WAL makes the next start fast.
        self.shared.finish_persist();
        match joined {
            Some(Ok(result)) => result,
            Some(Err(panic)) => std::panic::resume_unwind(panic),
            None => Ok(()),
        }
    }

    fn begin_shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.engine.wake();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if let Some(handle) = self.supervisor.take() {
            self.begin_shutdown();
            let _ = handle.join();
            self.shared.finish_persist();
        }
    }
}

/// Starts a server for `config` reading through `backing`; returns once
/// the listener is bound and the worker pool is running.
///
/// With [`ServerConfig::persist`] set, the persistence lock is taken and
/// startup recovery (snapshot + WAL replay) completes **before** the
/// listener binds: no client can reach a half-recovered cache, and a
/// shutdown requested mid-replay (the config's `cancel` hook) aborts
/// with `ErrorKind::Interrupted` without ever having opened a port.
///
/// # Errors
///
/// Binding the listener, creating the report file, taking the
/// persistence lock (another live instance holds the dir), or reading
/// the persisted state can fail; nothing is left running in that case.
/// Serving needs epoll or kqueue (Linux, macOS, FreeBSD): elsewhere this
/// returns `ErrorKind::Unsupported`.
pub fn serve(config: ServerConfig, backing: Arc<dyn Backing>) -> io::Result<ServerHandle> {
    assert!(config.workers > 0, "need at least one worker");
    let registry = Arc::new(Registry::new());
    let metrics = ServerMetrics::new(&registry);
    let origin_metrics = Arc::new(OriginMetrics::new(&registry));
    let (backing, _breaker) = ResilientBacking::wrap(
        backing,
        &config.resilience,
        Some(Arc::clone(&origin_metrics)),
    );
    let mut builder = CsrCache::builder(config.capacity)
        .policy(config.policy)
        .metrics(Arc::clone(&registry));
    if let Some(shards) = config.shards {
        builder = builder.shards(shards);
    }
    let cache = builder.build();

    // Lock + recover before the listener exists: a second instance is
    // refused while no port is open yet, and no client can talk to a
    // half-recovered cache.
    let persist = match config.persist {
        Some(pc) => {
            let p = Persistence::open(pc, &registry)?;
            let report = p.recover_into(&cache)?;
            if report.recovered_entries > 0 || report.truncated_records > 0 {
                eprintln!(
                    "csr-serve: recovered {} entries ({} WAL records replayed, \
                     {} torn records truncated)",
                    report.recovered_entries, report.wal_records, report.truncated_records
                );
            }
            Some(p)
        }
        None => None,
    };

    let listener = TcpListener::bind(config.addr.as_str())?;
    let addr = listener.local_addr()?;

    let cluster = config.cluster.map(|mut pc| {
        if pc.node_id.is_empty() {
            // The common test/demo shape: bind port 0, identify as
            // whatever address we got.
            pc.node_id = addr.to_string();
        }
        if !pc.nodes.iter().any(|n| n.id == pc.node_id) {
            pc.nodes.push(ClusterNode::addr_only(pc.node_id.clone()));
        }
        ClusterState {
            router: PeerRouter::new(&pc),
            metrics: ClusterServerMetrics::new(&registry),
        }
    });
    // Traces are stamped with the cluster node id when there is one, so
    // spans from different nodes of one trace stay distinguishable.
    let trace_node = cluster
        .as_ref()
        .map_or_else(|| addr.to_string(), |cl| cl.router.node_id().to_owned());
    let shared = Arc::new(Shared {
        cache,
        backing,
        registry: Arc::clone(&registry),
        metrics,
        origin_metrics,
        stale: StaleStore::new(config.stale_capacity.unwrap_or(config.capacity)),
        cluster,
        tracer: Tracer::new(&trace_node, config.trace),
        slow_log: config.slow_log,
        persist,
        persist_done: AtomicBool::new(false),
        shutdown: AtomicBool::new(false),
        started: Instant::now(),
    });

    // Create the report sink before spawning anything so a bad path fails
    // the call instead of a background thread.
    let reporter = match &config.report {
        Some(sink) => {
            let file = std::fs::File::create(&sink.path)?;
            Some(Reporter::spawn(
                Arc::clone(&registry),
                sink.interval,
                file,
                sink.format,
            ))
        }
        None => None,
    };

    let params = EngineParams {
        workers: config.workers,
        max_conns: config.max_conns,
        idle: config.idle_timeout,
        partial: config.partial_read_deadline,
        write: config.write_timeout,
    };
    let (supervisor, engine) = reactor::spawn(listener, Arc::clone(&shared), reporter, params)?;
    Ok(ServerHandle {
        addr,
        shared,
        supervisor: Some(supervisor),
        engine,
    })
}

/// Answers a request that failed to decode: counts it (`verb="error"`,
/// and the `limit` class if one was exceeded), writes the `CLIENT_ERROR`
/// line, and returns whether the connection must close — framing was
/// lost, or the transport itself failed (nothing to say).
pub(crate) fn respond_error(
    err: &ProtoError,
    shared: &Shared,
    w: &mut impl Write,
) -> io::Result<bool> {
    let ProtoError::Client { msg, fatal, limit } = err else {
        return Ok(true);
    };
    shared.metrics.req_errors.inc();
    if let Some(kind) = limit {
        shared.metrics.limit_reject(kind).inc();
    }
    if msg.starts_with("CLIENT_ERROR") {
        proto::write_line(w, msg)?;
    } else {
        proto::write_line(w, &format!("CLIENT_ERROR {msg}"))?;
    }
    Ok(*fatal)
}

/// Executes one request and writes its response (buffered).
pub(crate) fn respond(
    request: Request,
    shared: &Shared,
    w: &mut impl Write,
    anchor: Instant,
) -> io::Result<()> {
    match request {
        Request::Get { key, trace: ctx } => {
            shared.metrics.req_get.inc();
            let mut trace = begin_trace(shared, ctx, anchor);
            let out = (|| {
                if let Some(cl) = &shared.cluster {
                    if let Some((peer, owner)) = cl.router.owner_of(&key) {
                        if !cl.router.forward {
                            cl.metrics.moved.inc();
                            if let Some(t) = trace.as_mut() {
                                t.event("moved", owner.addr.clone());
                            }
                            return proto::write_moved(w, &owner.addr);
                        }
                        return forwarded_get(shared, cl, peer, &key, w, &mut trace);
                    }
                }
                local_get(shared, &key, w, &mut trace)
            })();
            finish_trace(shared, trace, &key);
            out
        }
        // The internal one-hop verb: always answered from this node's own
        // cache/origin — never re-forwarded, never MOVED — so peer
        // forwarding cannot loop.
        Request::ForwardGet { key, trace: ctx } => {
            shared.metrics.req_fget.inc();
            let mut trace = begin_trace(shared, ctx, anchor);
            let out = local_get(shared, &key, w, &mut trace);
            finish_trace(shared, trace, &key);
            out
        }
        Request::Set {
            key,
            value,
            trace: ctx,
        } => {
            shared.metrics.req_set.inc();
            let bytes = Bytes::from(value);
            match begin_trace(shared, ctx, anchor) {
                None => {
                    shared.store_persisted(&key, &bytes, SET_COST);
                    proto::write_line(w, "STORED")
                }
                Some(mut t) => {
                    let span = t.begin_span("cache");
                    shared.store_persisted(&key, &bytes, SET_COST);
                    let dur = t.finish_span(span);
                    shared.metrics.phases.record("cache", dur);
                    let out = proto::write_line(w, "STORED");
                    finish_trace(shared, Some(t), &key);
                    out
                }
            }
        }
        Request::Del(key) => {
            shared.metrics.req_del.inc();
            // The WAL tombstone is written whether or not the key was
            // resident (see `remove_persisted`); only the *reply* keys
            // off residency.
            let removed = shared.remove_persisted(&key);
            proto::write_line(w, if removed { "DELETED" } else { "NOT_FOUND" })
        }
        Request::Stats => {
            shared.metrics.req_stats.inc();
            write_stats(shared, w)
        }
        Request::Metrics => {
            shared.metrics.req_metrics.inc();
            let text = csr_obs::export::prometheus(&shared.registry.snapshot());
            proto::write_data(w, text.as_bytes())
        }
        Request::Traces => {
            shared.metrics.req_traces.inc();
            let body = shared.tracer.export_jsonl();
            proto::write_data(w, body.as_bytes())
        }
        // QUIT never reaches respond().
        Request::Quit => Ok(()),
    }
}

/// Starts the request trace (if this request is traced at all): the root
/// span is backdated to `anchor` (first byte), a retroactive `parse`
/// span covers read+parse, and the thread-local event collector is armed
/// so the resilience middleware's annotations reach the trace. Returns
/// `None` — with zero allocations — when tracing is off and the request
/// carried no `TRACE` token.
fn begin_trace(
    shared: &Shared,
    ctx: Option<TraceContext>,
    anchor: Instant,
) -> Option<RequestTrace> {
    let mut trace = shared.tracer.begin(ctx, anchor);
    if let Some(t) = trace.as_mut() {
        let dur = t.add_span_since("parse", anchor);
        shared.metrics.phases.record("parse", dur);
        arm_events();
    }
    trace
}

/// Seals the request trace: leftover middleware events land on the root
/// span, the whole-request duration feeds the `request` phase histogram,
/// and — when the request was slow and the slow log is on — one
/// structured line goes to stderr.
fn finish_trace(shared: &Shared, trace: Option<RequestTrace>, key: &str) {
    let Some(mut t) = trace else { return };
    t.absorb_events(take_events());
    let fin = shared.tracer.finish(t);
    shared.metrics.phases.record("request", fin.total_us);
    if fin.slow && shared.slow_log {
        use std::fmt::Write as _;
        let mut phases = String::new();
        for s in fin.spans.iter().skip(1) {
            let _ = write!(phases, " {}_us={}", s.name, s.dur_us);
        }
        eprintln!(
            "SLOW trace={:016x} node={} key={} total_us={}{}",
            fin.trace_id,
            shared.tracer.node(),
            key,
            fin.total_us,
            phases
        );
    }
}

/// The single-node read-through `GET`: cache, then origin (fetch timed
/// and charged as miss cost), then the stale-store degradation ladder.
///
/// When traced, a `cache` span covers the whole single-flight lookup
/// (including any coalesced wait) and an `origin` span — nested inside
/// it, carrying the resilience middleware's retry/breaker/deadline
/// events — covers the fetch closure when it ran.
fn local_get(
    shared: &Shared,
    key: &str,
    w: &mut impl Write,
    trace: &mut Option<RequestTrace>,
) -> io::Result<()> {
    let cache_span = trace.as_mut().map(|t| t.begin_span("cache"));
    // When the fetch closure ran (a real miss, not a hit or a coalesced
    // wait), the instant it started — so the origin span can be built
    // retroactively outside the closure's borrow.
    let fetch_started: Cell<Option<Instant>> = Cell::new(None);
    let value: Result<Option<Bytes>, BackingError> =
        shared.cache.try_get_or_insert_with(key.to_owned(), || {
            let t0 = Instant::now();
            fetch_started.set(Some(t0));
            let fetched = shared.backing.try_fetch(key)?;
            Ok(fetched.map(|v| shared.fill(key, v, t0, &shared.metrics.fetch_us)))
        });
    if let Some(t) = trace.as_mut() {
        let events = take_events();
        if let Some(t0) = fetch_started.get() {
            let mut span = t.begin_span_at("origin", t0);
            span.absorb_events(events);
            let dur = t.finish_span(span);
            shared.metrics.phases.record("origin", dur);
        } else {
            // Hit or coalesced wait: no origin fetch of our own, but any
            // stray events still belong to this trace.
            t.absorb_events(events);
        }
        // Re-arm: the degraded path below may still run the stale store.
        arm_events();
        if let Some(span) = cache_span {
            shared.metrics.phases.record("cache", t.finish_span(span));
        }
    }
    match value {
        Ok(Some(bytes)) => proto::write_value(w, key, &bytes),
        Ok(None) => proto::write_end(w),
        Err(err) => write_degraded(shared, key, &err, w, trace),
    }
}

/// A `GET` for a key this node does not own, with forwarding enabled:
/// serve a locally cached copy if one exists (a previous forward put it
/// there — that *is* the hot-key replica), else fetch from the owner
/// over `FGET` inside the cache's single-flight slot, charging the
/// *measured* one-hop latency as the entry's miss cost. A peer that
/// cannot be reached (partition) degrades to this node's own origin
/// fetch, so availability survives the owner's death.
///
/// When traced, the `forward` span's id rides the `FGET` line as the
/// `TRACE` token, so the owner's spans link under it — one trace across
/// both nodes.
fn forwarded_get(
    shared: &Shared,
    cl: &ClusterState,
    peer: usize,
    key: &str,
    w: &mut impl Write,
    trace: &mut Option<RequestTrace>,
) -> io::Result<()> {
    // Reply-flag cells: set inside the fetch closure (which only runs on
    // a miss), read when writing the reply.
    let fwd = Cell::new(false);
    let fwd_stale = Cell::new(false);
    let cache_span = trace.as_mut().map(|t| t.begin_span("cache"));
    let value: Result<Option<Bytes>, BackingError> =
        shared.cache.try_get_or_insert_with(key.to_owned(), || {
            let t0 = Instant::now();
            let mut span = trace.as_mut().map(|t| t.begin_span("forward"));
            let ctx = trace
                .as_ref()
                .zip(span.as_ref())
                .map(|(t, sp)| t.context_from(sp.span_id()));
            match cl.router.fetch_from_peer(peer, key, ctx) {
                Ok(found) => {
                    cl.metrics.forwards.inc();
                    fwd.set(true);
                    if let (Some(t), Some(sp)) = (trace.as_mut(), span.take()) {
                        let dur = t.finish_span(sp);
                        shared.metrics.phases.record("forward", dur);
                    }
                    let forward_us = &cl.metrics.forward_us;
                    if found.is_none() {
                        // The hop was still made: its latency counts.
                        forward_us.record(measured_cost_us(t0.elapsed()));
                    }
                    Ok(found.map(|v| {
                        fwd_stale.set(v.stale);
                        shared.fill(key, v.data, t0, forward_us)
                    }))
                }
                // The owner is unreachable (or itself origin-dead): fall
                // back to our own origin so a partitioned peer costs one
                // bounded timeout, not an outage.
                Err(e) => {
                    cl.metrics.forward_fallbacks.inc();
                    if let (Some(t), Some(mut sp)) = (trace.as_mut(), span.take()) {
                        sp.event("forward_error", e.to_string());
                        let dur = t.finish_span(sp);
                        shared.metrics.phases.record("forward", dur);
                    }
                    let t0 = Instant::now();
                    let fetched = shared.backing.try_fetch(key);
                    if let Some(t) = trace.as_mut() {
                        let mut sp = t.begin_span_at("origin", t0);
                        sp.absorb_events(take_events());
                        let dur = t.finish_span(sp);
                        shared.metrics.phases.record("origin", dur);
                        arm_events();
                    }
                    Ok(fetched?.map(|v| shared.fill(key, v, t0, &shared.metrics.fetch_us)))
                }
            }
        });
    if let Some(t) = trace.as_mut() {
        if let Some(span) = cache_span {
            shared.metrics.phases.record("cache", t.finish_span(span));
        }
    }
    match value {
        Ok(Some(bytes)) => proto::write_value_flags(w, key, &bytes, fwd_stale.get(), fwd.get()),
        Ok(None) => proto::write_end(w),
        Err(err) => write_degraded(shared, key, &err, w, trace),
    }
}

/// The degradation ladder once a fetch failed (past retries and the
/// breaker): a stale copy if we ever fetched one — put back into the
/// cache at its last successful measured cost — else the recoverable
/// `ORIGIN_ERROR` reply. Traced requests get an `origin_error` root
/// event either way, plus a `stale` span when a stale copy is served.
fn write_degraded(
    shared: &Shared,
    key: &str,
    err: &BackingError,
    w: &mut impl Write,
    trace: &mut Option<RequestTrace>,
) -> io::Result<()> {
    if let Some(t) = trace.as_mut() {
        t.event("origin_error", err.to_string());
    }
    match shared.stale.get(key) {
        Some((bytes, cost)) => {
            let span = trace.as_mut().map(|t| t.begin_span("stale"));
            shared.origin_metrics.stale_served.inc();
            shared.store_persisted(key, &bytes, cost);
            if let (Some(t), Some(sp)) = (trace.as_mut(), span) {
                shared.metrics.phases.record("stale", t.finish_span(sp));
            }
            proto::write_stale_value(w, key, &bytes)
        }
        None => proto::write_origin_error(w, &err.to_string()),
    }
}

/// Renders the `STATS` reply: cache counters, derived rates, and the
/// server's connection/request counters.
fn write_stats(shared: &Shared, w: &mut impl Write) -> io::Result<()> {
    let s = shared.cache.stats();
    let m = &shared.metrics;
    let mut stat = |name: &str, value: String| writeln_stat(w, name, &value);
    stat("policy", shared.cache.policy_name().to_owned())?;
    stat(
        "uptime_us",
        shared.started.elapsed().as_micros().to_string(),
    )?;
    stat("capacity", shared.cache.capacity().to_string())?;
    stat("shards", shared.cache.num_shards().to_string())?;
    stat("resident", shared.cache.len().to_string())?;
    stat("lookups", s.lookups.to_string())?;
    stat("hits", s.hits.to_string())?;
    stat("misses", s.misses.to_string())?;
    stat("hit_rate", format!("{:.4}", s.hit_rate()))?;
    stat("insertions", s.insertions.to_string())?;
    stat("updates", s.updates.to_string())?;
    stat("evictions", s.evictions.to_string())?;
    stat("reservations", s.reservations.to_string())?;
    stat("removals", s.removals.to_string())?;
    stat("coalesced_fetches", s.coalesced_fetches.to_string())?;
    stat("aggregate_miss_cost", s.aggregate_miss_cost.to_string())?;
    stat("mean_miss_cost", format!("{:.2}", s.mean_miss_cost()))?;
    stat("connections_accepted", m.accepted.get().to_string())?;
    stat("connections_shed", m.shed.get().to_string())?;
    stat("connections_closed", m.closed.get().to_string())?;
    stat("connections_active", m.active.get().to_string())?;
    stat("requests_get", m.req_get.get().to_string())?;
    stat("requests_set", m.req_set.get().to_string())?;
    stat("requests_del", m.req_del.get().to_string())?;
    stat("requests_fget", m.req_fget.get().to_string())?;
    stat("conn_limit_rejects", m.limit_rejects().to_string())?;
    stat("conn_slowloris_drops", m.slowloris_drops.get().to_string())?;
    stat(
        "origin_stale_served",
        shared.origin_metrics.stale_served.get().to_string(),
    )?;
    stat(
        "origin_breaker_state",
        shared.origin_metrics.breaker_state.get().to_string(),
    )?;
    stat("traces_recorded", shared.tracer.recorded().to_string())?;
    stat("traces_dropped", shared.tracer.dropped().to_string())?;
    if let Some(p) = &shared.persist {
        let pm = p.metrics();
        stat("persist_fsync", p.fsync_policy().name())?;
        stat("persist_appends", pm.appends.get().to_string())?;
        stat("persist_fsyncs", pm.fsyncs.get().to_string())?;
        stat("persist_snapshots", pm.snapshots.get().to_string())?;
        stat(
            "persist_recovered_entries",
            pm.recovered_entries.get().to_string(),
        )?;
        stat(
            "persist_truncated_records",
            pm.truncated_records.get().to_string(),
        )?;
        stat("persist_errors", pm.errors.get().to_string())?;
        stat("persist_degraded", u64::from(p.is_degraded()).to_string())?;
    }
    if let Some(cl) = &shared.cluster {
        stat("cluster_node_id", cl.router.node_id().to_owned())?;
        stat("cluster_nodes", cl.router.nodes().len().to_string())?;
        stat("cluster_forwards", cl.metrics.forwards.get().to_string())?;
        stat(
            "cluster_forward_fallbacks",
            cl.metrics.forward_fallbacks.get().to_string(),
        )?;
        stat("cluster_moved", cl.metrics.moved.get().to_string())?;
    }
    proto::write_end(w)
}

fn writeln_stat(w: &mut impl Write, name: &str, value: &str) -> io::Result<()> {
    write!(w, "STAT {name} {value}\r\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes(v: &[u8]) -> Bytes {
        Arc::from(v)
    }

    /// The regression for the `unwrap_or(u64::MAX)` cost sites: an
    /// elapsed time whose µs value overflows `u64` (a stepped clock, a
    /// resume-from-suspend anomaly) must clamp to the finite ceiling, not
    /// become an effectively infinite cost the policies never evict.
    #[test]
    fn measured_cost_clamps_clock_anomalies_to_a_finite_ceiling() {
        // The floor: sub-µs measurements still carry weight.
        assert_eq!(measured_cost_us(Duration::ZERO), 1);
        assert_eq!(measured_cost_us(Duration::from_nanos(200)), 1);
        // Honest measurements pass through untouched.
        assert_eq!(measured_cost_us(Duration::from_micros(7)), 7);
        assert_eq!(
            measured_cost_us(Duration::from_secs(59)),
            59_000_000,
            "real fetches are far below the ceiling"
        );
        // At and past the ceiling: clamped, finite, evictable.
        assert_eq!(
            measured_cost_us(Duration::from_secs(60)),
            MAX_MEASURED_COST_US
        );
        assert_eq!(
            measured_cost_us(Duration::from_secs(3600)),
            MAX_MEASURED_COST_US
        );
        // The overflow path itself: `as_micros` (u128) exceeds u64.
        let anomalous = Duration::from_secs(u64::MAX / 1_000);
        assert!(u64::try_from(anomalous.as_micros()).is_err());
        assert_eq!(measured_cost_us(anomalous), MAX_MEASURED_COST_US);
        assert_eq!(measured_cost_us(Duration::MAX), MAX_MEASURED_COST_US);
    }

    /// The regression for the unbounded-ring leak: in the steady state —
    /// a working set of distinct keys no larger than the capacity, each
    /// re-recorded on every refetch — the eviction loop never fires, so
    /// tombstone slots must be compacted eagerly instead of accumulating
    /// at the miss-fetch rate forever.
    #[test]
    fn stale_ring_stays_bounded_when_rerecording_resident_keys() {
        let store = StaleStore::new(64);
        for round in 0..10_000u64 {
            let key = format!("k{}", round % 8); // 8 keys << capacity
            store.record(&key, bytes(b"v"), round + 1);
            let inner = store.inner.lock().unwrap();
            assert!(
                inner.order.len() <= 2 * inner.entries.len().max(1),
                "round {round}: ring has {} slots for {} live entries",
                inner.order.len(),
                inner.entries.len()
            );
        }
        let inner = store.inner.lock().unwrap();
        assert_eq!(inner.entries.len(), 8);
        // Every retained entry is the freshest recording of its key.
        for i in 0..8u64 {
            let e = &inner.entries[&format!("k{i}")];
            assert!(e.cost > 10_000 - 8, "k{i} kept a stale generation");
        }
    }

    /// Compaction preserves recording order: once over capacity, the
    /// *oldest-recorded* live key is still the one evicted.
    #[test]
    fn stale_store_evicts_in_recording_order_after_compaction() {
        let store = StaleStore::new(3);
        // Churn "a" enough to force at least one compaction pass.
        for i in 0..32 {
            store.record("a", bytes(b"a"), i + 1);
        }
        store.record("b", bytes(b"b"), 100);
        store.record("c", bytes(b"c"), 100);
        // "a" is the oldest recording: a fourth key must evict it first.
        store.record("d", bytes(b"d"), 100);
        assert!(store.get("a").is_none(), "oldest-recorded key evicts first");
        for k in ["b", "c", "d"] {
            assert!(store.get(k).is_some(), "{k} must survive");
        }
        let inner = store.inner.lock().unwrap();
        assert!(inner.entries.len() <= 3);
    }

    /// A refreshed key's old slot is a tombstone; refreshing must keep
    /// the entry alive through evictions driven by later keys.
    #[test]
    fn rerecording_refreshes_a_keys_eviction_slot() {
        let store = StaleStore::new(2);
        store.record("x", bytes(b"1"), 1);
        store.record("y", bytes(b"1"), 1);
        store.record("x", bytes(b"2"), 2); // refresh: x now newer than y
        store.record("z", bytes(b"1"), 1); // evicts y, not x
        assert!(store.get("y").is_none());
        assert_eq!(store.get("x").map(|(v, _)| v.to_vec()), Some(b"2".to_vec()));
        assert!(store.get("z").is_some());
    }
}
