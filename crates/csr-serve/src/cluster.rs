//! Cluster mode: consistent-hash routing, peer forwarding, and hot-key
//! replication over the single-node server and clients.
//!
//! # Model
//!
//! A cluster is a fixed membership list of [`ClusterNode`]s, each a
//! `(id, addr)` pair. Every node and every client builds the *same*
//! [`Ring`] over the node **ids** (a pure function of the membership,
//! the virtual-node count, and a seed), so ownership is agreed upon
//! without any coordination protocol. The `id`/`addr` split matters for
//! fault injection: a chaos proxy can front a node's `addr` while the
//! ring keeps hashing its stable `id`.
//!
//! Three mechanisms share that ring:
//!
//! * **Server-side peer forwarding** ([`PeerRouter`]): a node that
//!   receives a `GET` for a key it does not own fetches the value from
//!   the owner over the internal `FGET` verb — **one hop max**: an
//!   `FGET` is always answered locally, never re-forwarded, never
//!   `MOVED`, so forwarding cannot loop. The forwarded fetch is timed
//!   and charged as the entry's miss cost, so the cost-sensitive
//!   policies rank peer-filled entries (one loopback hop, ~10²µs) below
//!   origin-filled ones (~10³-10⁴µs) and evict them first — the paper's
//!   non-uniform miss-cost regime arising naturally from topology.
//!   Forwarded values are cached locally, which *is* the hot-key
//!   replication mechanism: the next `GET` for that key on this node is
//!   a local hit. When the owner is unreachable, the node falls back to
//!   its own origin fetch — availability under partition — and when
//!   forwarding is disabled it replies `MOVED <addr>` instead.
//!
//! * **Client-side routing** ([`ClusterClient`]): each key's `GET` goes
//!   to its ring owner; a sampled count-min sketch ([`FreqSketch`])
//!   spots hot keys and fans their reads round-robin across the key's
//!   first R replicas (exploiting the server-side replication above);
//!   nodes that fail ops are marked unhealthy and traffic re-routes to
//!   the next replica in ring order until they recover.
//!
//! * **Coherence (best effort)**: `SET` stores on the owner and then
//!   broadcasts a `DEL` to every other node so previously forwarded
//!   copies cannot serve the old value; `DEL` broadcasts everywhere.
//!   This is cache-aside semantics, not a consistency protocol — a
//!   racing forward can still resurrect a just-overwritten value until
//!   the next write.

use crate::client::{Client, FailoverClient, FailoverConfig, Moved, OriginError, Timeouts, Value};
use crate::resilience::{mix64, BackoffSchedule};
use crate::ring::Ring;
use csr_obs::{Counter, Histogram, Registry, TraceContext};
use std::collections::HashSet;
use std::io;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// One cluster member: a stable ring identity plus the address to dial.
///
/// The ring hashes `id`, the sockets dial `addr`. They usually coincide,
/// but splitting them lets a chaos proxy (or a load balancer) front the
/// `addr` without changing key ownership.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterNode {
    /// Stable ring identity (what the consistent hash sees).
    pub id: String,
    /// Dialable address, e.g. `127.0.0.1:11321`.
    pub addr: String,
}

impl ClusterNode {
    /// A node whose ring id *is* its address — the common case.
    #[must_use]
    pub fn addr_only(addr: impl Into<String>) -> ClusterNode {
        let addr = addr.into();
        ClusterNode {
            id: addr.clone(),
            addr,
        }
    }

    /// Parses `id=addr` (split identity) or a bare `addr` (id = addr),
    /// the grammar of the `--peers` flag and loadgen's `--cluster`.
    #[must_use]
    pub fn parse(spec: &str) -> ClusterNode {
        match spec.split_once('=') {
            Some((id, addr)) => ClusterNode {
                id: id.to_owned(),
                addr: addr.to_owned(),
            },
            None => ClusterNode::addr_only(spec),
        }
    }
}

/// Parses a comma-separated list of [`ClusterNode::parse`] specs,
/// skipping empty items.
#[must_use]
pub fn parse_nodes(list: &str) -> Vec<ClusterNode> {
    list.split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(ClusterNode::parse)
        .collect()
}

// ---------------------------------------------------------------------------
// Hot-key detection

/// A sampled count-min sketch over key frequencies.
///
/// Four rows of `width` saturating `u32` counters; a key's estimate is
/// the minimum over its four row cells, so collisions only ever
/// *overestimate*. Observations are sampled (`sample_every`) to keep the
/// per-op cost at a hash most of the time, and the whole sketch halves
/// periodically ([`decay`](Self::decay)) so yesterday's hot key cools
/// off — the same aging idea the cache policies use for recency.
pub struct FreqSketch {
    rows: Vec<Vec<u32>>,
    mask: u64,
    sample_every: u32,
    seen: u32,
}

const SKETCH_ROWS: u64 = 4;

impl FreqSketch {
    /// A sketch with `width` counters per row (rounded up to a power of
    /// two, min 16), observing every `sample_every`-th call (`0` and `1`
    /// both mean every call).
    #[must_use]
    pub fn new(width: usize, sample_every: u32) -> FreqSketch {
        let width = width.max(16).next_power_of_two();
        FreqSketch {
            rows: (0..SKETCH_ROWS as usize)
                .map(|_| vec![0u32; width])
                .collect(),
            mask: width as u64 - 1,
            sample_every: sample_every.max(1),
            seen: 0,
        }
    }

    fn cell(&self, row: u64, key: &str) -> usize {
        let h = mix64(crate::backing::fnv1a(key), row + 1);
        usize::try_from(h & self.mask).expect("mask fits usize")
    }

    /// Counts one occurrence of `key` if this call is on the sampling
    /// cadence, then returns the (possibly updated) estimate.
    pub fn observe(&mut self, key: &str) -> u32 {
        self.seen = self.seen.wrapping_add(1);
        if self.seen.is_multiple_of(self.sample_every) {
            for row in 0..SKETCH_ROWS {
                let c = self.cell(row, key);
                let cell = &mut self.rows[usize::try_from(row).expect("tiny")][c];
                *cell = cell.saturating_add(1);
            }
        }
        self.estimate(key)
    }

    /// The current (over-)estimate of `key`'s sampled count.
    #[must_use]
    pub fn estimate(&self, key: &str) -> u32 {
        (0..SKETCH_ROWS)
            .map(|row| self.rows[usize::try_from(row).expect("tiny")][self.cell(row, key)])
            .min()
            .unwrap_or(0)
    }

    /// Halves every counter (aging).
    pub fn decay(&mut self) {
        for row in &mut self.rows {
            for cell in row {
                *cell /= 2;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Client side

/// Tuning for a [`ClusterClient`].
#[derive(Debug, Clone)]
pub struct ClusterClientConfig {
    /// Virtual nodes per member (must match the servers').
    pub vnodes: usize,
    /// Ring seed (must match the servers').
    pub seed: u64,
    /// Replicas a hot key's reads fan out across (1 disables fan-out).
    pub hot_replicas: usize,
    /// Sketch sampling cadence: observe every Nth `get`.
    pub hot_sample_every: u32,
    /// Sampled-count estimate at which a key is considered hot.
    pub hot_threshold: u32,
    /// Ops between sketch decays (halving); `0` disables decay.
    pub hot_decay_every: u64,
    /// Per-node failover tuning. Keep `max_attempts` small: in a
    /// cluster the healing path is *re-routing to another node*, not
    /// hammering a dead one — a partition then costs one tight timeout,
    /// not a retry storm.
    pub failover: FailoverConfig,
}

impl Default for ClusterClientConfig {
    /// 64 vnodes, fan hot keys across 2 replicas, hot = 16 sampled
    /// (1-in-8) hits per 4096-op window; 2 tight attempts per node.
    fn default() -> Self {
        ClusterClientConfig {
            vnodes: 64,
            seed: 0,
            hot_replicas: 2,
            hot_sample_every: 8,
            hot_threshold: 16,
            hot_decay_every: 4096,
            failover: FailoverConfig {
                timeouts: Timeouts {
                    connect: Duration::from_millis(1000),
                    read: Duration::from_millis(1000),
                    write: Duration::from_millis(1000),
                },
                backoff: BackoffSchedule {
                    base: Duration::from_millis(1),
                    cap: Duration::from_millis(20),
                },
                max_attempts: 2,
                probe_every: 4,
                seed: 0,
            },
        }
    }
}

/// The `csr_serve_cluster_*` families a [`ClusterClient`] feeds.
#[derive(Clone)]
pub struct ClusterMetrics {
    /// Keys whose sampled frequency crossed the hot threshold (counted
    /// once per hot episode, re-armed by decay).
    pub hot_key_promotions: Arc<Counter>,
    /// Ops served by a node other than the routed-to primary because of
    /// health (skips and mid-op failovers both count).
    pub reroutes: Arc<Counter>,
    /// Transitions of any node between healthy and unhealthy in the
    /// client's passive view.
    pub ring_flips: Arc<Counter>,
}

impl ClusterMetrics {
    /// Registers the cluster-client families in `registry`.
    #[must_use]
    pub fn new(registry: &Registry) -> Self {
        ClusterMetrics {
            hot_key_promotions: registry.counter(
                "csr_serve_cluster_hot_key_promotions_total",
                "Keys promoted to hot (reads fan out across replicas)",
                &[],
            ),
            reroutes: registry.counter(
                "csr_serve_cluster_reroutes_total",
                "Ops re-routed away from their primary node by passive health",
                &[],
            ),
            ring_flips: registry.counter(
                "csr_serve_cluster_ring_flips_total",
                "Node health transitions observed by the cluster client",
                &[],
            ),
        }
    }
}

/// A cluster-aware client: consistent-hash routing with hot-key fan-out
/// and partition-aware re-routing, one [`FailoverClient`] per node.
///
/// Reads route to the key's ring owner (or, for hot keys, round-robin
/// across its first R replicas); a node that fails an op is marked
/// unhealthy and subsequent reads prefer the next replicas in ring
/// order until it succeeds again. `MOVED` redirects are followed once.
/// Writes go to the owner, with best-effort `DEL` broadcast to the
/// other nodes so stale forwarded copies cannot linger (see the module
/// docs for the coherence caveats).
pub struct ClusterClient {
    ring: Ring,
    nodes: Vec<ClusterNode>,
    clients: Vec<FailoverClient>,
    /// Passive per-node health from this client's own op outcomes
    /// (distinct from each `FailoverClient`'s endpoint health: re-routing
    /// must not wait for a node's internal retries to exhaust).
    health: Vec<bool>,
    sketch: FreqSketch,
    /// Keys currently counted as promoted (cleared on decay so a
    /// still-hot key re-promotes once per window).
    hot_now: HashSet<String>,
    config: ClusterClientConfig,
    metrics: Option<ClusterMetrics>,
    ops: u64,
    /// Round-robin cursor for hot-key replica fan-out.
    rr: u64,
}

impl ClusterClient {
    /// A client over `nodes` (deduplicated by id; at least one required).
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is empty after deduplication.
    #[must_use]
    pub fn new(nodes: Vec<ClusterNode>, config: ClusterClientConfig) -> ClusterClient {
        let mut uniq: Vec<ClusterNode> = Vec::with_capacity(nodes.len());
        for n in nodes {
            if !uniq.iter().any(|u| u.id == n.id) {
                uniq.push(n);
            }
        }
        assert!(!uniq.is_empty(), "a ClusterClient needs at least one node");
        let ring = Ring::new(
            uniq.iter().map(|n| n.id.clone()).collect(),
            config.vnodes,
            config.seed,
        );
        let clients = uniq
            .iter()
            .map(|n| FailoverClient::new(vec![n.addr.clone()], config.failover))
            .collect();
        let health = vec![true; uniq.len()];
        ClusterClient {
            ring,
            clients,
            health,
            sketch: FreqSketch::new(1024, config.hot_sample_every),
            hot_now: HashSet::new(),
            nodes: uniq,
            config,
            metrics: None,
            ops: 0,
            rr: 0,
        }
    }

    /// Attaches the `csr_serve_cluster_*` counters this client feeds.
    #[must_use]
    pub fn with_metrics(mut self, metrics: ClusterMetrics) -> ClusterClient {
        self.metrics = Some(metrics);
        self
    }

    /// The cluster membership, in ring order.
    #[must_use]
    pub fn nodes(&self) -> &[ClusterNode] {
        &self.nodes
    }

    /// The node index owning `key` on the shared ring.
    #[must_use]
    pub fn owner_index(&self, key: &str) -> usize {
        self.ring.owner_index(key)
    }

    /// Per-node `STATS` tables (node index, table) from every node that
    /// answers — the cluster-wide aggregation loadgen sums.
    pub fn stats_all(&mut self) -> Vec<(usize, Vec<(String, String)>)> {
        (0..self.clients.len())
            .filter_map(|i| self.clients[i].stats().ok().map(|t| (i, t)))
            .collect()
    }

    /// Looks `key` up (idempotent; re-routes across nodes).
    ///
    /// # Errors
    ///
    /// The last node's error once every candidate failed, or a
    /// passed-through [`OriginError`] from a node that answered.
    pub fn get(&mut self, key: &str) -> io::Result<Option<Vec<u8>>> {
        Ok(self.get_value(key)?.map(|v| v.data))
    }

    /// Looks `key` up with its reply flags (idempotent; re-routes).
    ///
    /// # Errors
    ///
    /// As [`get`](Self::get).
    pub fn get_value(&mut self, key: &str) -> io::Result<Option<Value>> {
        self.get_value_traced(key, None)
    }

    /// [`get_value`](Self::get_value) with an optional trace context on
    /// the request line — the serving node joins (or starts) that
    /// distributed trace and always retains it.
    ///
    /// # Errors
    ///
    /// As [`get`](Self::get).
    pub fn get_value_traced(
        &mut self,
        key: &str,
        trace: Option<TraceContext>,
    ) -> io::Result<Option<Value>> {
        self.tick();
        let primary = self.route(key);
        let candidates = self.candidates(key, primary);
        let mut last: Option<io::Error> = None;
        for &i in &candidates {
            if i != primary {
                self.count_reroute();
            }
            match self.clients[i].get_value_traced(key, trace) {
                Ok(v) => {
                    self.mark(i, true);
                    return Ok(v);
                }
                Err(e) if Moved::from_io(&e).is_some() => {
                    // The node is healthy (it answered) but forwarding is
                    // off; follow the redirect once.
                    self.mark(i, true);
                    let addr = Moved::from_io(&e).expect("checked").addr.clone();
                    match self.follow_moved(&addr, key) {
                        Ok(v) => return Ok(v),
                        Err(e2) => last = Some(e2),
                    }
                }
                Err(e) if is_origin_error(&e) => {
                    // The node answered inside intact framing: the origin
                    // is the problem, not the route.
                    self.mark(i, true);
                    return Err(e);
                }
                Err(e) => {
                    self.mark(i, false);
                    last = Some(e);
                }
            }
        }
        Err(last.unwrap_or_else(|| io::Error::other("no cluster node usable")))
    }

    /// Stores `key -> value` on its owner, then broadcasts a best-effort
    /// `DEL` to every other node so previously forwarded copies of the
    /// old value cannot be served (cache-aside invalidation).
    ///
    /// # Errors
    ///
    /// The owner's error; invalidation failures are swallowed (they only
    /// widen the staleness window the module docs already grant).
    pub fn set(&mut self, key: &str, value: &[u8]) -> io::Result<()> {
        self.tick();
        let owner = self.ring.owner_index(key);
        let result = self.clients[owner].set(key, value);
        self.mark(owner, result.is_ok());
        if result.is_ok() {
            for i in 0..self.clients.len() {
                if i != owner {
                    let _ = self.clients[i].del(key);
                }
            }
        }
        result
    }

    /// Deletes `key` on every node (owner and any forwarded copies);
    /// `true` if any node held it.
    ///
    /// # Errors
    ///
    /// The owner's error, if the owner failed; other nodes' failures are
    /// swallowed.
    pub fn del(&mut self, key: &str) -> io::Result<bool> {
        self.tick();
        let owner = self.ring.owner_index(key);
        let mut any = false;
        let mut owner_err: Option<io::Error> = None;
        for i in 0..self.clients.len() {
            match self.clients[i].del(key) {
                Ok(deleted) => {
                    self.mark(i, true);
                    any |= deleted;
                }
                Err(e) => {
                    self.mark(i, false);
                    if i == owner {
                        owner_err = Some(e);
                    }
                }
            }
        }
        match owner_err {
            Some(e) => Err(e),
            None => Ok(any),
        }
    }

    /// Closes all connections cleanly (best effort); the client remains
    /// usable.
    pub fn close(&mut self) {
        for c in &mut self.clients {
            c.close();
        }
    }

    /// Advances the op clock: sketch decay on its cadence.
    fn tick(&mut self) {
        self.ops += 1;
        if self.config.hot_decay_every > 0 && self.ops.is_multiple_of(self.config.hot_decay_every) {
            self.sketch.decay();
            self.hot_now.clear();
        }
    }

    /// The primary node for this `get`: the ring owner, or — for a hot
    /// key — a round-robin pick among its first R replicas.
    fn route(&mut self, key: &str) -> usize {
        let owner = self.ring.owner_index(key);
        if self.config.hot_replicas <= 1 || self.nodes.len() <= 1 {
            return owner;
        }
        let est = self.sketch.observe(key);
        if est < self.config.hot_threshold {
            return owner;
        }
        if self.hot_now.insert(key.to_owned()) {
            if let Some(m) = &self.metrics {
                m.hot_key_promotions.inc();
            }
        }
        let replicas = self.ring.replicas(key, self.config.hot_replicas);
        let pick = replicas[usize::try_from(self.rr % replicas.len() as u64).expect("small")];
        self.rr += 1;
        pick
    }

    /// Candidate nodes for a read, primary first, then the key's ring
    /// order — known-healthy nodes before known-unhealthy ones (which
    /// stay listed: when everything is down we still must try).
    fn candidates(&self, key: &str, primary: usize) -> Vec<usize> {
        let mut order = self.ring.replicas(key, self.nodes.len());
        order.retain(|&i| i != primary);
        order.insert(0, primary);
        let mut healthy: Vec<usize> = order.iter().copied().filter(|&i| self.health[i]).collect();
        let unhealthy = order.into_iter().filter(|&i| !self.health[i]);
        healthy.extend(unhealthy);
        healthy
    }

    /// Follows a `MOVED <addr>` redirect once: straight to `addr`, no
    /// further redirects accepted (mirrors the server's one-hop rule).
    fn follow_moved(&mut self, addr: &str, key: &str) -> io::Result<Option<Value>> {
        let Some(i) = self.nodes.iter().position(|n| n.addr == addr) else {
            return Err(io::Error::other(format!(
                "MOVED to {addr}, which is not in the cluster membership"
            )));
        };
        match self.clients[i].get_value(key) {
            Ok(v) => {
                self.mark(i, true);
                Ok(v)
            }
            Err(e) if Moved::from_io(&e).is_some() => {
                // A second redirect would be a routing disagreement loop.
                self.mark(i, true);
                Err(io::Error::other(format!(
                    "MOVED twice for {key:?}: ring disagreement between nodes"
                )))
            }
            Err(e) => {
                self.mark(i, !is_transport_error(&e));
                Err(e)
            }
        }
    }

    fn mark(&mut self, i: usize, healthy: bool) {
        if self.health[i] != healthy {
            self.health[i] = healthy;
            if let Some(m) = &self.metrics {
                m.ring_flips.inc();
            }
        }
    }

    fn count_reroute(&self) {
        if let Some(m) = &self.metrics {
            m.reroutes.inc();
        }
    }
}

fn is_origin_error(e: &io::Error) -> bool {
    e.get_ref().is_some_and(|inner| inner.is::<OriginError>())
}

fn is_transport_error(e: &io::Error) -> bool {
    !is_origin_error(e) && Moved::from_io(e).is_none()
}

// ---------------------------------------------------------------------------
// Server side

/// Server-side cluster configuration (one per node).
#[derive(Debug, Clone)]
pub struct PeerConfig {
    /// This node's ring id. Empty string: substitute the bound listen
    /// address at startup (the common single-machine case).
    pub node_id: String,
    /// The full membership, **including this node** (matched by id).
    pub nodes: Vec<ClusterNode>,
    /// Virtual nodes per member (must match clients and peers).
    pub vnodes: usize,
    /// Ring seed (must match clients and peers).
    pub seed: u64,
    /// `true`: answer non-owned `GET`s by forwarding to the owner;
    /// `false`: reply `MOVED <owner addr>` and let the client re-route.
    pub forward: bool,
    /// Socket deadlines for peer (`FGET`) connections — tight, so a
    /// partitioned owner costs one bounded timeout before the local
    /// origin fallback.
    pub timeouts: Timeouts,
    /// Pooled idle connections kept per peer.
    pub max_pool: usize,
}

impl Default for PeerConfig {
    /// Forwarding on; 500 ms peer deadlines; 4 pooled conns per peer.
    fn default() -> Self {
        PeerConfig {
            node_id: String::new(),
            nodes: Vec::new(),
            vnodes: 64,
            seed: 0,
            forward: true,
            timeouts: Timeouts {
                connect: Duration::from_millis(500),
                read: Duration::from_millis(500),
                write: Duration::from_millis(500),
            },
            max_pool: 4,
        }
    }
}

/// A node's view of the ring plus pooled connections to its peers: the
/// machinery behind server-side `GET` forwarding.
pub struct PeerRouter {
    ring: Ring,
    nodes: Vec<ClusterNode>,
    self_index: usize,
    pools: Vec<Mutex<Vec<Client>>>,
    timeouts: Timeouts,
    max_pool: usize,
    /// Whether non-owned `GET`s forward (`true`) or `MOVED` (`false`).
    pub forward: bool,
}

impl PeerRouter {
    /// Builds the router for `config` (nodes deduplicated by id).
    ///
    /// # Panics
    ///
    /// Panics if the membership is empty or does not contain
    /// `config.node_id`.
    #[must_use]
    pub fn new(config: &PeerConfig) -> PeerRouter {
        let mut uniq: Vec<ClusterNode> = Vec::with_capacity(config.nodes.len());
        for n in &config.nodes {
            if !uniq.iter().any(|u| u.id == n.id) {
                uniq.push(n.clone());
            }
        }
        assert!(!uniq.is_empty(), "cluster membership is empty");
        let self_index = uniq
            .iter()
            .position(|n| n.id == config.node_id)
            .unwrap_or_else(|| {
                panic!(
                    "node id {:?} is not in the cluster membership",
                    config.node_id
                )
            });
        let ring = Ring::new(
            uniq.iter().map(|n| n.id.clone()).collect(),
            config.vnodes,
            config.seed,
        );
        let pools = uniq.iter().map(|_| Mutex::new(Vec::new())).collect();
        PeerRouter {
            ring,
            pools,
            self_index,
            nodes: uniq,
            timeouts: config.timeouts,
            max_pool: config.max_pool,
            forward: config.forward,
        }
    }

    /// This node's ring id.
    #[must_use]
    pub fn node_id(&self) -> &str {
        &self.nodes[self.self_index].id
    }

    /// The cluster membership, deduplicated, in configuration order.
    #[must_use]
    pub fn nodes(&self) -> &[ClusterNode] {
        &self.nodes
    }

    /// The owner of `key`, or `None` when this node owns it.
    #[must_use]
    pub fn owner_of(&self, key: &str) -> Option<(usize, &ClusterNode)> {
        let idx = self.ring.owner_index(key);
        (idx != self.self_index).then(|| (idx, &self.nodes[idx]))
    }

    /// Fetches `key` from the owner peer over `FGET` (one pooled
    /// connection per call; the connection returns to the pool unless it
    /// failed at the transport level). A trace context, when given, rides
    /// the `FGET` line as its `TRACE` token so the peer's spans join the
    /// caller's trace.
    ///
    /// # Errors
    ///
    /// Transport failures and the peer's own `ORIGIN_ERROR` — either
    /// way the caller falls back to its local origin.
    pub fn fetch_from_peer(
        &self,
        peer: usize,
        key: &str,
        trace: Option<TraceContext>,
    ) -> io::Result<Option<Value>> {
        let pooled = self.pools[peer].lock().expect("peer pool poisoned").pop();
        let mut client = match pooled {
            Some(c) => c,
            None => Client::connect_with(self.nodes[peer].addr.as_str(), &self.timeouts)?,
        };
        match client.forward_get_traced(key, trace) {
            Ok(v) => {
                self.put_back(peer, client);
                Ok(v)
            }
            Err(e) if is_origin_error(&e) => {
                // Framing intact: the connection survives the error.
                self.put_back(peer, client);
                Err(e)
            }
            Err(e) => Err(e), // poisoned connection: drop it
        }
    }

    fn put_back(&self, peer: usize, client: Client) {
        let mut pool = self.pools[peer].lock().expect("peer pool poisoned");
        if pool.len() < self.max_pool {
            pool.push(client);
        }
    }
}

/// The server-side `csr_serve_cluster_*` metric families.
pub struct ClusterServerMetrics {
    /// Non-owned `GET`s answered by forwarding to the owner peer.
    pub forwards: Arc<Counter>,
    /// Forwards that failed and fell back to the local origin.
    pub forward_fallbacks: Arc<Counter>,
    /// Non-owned `GET`s answered with `MOVED` (forwarding disabled).
    pub moved: Arc<Counter>,
    /// Measured one-hop forward latency in µs (charged as miss cost).
    pub forward_us: Arc<Histogram>,
}

impl ClusterServerMetrics {
    /// Registers the families in `registry`.
    #[must_use]
    pub fn new(registry: &Registry) -> Self {
        ClusterServerMetrics {
            forwards: registry.counter(
                "csr_serve_cluster_forwards_total",
                "Non-owned GETs answered by forwarding to the owner peer",
                &[],
            ),
            forward_fallbacks: registry.counter(
                "csr_serve_cluster_forward_fallbacks_total",
                "Peer forwards that failed and fell back to the local origin",
                &[],
            ),
            moved: registry.counter(
                "csr_serve_cluster_moved_total",
                "Non-owned GETs answered with MOVED (forwarding disabled)",
                &[],
            ),
            forward_us: registry.histogram(
                "csr_serve_cluster_forward_us",
                "Measured one-hop peer fetch latency in microseconds (charged as miss cost)",
                &[],
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_specs_parse_both_grammars() {
        assert_eq!(
            ClusterNode::parse("n1=127.0.0.1:7001"),
            ClusterNode {
                id: "n1".into(),
                addr: "127.0.0.1:7001".into()
            }
        );
        assert_eq!(
            ClusterNode::parse("127.0.0.1:7001"),
            ClusterNode::addr_only("127.0.0.1:7001")
        );
        let nodes = parse_nodes("a=1:1, b=2:2,,3:3");
        assert_eq!(nodes.len(), 3);
        assert_eq!(nodes[2].id, "3:3");
    }

    #[test]
    fn sketch_estimates_grow_and_decay() {
        let mut s = FreqSketch::new(64, 1); // unsampled: every observe counts
        for _ in 0..10 {
            s.observe("hot");
        }
        assert!(s.estimate("hot") >= 10);
        assert_eq!(s.estimate("never-seen"), 0, "min over rows bounds noise");
        s.decay();
        assert!(s.estimate("hot") >= 5);
        assert!(s.estimate("hot") < 10);
    }

    #[test]
    fn sketch_sampling_counts_a_fraction() {
        let mut s = FreqSketch::new(64, 4);
        for _ in 0..100 {
            s.observe("k");
        }
        let est = s.estimate("k");
        assert!(est >= 25, "every 4th observation counts, got {est}");
        assert!(est <= 30, "sampling must not overcount 100 by much: {est}");
    }

    #[test]
    fn router_identifies_owned_and_foreign_keys() {
        let nodes: Vec<ClusterNode> = (1..=4)
            .map(|i| ClusterNode::addr_only(format!("10.0.0.{i}:7000")))
            .collect();
        let mk = |idx: usize| {
            PeerRouter::new(&PeerConfig {
                node_id: nodes[idx].id.clone(),
                nodes: nodes.clone(),
                ..PeerConfig::default()
            })
        };
        let routers: Vec<PeerRouter> = (0..4).map(mk).collect();
        let mut foreign = 0;
        for k in 0..200 {
            let key = format!("key-{k}");
            // Exactly one router owns each key; the rest agree on who.
            let owners: Vec<Option<(usize, &ClusterNode)>> =
                routers.iter().map(|r| r.owner_of(&key)).collect();
            let selfish = owners.iter().filter(|o| o.is_none()).count();
            assert_eq!(selfish, 1, "exactly one owner for {key}");
            let named: HashSet<&str> = owners
                .iter()
                .flatten()
                .map(|(_, n)| n.id.as_str())
                .collect();
            assert_eq!(named.len(), 1, "everyone names the same owner for {key}");
            foreign += owners.iter().filter(|o| o.is_some()).count();
        }
        assert_eq!(foreign, 600);
    }

    #[test]
    #[should_panic(expected = "not in the cluster membership")]
    fn router_rejects_an_unknown_self_id() {
        let _ = PeerRouter::new(&PeerConfig {
            node_id: "ghost".into(),
            nodes: vec![ClusterNode::addr_only("1:1")],
            ..PeerConfig::default()
        });
    }

    #[test]
    fn cluster_client_routes_deterministically() {
        let nodes: Vec<ClusterNode> = (1..=4)
            .map(|i| ClusterNode::addr_only(format!("10.0.0.{i}:7000")))
            .collect();
        let a = ClusterClient::new(nodes.clone(), ClusterClientConfig::default());
        let b = ClusterClient::new(nodes, ClusterClientConfig::default());
        for k in 0..100 {
            let key = format!("key-{k}");
            assert_eq!(a.owner_index(&key), b.owner_index(&key));
        }
    }
}
