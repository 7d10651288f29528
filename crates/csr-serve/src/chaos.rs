//! Deterministic network fault injection: a seeded in-process TCP proxy.
//!
//! [`ChaosProxy`] sits between a client and a server on loopback and
//! injects faults per connection from a **seeded plan**: immediate
//! connection resets, mid-stream resets and truncations, single-byte
//! corruption, stalls (slowloris in either direction), and timed full
//! partitions ([`set_partitioned`](ChaosProxy::set_partitioned)). Every
//! injected fault increments a counter, so tests assert *what actually
//! happened* — e.g. that the client's reconnect count matches the number
//! of connections the proxy killed — instead of assuming the chaos
//! fired.
//!
//! # Determinism
//!
//! Connection `n`'s fault plan is drawn from
//! `SplitMix64::new(mix64(seed, n))` in a fixed order, and every fault
//! position is an **absolute byte offset** into the direction's stream,
//! so the injected-fault sequence depends only on `(seed, config, the
//! bytes relayed)` — never on TCP chunking or thread timing. Same seed +
//! same workload ⇒ same faults, the property the chaos determinism tests
//! pin down.
//!
//! # Scope
//!
//! This is a *test* tool for this crate's own robustness claims — it
//! relays one TCP hop on loopback with blocking threads (two per
//! connection), which is plenty for the loadgen's worker counts and
//! keeps the implementation dependency-free.

use crate::resilience::mix64;
use mem_trace::rng::SplitMix64;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Fault rates and shapes for a [`ChaosProxy`]. All rates are
/// per-connection probabilities in `[0, 1]`; the default is a transparent
/// proxy (every rate zero).
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Seed for the per-connection fault plans.
    pub seed: u64,
    /// Probability a connection is reset immediately on accept, before
    /// any byte is relayed.
    pub reset_rate: f64,
    /// Probability the server→client stream is cut (connection killed)
    /// at a random byte offset mid-reply.
    pub mid_reset_rate: f64,
    /// Probability one relayed byte is corrupted (XOR with a nonzero
    /// mask) at a random offset — usually server→client, sometimes
    /// client→server.
    pub corrupt_rate: f64,
    /// Probability the server→client stream is silently truncated at a
    /// random offset (bytes dropped, then the connection closed).
    pub truncate_rate: f64,
    /// Probability the relay stalls ([`stall`](Self::stall) long) at a
    /// random offset — a mid-stream slowloris in either direction.
    pub stall_rate: f64,
    /// How long a stall pauses the relay.
    pub stall: Duration,
    /// Fault offsets are drawn uniformly from `[0, fault_window)` bytes
    /// into the direction's stream; faults beyond the stream's actual
    /// length simply never fire.
    pub fault_window: u64,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seed: 0,
            reset_rate: 0.0,
            mid_reset_rate: 0.0,
            corrupt_rate: 0.0,
            truncate_rate: 0.0,
            stall_rate: 0.0,
            stall: Duration::from_millis(100),
            fault_window: 2048,
        }
    }
}

/// A snapshot of every fault the proxy has injected so far
/// ([`ChaosProxy::counters`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChaosSnapshot {
    /// Connections accepted and relayed (excludes partition rejects).
    pub connections: u64,
    /// Connections reset immediately on accept.
    pub resets: u64,
    /// Connections cut mid-stream by a planned mid-reply reset.
    pub mid_resets: u64,
    /// Connections cut mid-stream by a planned truncation.
    pub truncations: u64,
    /// Bytes corrupted (one per planned corruption that fired).
    pub corruptions: u64,
    /// Planned stalls that fired.
    pub stalls: u64,
    /// Connections dropped on accept while partitioned.
    pub partition_rejects: u64,
    /// Live connections severed by entering a partition.
    pub partition_cuts: u64,
    /// Accepted connections dropped because the upstream connect failed.
    pub upstream_failures: u64,
}

impl ChaosSnapshot {
    /// Total faults injected, across every class.
    #[must_use]
    pub fn injected_total(&self) -> u64 {
        self.resets
            + self.mid_resets
            + self.truncations
            + self.corruptions
            + self.stalls
            + self.partition_rejects
            + self.partition_cuts
            + self.upstream_failures
    }
}

#[derive(Default)]
struct Counters {
    connections: AtomicU64,
    resets: AtomicU64,
    mid_resets: AtomicU64,
    truncations: AtomicU64,
    corruptions: AtomicU64,
    stalls: AtomicU64,
    partition_rejects: AtomicU64,
    partition_cuts: AtomicU64,
    upstream_failures: AtomicU64,
}

impl Counters {
    fn snapshot(&self) -> ChaosSnapshot {
        let get = |c: &AtomicU64| c.load(Ordering::Acquire);
        ChaosSnapshot {
            connections: get(&self.connections),
            resets: get(&self.resets),
            mid_resets: get(&self.mid_resets),
            truncations: get(&self.truncations),
            corruptions: get(&self.corruptions),
            stalls: get(&self.stalls),
            partition_rejects: get(&self.partition_rejects),
            partition_cuts: get(&self.partition_cuts),
            upstream_failures: get(&self.upstream_failures),
        }
    }
}

/// How a planned mid-stream cut presents to the peer.
#[derive(Clone, Copy)]
enum Cut {
    /// Forward everything before the offset, then kill the connection.
    Reset,
    /// Same wire behavior, counted separately: models a reply truncated
    /// in flight.
    Truncate,
}

/// One direction's fault plan; every position is an absolute byte offset
/// into this direction's relayed stream.
#[derive(Clone, Copy)]
struct DirPlan {
    corrupt_at: Option<(u64, u8)>,
    cut_at: Option<(u64, Cut)>,
    stall_at: Option<u64>,
    stall: Duration,
}

impl DirPlan {
    /// Drops faults that a cut earlier in the stream makes unreachable,
    /// so counters stay chunking-independent (a stall planned after the
    /// cut offset must never fire, even when both land in one read).
    fn normalize(mut self) -> Self {
        if let Some((cut, _)) = self.cut_at {
            if self.corrupt_at.is_some_and(|(at, _)| at >= cut) {
                self.corrupt_at = None;
            }
            if self.stall_at.is_some_and(|at| at >= cut) {
                self.stall_at = None;
            }
        }
        self
    }
}

struct ConnPlan {
    reset: bool,
    c2s: DirPlan,
    s2c: DirPlan,
}

impl ConnPlan {
    /// Draws connection `n`'s plan. Every coin and value is drawn
    /// unconditionally, in a fixed order, so one fault class's rate
    /// never shifts another's positions.
    fn draw(rng: &mut SplitMix64, cfg: &ChaosConfig) -> Self {
        let window = cfg.fault_window.max(1);
        let reset = rng.chance(cfg.reset_rate);
        let mid_reset = rng.chance(cfg.mid_reset_rate);
        let mid_reset_at = rng.below(window);
        let corrupt = rng.chance(cfg.corrupt_rate);
        let corrupt_at = rng.below(window);
        #[allow(clippy::cast_possible_truncation)]
        let corrupt_mask = (1 + rng.below(255)) as u8;
        let corrupt_c2s = rng.chance(0.25);
        let truncate = rng.chance(cfg.truncate_rate);
        let truncate_at = rng.below(window);
        let stall = rng.chance(cfg.stall_rate);
        let stall_at = rng.below(window);
        let stall_c2s = rng.chance(0.25);

        // Mid-reply cuts hit the server→client stream; when both a
        // mid-reset and a truncation are drawn, the earlier offset wins.
        let cut_at = match (mid_reset, truncate) {
            (true, true) if truncate_at < mid_reset_at => Some((truncate_at, Cut::Truncate)),
            (true, _) => Some((mid_reset_at, Cut::Reset)),
            (false, true) => Some((truncate_at, Cut::Truncate)),
            (false, false) => None,
        };
        let mut c2s = DirPlan {
            corrupt_at: None,
            cut_at: None,
            stall_at: None,
            stall: cfg.stall,
        };
        let mut s2c = DirPlan { cut_at, ..c2s };
        let corrupt_dir = if corrupt_c2s { &mut c2s } else { &mut s2c };
        corrupt_dir.corrupt_at = corrupt.then_some((corrupt_at, corrupt_mask));
        let stall_dir = if stall_c2s { &mut c2s } else { &mut s2c };
        stall_dir.stall_at = stall.then_some(stall_at);
        ConnPlan {
            reset,
            c2s: c2s.normalize(),
            s2c: s2c.normalize(),
        }
    }
}

/// Live connections registered for severing: `(conn_index, client-side
/// socket, upstream-side socket)`.
type ConnRegistry = Arc<Mutex<Vec<(u64, TcpStream, TcpStream)>>>;

/// A seeded fault-injecting TCP proxy on loopback. See the [module
/// docs](self) for the fault model.
///
/// Start one with [`start`](Self::start), point clients at
/// [`addr`](Self::addr), and read back what it did with
/// [`counters`](Self::counters). Dropping the proxy severs every live
/// connection and joins its threads.
pub struct ChaosProxy {
    addr: SocketAddr,
    upstream: Arc<Mutex<SocketAddr>>,
    partitioned: Arc<AtomicBool>,
    shutdown: Arc<AtomicBool>,
    counters: Arc<Counters>,
    conns: ConnRegistry,
    supervisors: Arc<Mutex<Vec<JoinHandle<()>>>>,
    acceptor: Option<JoinHandle<()>>,
}

impl ChaosProxy {
    /// Binds a listener on `127.0.0.1:0` and starts relaying to
    /// `upstream` with `config`'s faults.
    ///
    /// # Errors
    ///
    /// Binding the listener can fail.
    pub fn start(upstream: SocketAddr, config: ChaosConfig) -> io::Result<ChaosProxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let upstream = Arc::new(Mutex::new(upstream));
        let partitioned = Arc::new(AtomicBool::new(false));
        let shutdown = Arc::new(AtomicBool::new(false));
        let counters = Arc::new(Counters::default());
        let conns = Arc::new(Mutex::new(Vec::new()));
        let supervisors = Arc::new(Mutex::new(Vec::new()));
        let acceptor = {
            let upstream = Arc::clone(&upstream);
            let partitioned = Arc::clone(&partitioned);
            let shutdown = Arc::clone(&shutdown);
            let counters = Arc::clone(&counters);
            let conns = Arc::clone(&conns);
            let supervisors = Arc::clone(&supervisors);
            std::thread::spawn(move || {
                accept_loop(
                    &listener,
                    &config,
                    &upstream,
                    &partitioned,
                    &shutdown,
                    &counters,
                    &conns,
                    &supervisors,
                );
            })
        };
        Ok(ChaosProxy {
            addr,
            upstream,
            partitioned,
            shutdown,
            counters,
            conns,
            supervisors,
            acceptor: Some(acceptor),
        })
    }

    /// The proxy's listen address — point clients here.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Everything injected so far.
    #[must_use]
    pub fn counters(&self) -> ChaosSnapshot {
        self.counters.snapshot()
    }

    /// Enters (`true`) or leaves (`false`) a full partition. Entering
    /// severs every live connection (counted as
    /// [`partition_cuts`](ChaosSnapshot::partition_cuts)) and drops new
    /// ones on accept (counted as
    /// [`partition_rejects`](ChaosSnapshot::partition_rejects)) until
    /// the partition is lifted.
    pub fn set_partitioned(&self, on: bool) {
        self.partitioned.store(on, Ordering::Release);
        if on {
            for (_, client, server) in self.conns.lock().expect("chaos conns poisoned").iter() {
                sever(client, server);
                self.counters.partition_cuts.fetch_add(1, Ordering::AcqRel);
            }
        }
    }

    /// Re-points the proxy at a new upstream address — e.g. a restarted
    /// server on a different port. Only affects connections accepted
    /// after the call.
    pub fn set_upstream(&self, upstream: SocketAddr) {
        *self.upstream.lock().expect("chaos upstream poisoned") = upstream;
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        for (_, client, server) in self.conns.lock().expect("chaos conns poisoned").iter() {
            sever(client, server);
        }
        // Wake the acceptor out of its blocking accept().
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
        let handles: Vec<_> = self
            .supervisors
            .lock()
            .expect("chaos supervisors poisoned")
            .drain(..)
            .collect();
        for handle in handles {
            let _ = handle.join();
        }
    }
}

fn sever(client: &TcpStream, server: &TcpStream) {
    let _ = client.shutdown(Shutdown::Both);
    let _ = server.shutdown(Shutdown::Both);
}

#[allow(clippy::too_many_arguments)]
fn accept_loop(
    listener: &TcpListener,
    config: &ChaosConfig,
    upstream: &Mutex<SocketAddr>,
    partitioned: &AtomicBool,
    shutdown: &AtomicBool,
    counters: &Arc<Counters>,
    conns: &ConnRegistry,
    supervisors: &Mutex<Vec<JoinHandle<()>>>,
) {
    let mut conn_index = 0u64;
    loop {
        let (client, _) = match listener.accept() {
            Ok(conn) => conn,
            Err(_) if shutdown.load(Ordering::Acquire) => return,
            Err(_) => continue,
        };
        if shutdown.load(Ordering::Acquire) {
            return;
        }
        if partitioned.load(Ordering::Acquire) {
            counters.partition_rejects.fetch_add(1, Ordering::AcqRel);
            continue; // dropping the socket closes it
        }
        let n = conn_index;
        conn_index += 1;
        let mut rng = SplitMix64::new(mix64(config.seed, n));
        let plan = ConnPlan::draw(&mut rng, config);
        counters.connections.fetch_add(1, Ordering::AcqRel);
        if plan.reset {
            counters.resets.fetch_add(1, Ordering::AcqRel);
            continue; // dropped before any relay: the peer sees a dead conn
        }
        let upstream_addr = *upstream.lock().expect("chaos upstream poisoned");
        let server = match TcpStream::connect_timeout(&upstream_addr, Duration::from_secs(2)) {
            Ok(server) => server,
            Err(_) => {
                counters.upstream_failures.fetch_add(1, Ordering::AcqRel);
                continue;
            }
        };
        let _ = client.set_nodelay(true);
        let _ = server.set_nodelay(true);
        let (Ok(client_r), Ok(server_r)) = (client.try_clone(), server.try_clone()) else {
            continue;
        };
        conns
            .lock()
            .expect("chaos conns poisoned")
            .push((n, client, server));
        let supervisor = {
            let counters_a = Arc::clone(counters);
            let counters_b = Arc::clone(counters);
            let conns = Arc::clone(conns);
            std::thread::spawn(move || {
                let (Ok(server_w), Ok(client_w)) = (server_r.try_clone(), client_r.try_clone())
                else {
                    conns
                        .lock()
                        .expect("chaos conns poisoned")
                        .retain(|(id, ..)| *id != n);
                    return;
                };
                let c2s =
                    std::thread::spawn(move || relay(client_r, server_w, plan.c2s, &counters_a));
                let s2c =
                    std::thread::spawn(move || relay(server_r, client_w, plan.s2c, &counters_b));
                let _ = c2s.join();
                let _ = s2c.join();
                conns
                    .lock()
                    .expect("chaos conns poisoned")
                    .retain(|(id, ..)| *id != n);
            })
        };
        supervisors
            .lock()
            .expect("chaos supervisors poisoned")
            .push(supervisor);
    }
}

/// Relays one direction, applying the plan's faults at their absolute
/// byte offsets.
fn relay(mut from: TcpStream, mut to: TcpStream, plan: DirPlan, counters: &Counters) {
    let mut buf = [0u8; 2048];
    let mut offset = 0u64;
    let mut stalled = false;
    loop {
        let n = match from.read(&mut buf) {
            // EOF: propagate the half-close and let the other relay run.
            Ok(0) => {
                let _ = to.shutdown(Shutdown::Write);
                return;
            }
            Ok(n) => n,
            Err(_) => {
                sever(&from, &to);
                return;
            }
        };
        let chunk = &mut buf[..n];
        let end = offset + n as u64;
        if let Some(at) = plan.stall_at {
            if !stalled && at >= offset && at < end {
                stalled = true;
                counters.stalls.fetch_add(1, Ordering::AcqRel);
                std::thread::sleep(plan.stall);
            }
        }
        if let Some((at, mask)) = plan.corrupt_at {
            if at >= offset && at < end {
                #[allow(clippy::cast_possible_truncation)]
                let idx = (at - offset) as usize;
                chunk[idx] ^= mask;
                counters.corruptions.fetch_add(1, Ordering::AcqRel);
            }
        }
        if let Some((at, cut)) = plan.cut_at {
            if at < end {
                #[allow(clippy::cast_possible_truncation)]
                let keep = at.saturating_sub(offset) as usize;
                let _ = to.write_all(&chunk[..keep]);
                match cut {
                    Cut::Reset => counters.mid_resets.fetch_add(1, Ordering::AcqRel),
                    Cut::Truncate => counters.truncations.fetch_add(1, Ordering::AcqRel),
                };
                sever(&from, &to);
                return;
            }
        }
        if to.write_all(chunk).is_err() {
            sever(&from, &to);
            return;
        }
        offset = end;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    /// An echo server good for one connection: reads until EOF, echoing
    /// everything back.
    fn echo_server() -> (SocketAddr, JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind echo");
        let addr = listener.local_addr().expect("echo addr");
        let handle = std::thread::spawn(move || {
            let (mut conn, _) = match listener.accept() {
                Ok(conn) => conn,
                Err(_) => return,
            };
            let mut buf = [0u8; 1024];
            loop {
                match conn.read(&mut buf) {
                    Ok(0) | Err(_) => return,
                    Ok(n) => {
                        if conn.write_all(&buf[..n]).is_err() {
                            return;
                        }
                    }
                }
            }
        });
        (addr, handle)
    }

    #[test]
    fn transparent_proxy_relays_bytes_faithfully() {
        let (upstream, echo) = echo_server();
        let proxy = ChaosProxy::start(upstream, ChaosConfig::default()).expect("start proxy");
        let mut conn = TcpStream::connect(proxy.addr()).expect("connect");
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let payload: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
        conn.write_all(&payload).expect("write");
        let mut back = vec![0u8; payload.len()];
        conn.read_exact(&mut back).expect("read echo");
        assert_eq!(back, payload, "transparent proxy must not alter bytes");
        let snap = proxy.counters();
        assert_eq!(snap.connections, 1);
        assert_eq!(snap.injected_total(), 0, "no faults configured: {snap:?}");
        drop(conn);
        drop(proxy);
        let _ = echo.join();
    }

    #[test]
    fn immediate_resets_are_injected_and_counted() {
        let (upstream, echo) = echo_server();
        let config = ChaosConfig {
            reset_rate: 1.0,
            ..ChaosConfig::default()
        };
        let proxy = ChaosProxy::start(upstream, config).expect("start proxy");
        let mut conn = TcpStream::connect(proxy.addr()).expect("connect");
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let _ = conn.write_all(b"ping");
        // The proxy drops the socket without relaying: the read must end
        // in EOF or a reset error, never data.
        let mut buf = [0u8; 16];
        match conn.read(&mut buf) {
            Ok(0) | Err(_) => {}
            Ok(n) => panic!("reset connection returned {n} bytes"),
        }
        let t0 = Instant::now();
        while proxy.counters().resets == 0 && t0.elapsed() < Duration::from_secs(5) {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(proxy.counters().resets, 1);
        drop(proxy);
        // The echo server never saw a connection; unblock its accept.
        let _ = TcpStream::connect(upstream);
        let _ = echo.join();
    }

    #[test]
    fn partition_rejects_new_connections_until_lifted() {
        let (upstream, echo) = echo_server();
        let proxy = ChaosProxy::start(upstream, ChaosConfig::default()).expect("start proxy");
        proxy.set_partitioned(true);
        let mut conn = TcpStream::connect(proxy.addr()).expect("tcp connect still lands");
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let _ = conn.write_all(b"ping");
        let mut buf = [0u8; 16];
        match conn.read(&mut buf) {
            Ok(0) | Err(_) => {}
            Ok(n) => panic!("partitioned proxy relayed {n} bytes"),
        }
        let t0 = Instant::now();
        while proxy.counters().partition_rejects == 0 && t0.elapsed() < Duration::from_secs(5) {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(proxy.counters().partition_rejects >= 1);

        proxy.set_partitioned(false);
        let mut conn = TcpStream::connect(proxy.addr()).expect("connect after heal");
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        conn.write_all(b"hello").expect("write");
        let mut back = [0u8; 5];
        conn.read_exact(&mut back).expect("echo after heal");
        assert_eq!(&back, b"hello");
        drop(conn);
        drop(proxy);
        let _ = echo.join();
    }

    #[test]
    fn plans_are_deterministic_per_seed_and_independent_of_other_rates() {
        let cfg = ChaosConfig {
            seed: 42,
            reset_rate: 0.2,
            mid_reset_rate: 0.3,
            corrupt_rate: 0.3,
            truncate_rate: 0.2,
            stall_rate: 0.2,
            ..ChaosConfig::default()
        };
        for n in 0..64u64 {
            let mut a = SplitMix64::new(mix64(cfg.seed, n));
            let mut b = SplitMix64::new(mix64(cfg.seed, n));
            let pa = ConnPlan::draw(&mut a, &cfg);
            let pb = ConnPlan::draw(&mut b, &cfg);
            assert_eq!(pa.reset, pb.reset);
            assert_eq!(pa.s2c.corrupt_at, pb.s2c.corrupt_at);
            assert_eq!(pa.s2c.stall_at, pb.s2c.stall_at);
            assert_eq!(
                pa.s2c.cut_at.map(|(at, _)| at),
                pb.s2c.cut_at.map(|(at, _)| at)
            );
        }
    }

    /// Connection plans at the chaos smoke's rates (seed 11), plus stalls
    /// (the smoke draws none) so their offsets are pinned too: a change to
    /// the fault model that moves any reset, cut, corruption or stall of
    /// connections 0..256 fails here.
    #[test]
    fn smoke_rate_plans_are_pinned() {
        let cfg = ChaosConfig {
            seed: 11,
            reset_rate: 0.35,
            mid_reset_rate: 0.15,
            corrupt_rate: 0.45,
            truncate_rate: 0.15,
            stall_rate: 0.2,
            ..ChaosConfig::default()
        };
        let some = |at: Option<u64>| at.map_or(0, |at| at + 1);
        let (mut digest, mut resets, mut cuts, mut corrupted, mut stalled) = (0u64, 0, 0, 0, 0);
        for n in 0..256u64 {
            let plan = ConnPlan::draw(&mut SplitMix64::new(mix64(cfg.seed, n)), &cfg);
            let (c2s, s2c) = (plan.c2s, plan.s2c);
            resets += u32::from(plan.reset);
            cuts += u32::from(s2c.cut_at.is_some());
            corrupted += u32::from(c2s.corrupt_at.or(s2c.corrupt_at).is_some());
            stalled += u32::from(c2s.stall_at.or(s2c.stall_at).is_some());
            let words = [
                u64::from(plan.reset),
                some(s2c.cut_at.map(|(at, _)| at)),
                u64::from(matches!(s2c.cut_at, Some((_, Cut::Truncate)))),
                some(c2s.corrupt_at.map(|(at, mask)| at << 8 | u64::from(mask))),
                some(s2c.corrupt_at.map(|(at, mask)| at << 8 | u64::from(mask))),
                some(c2s.stall_at),
                some(s2c.stall_at),
            ];
            digest = words.iter().fold(digest, |h, &w| mix64(h, w));
        }
        assert_eq!((resets, cuts, corrupted, stalled), (80, 66, 102, 48));
        assert_eq!(digest, 0xbfab_bcf6_1742_ec8d);
    }
}
