//! End-to-end chaos: the self-healing client against a real server
//! behind the fault-injecting proxy. The acceptance scenarios:
//!
//! * a 10k-op run through seeded resets, corruption, truncation, stalls,
//!   and a scripted partition completes with **zero wrong values** and
//!   healing counters that account for the injected faults;
//! * same chaos seed + same workload ⇒ identical injected-fault sequence
//!   and identical per-op outcome sequence (the determinism property);
//! * SIGKILL the server mid-pipelined-batch, restart it, re-point the
//!   proxy: the client completes the run with zero wrong values and
//!   `csr_serve_client_reconnects_total > 0`;
//! * a server that refuses every connection exhausts the attempt budget
//!   as `Unavailable`, for `SET` too: its request never left.

use csr_obs::Registry;
use csr_serve::chaos::{ChaosConfig, ChaosProxy, ChaosSnapshot};
use csr_serve::client::{ClientMetrics, ConnectionError, FailoverClient, FailoverConfig, Timeouts};
use csr_serve::resilience::BackoffSchedule;
use csr_serve::server::{serve, ServerConfig};
use csr_serve::{MemoryBacking, SimBacking};
use mem_trace::rng::SplitMix64;
use std::io::BufRead;
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn chaos_server_config() -> ServerConfig {
    ServerConfig {
        workers: 16,
        idle_timeout: Duration::from_secs(5),
        partial_read_deadline: Duration::from_secs(2),
        write_timeout: Duration::from_secs(5),
        ..ServerConfig::default()
    }
}

fn fast_failover(seed: u64) -> FailoverConfig {
    FailoverConfig {
        // Read stays under the server's partial-read deadline so a
        // corrupted CRLF always resolves client-side first.
        timeouts: Timeouts {
            connect: Duration::from_secs(2),
            read: Duration::from_secs(1),
            write: Duration::from_secs(1),
        },
        backoff: BackoffSchedule {
            base: Duration::from_millis(1),
            cap: Duration::from_millis(20),
        },
        max_attempts: 64,
        seed,
    }
}

/// A GET under chaos may only ever see what this workload can produce:
/// the SimBacking synthesis (key, `#`-padded) or a loadgen-style SET
/// payload (all `b'v'`).
fn plausible(key: &str, data: &[u8]) -> bool {
    data.starts_with(key.as_bytes()) || data.iter().all(|&b| b == b'v')
}

/// Whether every fault class the headline scenario asserts on has fired.
fn every_fault_class_fired(s: &ChaosSnapshot) -> bool {
    s.resets > 0
        && s.mid_resets > 0
        && s.truncations > 0
        && s.corruptions > 0
        && s.stalls > 0
        && s.partition_rejects + s.partition_cuts > 0
}

/// One client thread of the headline scenario: seeded 10% SET / 90% GET
/// over 512 keys, every GET checked for plausibility.
struct ChaosWorker {
    t: u64,
    rng: SplitMix64,
    client: FailoverClient,
    wrong: Arc<AtomicU64>,
    maybe_applied: Arc<AtomicU64>,
}

impl ChaosWorker {
    fn one_op(&mut self) {
        let t = self.t;
        let key = format!("key:{}", self.rng.below(512));
        if self.rng.chance(0.1) {
            match self.client.set(&key, &[b'v'; 32]) {
                Ok(()) => {}
                Err(e) if ConnectionError::is_maybe_applied(&e) => {
                    self.maybe_applied.fetch_add(1, Ordering::Relaxed);
                }
                Err(e) => panic!("worker {t}: SET gave up: {e}"),
            }
        } else {
            match self.client.get(&key) {
                Ok(Some(v)) => {
                    if !plausible(&key, &v) {
                        self.wrong.fetch_add(1, Ordering::Relaxed);
                    }
                }
                Ok(None) => {} // corrupted-key miss: no data, no lie
                Err(e) => panic!("worker {t}: GET gave up: {e}"),
            }
        }
    }
}

/// The headline acceptance scenario: 10k ops (plus a bounded top-up until
/// every fault class has fired), four clients, one scripted partition —
/// zero wrong values, and the healing counters must account for the chaos
/// the proxy reports.
#[test]
fn ten_thousand_ops_heal_through_chaos_with_zero_wrong_values() {
    const THREADS: u64 = 4;
    const OPS_PER_THREAD: u64 = 2500;
    // Top-up rounds: ops per fresh connection (enough reply bytes to cross
    // the proxy's 2048-byte fault window) and the per-worker budget.
    const FRESH_CONN_OPS: u64 = 64;
    const TOP_UP_OPS: u64 = OPS_PER_THREAD;

    let origin = Arc::new(SimBacking {
        fast: Duration::ZERO,
        slow: Duration::ZERO,
        slow_every: 8,
        value_len: 32,
    });
    let handle = serve(chaos_server_config(), origin).expect("server starts");
    let proxy = Arc::new(
        ChaosProxy::start(
            handle.addr(),
            // Fault plans are drawn per connection, and most faults kill
            // their connection (directly, or via the client detecting a
            // malformed frame) — so high rates produce churn, and churn
            // produces fresh plans. Low rates would leave one long-lived
            // clean connection serving the whole run.
            ChaosConfig {
                seed: 0xc4a0,
                reset_rate: 0.10,
                mid_reset_rate: 0.15,
                corrupt_rate: 0.30,
                truncate_rate: 0.10,
                stall_rate: 0.20,
                stall: Duration::from_millis(5),
                ..ChaosConfig::default()
            },
        )
        .expect("proxy starts"),
    );

    // The scripted partition, mid-run.
    let partition = {
        let proxy = Arc::clone(&proxy);
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(150));
            proxy.set_partitioned(true);
            std::thread::sleep(Duration::from_millis(200));
            proxy.set_partitioned(false);
        })
    };

    let registry = Registry::new();
    let metrics = ClientMetrics::new(&registry);
    let wrong = Arc::new(AtomicU64::new(0));
    let maybe_applied = Arc::new(AtomicU64::new(0));
    let target = proxy.addr().to_string();
    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            let mut worker = ChaosWorker {
                t,
                rng: SplitMix64::new(0xbeef ^ t),
                client: FailoverClient::new(target.clone(), fast_failover(7 + t))
                    .with_metrics(metrics.clone()),
                wrong: Arc::clone(&wrong),
                maybe_applied: Arc::clone(&maybe_applied),
            };
            std::thread::spawn(move || {
                for _ in 0..OPS_PER_THREAD {
                    worker.one_op();
                }
                worker
            })
        })
        .collect();
    let workers: Vec<ChaosWorker> = workers
        .into_iter()
        .map(|w| w.join().expect("worker panicked"))
        .collect();
    let _ = partition.join();

    // The healing assertions read the 10k-op run alone, taken here with
    // every worker idle: the top-up below closes connections on purpose,
    // and those reconnects answer no injected kill.
    let snap = proxy.counters();
    let reconnects = metrics.reconnects.get();

    // Fault plans are drawn per connection and a connection that outlives
    // its fault window stays clean, so the 10k ops above may settle on
    // clean connections before a rare class (truncation) is ever drawn.
    // Keep going on fresh connections — each a fresh plan — until every
    // asserted class has fired.
    let top_up: Vec<_> = workers
        .into_iter()
        .map(|mut worker| {
            let proxy = Arc::clone(&proxy);
            std::thread::spawn(move || {
                let mut extra = 0;
                while extra < TOP_UP_OPS && !every_fault_class_fired(&proxy.counters()) {
                    worker.client.close(); // the next op reconnects
                    for _ in 0..FRESH_CONN_OPS {
                        worker.one_op();
                    }
                    extra += FRESH_CONN_OPS;
                }
                worker.client.close();
            })
        })
        .collect();
    for w in top_up {
        w.join().expect("top-up worker panicked");
    }

    assert_eq!(wrong.load(Ordering::Relaxed), 0, "corruption reached data");
    // Every configured fault class actually fired.
    let fired = proxy.counters();
    assert!(fired.resets > 0, "no immediate resets: {fired:?}");
    assert!(fired.mid_resets > 0, "no mid-reply resets: {fired:?}");
    assert!(fired.truncations > 0, "no truncations: {fired:?}");
    assert!(fired.corruptions > 0, "no corruptions: {fired:?}");
    assert!(fired.stalls > 0, "no stalls: {fired:?}");
    assert!(
        fired.partition_rejects + fired.partition_cuts > 0,
        "the scripted partition left no trace: {fired:?}"
    );

    // Healing accounting: every client connect (initial or healing) is
    // one proxy accept — relayed, reset, or partition-rejected.
    let connects = snap.connections + snap.partition_rejects;
    assert!(
        connects.abs_diff(reconnects + THREADS) <= THREADS,
        "connect accounting off: proxy saw {connects}, client healed {reconnects} (+{THREADS} initial)"
    );
    // Every injected connection kill forces (at most) one heal.
    assert!(
        reconnects + THREADS >= snap.resets + snap.mid_resets + snap.truncations,
        "fewer reconnects ({reconnects}) than injected kills: {snap:?}"
    );
    assert!(metrics.replays.get() > 0, "healing never replayed an op");

    drop(proxy);
    handle.shutdown().expect("clean shutdown");
}

/// One sequential client run against a fresh server + proxy; returns the
/// per-op outcome sequence and the proxy's injected-fault snapshot.
fn deterministic_run(proxy_seed: u64) -> (Vec<String>, ChaosSnapshot) {
    let origin = Arc::new(MemoryBacking::new());
    for i in 0..32 {
        origin.put(format!("k{i}"), format!("value-{i:02}").into_bytes());
    }
    let config = ServerConfig {
        workers: 4,
        ..chaos_server_config()
    };
    let handle = serve(config, origin).expect("server starts");
    let proxy = ChaosProxy::start(
        handle.addr(),
        // High per-connection rates: almost every connection draws a
        // killing fault, each kill spawns a fresh connection with a
        // fresh plan, and the injected sequence stays long enough to
        // tell two seeds apart.
        ChaosConfig {
            seed: proxy_seed,
            reset_rate: 0.30,
            mid_reset_rate: 0.50,
            corrupt_rate: 0.50,
            truncate_rate: 0.30,
            fault_window: 512,
            ..ChaosConfig::default()
        },
    )
    .expect("proxy starts");

    let config = FailoverConfig {
        backoff: BackoffSchedule {
            base: Duration::from_millis(1),
            cap: Duration::from_millis(5),
        },
        ..fast_failover(7)
    };
    let mut client = FailoverClient::new(proxy.addr().to_string(), config);
    let outcomes: Vec<String> = (0..400)
        .map(|i| {
            let key = format!("k{}", i % 32);
            match client.get(&key) {
                Ok(Some(v)) => String::from_utf8_lossy(&v).into_owned(),
                Ok(None) => "<none>".to_owned(),
                Err(e) => format!("<err:{:?}>", e.kind()),
            }
        })
        .collect();
    client.close();
    let snap = proxy.counters();
    drop(proxy);
    handle.shutdown().expect("clean shutdown");
    (outcomes, snap)
}

/// The determinism property: same chaos seed + same workload ⇒ identical
/// injected-fault counters and identical client outcome sequence; a
/// different chaos seed diverges.
#[test]
fn same_seeds_produce_identical_faults_and_outcomes() {
    let (outcomes_a, snap_a) = deterministic_run(1101);
    let (outcomes_b, snap_b) = deterministic_run(1101);
    assert!(
        snap_a.injected_total() > 0,
        "the chaos run injected nothing: {snap_a:?}"
    );
    assert_eq!(snap_a, snap_b, "fault sequence diverged for one seed");
    assert_eq!(outcomes_a, outcomes_b, "outcomes diverged for one seed");
    // Every outcome the clients saw was the correct value (or a correct
    // miss after a corrupted key): chaos may slow the run, never wrong it.
    for (i, out) in outcomes_a.iter().enumerate() {
        let key = format!("k{}", i % 32);
        assert!(
            out == &format!("value-{:02}", i % 32) || out == "<none>",
            "op {i} ({key}): outcome {out:?}"
        );
    }

    let (_, snap_c) = deterministic_run(2202);
    assert_ne!(snap_a, snap_c, "different seeds injected identical faults");
}

/// Spawns the real `csr-serve` daemon on a free port with a zero-latency
/// sim origin, returning the child and its bound address.
fn spawn_daemon() -> (Child, SocketAddr) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_csr-serve"))
        .args([
            "--addr",
            "127.0.0.1:0",
            "--backing",
            "sim",
            "--fast-us",
            "0",
            "--slow-us",
            "0",
            "--value-len",
            "32",
            "--workers",
            "8",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn csr-serve");
    let stdout = child.stdout.take().expect("daemon stdout");
    let mut lines = std::io::BufReader::new(stdout);
    let mut line = String::new();
    lines
        .read_line(&mut line)
        .expect("read daemon listening line");
    // "csr-serve listening on 127.0.0.1:PORT policy=dcl backing=sim"
    let addr = line
        .split_whitespace()
        .nth(3)
        .and_then(|a| a.parse().ok())
        .unwrap_or_else(|| panic!("unparseable daemon banner: {line:?}"));
    (child, addr)
}

/// What the daemon's sim origin synthesizes for `key` (`--value-len 32`).
fn expect_sim_value(key: &str, data: &[u8]) {
    assert_eq!(data.len(), 32, "{key}: wrong value length");
    assert!(
        data.starts_with(key.as_bytes()) && data[key.len()..].iter().all(|&b| b == b'#'),
        "{key}: wrong value {:?}",
        String::from_utf8_lossy(data)
    );
}

/// The kill-and-recover satellite: SIGKILL the daemon mid-pipelined-run
/// behind the proxy, start a replacement, re-point the proxy — the
/// failover client finishes with zero wrong values and visible healing.
#[test]
fn sigkill_and_restart_mid_batch_heals_with_zero_wrong_values() {
    let (child1, addr1) = spawn_daemon();
    let proxy = Arc::new(
        ChaosProxy::start(
            addr1,
            ChaosConfig {
                seed: 5,
                corrupt_rate: 0.05,
                ..ChaosConfig::default()
            },
        )
        .expect("proxy starts"),
    );

    // The killer: SIGKILL mid-run, restart, re-point the proxy.
    let killer = {
        let proxy = Arc::clone(&proxy);
        std::thread::spawn(move || {
            let mut child1 = child1;
            std::thread::sleep(Duration::from_millis(250));
            child1.kill().expect("SIGKILL the daemon");
            let _ = child1.wait(); // reap
            let (child2, addr2) = spawn_daemon();
            proxy.set_upstream(addr2);
            child2
        })
    };

    let registry = Registry::new();
    let metrics = ClientMetrics::new(&registry);
    let config = FailoverConfig {
        max_attempts: 200,
        backoff: BackoffSchedule {
            base: Duration::from_millis(1),
            cap: Duration::from_millis(50),
        },
        ..fast_failover(3)
    };
    let mut client =
        FailoverClient::new(proxy.addr().to_string(), config).with_metrics(metrics.clone());
    for round in 0..40u64 {
        let keys: Vec<String> = (0..16)
            .map(|j| format!("key:{}", (round + j) % 64))
            .collect();
        let refs: Vec<&str> = keys.iter().map(String::as_str).collect();
        let got = client
            .get_pipelined(&refs)
            .unwrap_or_else(|e| panic!("round {round}: batch gave up: {e}"));
        for (key, value) in keys.iter().zip(&got) {
            let value = value.as_ref().unwrap_or_else(|| {
                panic!("round {round}: {key} missing (sim origin has every key)")
            });
            expect_sim_value(key, value);
        }
        // Pace the run so the kill lands mid-way, not after the end.
        std::thread::sleep(Duration::from_millis(15));
    }
    client.close();

    assert!(
        metrics.reconnects.get() > 0,
        "the run never had to reconnect — the kill left no trace"
    );
    let mut child2 = killer.join().expect("killer thread panicked");
    drop(proxy);
    child2.kill().expect("stop replacement daemon");
    let _ = child2.wait();
}

/// The attempt budget: against an address that refuses connections,
/// every call gives up as `Unavailable` after `max_attempts` connects. A
/// `SET` fails the same way, not as `MaybeApplied`: no connection was
/// ever made, so its request never left. Nothing connected, so nothing
/// counts as a reconnect.
#[test]
fn refused_connections_exhaust_the_budget_as_unavailable() {
    let addr = {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        listener.local_addr().expect("local addr")
    }; // the listener drops here: the port now refuses connections
    let registry = Registry::new();
    let metrics = ClientMetrics::new(&registry);
    let config = FailoverConfig {
        max_attempts: 3,
        ..fast_failover(11)
    };
    let mut client = FailoverClient::new(addr.to_string(), config).with_metrics(metrics.clone());

    let err = client.get("k").expect_err("nothing listens");
    assert!(
        matches!(
            ConnectionError::from_io(&err),
            Some(ConnectionError::Unavailable { attempts: 3, .. })
        ),
        "GET: {err}"
    );
    let err = client.set("k", b"v").expect_err("nothing listens");
    assert!(
        matches!(
            ConnectionError::from_io(&err),
            Some(ConnectionError::Unavailable { attempts: 3, .. })
        ),
        "SET: {err}"
    );
    assert_eq!(metrics.reconnects.get(), 0);
}
