//! Zipf load generator for `csr-serve`.
//!
//! Workers draw keys from a Zipf distribution (skew 0.9) over `--keys`
//! distinct keys, the classic skew of cache workloads, and send a
//! `--set-ratio` share of them as 128-byte `SET`s. Every GET value is
//! checked and every latency goes into a log-bucketed histogram. The run
//! prints one line per stage plus the client's, the chaos proxy's and the
//! server's counters; with `--json <dir>` it writes the same numbers to
//! `BENCH_serve.json`.
//!
//! Both modes run one worker body; only the pacing differs.
//!
//! * **Closed loop** (the default): `--conns` threads, each owning one
//!   self-healing [`FailoverClient`]; the next request goes as soon as
//!   the previous reply arrives. A GET is replayed through failures, and
//!   ambiguous SETs, `ORIGIN_ERROR` replies and stale values are counted;
//!   a worker that exhausts `--max-attempts` gives up and fails the run.
//! * **Open loop** (`--rate R`, and `--curve N,N,...` for one stage per
//!   connection count): each stage's connections are dealt to at most 32
//!   threads, and requests are scheduled at `R` per second in aggregate,
//!   round-robin over them, so most connections sit idle: the C10K
//!   shape. Latency is measured from each request's *scheduled* send
//!   time, so a server that falls behind shows its queueing delay instead
//!   of slowing the generator down (no coordinated omission). Nothing is
//!   replayed: `SERVER_BUSY` counts as shed, any other failure as an
//!   error.
//!
//! A stage opens all its connections before its first request, then runs
//! `--warmup` seconds of load whose numbers it discards, then `--secs`
//! measured ones.
//!
//! # Chaos mode
//!
//! Any `--chaos-*` flag (closed loop only) interposes an in-process
//! [`ChaosProxy`] between the workers and `--addr`, injecting seeded
//! resets, corruption, truncation and, with `--chaos-partition-at-s`, one
//! scripted full partition. The run then doubles as a robustness check:
//! corrupted bytes must surface as detected malformed frames (reconnect),
//! never as data.
//!
//! The process exits 1 on any wrong value or error, 2 on a usage error.

use csr_obs::{Histogram, Json, Registry};
use csr_serve::chaos::{ChaosConfig, ChaosProxy, ChaosSnapshot};
use csr_serve::client::{ClientMetrics, ConnectionError, FailoverClient, FailoverConfig, Timeouts};
use csr_serve::{Client, OriginError, Value};
use mem_trace::rng::SplitMix64;
use std::net::ToSocketAddrs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, OnceLock};
use std::time::{Duration, Instant};

/// Zipf skew of the key draw.
const ZIPF_THETA: f64 = 0.9;
/// Length of every SET payload.
const VALUE_LEN: usize = 128;
/// Most threads an open-loop stage deals its connections to.
const OPEN_LOOP_THREADS: usize = 32;
/// Socket deadlines of every connection.
const TIMEOUTS: Timeouts = Timeouts {
    connect: Duration::from_secs(5),
    read: Duration::from_secs(10),
    write: Duration::from_secs(10),
};
/// Pause between the last connection of a stage opening and its first
/// request.
const LEAD: Duration = Duration::from_millis(50);

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("run with --help for usage");
    std::process::exit(2);
}

fn usage() -> ! {
    println!(
        "loadgen: Zipf load generator for csr-serve, closed or open loop

USAGE: loadgen [OPTIONS]

  --addr HOST:PORT          server address (default 127.0.0.1:11311)
  --conns N                 connections (default 8); closed loop: one thread each
  --secs N                  measured seconds per stage (default 5)
  --warmup N                seconds of load before measuring starts (default 0)
  --keys N                  distinct keys, Zipf-skewed (default 2048)
  --set-ratio F             fraction of requests that are SETs (default 0.05)
  --seed N                  PRNG seed (default 42)
  --json DIR                write BENCH_serve.json into DIR
  --max-attempts N          closed loop: reconnect+replay attempts per op before
                            giving up (default 64)

Open loop (no replays; incompatible with --chaos-* and --max-attempts):
  --rate N                  schedule N requests/sec in aggregate, round-robin
                            over the connections; latency is measured from the
                            scheduled send time (default 0 = closed loop)
  --curve LIST              comma-separated connection counts: one stage of
                            --secs each (implies --rate; default rate 2000)

Chaos (closed loop; any flag interposes a seeded ChaosProxy in front of --addr):
  --chaos-seed N            fault-plan seed (default 1)
  --chaos-reset-rate F      immediate connection resets (default 0)
  --chaos-mid-reset-rate F  mid-reply connection resets (default 0)
  --chaos-corrupt-rate F    single-byte corruption (default 0)
  --chaos-truncate-rate F   mid-reply truncation (default 0)
  --chaos-partition-at-s N  start a full partition N seconds into the run
  --chaos-partition-secs N  partition duration (default 2)
  -h, --help                this text"
    );
    std::process::exit(0);
}

struct Opts {
    addr: String,
    conns: usize,
    secs: u64,
    warmup: u64,
    keys: usize,
    set_ratio: f64,
    seed: u64,
    json_dir: Option<PathBuf>,
    max_attempts: u32,
    /// Requests per second in aggregate; 0 runs the closed loop.
    rate: f64,
    /// Connections of each stage: `--curve`, else just `--conns`.
    stages: Vec<usize>,
    chaos: Option<ChaosConfig>,
    partition_at: Option<u64>,
    partition_secs: u64,
}

fn parse_args() -> Opts {
    let mut opts = Opts {
        addr: "127.0.0.1:11311".to_owned(),
        conns: 8,
        secs: 5,
        warmup: 0,
        keys: 2048,
        set_ratio: 0.05,
        seed: 42,
        json_dir: None,
        max_attempts: 64,
        rate: 0.0,
        stages: Vec::new(),
        chaos: None,
        partition_at: None,
        partition_secs: 2,
    };
    let (mut max_attempts_given, mut chaos_given) = (false, false);
    let mut chaos = ChaosConfig {
        seed: 1,
        ..ChaosConfig::default()
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| die(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--addr" => opts.addr = value(),
            "--conns" => opts.conns = num(&flag, &value()),
            "--secs" => opts.secs = num(&flag, &value()),
            "--warmup" => opts.warmup = num(&flag, &value()),
            "--keys" => opts.keys = num(&flag, &value()),
            "--set-ratio" => opts.set_ratio = num(&flag, &value()),
            "--seed" => opts.seed = num(&flag, &value()),
            "--json" => opts.json_dir = Some(value().into()),
            "--max-attempts" => {
                opts.max_attempts = num(&flag, &value());
                max_attempts_given = true;
            }
            "--rate" => opts.rate = num(&flag, &value()),
            "--curve" => opts.stages = value().split(',').map(|s| num(&flag, s.trim())).collect(),
            "--chaos-seed" => chaos.seed = num(&flag, &value()),
            "--chaos-reset-rate" => chaos.reset_rate = num(&flag, &value()),
            "--chaos-mid-reset-rate" => chaos.mid_reset_rate = num(&flag, &value()),
            "--chaos-corrupt-rate" => chaos.corrupt_rate = num(&flag, &value()),
            "--chaos-truncate-rate" => chaos.truncate_rate = num(&flag, &value()),
            "--chaos-partition-at-s" => opts.partition_at = Some(num(&flag, &value())),
            "--chaos-partition-secs" => opts.partition_secs = num(&flag, &value()),
            "-h" | "--help" => usage(),
            other => die(&format!("unknown flag '{other}'")),
        }
        chaos_given |= flag.starts_with("--chaos-");
    }
    opts.chaos = chaos_given.then_some(chaos);
    if opts.conns == 0 || opts.keys == 0 {
        die("--conns and --keys must be positive");
    }
    if opts.rate > 0.0 || !opts.stages.is_empty() {
        if opts.chaos.is_some() {
            die("--rate/--curve are incompatible with --chaos");
        }
        if max_attempts_given {
            die("--rate/--curve are incompatible with --max-attempts");
        }
        if opts.rate <= 0.0 {
            opts.rate = 2000.0;
        }
        if opts.stages.contains(&0) {
            die("--curve stages must be positive");
        }
    }
    if opts.stages.is_empty() {
        opts.stages = vec![opts.conns];
    }
    opts
}

fn num<T: std::str::FromStr>(flag: &str, s: &str) -> T {
    s.parse()
        .unwrap_or_else(|_| die(&format!("{flag}: bad number '{s}'")))
}

/// Cumulative Zipf distribution over ranks `1..=n` with skew
/// [`ZIPF_THETA`]. Sampling is a binary search for a uniform draw in it.
fn zipf_cdf(n: usize) -> Vec<f64> {
    let mut total = 0.0f64;
    let mut cdf: Vec<f64> = (1..=n)
        .map(|rank| {
            total += (rank as f64).powf(-ZIPF_THETA);
            total
        })
        .collect();
    for p in &mut cdf {
        *p /= total;
    }
    cdf
}

fn sample(cdf: &[f64], rng: &mut SplitMix64) -> usize {
    let r = rng.next_f64();
    cdf.partition_point(|&p| p < r).min(cdf.len() - 1)
}

fn bump(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
}

fn get(counter: &AtomicU64) -> u64 {
    counter.load(Ordering::Relaxed)
}

fn sleep_until(at: Instant) {
    if let Some(wait) = at.checked_duration_since(Instant::now()) {
        std::thread::sleep(wait);
    }
}

/// One stage's counters, shared by its workers.
#[derive(Default)]
struct Totals {
    latency: Histogram,
    ops: AtomicU64,
    sets: AtomicU64,
    empty_gets: AtomicU64,
    stale_gets: AtomicU64,
    origin_errors: AtomicU64,
    maybe_applied: AtomicU64,
    shed: AtomicU64,
    // The verdict counters below are never reset, not even when the
    // warm-up ends.
    /// GETs that returned a SET payload (all `b'v'`) for a key this run
    /// never SET: a previous run's write surviving a server restart
    /// through the persistence layer.
    restart_survivor_hits: AtomicU64,
    wrong_values: AtomicU64,
    errors: AtomicU64,
}

impl Totals {
    /// Forgets the warm-up's load.
    fn reset(&self) {
        self.latency.reset();
        for counter in [
            &self.ops,
            &self.sets,
            &self.empty_gets,
            &self.stale_gets,
            &self.origin_errors,
            &self.maybe_applied,
            &self.shed,
        ] {
            counter.store(0, Ordering::Relaxed);
        }
    }
}

/// What every stage of a run shares.
struct Load {
    opts: Opts,
    cdf: Vec<f64>,
    /// One bit per key, set when any worker SETs it this run. A SET
    /// payload read back for an unmarked key can only have come from a
    /// previous run, recovered across a restart.
    set_keys: Vec<AtomicU64>,
    /// Where the workers connect: `--addr`, or the chaos proxy.
    target: String,
    metrics: ClientMetrics,
}

/// One stage: `conns` connections dealt to `threads` workers.
struct Stage<'a> {
    load: &'a Load,
    conns: usize,
    threads: usize,
    /// Send interval of each thread; `None` for the closed loop.
    interval: Option<Duration>,
    totals: Totals,
    /// Every worker and the stage's own thread meet here once all
    /// connections are open.
    barrier: Barrier,
    /// When the first request goes, fixed by the first thread past the
    /// barrier.
    epoch: OnceLock<Instant>,
}

impl Stage<'_> {
    /// Runs the stage and returns its counters and measured seconds.
    fn run(load: &Load, conns: usize) -> (Totals, f64) {
        let opts = &load.opts;
        let open = opts.rate > 0.0;
        let threads = if open {
            conns.min(OPEN_LOOP_THREADS)
        } else {
            conns
        };
        let stage = Stage {
            load,
            conns,
            threads,
            interval: open.then(|| Duration::from_secs_f64(threads as f64 / opts.rate)),
            totals: Totals::default(),
            barrier: Barrier::new(threads + 1),
            epoch: OnceLock::new(),
        };
        let (measured_from, done) = std::thread::scope(|s| {
            let workers: Vec<_> = (0..threads)
                .map(|t| {
                    let stage = &stage;
                    s.spawn(move || stage.worker(t))
                })
                .collect();
            stage.barrier.wait();
            let start = *stage.epoch.get_or_init(|| Instant::now() + LEAD);
            let measured_from = start + Duration::from_secs(opts.warmup);
            if opts.warmup > 0 {
                // Workers mid-request contribute a straggling sample each
                // across the boundary: noise, not bias.
                sleep_until(measured_from);
                stage.totals.reset();
                eprintln!("loadgen: warmup over ({}s), measuring", opts.warmup);
            }
            let done = workers
                .into_iter()
                .map(|w| w.join().expect("worker panicked"));
            (measured_from, done.max().unwrap_or(measured_from))
        });
        let elapsed = done.saturating_duration_since(measured_from);
        (stage.totals, elapsed.as_secs_f64())
    }

    /// Worker `t`: owns connections `t, t + threads, ...`, opens them,
    /// waits for every other worker to open theirs, then sends until the
    /// stage ends. Returns when its last op ended, before its
    /// connections close.
    fn worker(&self, t: usize) -> Instant {
        let (opts, totals) = (&self.load.opts, &self.totals);
        // The closed loop heals: reconnect and replay up to the budget.
        // The open loop sends each op once.
        let heal = self.interval.is_none();
        let config = FailoverConfig {
            timeouts: TIMEOUTS,
            max_attempts: if heal { opts.max_attempts } else { 1 },
            ..FailoverConfig::default()
        };
        let mut clients: Vec<FailoverClient> = (t..self.conns)
            .step_by(self.threads)
            .map(|c| {
                let seed = opts.seed.wrapping_add(c as u64);
                FailoverClient::new(self.load.target.clone(), FailoverConfig { seed, ..config })
                    .with_metrics(self.load.metrics.clone())
            })
            .collect();
        for client in &mut clients {
            // A connection that fails here fails its first op, which
            // counts it.
            if let Err(e) = client.connect() {
                eprintln!("worker {t}: connect failed: {e}");
            }
        }
        self.barrier.wait();
        let start = *self.epoch.get_or_init(|| Instant::now() + LEAD);
        let end = start + Duration::from_secs(opts.warmup + opts.secs);
        // Open loop: thread `t` sends `t / threads` of an interval after
        // the others, so the aggregate is one fixed-rate schedule.
        let mut next = start
            + self.interval.map_or(Duration::ZERO, |i| {
                i.mul_f64(t as f64 / self.threads as f64)
            });
        sleep_until(next);
        let mut rng = SplitMix64::new(opts.seed ^ (0x9e37 + t as u64));
        let payload = [b'v'; VALUE_LEN];
        for slot in (0..clients.len()).cycle() {
            // Open loop: send at the schedule, never later-shifted; a send
            // that falls behind goes late, and its latency says so.
            let due = match self.interval {
                None => Instant::now(),
                Some(interval) => {
                    let due = next;
                    next += interval;
                    due
                }
            };
            if due >= end {
                break;
            }
            sleep_until(due);
            let key_idx = sample(&self.load.cdf, &mut rng);
            let key = format!("key:{key_idx}");
            let client = &mut clients[slot];
            let outcome = if rng.chance(opts.set_ratio) {
                bump(&totals.sets);
                // Mark before sending: an ambiguous SET (cut mid-flight,
                // maybe applied) must still keep the key from counting as
                // a restart survivor.
                self.load.set_keys[key_idx / 64].fetch_or(1 << (key_idx % 64), Ordering::Relaxed);
                client.set(&key, &payload)
            } else {
                client
                    .get_value(&key)
                    .map(|value| self.check(key_idx, &key, value))
            };
            let us = u64::try_from(due.elapsed().as_micros()).map_or(u64::MAX, |us| us.max(1));
            match outcome {
                Ok(()) => {
                    bump(&totals.ops);
                    totals.latency.record(us);
                }
                // A degraded origin is part of the workload under test:
                // the round trip completed, so count it and go on.
                Err(e) if heal && e.get_ref().is_some_and(|inner| inner.is::<OriginError>()) => {
                    bump(&totals.origin_errors);
                    bump(&totals.ops);
                    totals.latency.record(us);
                }
                // A SET cut mid-flight, which the client refuses to replay
                // because it may have applied: correct under chaos.
                Err(e) if heal && ConnectionError::is_maybe_applied(&e) => {
                    bump(&totals.maybe_applied);
                    totals.latency.record(us);
                }
                // The server's load shedding, not a malfunction.
                Err(e) if !heal && e.to_string().contains("SERVER_BUSY") => bump(&totals.shed),
                Err(e) => {
                    eprintln!("worker {t}: {key} failed: {e}");
                    bump(&totals.errors);
                    if heal {
                        // The client already healed all it could.
                        break;
                    }
                }
            }
        }
        Instant::now()
    }

    /// Counts a GET's value. A value is right iff this run can produce
    /// it: a loadgen SET payload (all `b'v'`) or the simulated origin's
    /// synthesis (the key, `#`-padded). Anything else means corruption
    /// reached the application, which a chaos run must never allow.
    fn check(&self, key_idx: usize, key: &str, value: Option<Value>) {
        let totals = &self.totals;
        let Some(value) = value else {
            bump(&totals.empty_gets);
            return;
        };
        if value.stale {
            bump(&totals.stale_gets);
        }
        let set_payload = value.data.iter().all(|&b| b == b'v');
        if !set_payload && !value.data.starts_with(key.as_bytes()) {
            eprintln!("WRONG VALUE for {key}");
            bump(&totals.wrong_values);
        } else if set_payload && get(&self.load.set_keys[key_idx / 64]) & (1 << (key_idx % 64)) == 0
        {
            bump(&totals.restart_survivor_hits);
        }
    }
}

/// Starts the chaos proxy in front of `--addr`, and the thread that
/// partitions it if asked.
fn start_proxy(opts: &Opts, config: &ChaosConfig) -> Arc<ChaosProxy> {
    let upstream = opts
        .addr
        .to_socket_addrs()
        .ok()
        .and_then(|mut addrs| addrs.next())
        .unwrap_or_else(|| die(&format!("chaos upstream {}: cannot resolve", opts.addr)));
    let proxy = ChaosProxy::start(upstream, config.clone())
        .unwrap_or_else(|e| die(&format!("chaos proxy failed to start: {e}")));
    eprintln!(
        "loadgen: chaos proxy on {} -> {upstream} (seed {})",
        proxy.addr(),
        config.seed
    );
    let proxy = Arc::new(proxy);
    if let Some(at) = opts.partition_at {
        let (proxy, secs) = (Arc::clone(&proxy), opts.partition_secs);
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_secs(at));
            eprintln!("loadgen: chaos partition begins ({secs}s)");
            proxy.set_partitioned(true);
            std::thread::sleep(Duration::from_secs(secs));
            proxy.set_partitioned(false);
            eprintln!("loadgen: chaos partition healed");
        });
    }
    proxy
}

/// One stage's report entry.
fn stage_json(conns: usize, totals: &Totals, elapsed_s: f64) -> Json {
    let hist = totals.latency.snapshot();
    let ops = get(&totals.ops);
    Json::obj([
        ("conns", Json::uint(conns as u64)),
        ("ops", Json::uint(ops)),
        ("sets", Json::uint(get(&totals.sets))),
        ("empty_gets", Json::uint(get(&totals.empty_gets))),
        ("stale_gets", Json::uint(get(&totals.stale_gets))),
        ("origin_errors", Json::uint(get(&totals.origin_errors))),
        ("maybe_applied", Json::uint(get(&totals.maybe_applied))),
        (
            "restart_survivor_hits",
            Json::uint(get(&totals.restart_survivor_hits)),
        ),
        ("wrong_values", Json::uint(get(&totals.wrong_values))),
        ("shed", Json::uint(get(&totals.shed))),
        ("errors", Json::uint(get(&totals.errors))),
        ("elapsed_s", Json::Float(elapsed_s)),
        (
            "ops_per_s",
            Json::uint((ops as f64 / elapsed_s.max(f64::EPSILON)) as u64),
        ),
        ("mean_us", Json::uint(hist.mean().round() as u64)),
        ("p50_us", Json::uint(hist.quantile(0.50))),
        ("p90_us", Json::uint(hist.quantile(0.90))),
        ("p99_us", Json::uint(hist.quantile(0.99))),
        ("max_us", Json::uint(hist.max())),
    ])
}

fn chaos_json(seed: u64, snap: &ChaosSnapshot) -> Json {
    Json::obj([
        ("seed", Json::uint(seed)),
        ("connections", Json::uint(snap.connections)),
        ("resets", Json::uint(snap.resets)),
        ("mid_resets", Json::uint(snap.mid_resets)),
        ("truncations", Json::uint(snap.truncations)),
        ("corruptions", Json::uint(snap.corruptions)),
        ("partition_rejects", Json::uint(snap.partition_rejects)),
        ("partition_cuts", Json::uint(snap.partition_cuts)),
        ("upstream_failures", Json::uint(snap.upstream_failures)),
        ("injected_total", Json::uint(snap.injected_total())),
    ])
}

/// The server's own `STATS`, read from `--addr` directly (not through the
/// chaos proxy: the verdict must not depend on one more coin flip).
fn server_json(addr: &str) -> Json {
    let stats = Client::connect(addr)
        .and_then(|mut c| c.stats())
        .unwrap_or_else(|e| {
            eprintln!("loadgen: STATS fetch failed: {e}");
            Vec::new()
        });
    let typed = |v: String| match (v.parse(), v.parse()) {
        (Ok(n), _) => Json::uint(n),
        (_, Ok(f)) => Json::Float(f),
        _ => Json::Str(v),
    };
    Json::Obj(stats.into_iter().map(|(n, v)| (n, typed(v))).collect())
}

/// Prints `label: name=value ...` from an object's members.
fn print_line(label: &str, fields: &Json) {
    if let Json::Obj(members) = fields {
        let text: Vec<String> = members
            .iter()
            .map(|(name, value)| format!("{name}={}", value.render()))
            .collect();
        println!("{label}: {}", text.join(" "));
    }
}

fn main() {
    let opts = parse_args();
    let registry = Registry::new();
    let proxy = opts.chaos.as_ref().map(|config| start_proxy(&opts, config));
    let load = Load {
        cdf: zipf_cdf(opts.keys),
        set_keys: (0..opts.keys.div_ceil(64))
            .map(|_| AtomicU64::new(0))
            .collect(),
        target: proxy
            .as_ref()
            .map_or_else(|| opts.addr.clone(), |p| p.addr().to_string()),
        metrics: ClientMetrics::new(&registry),
        opts,
    };
    let opts = &load.opts;

    let (mut wrong, mut errors) = (0, 0);
    let stages: Vec<Json> = opts
        .stages
        .iter()
        .map(|&conns| {
            let (totals, elapsed_s) = Stage::run(&load, conns);
            wrong += get(&totals.wrong_values);
            errors += get(&totals.errors);
            let stage = stage_json(conns, &totals, elapsed_s);
            print_line("stage", &stage);
            stage
        })
        .collect();
    let metrics = &load.metrics;
    let client = Json::obj([
        ("reconnects", Json::uint(metrics.reconnects.get())),
        ("replays", Json::uint(metrics.replays.get())),
        (
            "deadline_timeouts",
            Json::uint(metrics.deadline_timeouts.get()),
        ),
    ]);
    print_line("client", &client);
    let mut data = vec![
        ("stages", Json::Arr(stages)),
        ("client", client),
        ("wrong_values", Json::uint(wrong)),
        ("errors", Json::uint(errors)),
    ];
    if let (Some(proxy), Some(config)) = (&proxy, &opts.chaos) {
        let chaos = chaos_json(config.seed, &proxy.counters());
        print_line("chaos", &chaos);
        data.push(("chaos", chaos));
    }
    let server = server_json(&opts.addr);
    print_line("server", &server);
    data.push(("server", server));

    if let Some(dir) = &opts.json_dir {
        // Run metadata: a report found cold still says what produced it.
        let meta = Json::obj([
            ("tool", Json::str("loadgen")),
            ("version", Json::str(env!("CARGO_PKG_VERSION"))),
            ("seed", Json::uint(opts.seed)),
            ("keys", Json::uint(opts.keys as u64)),
            ("zipf", Json::Float(ZIPF_THETA)),
            ("set_ratio", Json::Float(opts.set_ratio)),
            ("secs", Json::uint(opts.secs)),
            ("warmup", Json::uint(opts.warmup)),
            ("rate", Json::Float(opts.rate)),
            ("chaos", Json::Bool(opts.chaos.is_some())),
        ]);
        let report = Json::obj([
            ("experiment", Json::str("serve_loadgen")),
            ("addr", Json::str(opts.addr.clone())),
            ("meta", meta),
            ("data", Json::obj(data)),
        ]);
        let text = report.render();
        Json::parse(&text).expect("rendered report must re-parse");
        std::fs::create_dir_all(dir).expect("create --json directory");
        let path = dir.join("BENCH_serve.json");
        std::fs::write(&path, text + "\n").expect("write JSON report");
        eprintln!("wrote {}", path.display());
    }

    // The verdict: CI's smoke steps assert on this exit code.
    if wrong > 0 || errors > 0 {
        eprintln!("loadgen: FAILED ({wrong} wrong values, {errors} errors)");
        std::process::exit(1);
    }
}
