//! Closed-loop load generator for `csr-serve`.
//!
//! Spawns `--conns` worker threads, each owning one self-healing
//! [`FailoverClient`] and issuing requests back-to-back (closed loop: the
//! next request waits for the previous response). Keys are drawn from a
//! Zipf distribution over `--keys` distinct keys, the classic skew of
//! cache workloads; a configurable fraction of requests are `SET`s.
//! Per-request latency goes into a shared log-bucketed histogram, and the
//! run ends with a summary table plus, with `--json <dir>`, a
//! `BENCH_serve.json` report combining client-side latency percentiles
//! and healing counters with the server's own `STATS` numbers.
//!
//! # Chaos mode
//!
//! Any `--chaos-*` flag interposes an in-process [`ChaosProxy`] between
//! the workers and `--addr`, injecting seeded resets, corruption,
//! truncation, stalls, and (with `--chaos-partition-at-s`) one scripted
//! full partition. The run then doubles as a robustness check: every GET
//! value is validated, and the process exits nonzero on any wrong value
//! or any worker giving up — corrupted bytes must surface as detected
//! malformed frames (reconnect), never as data.
//!
//! # Open-loop / scaling-curve mode
//!
//! `--rate R` switches to an open-loop arrival process: requests are
//! *scheduled* at a fixed aggregate rate and spread round-robin over
//! `--conns` connections, so most connections sit idle — the C10K shape
//! a thread-per-connection server cannot hold. Latency is measured from
//! each request's **scheduled** send time, so a server that falls behind
//! accrues the queueing delay in its percentiles instead of silently
//! slowing the generator down (no coordinated omission). Connections are
//! multiplexed over a small thread pool (`--curve-threads`), not one
//! thread each, so the generator itself stays cheap at five-digit conn
//! counts. `--curve N,N,...` runs one open-loop stage per connection
//! count and prints a `curve:` line for each. One run targets one
//! server; comparing two builds takes one run against each.

use csr_obs::{Histogram, Json, Registry};
use csr_serve::chaos::{ChaosConfig, ChaosProxy};
use csr_serve::client::{ClientMetrics, ConnectionError, FailoverClient, FailoverConfig, Timeouts};
use csr_serve::{Client, OriginError};
use mem_trace::rng::SplitMix64;
use std::net::ToSocketAddrs;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("run with --help for usage");
    std::process::exit(2);
}

fn usage() -> ! {
    println!(
        "loadgen: closed-loop Zipf load generator for csr-serve

USAGE: loadgen [OPTIONS]

  --addr HOST:PORT          server address (default 127.0.0.1:11311)
  --conns N                 worker connections (default 8)
  --secs N                  measured run duration in seconds (default 5)
  --warmup N                warm-up seconds before measurement starts (default 0):
                            load runs but latency/totals reset when it ends
  --keys N                  distinct keys (default 2048)
  --zipf THETA              Zipf skew; 0 = uniform (default 0.9)
  --scan-frac F             fraction of requests that sequentially scan a disjoint
                            one-touch key range instead of the Zipf draw (default 0)
  --scan-len N              per-worker scan cycle length in keys (default 4096)
  --set-ratio F             fraction of requests that are SETs (default 0.05)
  --value-len N             SET payload length in bytes (default 128)
  --seed N                  PRNG seed (default 42)
  --json DIR                write BENCH_serve.json into DIR
  --connect-timeout-ms N    client connect deadline (default 5000)
  --op-timeout-ms N         client read/write deadline per socket op (default 10000)
  --max-attempts N          reconnect+replay attempts per op before giving up (default 64)

Open-loop / scaling curve (incompatible with --chaos):
  --rate N                  open-loop mode: schedule N requests/sec in aggregate,
                            spread round-robin over --conns mostly-idle
                            connections; latency is measured from the scheduled
                            send time (default 0 = closed loop)
  --curve LIST              comma-separated connection counts; runs one open-loop
                            stage of --secs per count and prints a 'curve:' line
                            each (implies --rate; default rate 2000 if unset)
  --curve-threads N         generator threads multiplexing the connections
                            (default 32, capped at the stage's conn count)

Chaos (any flag interposes a seeded ChaosProxy in front of --addr):
  --chaos-seed N            fault-plan seed (default 1)
  --chaos-reset-rate F      immediate connection resets (default 0)
  --chaos-mid-reset-rate F  mid-reply connection resets (default 0)
  --chaos-corrupt-rate F    single-byte corruption (default 0)
  --chaos-truncate-rate F   mid-reply truncation (default 0)
  --chaos-stall-rate F      mid-stream stalls (default 0)
  --chaos-stall-ms N        stall duration (default 100)
  --chaos-throttle-bps N    bandwidth cap, bytes/sec; 0 = off (default 0)
  --chaos-partial-write-rate F  relay replies in 1-7 byte writes (default 0)
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
    zipf: f64,
    scan_frac: f64,
    scan_len: u64,
    set_ratio: f64,
    value_len: usize,
    seed: u64,
    json_dir: Option<std::path::PathBuf>,
    connect_timeout: Duration,
    op_timeout: Duration,
    max_attempts: u32,
    rate: f64,
    curve: Vec<usize>,
    curve_threads: usize,
    chaos: bool,
    chaos_config: ChaosConfig,
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
        zipf: 0.9,
        scan_frac: 0.0,
        scan_len: 4096,
        set_ratio: 0.05,
        value_len: 128,
        seed: 42,
        json_dir: None,
        connect_timeout: Duration::from_millis(5000),
        op_timeout: Duration::from_millis(10_000),
        max_attempts: 64,
        rate: 0.0,
        curve: Vec::new(),
        curve_threads: 32,
        chaos: false,
        chaos_config: ChaosConfig {
            seed: 1,
            ..ChaosConfig::default()
        },
        partition_at: None,
        partition_secs: 2,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = |name: &str| {
            it.next()
                .unwrap_or_else(|| die(&format!("{name} needs a value")))
        };
        if a.starts_with("--chaos-") {
            opts.chaos = true;
        }
        match a.as_str() {
            "--addr" => opts.addr = val("--addr"),
            "--conns" => opts.conns = parse_num(&val("--conns"), "--conns"),
            "--secs" => opts.secs = parse_num(&val("--secs"), "--secs"),
            "--warmup" => opts.warmup = parse_num(&val("--warmup"), "--warmup"),
            "--keys" => opts.keys = parse_num(&val("--keys"), "--keys"),
            "--zipf" => opts.zipf = parse_num(&val("--zipf"), "--zipf"),
            "--scan-frac" => opts.scan_frac = parse_num(&val("--scan-frac"), "--scan-frac"),
            "--scan-len" => opts.scan_len = parse_num(&val("--scan-len"), "--scan-len"),
            "--set-ratio" => opts.set_ratio = parse_num(&val("--set-ratio"), "--set-ratio"),
            "--value-len" => opts.value_len = parse_num(&val("--value-len"), "--value-len"),
            "--seed" => opts.seed = parse_num(&val("--seed"), "--seed"),
            "--json" => opts.json_dir = Some(val("--json").into()),
            "--connect-timeout-ms" => {
                opts.connect_timeout = Duration::from_millis(parse_num(
                    &val("--connect-timeout-ms"),
                    "--connect-timeout-ms",
                ))
            }
            "--op-timeout-ms" => {
                opts.op_timeout =
                    Duration::from_millis(parse_num(&val("--op-timeout-ms"), "--op-timeout-ms"))
            }
            "--max-attempts" => {
                opts.max_attempts = parse_num(&val("--max-attempts"), "--max-attempts")
            }
            "--rate" => opts.rate = parse_num(&val("--rate"), "--rate"),
            "--curve" => {
                opts.curve = val("--curve")
                    .split(',')
                    .map(|s| parse_num(s.trim(), "--curve"))
                    .collect()
            }
            "--curve-threads" => {
                opts.curve_threads = parse_num(&val("--curve-threads"), "--curve-threads")
            }
            "--chaos-seed" => {
                opts.chaos_config.seed = parse_num(&val("--chaos-seed"), "--chaos-seed")
            }
            "--chaos-reset-rate" => {
                opts.chaos_config.reset_rate =
                    parse_num(&val("--chaos-reset-rate"), "--chaos-reset-rate")
            }
            "--chaos-mid-reset-rate" => {
                opts.chaos_config.mid_reset_rate =
                    parse_num(&val("--chaos-mid-reset-rate"), "--chaos-mid-reset-rate")
            }
            "--chaos-corrupt-rate" => {
                opts.chaos_config.corrupt_rate =
                    parse_num(&val("--chaos-corrupt-rate"), "--chaos-corrupt-rate")
            }
            "--chaos-truncate-rate" => {
                opts.chaos_config.truncate_rate =
                    parse_num(&val("--chaos-truncate-rate"), "--chaos-truncate-rate")
            }
            "--chaos-stall-rate" => {
                opts.chaos_config.stall_rate =
                    parse_num(&val("--chaos-stall-rate"), "--chaos-stall-rate")
            }
            "--chaos-stall-ms" => {
                opts.chaos_config.stall =
                    Duration::from_millis(parse_num(&val("--chaos-stall-ms"), "--chaos-stall-ms"))
            }
            "--chaos-throttle-bps" => {
                opts.chaos_config.throttle_bytes_per_sec =
                    parse_num(&val("--chaos-throttle-bps"), "--chaos-throttle-bps")
            }
            "--chaos-partial-write-rate" => {
                opts.chaos_config.partial_write_rate = parse_num(
                    &val("--chaos-partial-write-rate"),
                    "--chaos-partial-write-rate",
                )
            }
            "--chaos-partition-at-s" => {
                opts.partition_at = Some(parse_num(
                    &val("--chaos-partition-at-s"),
                    "--chaos-partition-at-s",
                ))
            }
            "--chaos-partition-secs" => {
                opts.partition_secs =
                    parse_num(&val("--chaos-partition-secs"), "--chaos-partition-secs")
            }
            "-h" | "--help" => usage(),
            other => die(&format!("unknown flag '{other}'")),
        }
    }
    if opts.conns == 0 || opts.keys == 0 {
        die("--conns and --keys must be positive");
    }
    if !(0.0..=1.0).contains(&opts.scan_frac) {
        die("--scan-frac must be within 0..=1");
    }
    if opts.scan_len == 0 {
        die("--scan-len must be positive");
    }
    let open_loop = opts.rate > 0.0 || !opts.curve.is_empty();
    if open_loop && opts.chaos {
        die("--rate/--curve are incompatible with --chaos");
    }
    if open_loop {
        if opts.rate <= 0.0 {
            opts.rate = 2000.0;
        }
        if opts.curve.is_empty() {
            opts.curve = vec![opts.conns];
        }
        if opts.curve.contains(&0) {
            die("--curve stages must be positive");
        }
        if opts.curve_threads == 0 {
            die("--curve-threads must be positive");
        }
    }
    opts
}

fn parse_num<T: std::str::FromStr>(s: &str, flag: &str) -> T {
    s.parse()
        .unwrap_or_else(|_| die(&format!("{flag}: bad number '{s}'")))
}

/// Cumulative Zipf distribution over ranks `1..=n` with skew `theta`
/// (`theta = 0` degenerates to uniform). Sampling is a binary search for
/// a uniform draw in the CDF.
fn zipf_cdf(n: usize, theta: f64) -> Vec<f64> {
    let mut cdf = Vec::with_capacity(n);
    let mut total = 0.0f64;
    for rank in 1..=n {
        total += (rank as f64).powf(-theta);
        cdf.push(total);
    }
    for p in &mut cdf {
        *p /= total;
    }
    cdf
}

fn sample(cdf: &[f64], rng: &mut SplitMix64) -> usize {
    let r = rng.next_f64();
    cdf.partition_point(|&p| p < r).min(cdf.len() - 1)
}

struct Totals {
    ops: AtomicU64,
    sets: AtomicU64,
    scan_ops: AtomicU64,
    empty_gets: AtomicU64,
    stale_gets: AtomicU64,
    origin_errors: AtomicU64,
    maybe_applied: AtomicU64,
    /// GETs that returned a SET-shaped payload (all `b'v'`) for a key
    /// this run never SET: evidence of a previous run's write surviving
    /// a server restart through the persistence layer.
    restart_survivor_hits: AtomicU64,
    wrong_values: AtomicU64,
    errors: AtomicU64,
}

impl Totals {
    fn reset(&self) {
        self.ops.store(0, Ordering::Relaxed);
        self.sets.store(0, Ordering::Relaxed);
        self.scan_ops.store(0, Ordering::Relaxed);
        self.empty_gets.store(0, Ordering::Relaxed);
        self.stale_gets.store(0, Ordering::Relaxed);
        self.origin_errors.store(0, Ordering::Relaxed);
        self.maybe_applied.store(0, Ordering::Relaxed);
        // wrong_values, errors, and restart_survivor_hits are *verdict*
        // counters, not load counters: never reset, even across the
        // warm-up boundary.
    }
}

/// A GET value is plausible iff it is one of the two things this run can
/// produce: a loadgen SET payload (all `b'v'`) or a SimBacking synthesis
/// (the key itself, `#`-padded). Anything else means corruption reached
/// the application — the one thing the chaos run must never allow.
fn plausible_value(key: &str, data: &[u8]) -> bool {
    data.starts_with(key.as_bytes()) || data.iter().all(|&b| b == b'v')
}

/// One measured point on the connections-vs-latency scaling curve.
struct StagePoint {
    conns: usize,
    rate: f64,
    ops: u64,
    p50_us: u64,
    p99_us: u64,
    max_us: u64,
    shed: u64,
    errors: u64,
}

/// One open-loop stage: `conns` connections multiplexed over a small
/// thread pool, requests scheduled at `rate`/sec in aggregate and dealt
/// round-robin across the connections (each one mostly idle). Latency is
/// measured from the scheduled send time, so server-side queueing delay
/// lands in the percentiles instead of throttling the generator.
fn run_stage(conns: usize, opts: &Opts, wrong: &Arc<AtomicU64>) -> StagePoint {
    let threads = opts.curve_threads.min(conns);
    let latency = Arc::new(Histogram::new());
    let errors = Arc::new(AtomicU64::new(0));
    let shed = Arc::new(AtomicU64::new(0));
    let ops = Arc::new(AtomicU64::new(0));
    let timeouts = Timeouts {
        connect: opts.connect_timeout,
        read: opts.op_timeout,
        write: opts.op_timeout,
    };
    let cdf = Arc::new(zipf_cdf(opts.keys, opts.zipf));
    // All threads aim at one shared epoch so the aggregate arrival
    // process is a clean fixed-rate schedule, interleaved per thread.
    // The epoch is set only after every thread has finished connecting
    // (the barrier): otherwise a slow connect storm at high `conns`
    // leaves the early schedule far in the past and the first ticks
    // charge the connect time to the server's latency.
    let interval = Duration::from_secs_f64(f64::from(u32::try_from(threads).unwrap()) / opts.rate);
    let barrier = Arc::new(std::sync::Barrier::new(threads));
    let epoch: Arc<std::sync::OnceLock<Instant>> = Arc::new(std::sync::OnceLock::new());

    let workers: Vec<_> = (0..threads)
        .map(|t| {
            let latency = Arc::clone(&latency);
            let errors = Arc::clone(&errors);
            let shed = Arc::clone(&shed);
            let ops = Arc::clone(&ops);
            let wrong = Arc::clone(wrong);
            let cdf = Arc::clone(&cdf);
            let barrier = Arc::clone(&barrier);
            let epoch = Arc::clone(&epoch);
            let addr = opts.addr.clone();
            let mut rng = SplitMix64::new(opts.seed ^ (0x0c1e ^ t as u64));
            let my_conns = conns / threads + usize::from(t < conns % threads);
            let (set_ratio, value_len, secs) = (opts.set_ratio, opts.value_len, opts.secs);
            let offset = interval.mul_f64(t as f64 / threads as f64);
            std::thread::Builder::new()
                .name(format!("curve-{t}"))
                // Thousands of connections ride few threads, but keep
                // each one lean anyway: nothing here needs a deep stack.
                .stack_size(256 * 1024)
                .spawn(move || {
                    // Connect this thread's share of the stage's
                    // connections. A couple of retries absorb accept
                    // bursts when thousands connect at once.
                    let mut clients: Vec<Client> = Vec::with_capacity(my_conns);
                    for c in 0..my_conns {
                        let mut attempt = 0;
                        let connected = loop {
                            match Client::connect_with(addr.as_str(), &timeouts) {
                                Ok(cl) => break Some(cl),
                                Err(_) if attempt < 3 => {
                                    attempt += 1;
                                    std::thread::sleep(Duration::from_millis(25 << attempt));
                                }
                                Err(e) => {
                                    eprintln!("curve worker {t}: connect {c} failed: {e}");
                                    errors.fetch_add(1, Ordering::Relaxed);
                                    break None;
                                }
                            }
                        };
                        if let Some(cl) = connected {
                            clients.push(cl);
                        }
                    }
                    // Every thread reaches the barrier, connected or not
                    // — an early return here would strand the others.
                    barrier.wait();
                    let start = *epoch.get_or_init(|| Instant::now() + Duration::from_millis(50));
                    let deadline = start + Duration::from_secs(secs);
                    if clients.is_empty() {
                        return;
                    }
                    let payload = vec![b'v'; value_len];
                    let mut tick = 0u64;
                    loop {
                        let scheduled =
                            start + offset + interval * u32::try_from(tick).unwrap_or(u32::MAX);
                        if scheduled >= deadline {
                            break;
                        }
                        // Open loop: sleep *until* the schedule, never
                        // stretch it. Falling behind means the next send
                        // happens late and its latency says so.
                        let now = Instant::now();
                        if scheduled > now {
                            std::thread::sleep(scheduled - now);
                        }
                        let slot = usize::try_from(tick).unwrap_or(usize::MAX) % clients.len();
                        let key = format!("key:{}", sample(&cdf, &mut rng));
                        let is_set = rng.chance(set_ratio);
                        let client = &mut clients[slot];
                        let outcome = if is_set {
                            client.set(&key, &payload).map(|()| None)
                        } else {
                            client.get(&key)
                        };
                        let us = u64::try_from(scheduled.elapsed().as_micros()).unwrap_or(u64::MAX);
                        match outcome {
                            Ok(value) => {
                                if let Some(v) = value {
                                    if !plausible_value(&key, &v) {
                                        eprintln!("curve worker {t}: WRONG VALUE for {key}");
                                        wrong.fetch_add(1, Ordering::Relaxed);
                                    }
                                }
                                ops.fetch_add(1, Ordering::Relaxed);
                                latency.record(us.max(1));
                            }
                            Err(e) => {
                                // `SERVER_BUSY` is the server's load-shed
                                // policy talking, not a malfunction: count
                                // it as its own curve column so shedding
                                // engines chart honestly without failing
                                // the generator's verdict.
                                if e.to_string().contains("SERVER_BUSY") {
                                    shed.fetch_add(1, Ordering::Relaxed);
                                } else {
                                    eprintln!("curve worker {t}: {key} failed: {e}");
                                    errors.fetch_add(1, Ordering::Relaxed);
                                }
                                // The connection is suspect; replace it so
                                // one bad socket doesn't fail every later
                                // tick that lands on its slot.
                                match Client::connect_with(addr.as_str(), &timeouts) {
                                    Ok(fresh) => clients[slot] = fresh,
                                    Err(_) => {
                                        clients.swap_remove(slot);
                                        if clients.is_empty() {
                                            return;
                                        }
                                    }
                                }
                            }
                        }
                        tick += 1;
                    }
                })
                .expect("spawn curve worker")
        })
        .collect();
    for w in workers {
        let _ = w.join();
    }
    let hist = latency.snapshot();
    StagePoint {
        conns,
        rate: opts.rate,
        ops: ops.load(Ordering::Relaxed),
        p50_us: hist.quantile(0.50),
        p99_us: hist.quantile(0.99),
        max_us: hist.max(),
        shed: shed.load(Ordering::Relaxed),
        errors: errors.load(Ordering::Relaxed),
    }
}

/// Open-loop scaling-curve mode: one stage per `--curve` count against
/// `--addr`, a printed `curve:` line per stage, and with `--json` a
/// BENCH_serve.json whose data is the scaling curve itself. Exits the
/// process.
fn curve_main(opts: &Opts) -> ! {
    let wrong = Arc::new(AtomicU64::new(0));
    let mut points: Vec<StagePoint> = Vec::new();
    for &conns in &opts.curve {
        let point = run_stage(conns, opts, &wrong);
        println!(
            "curve: addr={} conns={} rate={:.0} ops={} p50_us={} p99_us={} max_us={} shed={} errors={}",
            opts.addr,
            point.conns,
            point.rate,
            point.ops,
            point.p50_us,
            point.p99_us,
            point.max_us,
            point.shed,
            point.errors,
        );
        points.push(point);
    }

    let errors: u64 = points.iter().map(|p| p.errors).sum();
    if let Some(dir) = &opts.json_dir {
        let curve: Vec<Json> = points
            .iter()
            .map(|p| {
                Json::obj([
                    ("conns", Json::uint(p.conns as u64)),
                    ("rate", Json::Float(p.rate)),
                    ("ops", Json::uint(p.ops)),
                    ("p50_us", Json::uint(p.p50_us)),
                    ("p99_us", Json::uint(p.p99_us)),
                    ("max_us", Json::uint(p.max_us)),
                    ("shed", Json::uint(p.shed)),
                    ("errors", Json::uint(p.errors)),
                ])
            })
            .collect();
        let meta = Json::obj([
            ("tool", Json::str("loadgen")),
            ("version", Json::str(env!("CARGO_PKG_VERSION"))),
            ("seed", Json::uint(opts.seed)),
            ("rate", Json::Float(opts.rate)),
            ("secs_per_stage", Json::uint(opts.secs)),
            ("keys", Json::uint(opts.keys as u64)),
            ("zipf", Json::Float(opts.zipf)),
            ("set_ratio", Json::Float(opts.set_ratio)),
            ("curve_threads", Json::uint(opts.curve_threads as u64)),
        ]);
        let report = Json::obj([
            ("experiment", Json::str("serve_scaling_curve")),
            ("addr", Json::str(opts.addr.clone())),
            ("meta", meta),
            (
                "data",
                Json::obj([
                    ("scaling_curve", Json::Arr(curve)),
                    ("wrong_values", Json::uint(wrong.load(Ordering::Relaxed))),
                    ("errors", Json::uint(errors)),
                ]),
            ),
        ]);
        let text = report.render();
        Json::parse(&text).expect("rendered report must re-parse");
        std::fs::create_dir_all(dir).expect("create --json directory");
        let path = dir.join("BENCH_serve.json");
        std::fs::write(&path, text + "\n").expect("write JSON report");
        eprintln!("wrote {}", path.display());
    }
    let wrong = wrong.load(Ordering::Relaxed);
    if wrong > 0 || errors > 0 {
        eprintln!("loadgen: FAILED ({wrong} wrong values, {errors} errors)");
        std::process::exit(1);
    }
    std::process::exit(0);
}

fn main() {
    let opts = parse_args();
    if !opts.curve.is_empty() {
        curve_main(&opts);
    }
    let cdf = Arc::new(zipf_cdf(opts.keys, opts.zipf));
    let latency = Arc::new(Histogram::new());
    let totals = Arc::new(Totals {
        ops: AtomicU64::new(0),
        sets: AtomicU64::new(0),
        scan_ops: AtomicU64::new(0),
        empty_gets: AtomicU64::new(0),
        stale_gets: AtomicU64::new(0),
        origin_errors: AtomicU64::new(0),
        maybe_applied: AtomicU64::new(0),
        restart_survivor_hits: AtomicU64::new(0),
        wrong_values: AtomicU64::new(0),
        errors: AtomicU64::new(0),
    });
    // One bit per Zipf-namespace key: set when any worker SETs it this
    // run. A SET-shaped GET value on an unmarked key can only have come
    // from a previous run, recovered across a restart.
    let set_keys: Arc<Vec<AtomicU64>> = Arc::new(
        (0..opts.keys.div_ceil(64))
            .map(|_| AtomicU64::new(0))
            .collect(),
    );
    let registry = Registry::new();
    let client_metrics = ClientMetrics::new(&registry);

    // Chaos mode: interpose the proxy in front of --addr.
    let proxy = if opts.chaos {
        let upstream = opts
            .addr
            .to_socket_addrs()
            .ok()
            .and_then(|mut addrs| addrs.next())
            .unwrap_or_else(|| die(&format!("chaos upstream {}: cannot resolve", opts.addr)));
        let proxy = ChaosProxy::start(upstream, opts.chaos_config.clone())
            .unwrap_or_else(|e| die(&format!("chaos proxy failed to start: {e}")));
        eprintln!(
            "loadgen: chaos proxy on {} -> {} (seed {})",
            proxy.addr(),
            upstream,
            opts.chaos_config.seed
        );
        Some(Arc::new(proxy))
    } else {
        None
    };
    let target = proxy
        .as_ref()
        .map_or_else(|| opts.addr.clone(), |p| p.addr().to_string());
    // The scripted partition: one thread flips the proxy off and back on.
    if let (Some(proxy), Some(at)) = (proxy.clone(), opts.partition_at) {
        let secs = opts.partition_secs;
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_secs(at));
            eprintln!("loadgen: chaos partition begins ({secs}s)");
            proxy.set_partitioned(true);
            std::thread::sleep(Duration::from_secs(secs));
            proxy.set_partitioned(false);
            eprintln!("loadgen: chaos partition healed");
        });
    }

    let failover_config = FailoverConfig {
        timeouts: Timeouts {
            connect: opts.connect_timeout,
            read: opts.op_timeout,
            write: opts.op_timeout,
        },
        max_attempts: opts.max_attempts,
        ..FailoverConfig::default()
    };

    let launched = Instant::now();
    let deadline = launched + Duration::from_secs(opts.warmup + opts.secs);
    let workers: Vec<_> = (0..opts.conns)
        .map(|i| {
            let cdf = Arc::clone(&cdf);
            let latency = Arc::clone(&latency);
            let totals = Arc::clone(&totals);
            let set_keys = Arc::clone(&set_keys);
            let target = target.clone();
            let metrics = client_metrics.clone();
            let mut rng = SplitMix64::new(opts.seed ^ (0x9e37 + i as u64));
            let (set_ratio, value_len) = (opts.set_ratio, opts.value_len);
            let (keys, scan_len, scan_frac) = (opts.keys as u64, opts.scan_len, opts.scan_frac);
            let config = FailoverConfig {
                seed: opts.seed.wrapping_add(i as u64),
                ..failover_config
            };
            std::thread::spawn(move || {
                let mut client = FailoverClient::new(target, config).with_metrics(metrics);
                let payload = vec![b'v'; value_len];
                let mut scan_pos = 0u64;
                let scan_base = keys + i as u64 * scan_len;
                while Instant::now() < deadline {
                    let is_scan = scan_frac > 0.0 && rng.chance(scan_frac);
                    let key_idx = if is_scan {
                        // One-touch sequential sweep over a per-worker
                        // key range disjoint from the Zipf namespace.
                        let k = scan_base + scan_pos % scan_len;
                        scan_pos += 1;
                        totals.scan_ops.fetch_add(1, Ordering::Relaxed);
                        k
                    } else {
                        sample(&cdf, &mut rng) as u64
                    };
                    let key = format!("key:{key_idx}");
                    let is_set = !is_scan && rng.chance(set_ratio);
                    let t0 = Instant::now();
                    let outcome = if is_set {
                        totals.sets.fetch_add(1, Ordering::Relaxed);
                        // Mark before sending: an ambiguous SET (cut
                        // mid-flight, maybe applied) must still disqualify
                        // the key from counting as a restart survivor.
                        if let Some(word) = set_keys.get(key_idx as usize / 64) {
                            word.fetch_or(1 << (key_idx % 64), Ordering::Relaxed);
                        }
                        client.set(&key, &payload)
                    } else {
                        match client.get_value(&key) {
                            Ok(None) => {
                                totals.empty_gets.fetch_add(1, Ordering::Relaxed);
                                Ok(())
                            }
                            Ok(Some(v)) => {
                                if v.stale {
                                    totals.stale_gets.fetch_add(1, Ordering::Relaxed);
                                }
                                if !plausible_value(&key, &v.data) {
                                    eprintln!("worker {i}: WRONG VALUE for {key}");
                                    totals.wrong_values.fetch_add(1, Ordering::Relaxed);
                                } else if v.data.iter().all(|&b| b == b'v')
                                    && set_keys.get(key_idx as usize / 64).is_some_and(|word| {
                                        word.load(Ordering::Relaxed) & (1 << (key_idx % 64)) == 0
                                    })
                                {
                                    // A SET payload this run never wrote:
                                    // a previous run's write served back
                                    // across a restart.
                                    totals.restart_survivor_hits.fetch_add(1, Ordering::Relaxed);
                                }
                                Ok(())
                            }
                            Err(e) => Err(e),
                        }
                    };
                    let us = u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX);
                    match outcome {
                        Ok(()) => {
                            totals.ops.fetch_add(1, Ordering::Relaxed);
                            latency.record(us.max(1));
                        }
                        // A degraded origin is part of the workload under
                        // test, not a loadgen failure: the round-trip
                        // completed, so count it and keep going.
                        Err(e) if e.get_ref().is_some_and(|inner| inner.is::<OriginError>()) => {
                            totals.origin_errors.fetch_add(1, Ordering::Relaxed);
                            totals.ops.fetch_add(1, Ordering::Relaxed);
                            latency.record(us.max(1));
                        }
                        // A SET cut mid-flight: the client refuses to
                        // replay it (it may have applied). Under chaos
                        // that is correct behavior, not a failure.
                        Err(e) if ConnectionError::is_maybe_applied(&e) => {
                            totals.maybe_applied.fetch_add(1, Ordering::Relaxed);
                            latency.record(us.max(1));
                        }
                        Err(e) => {
                            eprintln!("worker {i}: request failed: {e}");
                            totals.errors.fetch_add(1, Ordering::Relaxed);
                            return;
                        }
                    }
                }
                client.close();
            })
        })
        .collect();
    // Warm-up phase: the load runs but nothing it measured is kept — when
    // the phase ends, the shared histogram and totals reset and the clock
    // restarts. Workers mid-request contribute a straggling sample each
    // across the boundary: noise, not bias, and no coordination barrier.
    let mut measured_from = launched;
    if opts.warmup > 0 {
        std::thread::sleep(Duration::from_secs(opts.warmup));
        latency.reset();
        totals.reset();
        measured_from = Instant::now();
        eprintln!("loadgen: warmup over ({}s), measuring", opts.warmup);
    }
    for w in workers {
        let _ = w.join();
    }
    let elapsed = measured_from.elapsed().as_secs_f64();

    let ops = totals.ops.load(Ordering::Relaxed);
    let hist = latency.snapshot();
    let throughput = ops as f64 / elapsed.max(f64::EPSILON);
    println!("loadgen: {} -> {}", opts.conns, opts.addr);
    println!(
        "  ops {ops} ({:.0} ops/s over {elapsed:.2}s), sets {}, scans {}, empty gets {}, stale gets {}, origin errors {}, errors {}",
        throughput,
        totals.sets.load(Ordering::Relaxed),
        totals.scan_ops.load(Ordering::Relaxed),
        totals.empty_gets.load(Ordering::Relaxed),
        totals.stale_gets.load(Ordering::Relaxed),
        totals.origin_errors.load(Ordering::Relaxed),
        totals.errors.load(Ordering::Relaxed),
    );
    println!(
        "  latency us: mean {:.0}  p50 {}  p90 {}  p99 {}  max {}",
        hist.mean(),
        hist.quantile(0.50),
        hist.quantile(0.90),
        hist.quantile(0.99),
        hist.max(),
    );
    println!(
        "  client: reconnects {}  replays {}  deadline timeouts {}  maybe-applied {}  restart survivors {}  wrong values {}",
        client_metrics.reconnects.get(),
        client_metrics.replays.get(),
        client_metrics.deadline_timeouts.get(),
        totals.maybe_applied.load(Ordering::Relaxed),
        totals.restart_survivor_hits.load(Ordering::Relaxed),
        totals.wrong_values.load(Ordering::Relaxed),
    );
    let chaos_snapshot = proxy.as_ref().map(|p| p.counters());
    if let Some(snap) = &chaos_snapshot {
        println!(
            "  chaos: conns {}  resets {}  mid-resets {}  truncations {}  corruptions {}  stalls {}  partition rejects {}  partition cuts {}",
            snap.connections,
            snap.resets,
            snap.mid_resets,
            snap.truncations,
            snap.corruptions,
            snap.stalls,
            snap.partition_rejects,
            snap.partition_cuts,
        );
    }

    // Pull the server's own accounting — directly from --addr, not
    // through the chaos proxy: the verdict below must not depend on one
    // more coin flip.
    let server_stats = match Client::connect(opts.addr.as_str()).and_then(|mut c| c.stats()) {
        Ok(stats) => stats,
        Err(e) => {
            eprintln!("loadgen: STATS fetch failed: {e}");
            Vec::new()
        }
    };
    let lookup = |name: &str| {
        server_stats
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
            .unwrap_or("")
    };
    let s_uint = |name: &str| Json::uint(lookup(name).parse().unwrap_or(0));
    let s_float = |name: &str| Json::Float(lookup(name).parse().unwrap_or(0.0));
    if !server_stats.is_empty() {
        println!(
            "  server: policy {} hit_rate {} aggregate_miss_cost {} coalesced {}",
            lookup("policy"),
            lookup("hit_rate"),
            lookup("aggregate_miss_cost"),
            lookup("coalesced_fetches"),
        );
    }

    if let Some(dir) = &opts.json_dir {
        let mut data = vec![
            ("ops", Json::uint(ops)),
            ("sets", Json::uint(totals.sets.load(Ordering::Relaxed))),
            (
                "scan_ops",
                Json::uint(totals.scan_ops.load(Ordering::Relaxed)),
            ),
            (
                "empty_gets",
                Json::uint(totals.empty_gets.load(Ordering::Relaxed)),
            ),
            (
                "stale_gets",
                Json::uint(totals.stale_gets.load(Ordering::Relaxed)),
            ),
            (
                "origin_errors",
                Json::uint(totals.origin_errors.load(Ordering::Relaxed)),
            ),
            (
                "restart_survivor_hits",
                Json::uint(totals.restart_survivor_hits.load(Ordering::Relaxed)),
            ),
            ("errors", Json::uint(totals.errors.load(Ordering::Relaxed))),
            ("elapsed_s", Json::Float(elapsed)),
            ("throughput_ops_per_s", Json::Float(throughput)),
            (
                "latency_us",
                Json::obj([
                    ("mean", Json::Float(hist.mean())),
                    ("p50", Json::uint(hist.quantile(0.50))),
                    ("p90", Json::uint(hist.quantile(0.90))),
                    ("p99", Json::uint(hist.quantile(0.99))),
                    ("max", Json::uint(hist.max())),
                ]),
            ),
            (
                "client",
                Json::obj([
                    ("reconnects", Json::uint(client_metrics.reconnects.get())),
                    ("replays", Json::uint(client_metrics.replays.get())),
                    (
                        "deadline_timeouts",
                        Json::uint(client_metrics.deadline_timeouts.get()),
                    ),
                    (
                        "maybe_applied",
                        Json::uint(totals.maybe_applied.load(Ordering::Relaxed)),
                    ),
                    (
                        "wrong_values",
                        Json::uint(totals.wrong_values.load(Ordering::Relaxed)),
                    ),
                ]),
            ),
            (
                "server",
                Json::obj([
                    ("policy", Json::str(lookup("policy"))),
                    ("lookups", s_uint("lookups")),
                    ("hits", s_uint("hits")),
                    ("misses", s_uint("misses")),
                    ("hit_rate", s_float("hit_rate")),
                    ("aggregate_miss_cost", s_uint("aggregate_miss_cost")),
                    ("mean_miss_cost", s_float("mean_miss_cost")),
                    ("coalesced_fetches", s_uint("coalesced_fetches")),
                    ("evictions", s_uint("evictions")),
                    ("resident", s_uint("resident")),
                    ("connections_shed", s_uint("connections_shed")),
                    ("conn_limit_rejects", s_uint("conn_limit_rejects")),
                    ("conn_slowloris_drops", s_uint("conn_slowloris_drops")),
                    ("requests_get", s_uint("requests_get")),
                    ("requests_set", s_uint("requests_set")),
                    (
                        "persist_recovered_entries",
                        s_uint("persist_recovered_entries"),
                    ),
                    ("persist_appends", s_uint("persist_appends")),
                    ("persist_degraded", s_uint("persist_degraded")),
                ]),
            ),
        ];
        if let Some(snap) = &chaos_snapshot {
            data.push((
                "chaos",
                Json::obj([
                    ("seed", Json::uint(opts.chaos_config.seed)),
                    ("connections", Json::uint(snap.connections)),
                    ("resets", Json::uint(snap.resets)),
                    ("mid_resets", Json::uint(snap.mid_resets)),
                    ("truncations", Json::uint(snap.truncations)),
                    ("corruptions", Json::uint(snap.corruptions)),
                    ("stalls", Json::uint(snap.stalls)),
                    ("shaped_chunks", Json::uint(snap.shaped_chunks)),
                    ("partition_rejects", Json::uint(snap.partition_rejects)),
                    ("partition_cuts", Json::uint(snap.partition_cuts)),
                    ("upstream_failures", Json::uint(snap.upstream_failures)),
                    ("injected_total", Json::uint(snap.injected_total())),
                ]),
            ));
        }
        // Run metadata, self-describing: a BENCH file found cold still
        // says what produced it and with which knobs.
        let meta = Json::obj([
            ("tool", Json::str("loadgen")),
            ("version", Json::str(env!("CARGO_PKG_VERSION"))),
            ("seed", Json::uint(opts.seed)),
            ("conns", Json::uint(opts.conns as u64)),
            ("keys", Json::uint(opts.keys as u64)),
            ("zipf", Json::Float(opts.zipf)),
            ("set_ratio", Json::Float(opts.set_ratio)),
            ("scan_frac", Json::Float(opts.scan_frac)),
            ("scan_len", Json::uint(opts.scan_len)),
            ("secs", Json::uint(opts.secs)),
            ("warmup", Json::uint(opts.warmup)),
            ("chaos", Json::Bool(opts.chaos)),
        ]);
        let report = Json::obj([
            ("experiment", Json::str("serve_loadgen")),
            ("addr", Json::str(opts.addr.clone())),
            ("conns", Json::uint(opts.conns as u64)),
            ("secs", Json::uint(opts.secs)),
            ("warmup", Json::uint(opts.warmup)),
            ("keys", Json::uint(opts.keys as u64)),
            ("zipf", Json::Float(opts.zipf)),
            ("set_ratio", Json::Float(opts.set_ratio)),
            ("seed", Json::uint(opts.seed)),
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

    // The verdict: wrong values or workers that gave up fail the run —
    // the exit code is what CI's chaos smoke asserts on.
    let wrong = totals.wrong_values.load(Ordering::Relaxed);
    let errors = totals.errors.load(Ordering::Relaxed);
    if wrong > 0 || errors > 0 {
        eprintln!("loadgen: FAILED ({wrong} wrong values, {errors} worker errors)");
        std::process::exit(1);
    }
}
