//! The `csr-serve` daemon: binds a TCP cache server and runs until
//! SIGTERM/SIGINT, then shuts down gracefully (drain in-flight requests,
//! flush the final metrics report).
//!
//! ```text
//! csr-serve --addr 127.0.0.1:11311 --policy dcl --capacity 65536 \
//!           --backing sim --slow-us 800 --metrics-file metrics.prom
//! ```

use csr_cache::Policy;
use csr_serve::server::{serve, ReportSink, ServerConfig};
use csr_serve::{Backing, FaultBacking, FsyncPolicy, NoBacking, PersistConfig, SimBacking};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Set by the signal handler; polled by the main loop.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_signum: i32) {
    // Only async-signal-safe work here: a single atomic store.
    SHUTDOWN.store(true, Ordering::Release);
}

/// Installs `on_signal` for SIGINT and SIGTERM via the C `signal(2)`
/// entry point — the one piece of FFI in the workspace, confined to this
/// binary so the library crates keep `#![forbid(unsafe_code)]`.
#[cfg(unix)]
fn install_signal_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("run with --help for usage");
    std::process::exit(2);
}

fn usage() -> ! {
    // The accept-list is generated from Policy::ALL so this text can
    // never drift from what --policy actually accepts.
    let policies = Policy::ALL
        .iter()
        .map(|p| p.name().to_ascii_lowercase())
        .collect::<Vec<_>>()
        .join(" | ");
    println!(
        "csr-serve: cost-sensitive network cache server

USAGE: csr-serve [OPTIONS]

  --addr HOST:PORT        listen address (default 127.0.0.1:11311; port 0 picks a free port)
  --capacity N            cache capacity in entries (default 65536)
  --shards N              shard count (default: available parallelism rounded up
                          to a power of two, at most 64)
  --policy NAME           {policies} (default dcl)
  --workers N             worker threads = connections served at once (default 64);
                          idle connections park on one poller thread instead
  --max-conns N           open-connection ceiling; past it new connections get
                          SERVER_BUSY (default 0 = unbounded)
  --idle-timeout-ms N     close idle connections after N ms (default 30000)
  --partial-deadline-ms N deadline for reading one request once started (slowloris cutoff, default 10000)
  --backing KIND          sim | none | fault (default sim; fault = sim + fault injection)
  --fast-us N             sim backing: fast-tier latency, microseconds (default 100)
  --slow-us N             sim backing: slow-tier latency, microseconds (default 800)
  --slow-every N          sim backing: 1 in N keys is slow; 0 disables (default 8)
  --value-len N           sim backing: synthesized value length (default 128)
  --fault-seed N          fault backing: PRNG seed (default 1)
  --fault-error-rate F    fault backing: probability a fetch fails (default 0.1)
  --fetch-deadline-ms N   per-fetch deadline; 0 disables (default 0)
  --fetch-retries N       retries after a failed fetch (default 2)
  --breaker-threshold N   consecutive failures that open the breaker; 0 disables (default 5)
  --breaker-cooldown-ms N open-breaker cooldown before half-open probing (default 1000)
  --stale-capacity N      stale-store entries for serve-stale (default: cache capacity)
  --persist-dir PATH      crash-safe persistence: WAL + snapshots in PATH;
                          recovery replays them before the listener opens
  --fsync POLICY          WAL durability: always | never | <ms> (fsync at most
                          once per that many milliseconds; default never)
  --snapshot-every N      appends between automatic snapshots; 0 = only at
                          shutdown (default 8192)
  --wal-segment-bytes N   rotate WAL segments past N bytes (default 4194304)
  --recovery-throttle-us N testing aid: slow recovery replay by N us per
                          256 records (default 0)
  --metrics-file PATH     periodically dump metrics to PATH (flushed on shutdown)
  --metrics-interval-ms N dump interval (default 1000)
  -h, --help              this text"
    );
    std::process::exit(0);
}

fn parse_policy(name: &str) -> Policy {
    Policy::parse(name).unwrap_or_else(|| die(&format!("unknown policy '{name}'")))
}

struct Opts {
    config: ServerConfig,
    backing_kind: String,
    sim: SimBacking,
    fault_seed: u64,
    fault_error_rate: f64,
    metrics_file: Option<std::path::PathBuf>,
    metrics_interval: Duration,
}

fn parse_args() -> Opts {
    let mut opts = Opts {
        config: ServerConfig {
            addr: "127.0.0.1:11311".to_owned(),
            ..ServerConfig::default()
        },
        backing_kind: "sim".to_owned(),
        sim: SimBacking::default(),
        fault_seed: 1,
        fault_error_rate: 0.1,
        metrics_file: None,
        metrics_interval: Duration::from_millis(1000),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = |name: &str| {
            it.next()
                .unwrap_or_else(|| die(&format!("{name} needs a value")))
        };
        match a.as_str() {
            "--addr" => opts.config.addr = val("--addr"),
            "--capacity" => opts.config.capacity = parse_positive(&val("--capacity"), "--capacity"),
            "--shards" => opts.config.shards = Some(parse_positive(&val("--shards"), "--shards")),
            "--policy" => opts.config.policy = parse_policy(&val("--policy")),
            "--max-conns" => opts.config.max_conns = parse_num(&val("--max-conns"), "--max-conns"),
            "--workers" => opts.config.workers = parse_positive(&val("--workers"), "--workers"),
            "--idle-timeout-ms" => {
                opts.config.idle_timeout =
                    Duration::from_millis(parse_num(&val("--idle-timeout-ms"), "--idle-timeout-ms"))
            }
            "--partial-deadline-ms" => {
                opts.config.partial_read_deadline = Duration::from_millis(parse_num(
                    &val("--partial-deadline-ms"),
                    "--partial-deadline-ms",
                ))
            }
            "--backing" => opts.backing_kind = val("--backing"),
            "--fast-us" => {
                opts.sim.fast = Duration::from_micros(parse_num(&val("--fast-us"), "--fast-us"))
            }
            "--slow-us" => {
                opts.sim.slow = Duration::from_micros(parse_num(&val("--slow-us"), "--slow-us"))
            }
            "--slow-every" => opts.sim.slow_every = parse_num(&val("--slow-every"), "--slow-every"),
            "--value-len" => opts.sim.value_len = parse_num(&val("--value-len"), "--value-len"),
            "--fault-seed" => opts.fault_seed = parse_num(&val("--fault-seed"), "--fault-seed"),
            "--fault-error-rate" => {
                opts.fault_error_rate = parse_num(&val("--fault-error-rate"), "--fault-error-rate")
            }
            "--fetch-deadline-ms" => {
                let ms: u64 = parse_num(&val("--fetch-deadline-ms"), "--fetch-deadline-ms");
                opts.config.resilience.deadline = (ms > 0).then(|| Duration::from_millis(ms));
            }
            "--fetch-retries" => {
                opts.config.resilience.retries =
                    parse_num(&val("--fetch-retries"), "--fetch-retries")
            }
            "--breaker-threshold" => {
                opts.config.resilience.breaker_threshold =
                    parse_num(&val("--breaker-threshold"), "--breaker-threshold")
            }
            "--breaker-cooldown-ms" => {
                opts.config.resilience.breaker_cooldown = Duration::from_millis(parse_num(
                    &val("--breaker-cooldown-ms"),
                    "--breaker-cooldown-ms",
                ))
            }
            "--stale-capacity" => {
                opts.config.stale_capacity =
                    Some(parse_num(&val("--stale-capacity"), "--stale-capacity"))
            }
            "--persist-dir" => {
                opts.config
                    .persist
                    .get_or_insert_with(PersistConfig::default)
                    .dir = val("--persist-dir").into()
            }
            "--fsync" => {
                let spec = val("--fsync");
                opts.config
                    .persist
                    .get_or_insert_with(PersistConfig::default)
                    .fsync = FsyncPolicy::parse(&spec).unwrap_or_else(|| {
                    die(&format!("--fsync wants always|never|<ms>, got '{spec}'"))
                })
            }
            "--snapshot-every" => {
                opts.config
                    .persist
                    .get_or_insert_with(PersistConfig::default)
                    .snapshot_every = parse_num(&val("--snapshot-every"), "--snapshot-every")
            }
            "--wal-segment-bytes" => {
                opts.config
                    .persist
                    .get_or_insert_with(PersistConfig::default)
                    .segment_bytes = parse_num(&val("--wal-segment-bytes"), "--wal-segment-bytes")
            }
            "--recovery-throttle-us" => {
                opts.config
                    .persist
                    .get_or_insert_with(PersistConfig::default)
                    .recovery_throttle = Duration::from_micros(parse_num(
                    &val("--recovery-throttle-us"),
                    "--recovery-throttle-us",
                ))
            }
            "--metrics-file" => opts.metrics_file = Some(val("--metrics-file").into()),
            "--metrics-interval-ms" => {
                opts.metrics_interval = Duration::from_millis(parse_num(
                    &val("--metrics-interval-ms"),
                    "--metrics-interval-ms",
                ))
            }
            "-h" | "--help" => usage(),
            other => die(&format!("unknown flag '{other}'")),
        }
    }
    opts
}

fn parse_num<T: std::str::FromStr>(s: &str, flag: &str) -> T {
    s.parse()
        .unwrap_or_else(|_| die(&format!("{flag}: bad number '{s}'")))
}

/// A count the server cannot run with at zero.
fn parse_positive(s: &str, flag: &str) -> usize {
    match parse_num(s, flag) {
        0 => die(&format!("{flag} must be positive")),
        n => n,
    }
}

fn main() {
    let opts = parse_args();
    install_signal_handlers();

    let backing: Arc<dyn Backing> = match opts.backing_kind.as_str() {
        "sim" => Arc::new(opts.sim.clone()),
        "none" => Arc::new(NoBacking),
        // A flaky sim origin: the knobs for soak-testing the
        // fault-tolerant path (see the CI flaky-origin smoke).
        "fault" => Arc::new(FaultBacking::new(
            Arc::new(opts.sim.clone()),
            opts.fault_seed,
            opts.fault_error_rate,
            0.0,
        )),
        other => die(&format!("unknown backing '{other}'")),
    };
    let mut config = opts.config;
    if let Some(path) = &opts.metrics_file {
        config.report = Some(ReportSink {
            path: path.clone(),
            interval: opts.metrics_interval,
        });
    }
    let policy = config.policy;
    let persist_info = config
        .persist
        .as_ref()
        .map(|pc| format!(" persist={} fsync={}", pc.dir.display(), pc.fsync.name()));
    if let Some(pc) = &mut config.persist {
        // SIGTERM/SIGINT during recovery replay must abort before the
        // listener opens: recovery polls the same flag the signal
        // handler sets.
        pc.cancel = Some(|| SHUTDOWN.load(Ordering::Acquire));
        eprintln!("csr-serve: recovering from {}", pc.dir.display());
    }
    let handle = match serve(config, backing) {
        Ok(handle) => handle,
        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {
            // A shutdown request that arrived mid-recovery: not an
            // error — the operator asked us to stop, and we never
            // opened the listener or served a single request.
            eprintln!("csr-serve: shutdown during recovery; exiting cleanly");
            std::process::exit(0);
        }
        Err(e) => die(&format!("failed to start: {e}")),
    };
    println!(
        "csr-serve listening on {} policy={} backing={}{}",
        handle.addr(),
        policy,
        opts.backing_kind,
        persist_info.unwrap_or_default()
    );

    while !SHUTDOWN.load(Ordering::Acquire) {
        std::thread::sleep(Duration::from_millis(50));
    }
    eprintln!("csr-serve: shutting down");
    let stats = handle.cache_stats();
    match handle.shutdown() {
        Ok(()) => eprintln!(
            "csr-serve: drained; lookups={} hit_rate={:.4} aggregate_miss_cost={}",
            stats.lookups,
            stats.hit_rate(),
            stats.aggregate_miss_cost
        ),
        Err(e) => {
            eprintln!("csr-serve: shutdown error: {e}");
            std::process::exit(1);
        }
    }
}
