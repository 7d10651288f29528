//! The adapter: the only file that names the product's types. Workloads and
//! the layer walk call these functions; when a product interface changes,
//! this file changes and nothing else does.
//!
//! Public surface used: `CsrCache::{builder, get, insert,
//! try_get_or_insert_with, stats, len}`, `Policy::parse`,
//! `csr_harness::{build_benchmarks, table2, run_sampled}`,
//! `proto::{read_request, write_value}`, `persist::{Record::encode,
//! decode_stream}`, `csr_obs::{Registry, Histogram}`, and the `csr-serve`
//! daemon binary driven through `csr_serve::Client`. Deliberately not named:
//! `SetView`, `victim` and the `IoMode` type, which ROADMAP means to replace
//! (`--io` is passed as a flag string only).

use crate::gen::{kv_cost, mix64};
use csr_cache::{CsrCache, Policy};
use csr_harness::{
    build_benchmarks, run_sampled, table2, Benchmark, CostRatio, PolicyKind, Scale, TraceSimConfig,
};
use csr_serve::persist::{decode_stream, Record, OP_SET};
use csr_serve::{proto, Client};
use mem_trace::cost_map::FirstTouchCostMap;
use std::collections::HashMap;
use std::convert::Infallible;
use std::hash::{BuildHasherDefault, Hasher};
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A fixed hash, so shard assignment is the same in every run: SplitMix64's
/// finalizer for `u64` keys, FNV-1a for bytes.
#[derive(Default, Clone, Copy)]
pub struct FixedHasher(u64);

impl Hasher for FixedHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut h = self.0 ^ 0xcbf2_9ce4_8422_2325;
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
        self.0 = mix64(h);
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = mix64(x.wrapping_add(0x9e37_79b9_7f4a_7c15));
    }
}

type FixedState = BuildHasherDefault<FixedHasher>;

fn policy(name: &str) -> Policy {
    Policy::parse(name).unwrap_or_else(|| panic!("the cache no longer knows policy '{name}'"))
}

/// The cache counters the benchmark reads, as a snapshot.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct Counters {
    pub lookups: u64,
    pub hits: u64,
    pub evictions: u64,
    pub reservations: u64,
    pub miss_cost: u64,
    pub coalesced: u64,
    /// WAL appends; zero where there is no WAL.
    pub appends: u64,
}

impl Counters {
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            lookups: self.lookups - earlier.lookups,
            hits: self.hits - earlier.hits,
            evictions: self.evictions - earlier.evictions,
            reservations: self.reservations - earlier.reservations,
            miss_cost: self.miss_cost - earlier.miss_cost,
            coalesced: self.coalesced - earlier.coalesced,
            appends: self.appends - earlier.appends,
        }
    }

    pub fn plus(&self, other: &Counters) -> Counters {
        Counters {
            lookups: self.lookups + other.lookups,
            hits: self.hits + other.hits,
            evictions: self.evictions + other.evictions,
            reservations: self.reservations + other.reservations,
            miss_cost: self.miss_cost + other.miss_cost,
            coalesced: self.coalesced + other.coalesced,
            appends: self.appends + other.appends,
        }
    }

    pub fn hit_ratio(&self) -> f64 {
        self.hits as f64 / self.lookups.max(1) as f64
    }
}

/// The in-process cache of the `kv-*` workloads: `u64 -> u64`, value equal
/// to key, miss cost from [`kv_cost`].
pub struct KvCache(CsrCache<u64, u64, FixedState>);

impl KvCache {
    /// `shards: None` is the product's default; `registry` attaches csr-obs
    /// metrics the way the server does.
    pub fn new(policy_name: &str, capacity: usize, shards: Option<usize>, registry: bool) -> Self {
        let mut b = CsrCache::builder(capacity)
            .policy(policy(policy_name))
            .cost_fn(|k: &u64, _v: &u64| kv_cost(*k));
        if let Some(n) = shards {
            b = b.shards(n);
        }
        if registry {
            b = b.metrics(Arc::new(csr_obs::Registry::new()));
        }
        KvCache(b.hasher(FixedState::default()).build())
    }

    /// Get, else insert: the look-aside loop. False only on a wrong value.
    #[inline]
    pub fn get_or_fill(&self, key: u64) -> bool {
        match self.0.get(&key) {
            Some(v) => v == key,
            None => {
                self.0.insert(key, key);
                true
            }
        }
    }

    pub fn insert(&self, key: u64) {
        self.0.insert(key, key);
    }

    pub fn resident(&self) -> usize {
        self.0.len()
    }

    pub fn counters(&self) -> Counters {
        let s = self.0.stats();
        Counters {
            lookups: s.lookups,
            hits: s.hits,
            evictions: s.evictions,
            reservations: s.reservations,
            miss_cost: s.aggregate_miss_cost,
            coalesced: s.coalesced_fetches,
            appends: 0,
        }
    }
}

/// The cache as the server holds it: `String` keys, shared byte values,
/// looked up through the single-flight read-through call.
pub struct ReadThroughCache(CsrCache<String, Arc<[u8]>, FixedState>);

impl ReadThroughCache {
    pub fn new(capacity: usize) -> Self {
        ReadThroughCache(
            CsrCache::builder(capacity)
                .policy(policy("dcl"))
                .hasher(FixedState::default())
                .build(),
        )
    }

    /// The server's GET path on the cache: an owned key per call, the value
    /// fetched by `origin` on a miss and charged cost 1.
    pub fn get(&self, key: &str, origin: impl FnOnce() -> Vec<u8>) -> Arc<[u8]> {
        self.0
            .try_get_or_insert_with(key.to_owned(), || {
                Ok::<_, Infallible>(Some((Arc::from(origin()), 1)))
            })
            .unwrap_or_else(|e| match e {})
            .expect("the origin always has the key")
    }
}

/// `n` bare `Histogram::record` calls.
pub fn histogram_records(n: u64) {
    let h = csr_obs::Histogram::new();
    for i in 0..n {
        h.record(std::hint::black_box(i & 0xfff));
    }
    std::hint::black_box(h.count());
}

/// The paper's four-kernel suite, generated by `csr-harness`.
pub struct SimSuite(Vec<Benchmark>);

/// One cell of Table 2.
pub struct Table2Cell {
    /// `kernel/policy/ratio`, the key of the golden file.
    pub label: String,
    pub savings_pct: f64,
}

/// L2 counters of one simulated run.
pub struct CoreRun {
    pub refs: u64,
    pub l2_accesses: u64,
    pub l2_hits: u64,
    pub l2_misses: u64,
    pub evictions: u64,
    pub reservations: u64,
}

const TABLE2_POLICIES: [PolicyKind; 4] = PolicyKind::PAPER_SET;

impl SimSuite {
    /// Generates the suite. Its seed is the paper reproduction's own
    /// (`BENCH_SEED`), so Table 2 is one fixed table whatever `--seed` says.
    pub fn build() -> Self {
        SimSuite(build_benchmarks(Scale::Quick))
    }

    /// References generated to build the suite (all processors).
    pub fn generated_refs(&self) -> u64 {
        self.0.iter().map(|b| b.characteristics.total_refs).sum()
    }

    /// References one `table2` pass simulates: every kernel's sample trace
    /// once per cell and once for its LRU baseline.
    pub fn table2_refs(&self) -> u64 {
        let runs = (CostRatio::TABLE2.len() * TABLE2_POLICIES.len() + 1) as u64;
        self.0
            .iter()
            .map(|b| b.sampled.events().len() as u64)
            .sum::<u64>()
            * runs
    }

    /// How many kernels (rows of Table 2) the suite has.
    pub fn kernels(&self) -> usize {
        self.0.len()
    }

    /// One kernel's row of Table 2: GD/BCL/DCL/ACL x 5 ratios on
    /// `paper_basic` caches. The four rows in order are the whole table,
    /// cell for cell what one `table2` call over all kernels returns.
    pub fn table2_row(&self, kernel: usize, threads: usize) -> Vec<Table2Cell> {
        table2(
            &self.0[kernel..=kernel],
            &CostRatio::TABLE2,
            &TABLE2_POLICIES,
            TraceSimConfig::paper_basic(),
            threads,
        )
        .into_iter()
        .map(|c| Table2Cell {
            label: format!("{}/{}/{}", c.benchmark, c.policy.label(), c.ratio),
            savings_pct: c.savings_pct,
        })
        .collect()
    }

    /// One policy core over the raytrace-like trace, first-touch costs, r=8.
    pub fn core_run(&self, core: &str) -> CoreRun {
        let kind = match core {
            "lru" => PolicyKind::Lru,
            "gd" => PolicyKind::Gd,
            "bcl" => PolicyKind::Bcl,
            "dcl" => PolicyKind::Dcl,
            "acl" => PolicyKind::Acl,
            other => panic!("no simulated core named '{other}'"),
        };
        let bench = self
            .0
            .iter()
            .find(|b| b.name == "raytrace")
            .expect("the suite has a raytrace kernel");
        let cfg = TraceSimConfig::paper_basic();
        let costs = FirstTouchCostMap::new(
            bench.placement.clone(),
            bench.sample,
            CostRatio::Finite(8).pair(),
            cfg.l2.block_bytes(),
        );
        let run = run_sampled(&bench.sampled, &costs, kind, cfg);
        CoreRun {
            refs: bench.sampled.events().len() as u64,
            l2_accesses: run.l2.accesses,
            l2_hits: run.l2.hits,
            l2_misses: run.l2.misses,
            evictions: run.l2.evictions,
            reservations: run.l2.non_lru_evictions,
        }
    }
}

/// The request frame the client sends for `GET key`.
pub fn get_frame(out: &mut Vec<u8>, key: &str) {
    out.extend_from_slice(format!("GET {key}\r\n").as_bytes());
}

/// The request frame the client sends for `SET key value`, checksum and all.
pub fn set_frame(out: &mut Vec<u8>, key: &str, value: &[u8]) {
    let head = format!("SET {key} {} {:08x}\r\n", value.len(), proto::crc32(value));
    out.extend_from_slice(head.as_bytes());
    out.extend_from_slice(value);
    out.extend_from_slice(b"\r\n");
}

/// Parses every request frame in `wire`; returns how many it found.
pub fn parse_requests(wire: &[u8]) -> usize {
    let mut cursor = wire;
    let mut n = 0;
    while let Ok(Some(req)) = proto::read_request(&mut cursor) {
        std::hint::black_box(&req);
        n += 1;
    }
    n
}

/// Appends the reply frame of a GET hit to `out`.
pub fn encode_value(out: &mut Vec<u8>, key: &str, value: &[u8]) {
    proto::write_value(out, key, value).expect("write to Vec");
}

/// The WAL frame of one SET.
pub fn encode_record(key: &str, value: &[u8], gen: u64) -> Vec<u8> {
    Record {
        op: OP_SET,
        gen,
        cost: 1,
        key: key.to_owned(),
        value: value.to_vec(),
    }
    .encode()
}

/// Decodes a WAL byte stream; returns how many records it held.
pub fn decode_records(bytes: &[u8]) -> usize {
    decode_stream(bytes).0.len()
}

/// A `csr-serve` daemon child on a free loopback port. Dropping it kills the
/// child and removes its persistence directory, on every exit path.
pub struct Daemon {
    bin: PathBuf,
    args: Vec<String>,
    child: Child,
    /// Held open so the daemon's stdout never becomes a broken pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: String,
    dir: Option<PathBuf>,
}

/// Flags of every benchmark daemon: shipped defaults, but an origin that
/// answers at once, so the server's own work is what is timed.
const DAEMON_ARGS: [&str; 6] = ["--backing", "sim", "--fast-us", "0", "--slow-us", "0"];

fn spawn_child(
    bin: &Path,
    args: &[String],
) -> Result<(Child, BufReader<ChildStdout>, String), String> {
    let mut child = Command::new(bin)
        .args(["--addr", "127.0.0.1:0"])
        .args(DAEMON_ARGS)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
    let mut line = String::new();
    // "csr-serve listening on <addr> policy=..." once recovery is done and
    // the listener is open; end of file if the daemon refused its flags.
    let banner = stdout.read_line(&mut line);
    let addr = line
        .strip_prefix("csr-serve listening on ")
        .and_then(|rest| rest.split_whitespace().next());
    match (banner, addr) {
        (Ok(_), Some(addr)) => Ok((child, stdout, addr.to_owned())),
        _ => {
            let _ = child.kill();
            let _ = child.wait();
            Err(format!(
                "daemon did not start with {args:?}: '{}'",
                line.trim()
            ))
        }
    }
}

impl Daemon {
    /// Starts the daemon with `args` after the common flags. With `persist`
    /// (a scratch directory and persistence flags) it gets those flags and a
    /// fresh `--persist-dir` under the directory.
    pub fn spawn(
        bin: &Path,
        args: &[&str],
        persist: Option<(&Path, &[&str])>,
    ) -> Result<Daemon, String> {
        let flags = persist.map_or(&[][..], |(_, flags)| flags);
        let mut args: Vec<String> = args.iter().chain(flags).map(|s| (*s).to_owned()).collect();
        let dir = persist.map(|(scratch, _)| {
            static NEXT: std::sync::atomic::AtomicU32 = std::sync::atomic::AtomicU32::new(0);
            let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            scratch.join(format!("wal-{}-{n}", std::process::id()))
        });
        if let Some(dir) = &dir {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            args.push("--persist-dir".to_owned());
            args.push(dir.display().to_string());
        }
        let (child, stdout, addr) = spawn_child(bin, &args)?;
        Ok(Daemon {
            bin: bin.to_owned(),
            args,
            child,
            _stdout: stdout,
            addr,
            dir,
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    pub fn connect(&self) -> Conn {
        Conn(Client::connect(self.addr.as_str()).expect("connect to the daemon"))
    }

    /// Bytes in the persistence directory.
    pub fn persisted_bytes(&self) -> u64 {
        let Some(dir) = &self.dir else { return 0 };
        std::fs::read_dir(dir)
            .map(|entries| {
                entries
                    .filter_map(|e| e.ok()?.metadata().ok())
                    .map(|m| m.len())
                    .sum()
            })
            .unwrap_or(0)
    }

    /// SIGTERM, then waits for the graceful exit (drain, final snapshot).
    fn terminate(&mut self) {
        extern "C" {
            fn kill(pid: i32, sig: i32) -> i32;
        }
        const SIGTERM: i32 = 15;
        // SAFETY: `kill(2)` takes two integers and touches no memory of
        // ours; the pid is our own un-reaped child, so it cannot have been
        // reused.
        unsafe { kill(self.child.id() as i32, SIGTERM) };
        let deadline = Instant::now() + Duration::from_secs(20);
        while matches!(self.child.try_wait(), Ok(None)) {
            if Instant::now() > deadline {
                let _ = self.child.kill();
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        let _ = self.child.wait();
    }

    /// Graceful stop, then a start on the same directory. Returns the time
    /// from spawn to the first `STATS` reply, which covers recovery.
    pub fn restart(&mut self) -> Result<f64, String> {
        self.terminate();
        let t0 = Instant::now();
        let (child, stdout, addr) = spawn_child(&self.bin, &self.args)?;
        self.child = child;
        self._stdout = stdout;
        self.addr = addr;
        self.connect().stats();
        Ok(t0.elapsed().as_secs_f64())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(dir) = &self.dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// One client connection.
pub struct Conn(Client);

impl Conn {
    /// `None` on any error or when the server has no value.
    pub fn get(&mut self, key: &str) -> Option<Vec<u8>> {
        self.0.get(key).ok().flatten()
    }

    pub fn set(&mut self, key: &str, value: &[u8]) -> bool {
        self.0.set(key, value).is_ok()
    }

    /// The `STATS` table.
    pub fn stats(&mut self) -> HashMap<String, String> {
        self.0.stats().expect("STATS reply").into_iter().collect()
    }

    /// One numeric `STATS` row, if the server prints it.
    pub fn stat(&mut self, name: &str) -> Option<u64> {
        self.stats().get(name)?.parse().ok()
    }

    /// The cache counters of `STATS`, and `(resident, capacity)`.
    pub fn counters(&mut self) -> (Counters, u64, u64) {
        let stats = self.stats();
        let n = |name: &str| -> u64 {
            stats
                .get(name)
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("STATS has no counter '{name}'"))
        };
        (
            Counters {
                lookups: n("lookups"),
                hits: n("hits"),
                evictions: n("evictions"),
                reservations: n("reservations"),
                miss_cost: n("aggregate_miss_cost"),
                coalesced: n("coalesced_fetches"),
                appends: stats
                    .get("persist_appends")
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(0),
            },
            n("resident"),
            n("capacity"),
        )
    }
}
