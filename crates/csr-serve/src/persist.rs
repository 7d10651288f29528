//! Crash-safe persistence: a segmented, CRC-32-framed write-ahead log
//! plus periodic full snapshots, so a restarted server comes back with
//! its resident set **and** each entry's measured miss cost — the state
//! that lets GD/BCL/DCL keep ranking a 60 ms origin fetch above a 1 ms
//! one across process death, instead of cold-starting into an origin
//! stampede.
//!
//! # On-disk layout
//!
//! Everything lives in one directory ([`PersistConfig::dir`]):
//!
//! ```text
//! LOCK                  exclusive-instance lock (flock; names the holder's pid)
//! wal-<seq:016x>.log    WAL segments, strictly increasing seq
//! snap-<seq:016x>.snap  full snapshots; <seq> = first WAL segment NOT
//!                       folded into the snapshot
//! ```
//!
//! # Record framing
//!
//! A WAL segment (and a snapshot body, after its 8-byte magic) is a
//! stream of identically framed records:
//!
//! ```text
//! [len: u32 LE] [crc32(payload): u32 LE] [payload: len bytes]
//! payload = op(1) gen(8 LE) cost(8 LE) klen(4 LE) vlen(4 LE) key value
//! ```
//!
//! `op` is [`OP_SET`] or [`OP_DEL`]; `gen` is a monotonically increasing
//! generation stamped on every mutation; `cost` is the entry's miss cost
//! in microseconds exactly as charged to the cache (measured fetch
//! latency for read-through fills, [`SET_COST`](crate::server::SET_COST)
//! for client stores). The CRC is [`crate::proto::crc32`] over the payload.
//!
//! # Torn-write truncation rule
//!
//! Decoding stops at the **first** record that does not fully verify —
//! a header that doesn't fit, a length beyond [`MAX_RECORD_LEN`], a
//! payload cut short, a CRC mismatch, or malformed payload internals.
//! Everything before that point is trusted; everything from it on is
//! discarded (and counted in `csr_serve_persist_truncated_records`).
//! A torn or bit-flipped tail is therefore *truncated, never served*:
//! recovery yields a prefix of the logged history, and no value with a
//! failing checksum can reach a client.
//!
//! # Snapshots
//!
//! A snapshot is taken every [`PersistConfig::snapshot_every`] appends
//! (and once more at graceful shutdown): the WAL rotates to a fresh
//! segment first, then [`CsrCache::export_entries`] clones the resident
//! `(key, value, cost)` triples out shard by shard (LRU first — the
//! replay-order hint), and the stream is written to a temp file,
//! fsynced, and atomically renamed into place. The directory itself is
//! then fsynced — a rename is atomic but not durable until its dir
//! entry is — and only after that are WAL segments older than the
//! snapshot's cover point pruned, so a crash (or power cut) at *any*
//! instant leaves either the old snapshot + full WAL or the new
//! snapshot + tail — never a gap.
//!
//! # Mutation/WAL atomicity
//!
//! For the explicit verbs (client `SET`/`DEL`) the cache mutation runs
//! *under the WAL append lock*, via `Persistence::log_set_with` /
//! `Persistence::log_del_with`: generation order, append order, and
//! cache-apply order are one total order, so replaying the log in file
//! order reconstructs exactly the state concurrent clients were
//! acknowledged against — a key the client saw `DELETED` can never be
//! resurrected by a `SET` that lost the cache race but won the log
//! race. Read-through fills append *before* their insert completes
//! (the insert happens inside the cache's single-flight slot), which
//! keeps the safe direction of that ordering: a fill that loses to a
//! concurrent DEL in the cache also sits before the DEL in the log, so
//! recovery errs toward re-fetching, never toward serving an
//! invalidated value.
//!
//! # Degraded mode
//!
//! A disk-full or I/O error on the append/snapshot path must not take
//! the serving path down with it: persistence flips into **degraded
//! serve-only mode** (gauge `csr_serve_persist_degraded` = 1), drops
//! subsequent appends, and periodically re-arms by trying to open a
//! fresh segment; the first successful re-arm takes a full snapshot to
//! resync the log with reality before appends resume.

use crate::proto::crc32;
use csr_cache::CsrCache;
use csr_obs::{Counter, Gauge, Registry};
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufWriter, ErrorKind, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A stored SET (insert with cost) record.
pub const OP_SET: u8 = 1;
/// A stored DEL (invalidation) record.
pub const OP_DEL: u8 = 2;

/// Hard ceiling on one framed record's payload length: an op byte, the
/// fixed fields, a maximal key and a maximal value, with headroom. A
/// length field beyond this is corruption by definition (nothing the
/// server can produce is this large), so the decoder can reject it
/// without attempting a giant allocation.
pub const MAX_RECORD_LEN: usize = 1 + 8 + 8 + 4 + 4 + 512 + (2 << 20);

/// Magic + version tag opening every snapshot file.
pub const SNAP_MAGIC: &[u8; 8] = b"CSRSNAP1";

/// Name of the exclusive-instance lock file.
const LOCK_FILE: &str = "LOCK";

/// How often a degraded log re-tries opening a fresh segment.
const REARM_EVERY: Duration = Duration::from_secs(2);

/// How many replayed records between cancellation checks (and recovery
/// throttle sleeps) during startup recovery.
const CANCEL_CHECK_EVERY: u64 = 256;

/// When to fsync the write-ahead log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// Fsync after every append: an acknowledged write is durable.
    Always,
    /// Fsync at most once per interval (data loss window = interval).
    Interval(Duration),
    /// Never fsync explicitly; durability is whatever the OS page cache
    /// grants. Survives process death (the kernel holds the pages), not
    /// machine death.
    #[default]
    Never,
}

impl FsyncPolicy {
    /// Parses the daemon flag spelling: `always` | `never` | `<ms>`
    /// (fsync at most once per that many milliseconds).
    #[must_use]
    pub fn parse(s: &str) -> Option<FsyncPolicy> {
        match s {
            "always" => Some(FsyncPolicy::Always),
            "never" => Some(FsyncPolicy::Never),
            ms => ms
                .parse::<u64>()
                .ok()
                .map(|ms| FsyncPolicy::Interval(Duration::from_millis(ms))),
        }
    }

    /// The flag spelling, as reported by `STATS persist_fsync`.
    #[must_use]
    pub fn name(self) -> String {
        match self {
            FsyncPolicy::Always => "always".to_owned(),
            FsyncPolicy::Never => "never".to_owned(),
            FsyncPolicy::Interval(d) => d.as_millis().to_string(),
        }
    }
}

/// Configures the persistence layer (see the module docs).
#[derive(Debug, Clone)]
pub struct PersistConfig {
    /// Directory holding the lock file, WAL segments, and snapshots.
    /// Created if absent.
    pub dir: PathBuf,
    /// When to fsync the WAL.
    pub fsync: FsyncPolicy,
    /// Appends between automatic snapshots (0 disables periodic
    /// snapshots; one is still taken at graceful shutdown).
    pub snapshot_every: u64,
    /// Rotate the active WAL segment past this many bytes.
    pub segment_bytes: u64,
    /// Polled during recovery replay: `true` aborts recovery cleanly
    /// (the daemon wires its SIGTERM flag here, so a shutdown request
    /// during a long replay stops the process *before* the listener
    /// opens instead of leaving a half-recovered server serving).
    pub cancel: Option<fn() -> bool>,
    /// Testing aid: sleep this long per `CANCEL_CHECK_EVERY` replayed
    /// records, widening the recovery window so signal-timing tests are
    /// deterministic. Zero (the default) adds no work.
    pub recovery_throttle: Duration,
}

impl Default for PersistConfig {
    fn default() -> Self {
        PersistConfig {
            dir: PathBuf::from("csr-data"),
            fsync: FsyncPolicy::Never,
            snapshot_every: 8192,
            segment_bytes: 4 << 20,
            cancel: None,
            recovery_throttle: Duration::ZERO,
        }
    }
}

/// One decoded WAL/snapshot record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// [`OP_SET`] or [`OP_DEL`].
    pub op: u8,
    /// Monotonic mutation generation.
    pub gen: u64,
    /// Miss cost in µs as charged to the cache (0 for DEL).
    pub cost: u64,
    /// The key.
    pub key: String,
    /// The value ([`OP_DEL`]: empty).
    pub value: Vec<u8>,
}

impl Record {
    /// Frames the record: length + CRC header, then the payload.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let klen = self.key.len();
        let vlen = self.value.len();
        let len = 1 + 8 + 8 + 4 + 4 + klen + vlen;
        let mut out = Vec::with_capacity(8 + len);
        let mut payload = Vec::with_capacity(len);
        payload.push(self.op);
        payload.extend_from_slice(&self.gen.to_le_bytes());
        payload.extend_from_slice(&self.cost.to_le_bytes());
        payload.extend_from_slice(&u32::try_from(klen).expect("key fits u32").to_le_bytes());
        payload.extend_from_slice(&u32::try_from(vlen).expect("value fits u32").to_le_bytes());
        payload.extend_from_slice(self.key.as_bytes());
        payload.extend_from_slice(&self.value);
        out.extend_from_slice(
            &u32::try_from(payload.len())
                .expect("record fits u32")
                .to_le_bytes(),
        );
        out.extend_from_slice(&crc32(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }
}

/// Why [`decode_record`] stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeEnd {
    /// Clean end of input: zero bytes remained.
    Eof,
    /// The bytes at the cursor are not a complete, CRC-valid record —
    /// the torn-write truncation point.
    Torn,
}

/// Decodes one framed record from `buf`, returning the record and the
/// number of bytes consumed, or the reason decoding must stop. Never
/// panics on arbitrary input, and never returns a record whose CRC did
/// not verify over a fully present payload.
pub fn decode_record(buf: &[u8]) -> Result<(Record, usize), DecodeEnd> {
    if buf.is_empty() {
        return Err(DecodeEnd::Eof);
    }
    if buf.len() < 8 {
        return Err(DecodeEnd::Torn);
    }
    let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
    let want = u32::from_le_bytes([buf[4], buf[5], buf[6], buf[7]]);
    // The fixed payload fields alone take 25 bytes.
    if !(25..=MAX_RECORD_LEN).contains(&len) || buf.len() < 8 + len {
        return Err(DecodeEnd::Torn);
    }
    let payload = &buf[8..8 + len];
    if crc32(payload) != want {
        return Err(DecodeEnd::Torn);
    }
    let op = payload[0];
    if op != OP_SET && op != OP_DEL {
        return Err(DecodeEnd::Torn);
    }
    let gen = u64::from_le_bytes(payload[1..9].try_into().expect("8 bytes"));
    let cost = u64::from_le_bytes(payload[9..17].try_into().expect("8 bytes"));
    let klen = u32::from_le_bytes(payload[17..21].try_into().expect("4 bytes")) as usize;
    let vlen = u32::from_le_bytes(payload[21..25].try_into().expect("4 bytes")) as usize;
    if 25 + klen + vlen != len {
        return Err(DecodeEnd::Torn);
    }
    let Ok(key) = std::str::from_utf8(&payload[25..25 + klen]) else {
        return Err(DecodeEnd::Torn);
    };
    let record = Record {
        op,
        gen,
        cost,
        key: key.to_owned(),
        value: payload[25 + klen..].to_vec(),
    };
    Ok((record, 8 + len))
}

/// Decodes a whole byte stream into records, stopping at the first torn
/// record. Returns the records plus whether the stream ended cleanly.
#[must_use]
pub fn decode_stream(bytes: &[u8]) -> (Vec<Record>, DecodeEnd) {
    let mut records = Vec::new();
    let mut at = 0;
    loop {
        match decode_record(&bytes[at..]) {
            Ok((r, used)) => {
                records.push(r);
                at += used;
            }
            Err(end) => return (records, end),
        }
    }
}

/// Persistence metric families (`csr_serve_persist_*`).
pub(crate) struct PersistMetrics {
    pub(crate) appends: Arc<Counter>,
    pub(crate) fsyncs: Arc<Counter>,
    pub(crate) snapshots: Arc<Counter>,
    pub(crate) recovered_entries: Arc<Counter>,
    pub(crate) truncated_records: Arc<Counter>,
    pub(crate) degraded: Arc<Gauge>,
    pub(crate) errors: Arc<Counter>,
}

impl PersistMetrics {
    fn new(registry: &Registry) -> Self {
        PersistMetrics {
            appends: registry.counter(
                "csr_serve_persist_appends_total",
                "WAL records appended",
                &[],
            ),
            fsyncs: registry.counter(
                "csr_serve_persist_fsyncs_total",
                "WAL/snapshot fsync calls issued",
                &[],
            ),
            snapshots: registry.counter(
                "csr_serve_persist_snapshots_total",
                "Full snapshots written",
                &[],
            ),
            recovered_entries: registry.counter(
                "csr_serve_persist_recovered_entries",
                "Entries re-inserted into the cache by startup recovery",
                &[],
            ),
            truncated_records: registry.counter(
                "csr_serve_persist_truncated_records_total",
                "Torn or CRC-invalid records truncated (never served)",
                &[],
            ),
            degraded: registry.gauge(
                "csr_serve_persist_degraded",
                "1 while persistence is in degraded serve-only mode",
                &[],
            ),
            errors: registry.counter(
                "csr_serve_persist_errors_total",
                "I/O errors on the persistence path (each may flip degraded mode)",
                &[],
            ),
        }
    }
}

/// The mutable half of the WAL writer, serialized by one mutex: append
/// order *is* the authoritative mutation order the log claims to record.
struct WalInner {
    /// The active segment's buffered writer (`None` while degraded).
    file: Option<BufWriter<File>>,
    /// The active segment's sequence number.
    seg_seq: u64,
    /// Bytes written to the active segment so far.
    seg_bytes: u64,
    /// Appends since the last snapshot (drives periodic snapshots).
    appends_since_snapshot: u64,
    /// Last explicit fsync (drives [`FsyncPolicy::Interval`]).
    last_fsync: Instant,
    /// Last re-arm attempt while degraded.
    last_rearm: Instant,
    /// Set while a degraded re-arm owes the log a resync snapshot.
    resync_needed: bool,
}

/// What startup recovery found.
#[derive(Debug, Default, Clone, Copy)]
pub struct RecoveryReport {
    /// Entries resident after replay (snapshot + WAL, net of DELs).
    pub recovered_entries: u64,
    /// Records replayed from WAL segments (SETs and DELs).
    pub wal_records: u64,
    /// Torn/CRC-invalid records truncated across snapshot + WAL.
    pub truncated_records: u64,
    /// Snapshot files that failed validation and were skipped.
    pub skipped_snapshots: u64,
}

/// The persistence engine: exclusive-instance lock, WAL writer,
/// snapshot writer, and startup recovery. One per server.
pub struct Persistence {
    config: PersistConfig,
    metrics: PersistMetrics,
    wal: Mutex<WalInner>,
    /// Monotonic generation stamp for the next mutation.
    next_gen: AtomicU64,
    /// Mirror of the degraded gauge, readable without the lock.
    degraded: AtomicBool,
    /// Guards against concurrent / re-entrant snapshots.
    snapshotting: AtomicBool,
    /// The `LOCK` file handle, held open with an exclusive OS lock
    /// (`File::try_lock`) for the process lifetime: the *atomic* claim
    /// that closes the read-then-write race two simultaneously starting
    /// daemons would otherwise have. The kernel releases it on any
    /// death, including SIGKILL.
    _lock: File,
}

/// The error a second `csr-serve` gets when the persistence dir is
/// already locked by a live instance.
fn lock_held_error(dir: &Path, holder: &str) -> io::Error {
    io::Error::new(
        ErrorKind::AddrInUse,
        format!(
            "persistence dir {} is locked by another csr-serve ({holder}); \
             refusing to interleave writes into one WAL",
            dir.display()
        ),
    )
}

/// Fsyncs `dir` itself: a file's fsync covers its data, not its
/// directory entry, so newly created or renamed names need this to be
/// durable across power loss. No-op off Unix (directories cannot be
/// opened for syncing there; the supported targets are Unix).
fn fsync_dir(dir: &Path) -> io::Result<()> {
    #[cfg(unix)]
    File::open(dir)?.sync_all()?;
    #[cfg(not(unix))]
    let _ = dir;
    Ok(())
}

fn seg_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("wal-{seq:016x}.log"))
}

fn snap_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("snap-{seq:016x}.snap"))
}

/// Lists `(seq, path)` for every well-named file with `prefix`/`suffix`
/// in `dir`, sorted by seq.
fn list_seqs(dir: &Path, prefix: &str, suffix: &str) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(rest) = name.strip_prefix(prefix) else {
            continue;
        };
        let Some(hex) = rest.strip_suffix(suffix) else {
            continue;
        };
        if let Ok(seq) = u64::from_str_radix(hex, 16) {
            out.push((seq, entry.path()));
        }
    }
    out.sort_unstable();
    Ok(out)
}

impl Persistence {
    /// Opens the persistence dir: creates it if absent, takes the
    /// exclusive-instance lock, and prepares the WAL writer (recovery is
    /// a separate step — [`recover_into`](Self::recover_into) — so the
    /// caller controls when replay happens relative to binding).
    ///
    /// # Errors
    ///
    /// Fails if the directory cannot be created, if another live
    /// `csr-serve` holds the lock, or if the first WAL segment cannot be
    /// opened.
    pub(crate) fn open(config: PersistConfig, registry: &Registry) -> io::Result<Persistence> {
        fs::create_dir_all(&config.dir)?;
        let lock = Self::acquire_lock(&config.dir)?;
        let metrics = PersistMetrics::new(registry);
        let next_seg = list_seqs(&config.dir, "wal-", ".log")?
            .last()
            .map_or(0, |(seq, _)| seq + 1);
        let now = Instant::now();
        let persist = Persistence {
            config,
            metrics,
            wal: Mutex::new(WalInner {
                file: None,
                seg_seq: next_seg,
                seg_bytes: 0,
                appends_since_snapshot: 0,
                last_fsync: now,
                last_rearm: now,
                resync_needed: false,
            }),
            next_gen: AtomicU64::new(1),
            degraded: AtomicBool::new(false),
            snapshotting: AtomicBool::new(false),
            _lock: lock,
        };
        Ok(persist)
    }

    /// Takes the exclusive lock. The atomic claim is an OS file lock
    /// ([`File::try_lock`]) on `LOCK`, so two daemons racing through
    /// startup cannot both win: the kernel grants exactly one, and
    /// releases it on any death (including SIGKILL) — no stale-lock
    /// janitor. The file's contents only name the holder's pid for the
    /// refusal message; whatever a dead holder left there claims nothing.
    fn acquire_lock(dir: &Path) -> io::Result<File> {
        let lock_path = dir.join(LOCK_FILE);
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&lock_path)?;
        match file.try_lock() {
            Ok(()) => {}
            Err(std::fs::TryLockError::WouldBlock) => {
                let holder = fs::read_to_string(&lock_path).unwrap_or_default();
                return Err(lock_held_error(dir, holder.trim()));
            }
            Err(std::fs::TryLockError::Error(e)) => return Err(e),
        }
        // We hold the lock: rewriting in place races with nobody.
        file.set_len(0)?;
        writeln!(file, "pid={}", std::process::id())?;
        file.sync_all()?;
        Ok(file)
    }

    /// The configured fsync policy (for `STATS`).
    pub(crate) fn fsync_policy(&self) -> FsyncPolicy {
        self.config.fsync
    }

    pub(crate) fn metrics(&self) -> &PersistMetrics {
        &self.metrics
    }

    /// Whether persistence is currently degraded to serve-only mode.
    pub(crate) fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::Relaxed)
    }

    /// Replays the newest valid snapshot plus the WAL tail into `cache`
    /// via `insert_with_cost`/`remove`, truncating at the first torn or
    /// CRC-invalid record. Returns what was recovered; on
    /// [`PersistConfig::cancel`] firing mid-replay, returns
    /// `ErrorKind::Interrupted` (the caller must not open its listener).
    pub(crate) fn recover_into(
        &self,
        cache: &CsrCache<String, crate::server::Bytes>,
    ) -> io::Result<RecoveryReport> {
        let mut report = RecoveryReport::default();
        let mut max_gen = 0u64;
        let mut replayed = 0u64;
        let dir = &self.config.dir;

        let check_cancel = |replayed: &mut u64| -> io::Result<()> {
            *replayed += 1;
            if !(*replayed).is_multiple_of(CANCEL_CHECK_EVERY) {
                return Ok(());
            }
            if !self.config.recovery_throttle.is_zero() {
                std::thread::sleep(self.config.recovery_throttle);
            }
            if self.config.cancel.is_some_and(|cancelled| cancelled()) {
                return Err(io::Error::new(
                    ErrorKind::Interrupted,
                    "shutdown requested during recovery replay",
                ));
            }
            Ok(())
        };

        // Newest snapshot whose magic and every record verify; an
        // invalid one is skipped entirely (a crash mid-rename can't
        // produce one — rename is atomic — but a torn disk can).
        let mut snapshots = list_seqs(dir, "snap-", ".snap")?;
        let mut wal_from = 0u64;
        while let Some((seq, path)) = snapshots.pop() {
            let bytes = fs::read(&path)?;
            if bytes.len() < 8 || &bytes[..8] != SNAP_MAGIC {
                report.skipped_snapshots += 1;
                continue;
            }
            let (records, end) = decode_stream(&bytes[8..]);
            if end == DecodeEnd::Torn {
                // A snapshot is all-or-nothing: a torn record anywhere
                // means the file cannot be trusted as a full resident
                // set, so fall back to the previous one.
                report.skipped_snapshots += 1;
                report.truncated_records += 1;
                continue;
            }
            for r in &records {
                if r.op == OP_SET {
                    cache.insert_with_cost(
                        r.key.clone(),
                        crate::server::Bytes::from(r.value.clone()),
                        r.cost,
                    );
                }
                max_gen = max_gen.max(r.gen);
                check_cancel(&mut replayed)?;
            }
            wal_from = seq;
            break;
        }

        // WAL tail: every segment the snapshot does not cover, in seq
        // order, stopping at the first torn record anywhere (records
        // past a tear are untrusted — the prefix rule).
        'segments: for (seq, path) in list_seqs(dir, "wal-", ".log")? {
            if seq < wal_from {
                continue;
            }
            let bytes = fs::read(&path)?;
            let mut at = 0usize;
            loop {
                match decode_record(&bytes[at..]) {
                    Ok((r, used)) => {
                        at += used;
                        match r.op {
                            OP_SET => {
                                cache.insert_with_cost(
                                    r.key.clone(),
                                    crate::server::Bytes::from(r.value.clone()),
                                    r.cost,
                                );
                            }
                            _ => {
                                cache.remove(&r.key);
                            }
                        }
                        max_gen = max_gen.max(r.gen);
                        report.wal_records += 1;
                        check_cancel(&mut replayed)?;
                    }
                    Err(DecodeEnd::Eof) => break,
                    Err(DecodeEnd::Torn) => {
                        report.truncated_records += 1;
                        break 'segments;
                    }
                }
            }
        }

        report.recovered_entries = cache.len() as u64;
        self.next_gen.store(max_gen + 1, Ordering::Relaxed);
        self.metrics.recovered_entries.add(report.recovered_entries);
        self.metrics.truncated_records.add(report.truncated_records);
        Ok(report)
    }

    /// Logs a stored entry (`cost` exactly as charged to the cache).
    /// Returns `true` when a periodic snapshot is now due — the caller
    /// then invokes [`snapshot`](Self::snapshot) outside the append
    /// lock.
    pub(crate) fn log_set(&self, key: &str, value: &[u8], cost: u64) -> bool {
        self.log_set_with(key, value, cost, || ()).1
    }

    /// Logs a stored entry and runs `apply` (the cache mutation) while
    /// still holding the WAL append lock, so log order and cache-apply
    /// order cannot diverge for this key (see the module docs'
    /// atomicity section). `apply` runs even when the append was
    /// dropped (degraded mode) — serving always proceeds.
    pub(crate) fn log_set_with<R>(
        &self,
        key: &str,
        value: &[u8],
        cost: u64,
        apply: impl FnOnce() -> R,
    ) -> (R, bool) {
        self.append_with(
            Record {
                op: OP_SET,
                gen: 0,
                cost,
                key: key.to_owned(),
                value: value.to_vec(),
            },
            apply,
        )
    }

    /// Logs an invalidation without a cache mutation (tests only; the
    /// server always pairs the DEL with its remove via
    /// [`log_del_with`](Self::log_del_with)).
    #[cfg(test)]
    pub(crate) fn log_del(&self, key: &str) -> bool {
        self.log_del_with(key, || ()).1
    }

    /// Logs an invalidation, running `apply` (the cache removal) under
    /// the WAL lock — the DEL analogue of
    /// [`log_set_with`](Self::log_set_with), with the same snapshot-due
    /// contract. DELs are logged *unconditionally* — even for a key
    /// that is not resident — because the WAL tail may hold an earlier
    /// SET for it (e.g. a read-through fill that was since evicted);
    /// without the tombstone, replay would resurrect a value the client
    /// explicitly invalidated.
    pub(crate) fn log_del_with<R>(&self, key: &str, apply: impl FnOnce() -> R) -> (R, bool) {
        self.append_with(
            Record {
                op: OP_DEL,
                gen: 0,
                cost: 0,
                key: key.to_owned(),
                value: Vec::new(),
            },
            apply,
        )
    }

    /// Appends one record under the WAL lock, honoring the fsync policy,
    /// rotating full segments, degrading (not crashing) on I/O errors.
    /// `apply` runs under the same lock, after the append, on every
    /// path — the record's generation is allocated under the lock too,
    /// so generation order, append order, and apply order coincide.
    fn append_with<R>(&self, mut record: Record, apply: impl FnOnce() -> R) -> (R, bool) {
        let mut inner = self.wal.lock().expect("wal lock poisoned");
        record.gen = self.next_gen.fetch_add(1, Ordering::Relaxed);
        if self.degraded.load(Ordering::Relaxed) && !self.try_rearm(&mut inner) {
            return (apply(), false);
        }
        match self.append_locked(&mut inner, &record) {
            Ok(()) => {
                self.metrics.appends.inc();
                inner.appends_since_snapshot += 1;
                let due = self.config.snapshot_every > 0
                    && inner.appends_since_snapshot >= self.config.snapshot_every;
                let resync = std::mem::take(&mut inner.resync_needed);
                (apply(), due || resync)
            }
            Err(e) => {
                self.enter_degraded(&mut inner, &e);
                (apply(), false)
            }
        }
    }

    fn append_locked(&self, inner: &mut WalInner, record: &Record) -> io::Result<()> {
        if inner.file.is_none() || inner.seg_bytes >= self.config.segment_bytes {
            self.open_segment(inner)?;
        }
        let bytes = record.encode();
        let file = inner.file.as_mut().expect("segment just opened");
        file.write_all(&bytes)?;
        inner.seg_bytes += bytes.len() as u64;
        match self.config.fsync {
            FsyncPolicy::Always => {
                file.flush()?;
                file.get_ref().sync_data()?;
                self.metrics.fsyncs.inc();
                inner.last_fsync = Instant::now();
            }
            FsyncPolicy::Interval(every) => {
                if inner.last_fsync.elapsed() >= every {
                    file.flush()?;
                    file.get_ref().sync_data()?;
                    self.metrics.fsyncs.inc();
                    inner.last_fsync = Instant::now();
                }
            }
            FsyncPolicy::Never => {
                // Flush the userspace buffer so a SIGKILL loses at most
                // what the kernel hasn't written, not what *we* haven't.
                file.flush()?;
            }
        }
        Ok(())
    }

    /// Opens (or rotates to) a fresh WAL segment.
    fn open_segment(&self, inner: &mut WalInner) -> io::Result<()> {
        if let Some(mut old) = inner.file.take() {
            inner.seg_seq += 1;
            // Flush explicitly: BufWriter::drop swallows a failed final
            // write, which would silently lose the buffered tail (under
            // `--fsync <ms>`/`never`) without ever entering degraded
            // mode. The error must count and degrade like any other.
            old.flush()?;
        }
        let path = seg_path(&self.config.dir, inner.seg_seq);
        let file = OpenOptions::new().append(true).create(true).open(path)?;
        inner.file = Some(BufWriter::new(file));
        inner.seg_bytes = 0;
        if self.config.fsync == FsyncPolicy::Always {
            // `always` promises an acknowledged write is durable — which
            // includes the *name* of the segment holding it: fsync the
            // directory so the new entry survives power loss.
            fsync_dir(&self.config.dir)?;
            self.metrics.fsyncs.inc();
        }
        Ok(())
    }

    /// Flips into degraded serve-only mode: the append that failed is
    /// dropped, the segment handle is closed, and the metric raised.
    fn enter_degraded(&self, inner: &mut WalInner, err: &io::Error) {
        inner.file = None;
        inner.last_rearm = Instant::now();
        self.metrics.errors.inc();
        if !self.degraded.swap(true, Ordering::Relaxed) {
            self.metrics.degraded.set(1);
            eprintln!(
                "csr-serve: persistence degraded to serve-only mode: {err} \
                 (re-arming every {REARM_EVERY:?})"
            );
        }
    }

    /// While degraded, periodically try opening a fresh segment; on
    /// success, clear the flag and owe the log a resync snapshot (the
    /// appends dropped while degraded are gone — only a full snapshot
    /// re-establishes ground truth).
    fn try_rearm(&self, inner: &mut WalInner) -> bool {
        if inner.last_rearm.elapsed() < REARM_EVERY {
            return false;
        }
        inner.last_rearm = Instant::now();
        inner.seg_seq += 1;
        match self.open_segment(inner) {
            Ok(()) => {
                self.degraded.store(false, Ordering::Relaxed);
                self.metrics.degraded.set(0);
                inner.resync_needed = true;
                eprintln!("csr-serve: persistence re-armed; snapshotting to resync");
                true
            }
            Err(_) => false,
        }
    }

    /// Takes a full snapshot: rotate the WAL, export the cache, write
    /// tmp + fsync + rename, then prune covered WAL segments and older
    /// snapshots. Concurrent calls coalesce (one runs, others return).
    pub(crate) fn snapshot(&self, cache: &CsrCache<String, crate::server::Bytes>) {
        if self.snapshotting.swap(true, Ordering::Acquire) {
            return;
        }
        let result = self.snapshot_inner(cache);
        self.snapshotting.store(false, Ordering::Release);
        if let Err(e) = result {
            let mut inner = self.wal.lock().expect("wal lock poisoned");
            self.enter_degraded(&mut inner, &e);
        }
    }

    fn snapshot_inner(&self, cache: &CsrCache<String, crate::server::Bytes>) -> io::Result<()> {
        // Rotate first: every record logged from here on lands in a
        // segment the snapshot does NOT cover, so the cover point
        // (`cover` = first uncovered segment) is exact even while
        // appends race with the export below.
        let cover = {
            let mut inner = self.wal.lock().expect("wal lock poisoned");
            self.open_segment(&mut inner)?;
            inner.appends_since_snapshot = 0;
            inner.seg_seq
        };
        let dir = &self.config.dir;
        let tmp = dir.join("snap.tmp");
        {
            let file = File::create(&tmp)?;
            let mut w = BufWriter::new(file);
            w.write_all(SNAP_MAGIC)?;
            // Shard-by-shard, LRU-first: replaying in file order through
            // insert_with_cost reconstructs recency and policy state.
            for (key, value, cost) in cache.export_entries() {
                let record = Record {
                    op: OP_SET,
                    gen: self.next_gen.load(Ordering::Relaxed),
                    cost,
                    key,
                    value: value.to_vec(),
                };
                w.write_all(&record.encode())?;
            }
            w.flush()?;
            w.get_ref().sync_all()?;
            self.metrics.fsyncs.inc();
        }
        fs::rename(&tmp, snap_path(dir, cover))?;
        // The rename is atomic but not durable until the directory entry
        // is synced; prune only after that, or a power cut could take
        // both the new snapshot and the WAL segments it covered.
        fsync_dir(dir)?;
        self.metrics.fsyncs.inc();
        self.metrics.snapshots.inc();
        // Prune: WAL segments fully folded into the snapshot, and every
        // older snapshot (the new one supersedes them).
        for (seq, path) in list_seqs(dir, "wal-", ".log")? {
            if seq < cover {
                let _ = fs::remove_file(path);
            }
        }
        for (seq, path) in list_seqs(dir, "snap-", ".snap")? {
            if seq < cover {
                let _ = fs::remove_file(path);
            }
        }
        Ok(())
    }

    /// Graceful-shutdown hook: one final snapshot (which also prunes the
    /// WAL) so the next start recovers from a compact, fsynced image.
    pub(crate) fn finish(&self, cache: &CsrCache<String, crate::server::Bytes>) {
        self.snapshot(cache);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::Bytes;

    /// Reads a whole file (mirroring recovery's view of the bytes).
    fn read_file(path: &Path) -> Vec<u8> {
        fs::read(path).expect("read file")
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "csr-persist-{tag}-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .expect("clock")
                .as_nanos()
        ));
        fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    fn cache(capacity: usize) -> CsrCache<String, Bytes> {
        CsrCache::builder(capacity).shards(1).build()
    }

    fn open(dir: &Path) -> (Persistence, Arc<Registry>) {
        let registry = Arc::new(Registry::new());
        let p = Persistence::open(
            PersistConfig {
                dir: dir.to_path_buf(),
                fsync: FsyncPolicy::Never,
                snapshot_every: 0,
                ..PersistConfig::default()
            },
            &registry,
        )
        .expect("open persistence");
        (p, registry)
    }

    #[test]
    fn record_roundtrip_and_torn_prefixes() {
        let r = Record {
            op: OP_SET,
            gen: 42,
            cost: 1234,
            key: "key:1".to_owned(),
            value: b"hello".to_vec(),
        };
        let bytes = r.encode();
        let (back, used) = decode_record(&bytes).expect("roundtrip");
        assert_eq!(back, r);
        assert_eq!(used, bytes.len());
        // Every strict prefix is torn (or EOF for the empty one).
        for cut in 1..bytes.len() {
            assert_eq!(
                decode_record(&bytes[..cut]),
                Err(DecodeEnd::Torn),
                "prefix of {cut} bytes must read as torn"
            );
        }
        assert_eq!(decode_record(&[]), Err(DecodeEnd::Eof));
        // Any single bit flip breaks the CRC (or the framing).
        for byte in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[byte] ^= 0x10;
            assert!(
                decode_record(&bad).is_err() || bad[byte] == bytes[byte],
                "bit flip at byte {byte} must not verify"
            );
        }
    }

    #[test]
    fn wal_roundtrip_recovers_entries_and_costs() {
        let dir = tmpdir("roundtrip");
        {
            let (p, _) = open(&dir);
            assert!(!p.log_set("a", b"va", 500));
            assert!(!p.log_set("b", b"vb", 7));
            assert!(!p.log_del("b"));
            assert!(!p.log_set("c", b"vc", 9000));
        }
        let (p, _) = open(&dir);
        let c = cache(8);
        let report = p.recover_into(&c).expect("recover");
        assert_eq!(report.recovered_entries, 2);
        assert_eq!(report.wal_records, 4);
        assert_eq!(report.truncated_records, 0);
        assert_eq!(c.get(&"a".to_owned()).as_deref(), Some(&b"va"[..]));
        assert!(c.get(&"b".to_owned()).is_none(), "DEL must replay");
        let entries = c.export_entries();
        let cost_of = |k: &str| {
            entries
                .iter()
                .find(|(key, ..)| key == k)
                .map(|&(.., cost)| cost)
        };
        assert_eq!(cost_of("a"), Some(500), "measured cost survives restart");
        assert_eq!(cost_of("c"), Some(9000));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_truncates_never_serves() {
        let dir = tmpdir("torn");
        {
            let (p, _) = open(&dir);
            p.log_set("keep", b"intact", 5);
            p.log_set("torn", b"half-written-value", 5);
        }
        // Tear the last record: chop 4 bytes off the segment tail.
        let (_, seg) = list_seqs(&dir, "wal-", ".log").expect("list")[0].clone();
        let bytes = read_file(&seg);
        fs::write(&seg, &bytes[..bytes.len() - 4]).expect("truncate");
        let (p, _) = open(&dir);
        let c = cache(8);
        let report = p.recover_into(&c).expect("recover");
        assert_eq!(report.truncated_records, 1);
        assert_eq!(c.get(&"keep".to_owned()).as_deref(), Some(&b"intact"[..]));
        assert!(
            c.get(&"torn".to_owned()).is_none(),
            "a torn record must never be served"
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bit_flip_truncates_at_the_flipped_record() {
        let dir = tmpdir("flip");
        {
            let (p, _) = open(&dir);
            p.log_set("first", b"ok", 1);
            p.log_set("second", b"corrupted-on-disk", 1);
            p.log_set("third", b"after-the-tear", 1);
        }
        let (_, seg) = list_seqs(&dir, "wal-", ".log").expect("list")[0].clone();
        let mut bytes = read_file(&seg);
        // Flip a bit inside the second record's value bytes.
        let first_len = decode_record(&bytes).expect("first").1;
        let at = first_len + 30;
        bytes[at] ^= 0x01;
        fs::write(&seg, &bytes).expect("rewrite");
        let (p, _) = open(&dir);
        let c = cache(8);
        let report = p.recover_into(&c).expect("recover");
        assert_eq!(report.truncated_records, 1);
        assert!(c.get(&"first".to_owned()).is_some());
        assert!(c.get(&"second".to_owned()).is_none(), "flipped: not served");
        assert!(
            c.get(&"third".to_owned()).is_none(),
            "records after the tear are untrusted (prefix rule)"
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_prunes_wal_and_recovers_alone() {
        let dir = tmpdir("snap");
        {
            let (p, _) = open(&dir);
            p.log_set("x", b"vx", 111);
            p.log_set("y", b"vy", 222);
            let c = cache(8);
            c.insert_with_cost("x".to_owned(), Bytes::from(&b"vx"[..]), 111);
            c.insert_with_cost("y".to_owned(), Bytes::from(&b"vy"[..]), 222);
            p.snapshot(&c);
            // Post-snapshot mutations land in the fresh WAL tail.
            p.log_del("y");
            let walls = list_seqs(&dir, "wal-", ".log").expect("list");
            assert_eq!(walls.len(), 1, "covered segments pruned: {walls:?}");
            assert_eq!(list_seqs(&dir, "snap-", ".snap").expect("list").len(), 1);
        }
        let (p, _) = open(&dir);
        let c = cache(8);
        let report = p.recover_into(&c).expect("recover");
        assert_eq!(report.recovered_entries, 1);
        assert_eq!(c.get(&"x".to_owned()).as_deref(), Some(&b"vx"[..]));
        assert!(
            c.get(&"y".to_owned()).is_none(),
            "post-snapshot DEL replays"
        );
        let entries = c.export_entries();
        assert_eq!(entries[0].2, 111, "snapshot preserves the measured cost");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_snapshot_is_skipped_for_the_wal() {
        let dir = tmpdir("badsnap");
        {
            let (p, _) = open(&dir);
            p.log_set("k", b"from-wal", 3);
        }
        // A snapshot claiming to cover nothing, with a garbage body: it
        // must be skipped whole, not half-applied.
        fs::write(snap_path(&dir, 0), b"CSRSNAP1garbage-not-a-record").expect("write");
        let (p, _) = open(&dir);
        let c = cache(8);
        let report = p.recover_into(&c).expect("recover");
        assert_eq!(report.skipped_snapshots, 1);
        assert_eq!(
            c.get(&"k".to_owned()).as_deref(),
            Some(&b"from-wal"[..]),
            "recovery falls back to the WAL"
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn double_open_refuses_while_first_lives() {
        let dir = tmpdir("lock");
        let (first, _) = open(&dir);
        let registry = Arc::new(Registry::new());
        let second = Persistence::open(
            PersistConfig {
                dir: dir.clone(),
                ..PersistConfig::default()
            },
            &registry,
        );
        let err = match second {
            Ok(_) => panic!("second instance must refuse"),
            Err(e) => e,
        };
        assert!(err.to_string().contains("locked"), "got: {err}");
        drop(first); // the handle closes: the lock self-releases
        let third = Persistence::open(
            PersistConfig {
                dir: dir.clone(),
                ..PersistConfig::default()
            },
            &registry,
        );
        assert!(third.is_ok(), "stale lock must be reclaimed");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fsync_policy_parses_flag_spellings() {
        assert_eq!(FsyncPolicy::parse("always"), Some(FsyncPolicy::Always));
        assert_eq!(FsyncPolicy::parse("never"), Some(FsyncPolicy::Never));
        assert_eq!(
            FsyncPolicy::parse("250"),
            Some(FsyncPolicy::Interval(Duration::from_millis(250)))
        );
        assert_eq!(FsyncPolicy::parse("sometimes"), None);
        assert_eq!(FsyncPolicy::Always.name(), "always");
        assert_eq!(
            FsyncPolicy::Interval(Duration::from_millis(250)).name(),
            "250"
        );
    }

    #[test]
    fn segment_rotation_keeps_all_records() {
        let dir = tmpdir("rotate");
        let registry = Arc::new(Registry::new());
        {
            let p = Persistence::open(
                PersistConfig {
                    dir: dir.clone(),
                    segment_bytes: 256, // force several rotations
                    snapshot_every: 0,
                    ..PersistConfig::default()
                },
                &registry,
            )
            .expect("open");
            for i in 0..64u64 {
                p.log_set(&format!("key:{i}"), b"0123456789abcdef", i + 1);
            }
        }
        assert!(
            list_seqs(&dir, "wal-", ".log").expect("list").len() > 1,
            "rotation must have produced multiple segments"
        );
        let (p, _) = open(&dir);
        let c = cache(128);
        let report = p.recover_into(&c).expect("recover");
        assert_eq!(report.recovered_entries, 64);
        for i in 0..64 {
            assert!(c.get(&format!("key:{i}")).is_some(), "key:{i} lost");
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn degraded_mode_drops_appends_instead_of_crashing() {
        let dir = tmpdir("degraded");
        let (p, _) = open(&dir);
        p.log_set("before", b"v", 1);
        // Sabotage: replace the persistence dir path's segment with a
        // directory so the next rotation/open fails. Easiest reliable
        // fault: make the dir read-only is platform-dependent; instead,
        // force a failure by pointing the active segment at a path that
        // is a directory.
        {
            let mut inner = p.wal.lock().expect("lock");
            inner.file = None;
            inner.seg_seq += 1;
            let clash = seg_path(&dir, inner.seg_seq);
            fs::create_dir_all(&clash).expect("clash dir");
        }
        assert!(!p.log_set("during", b"v", 1), "append fails into degraded");
        assert!(p.is_degraded());
        assert_eq!(p.metrics().degraded.get(), 1);
        // Serving continues (nothing panicked); further appends drop
        // silently until the re-arm interval elapses.
        assert!(!p.log_set("during2", b"v", 1));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recovery_determinism_same_ops_same_cut_identical_state() {
        // Satellite: same seed + same kill point ⇒ byte-identical
        // recovered (key, value, cost) tuples.
        use mem_trace::rng::SplitMix64;
        let run = |tag: &str| -> Vec<u8> {
            let dir = tmpdir(tag);
            {
                let (p, _) = open(&dir);
                let mut rng = SplitMix64::new(0xdead_cafe);
                for i in 0..512u64 {
                    let key = format!("key:{}", rng.below(128));
                    if rng.chance(0.15) {
                        p.log_del(&key);
                    } else {
                        p.log_set(&key, format!("value-{i}").as_bytes(), 1 + rng.below(10_000));
                    }
                }
            }
            // The "kill point": truncate the newest segment to a fixed
            // byte offset, exactly as a torn crash would.
            let segs = list_seqs(&dir, "wal-", ".log").expect("list");
            let (_, last) = segs.last().expect("segment").clone();
            let bytes = read_file(&last);
            fs::write(&last, &bytes[..bytes.len() * 2 / 3]).expect("cut");
            let (p, _) = open(&dir);
            let c = cache(256);
            p.recover_into(&c).expect("recover");
            let mut entries: Vec<(String, Vec<u8>, u64)> = c
                .export_entries()
                .into_iter()
                .map(|(k, v, cost)| (k, v.to_vec(), cost))
                .collect();
            entries.sort();
            fs::remove_dir_all(&dir).ok();
            let mut blob = Vec::new();
            for (k, v, cost) in entries {
                blob.extend_from_slice(k.as_bytes());
                blob.push(0);
                blob.extend_from_slice(&v);
                blob.push(0);
                blob.extend_from_slice(&cost.to_le_bytes());
            }
            blob
        };
        assert_eq!(
            run("det-a"),
            run("det-b"),
            "identical op stream + identical cut must recover byte-identical state"
        );
    }
}
