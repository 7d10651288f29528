//! The workloads: what every one of them shares, and the in-process ones
//! (`sim-table2`, `kv-hit`, `kv-evict`, `kv-quality`). `serve.rs` has the
//! daemon's. Each sets its system up, waits until it is in the stated state,
//! runs timed windows, checks every output, and summarises the windows.

use crate::gen::{self, Zipf, ZIPF_THETA};
use crate::measure::{self, load_threads, median, percentile, run_window, Window, Worker};
use crate::spec::Better;
use crate::sut::{Counters, KvCache, SimSuite};
use crate::trace::SpanBuf;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What the command line chose.
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The `csr-serve` binary.
    pub daemon: PathBuf,
    /// Where trace files and the daemons' temporary directories go.
    pub out_dir: PathBuf,
    pub golden_dir: PathBuf,
}

/// What one run of one workload found.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Reasons the run does not count (system not in the stated state).
    pub invalid: Vec<String>,
    pub end_to_end: Vec<(&'static str, f64)>,
    /// The per-layer metrics measured on the workload itself.
    pub per_layer: Vec<(&'static str, f64)>,
    /// Fewest latency samples behind one window's `p50_us` and `p90_us`.
    pub samples: u64,
    pub notes: Vec<String>,
    /// The spans of a traced run, one buffer per load thread.
    pub spans: Vec<SpanBuf>,
}

/// Set-ups per run of a windowed workload, and timed windows after each.
/// A traced run records spans in every other window.
const SESSIONS: usize = 3;
const WINDOWS_PER_SESSION: usize = 4;
/// Capacity of every `kv-*` and `serve-*` cache but `kv-quality`'s: the
/// daemon's shipped default.
pub(crate) const CAPACITY: usize = 65_536;
/// Keys of the workloads whose working set fits, and of those 3x too big.
/// (At 8x, 45% of ops miss or wait on a shard lock behind an eviction, so the
/// median sits on the edge between the two populations and moves 30% from
/// run to run. At 3x about 20% miss: the median is a hit, p90 a miss.)
pub(crate) const KEYS_FIT: usize = 32_768;
pub(crate) const KEYS_BIG: usize = 196_608;
/// Spans a lane keeps in memory; it counts the ones that did not fit.
const SPAN_CAPACITY: usize = 1 << 19;

/// The hit-ratio band a workload must stay in, or the run is invalid.
pub(crate) struct Band(pub f64, pub f64);
pub(crate) const BAND_ALL_HITS: Band = Band(1.0, 1.0);
pub(crate) const BAND_BIG: Band = Band(0.7, 0.9);

/// Sets the system up until that has been done three times and has taken a
/// second in all (at most 20 times); returns the last system and every
/// set-up's seconds. `setup_s` is their median: a set-up of a few
/// milliseconds needs the repeats to read steadily. A traced run does not
/// report `setup_s` and sets up once.
fn timed_setups<S>(opts: &Opts, mut setup: impl FnMut() -> S) -> (S, Vec<f64>) {
    let mut secs = Vec::new();
    let mut system = None;
    while system.is_none()
        || (!opts.trace && secs.len() < 20 && (secs.len() < 3 || secs.iter().sum::<f64>() < 1.0))
    {
        // The previous system goes before the next is built, as it would
        // between two runs.
        drop(system.take());
        let t0 = Instant::now();
        system = Some(setup());
        secs.push(t0.elapsed().as_secs_f64());
    }
    (system.expect("at least one set-up"), secs)
}

/// The four window metrics of one timed window (or pass).
#[derive(Clone, Copy)]
struct WindowStats {
    ops_per_s: f64,
    p50_us: f64,
    p90_us: f64,
    cpu_us_per_op: f64,
}

impl From<&Window> for WindowStats {
    fn from(w: &Window) -> Self {
        WindowStats {
            ops_per_s: w.ops_per_s,
            p50_us: w.p_us(0.5),
            p90_us: w.p_us(0.9),
            cpu_us_per_op: w.cpu_us_per_op,
        }
    }
}

/// Which window of a run stands for the run.
#[derive(Clone, Copy)]
pub(crate) enum Pick {
    /// The best value of each metric. The host this runs on slows whole
    /// windows down (a vCPU held back for a quarter of a second, a minute of
    /// everything a fifth slower) and never speeds one up, so the best
    /// window is the least disturbed one.
    Best,
    /// The median window, for `kv-hit`: its two threads slow each other on
    /// the shard locks, so a window in which the host holds one of them back
    /// is faster, not slower.
    Median,
}

impl Pick {
    fn of(self, windows: &[WindowStats], better: Better, f: fn(&WindowStats) -> f64) -> f64 {
        let values = windows.iter().map(f);
        match (self, better) {
            (Pick::Median, _) => median(&values.collect::<Vec<_>>()),
            (Pick::Best, Better::Higher) => values.fold(f64::NEG_INFINITY, f64::max),
            (Pick::Best, Better::Lower) => values.fold(f64::INFINITY, f64::min),
        }
    }

    fn ops_per_s(self, windows: &[WindowStats]) -> f64 {
        self.of(windows, Better::Higher, |w| w.ops_per_s)
    }
}

/// Fills in the end-to-end metrics from the untraced windows.
fn summarise(
    out: &mut Outcome,
    setup_secs: &[f64],
    windows: &[WindowStats],
    rss_mb: f64,
    pick: Pick,
) {
    out.end_to_end = vec![
        ("setup_s", median(setup_secs)),
        ("ops_per_s", pick.ops_per_s(windows)),
        ("p50_us", pick.of(windows, Better::Lower, |w| w.p50_us)),
        ("p90_us", pick.of(windows, Better::Lower, |w| w.p90_us)),
        (
            "cpu_us_per_op",
            pick.of(windows, Better::Lower, |w| w.cpu_us_per_op),
        ),
        ("rss_mb", rss_mb),
    ];
    out.notes.push(format!(
        "{} set-ups: {:.4?} s",
        setup_secs.len(),
        setup_secs
    ));
    for w in windows {
        out.notes.push(format!(
            "window: {:.1} ops/s, p50 {:.3} us, p90 {:.3} us, {:.4} cpu us/op",
            w.ops_per_s, w.p50_us, w.p90_us, w.cpu_us_per_op
        ));
    }
}

/// The per-layer metrics every workload measures on itself.
fn own_layer_metrics(
    plain: &[WindowStats],
    traced: &[WindowStats],
    spans: &[SpanBuf],
    sorted_lat_ns: &[u32],
    counters: &Counters,
    pick: Pick,
) -> Vec<(&'static str, f64)> {
    let kops = counters.lookups.max(1) as f64 / 1e3;
    let (plain, traced) = (pick.ops_per_s(plain), pick.ops_per_s(traced));
    vec![
        ("bench.trace_overhead_pct", 100.0 * (plain - traced) / plain),
        ("bench.spans", spans.iter().map(|b| b.len() as f64).sum()),
        (
            "bench.p99_us",
            f64::from(percentile(sorted_lat_ns, 0.99)) / 1e3,
        ),
        (
            "bench.max_ms",
            f64::from(percentile(sorted_lat_ns, 1.0)) / 1e6,
        ),
        ("csr-cache.cache.hit_ratio", counters.hit_ratio()),
        (
            "csr-cache.cache.evictions_per_kop",
            counters.evictions as f64 / kops,
        ),
        (
            "csr-cache.cache.reservations_per_kop",
            counters.reservations as f64 / kops,
        ),
    ]
}

/// A set-up system under test with its closed-loop clients.
pub(crate) trait Session {
    type W: Worker;
    /// The clients, ready for the next timed window.
    fn begin_window(&mut self) -> &mut [Self::W];
    /// The process whose CPU and memory are the system's.
    fn sut_pid(&self) -> u32;
    fn counters(&mut self) -> Counters;
    /// Checks made after the last window; `(attempted, failed)`.
    fn finish(self) -> (u64, u64);
}

/// The shared body of the five windowed workloads. A run sets the system
/// up [`SESSIONS`] times, which `setup_s` needs anyway, and spreads its timed
/// windows over the sessions, so that one daemon process the scheduler
/// placed badly does not decide the run.
pub(crate) fn run_windowed<S: Session>(
    opts: &Opts,
    name: &str,
    mut setup: impl FnMut() -> S,
    sample_every: u64,
    band: Band,
    pick: Pick,
) -> Outcome {
    let mut out = Outcome::default();
    let dur = Duration::from_secs_f64(opts.seconds / (SESSIONS * WINDOWS_PER_SESSION) as f64);
    let span_capacity = if opts.trace { SPAN_CAPACITY } else { 0 };
    let mut spans: Vec<SpanBuf> = (0..load_threads())
        .map(|lane| SpanBuf::new(lane as u32, span_capacity))
        .collect();
    let mut setup_secs = Vec::new();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut lat_ns: Vec<u32> = Vec::new();
    let mut delta = Counters::default();
    let mut rss_mb = 0f64;
    out.samples = u64::MAX;
    for s in 0..SESSIONS {
        let t0 = Instant::now();
        let mut session = setup();
        setup_secs.push(t0.elapsed().as_secs_f64());
        let pid = session.sut_pid();
        let before = session.counters();
        for i in 0..WINDOWS_PER_SESSION {
            // Alternating, so drift in the system under test falls on traced
            // and untraced windows alike.
            let with_spans = opts.trace && (s * WINDOWS_PER_SESSION + i) % 2 == 1;
            let w = run_window(
                session.begin_window(),
                dur,
                sample_every,
                with_spans.then_some(&mut spans[..]),
                pid,
            );
            out.attempted += w.ops;
            out.failed += w.failed;
            if with_spans {
                traced.push(WindowStats::from(&w));
            } else {
                plain.push(WindowStats::from(&w));
                out.samples = out.samples.min(w.lat_ns.len() as u64);
                if opts.trace {
                    lat_ns.extend_from_slice(&w.lat_ns);
                }
            }
        }
        delta = delta.plus(&session.counters().since(&before));
        rss_mb = rss_mb.max(measure::peak_rss_mb(pid));
        let (audited, audit_failed) = session.finish();
        out.attempted += audited;
        out.failed += audit_failed;
    }
    let hit_ratio = delta.hit_ratio();
    if !(band.0..=band.1).contains(&hit_ratio) {
        out.invalid.push(format!(
            "hit ratio {hit_ratio:.4} left the band [{}, {}] of {name}",
            band.0, band.1
        ));
    }
    summarise(&mut out, &setup_secs, &plain, rss_mb, pick);
    if opts.trace {
        lat_ns.sort_unstable();
        out.per_layer = own_layer_metrics(&plain, &traced, &spans, &lat_ns, &delta, pick);
        out.spans = spans;
    }
    out
}

// ---------------------------------------------------------------- kv-*

struct KvWorker {
    cache: Arc<KvCache>,
    stream: Vec<u32>,
    pos: usize,
}

impl Worker for KvWorker {
    #[inline]
    fn op(&mut self) -> bool {
        let key = u64::from(self.stream[self.pos]);
        self.pos = (self.pos + 1) % self.stream.len();
        self.cache.get_or_fill(key)
    }

    fn span_name(&self) -> &'static str {
        "kv.get_or_fill"
    }
}

struct KvSession {
    cache: Arc<KvCache>,
    workers: Vec<KvWorker>,
}

impl Session for KvSession {
    type W = KvWorker;

    fn begin_window(&mut self) -> &mut [KvWorker] {
        &mut self.workers
    }

    fn sut_pid(&self) -> u32 {
        std::process::id()
    }

    fn counters(&mut self) -> Counters {
        self.cache.counters()
    }

    fn finish(self) -> (u64, u64) {
        (0, 0)
    }
}

/// Ops replayed after the cache has filled and before anything is timed.
/// One shard fills before the other and evicts while it waits, for a time
/// that depends on the seed; the warm-up is long beside that wait, and it
/// leaves both shards evicting.
const WARM_UP_OPS: usize = 4_096;

/// Builds the `kv-hit` / `kv-evict` cache and streams. With `fill_to_full`
/// the prefill replays a Zipf stream until `resident == capacity` and then
/// [`WARM_UP_OPS`] more, which leaves recency order and slot order as
/// unrelated as they are in steady state; otherwise it inserts every key
/// once.
fn kv_setup(
    seed: u64,
    keys: usize,
    stream_len: usize,
    fill_to_full: bool,
    lanes: usize,
) -> KvSession {
    let zipf = Zipf::new(keys, ZIPF_THETA);
    let cache = Arc::new(KvCache::new("dcl", CAPACITY, None, false));
    if fill_to_full {
        let mut rng = gen::Rng::new(gen::mix64(seed) ^ 0xf111);
        while cache.resident() < CAPACITY {
            cache.get_or_fill(u64::from(zipf.draw(&mut rng)));
        }
        for _ in 0..WARM_UP_OPS {
            cache.get_or_fill(u64::from(zipf.draw(&mut rng)));
        }
    } else {
        for k in 0..keys as u64 {
            cache.insert(k);
        }
        assert_eq!(cache.resident(), keys, "every key fits");
    }
    let workers = (0..lanes)
        .map(|lane| KvWorker {
            cache: Arc::clone(&cache),
            stream: zipf.stream(seed, lane as u64, stream_len),
            pos: 0,
        })
        .collect();
    KvSession { cache, workers }
}

/// Ops per second of the `kv-hit` stream on `lanes` threads, for the layer
/// walk's scaling ratio.
pub fn kv_hit_rate(seed: u64, lanes: usize, dur: Duration) -> f64 {
    let mut session = kv_setup(seed, KEYS_FIT, 1 << 20, false, lanes);
    run_window(&mut session.workers, dur, 16, None, std::process::id()).ops_per_s
}

pub fn kv_hit(opts: &Opts) -> Outcome {
    // Ops take about 0.2 us, so one in 16 is timed. The stream is cycled.
    run_windowed(
        opts,
        "kv-hit",
        || kv_setup(opts.seed, KEYS_FIT, 1 << 21, false, load_threads()),
        16,
        BAND_ALL_HITS,
        Pick::Median,
    )
}

pub fn kv_evict(opts: &Opts) -> Outcome {
    run_windowed(
        opts,
        "kv-evict",
        || kv_setup(opts.seed, KEYS_BIG, 1 << 18, true, load_threads()),
        1,
        BAND_BIG,
        Pick::Best,
    )
}

// ---------------------------------------------------------------- kv-quality

/// Ops per replay and capacity of `kv-quality`. The shard count is pinned
/// (the product's default follows the host's core count), so the decisions
/// are the same on every host.
const QUALITY_OPS: usize = 100_000;
const QUALITY_CAPACITY: usize = 4_096;
const QUALITY_SHARDS: usize = 2;
/// The seed of the stream whose counts `golden/kv-quality.tsv` records.
const QUALITY_GOLDEN_SEED: u64 = 42;

/// The counts of one replay, which must repeat exactly.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Replay {
    pub counters: Counters,
    pub failed: u64,
}

/// Replays `stream` through a fresh single-thread cache, timing every op.
fn replay(
    policy: &str,
    stream: &[u32],
    lats: &mut Vec<u32>,
    mut spans: Option<&mut SpanBuf>,
) -> (Replay, f64) {
    let cache = KvCache::new(policy, QUALITY_CAPACITY, Some(QUALITY_SHARDS), false);
    let mut failed = 0;
    let t0 = Instant::now();
    for (i, &k) in stream.iter().enumerate() {
        let a = Instant::now();
        let ok = cache.get_or_fill(u64::from(k));
        let b = Instant::now();
        failed += u64::from(!ok);
        lats.push(u32::try_from((b - a).as_nanos()).unwrap_or(u32::MAX));
        if let Some(buf) = spans.as_deref_mut() {
            buf.push("kv.get_or_fill", a, b, i as u64);
        }
    }
    let secs = t0.elapsed().as_secs_f64();
    (
        Replay {
            counters: cache.counters(),
            failed,
        },
        secs,
    )
}

/// One LRU replay and one DCL replay of the same stream.
pub struct Quality {
    pub lru: Replay,
    pub dcl: Replay,
    pub secs: f64,
}

impl Quality {
    /// DCL's aggregate miss cost per 1000 ops.
    pub fn miss_cost_per_kop(&self) -> f64 {
        self.dcl.counters.miss_cost as f64 / self.dcl.counters.lookups as f64 * 1e3
    }

    /// 100 (LRU cost - DCL cost) / LRU cost.
    pub fn savings_vs_lru_pct(&self) -> f64 {
        let (lru, dcl) = (
            self.lru.counters.miss_cost as f64,
            self.dcl.counters.miss_cost as f64,
        );
        100.0 * (lru - dcl) / lru
    }

    /// The decision counts, labelled as `golden/kv-quality.tsv` labels them.
    fn golden_cells(&self) -> Vec<(String, f64)> {
        let mut cells = Vec::new();
        for (policy, c) in [("lru", self.lru.counters), ("dcl", self.dcl.counters)] {
            for (what, n) in [
                ("hits", c.hits),
                ("evictions", c.evictions),
                ("reservations", c.reservations),
                ("miss_cost", c.miss_cost),
            ] {
                cells.push((format!("{policy}/{what}"), n as f64));
            }
        }
        cells
    }
}

/// The counts of the golden stream's replay.
fn quality_golden_cells() -> Vec<(String, f64)> {
    quality_pass(&quality_stream(QUALITY_GOLDEN_SEED), &mut Vec::new(), None).golden_cells()
}

/// Holds `cells` against a golden file, exactly; counts into `out`.
fn check_golden(out: &mut Outcome, what: &str, cells: &[(String, f64)], golden: &[(String, f64)]) {
    let n = golden.len().max(cells.len());
    let wrong = if golden.len() == cells.len() {
        cells.iter().zip(golden).filter(|(c, g)| c != g).count()
    } else {
        n
    };
    out.attempted += n as u64;
    if wrong > 0 && out.failed == 0 {
        out.notes.push(format!(
            "{what}: {wrong} of {n} cells differ from the golden file"
        ));
    }
    out.failed += wrong as u64;
}

pub fn quality_stream(seed: u64) -> Vec<u32> {
    Zipf::new(KEYS_FIT, ZIPF_THETA).stream(seed, 0x9a11, QUALITY_OPS)
}

pub fn quality_pass(
    stream: &[u32],
    lats: &mut Vec<u32>,
    mut spans: Option<&mut SpanBuf>,
) -> Quality {
    let (lru, t_lru) = replay("lru", stream, lats, spans.as_deref_mut());
    let (dcl, t_dcl) = replay("dcl", stream, lats, spans);
    Quality {
        lru,
        dcl,
        secs: t_lru + t_dcl,
    }
}

pub fn kv_quality(opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    // A faster eviction that picks other victims changes these counts.
    let golden = read_golden(opts, QUALITY_GOLDEN, &mut out);
    check_golden(&mut out, "kv-quality", &quality_golden_cells(), &golden);
    let (stream, setup_secs) = timed_setups(opts, || quality_stream(opts.seed));
    let mut spans = SpanBuf::new(0, if opts.trace { SPAN_CAPACITY } else { 0 });
    let pid = std::process::id();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut first: Option<Quality> = None;
    let mut lats: Vec<u32> = Vec::with_capacity(2 * QUALITY_OPS);
    let ops = 2 * QUALITY_OPS as u64;
    let t0 = Instant::now();
    let mut pass = 0;
    while pass < 3 || t0.elapsed().as_secs_f64() < opts.seconds {
        let with_spans = opts.trace && pass % 2 == 1;
        lats.clear();
        let cpu0 = measure::cpu_us(pid);
        let q = quality_pass(&stream, &mut lats, with_spans.then_some(&mut spans));
        let cpu = measure::cpu_us(pid) - cpu0;
        out.attempted += ops;
        out.failed += q.lru.failed + q.dcl.failed;
        lats.sort_unstable();
        let stats = WindowStats {
            ops_per_s: ops as f64 / q.secs,
            p50_us: f64::from(percentile(&lats, 0.5)) / 1e3,
            p90_us: f64::from(percentile(&lats, 0.9)) / 1e3,
            cpu_us_per_op: cpu as f64 / ops as f64,
        };
        if with_spans { &mut traced } else { &mut plain }.push(stats);
        // The same stream must give the same decisions, pass after pass.
        match &first {
            None => first = Some(q),
            Some(f) if (f.lru, f.dcl) != (q.lru, q.dcl) => {
                out.failed += 1;
                out.notes
                    .push(format!("pass {pass} did not repeat the counts of pass 0"));
            }
            Some(_) => {}
        }
        pass += 1;
    }
    out.samples = ops;
    let q = first.expect("at least one pass");
    out.attempted += 2;
    // The paper's inequality, on this stream.
    if q.dcl.counters.miss_cost > q.lru.counters.miss_cost {
        out.failed += 1;
        out.notes.push("DCL paid more than LRU".to_owned());
    }
    // Counter identities of a single-thread replay that fills every shard.
    for r in [&q.lru, &q.dcl] {
        let c = r.counters;
        let fills = c.lookups - c.hits;
        if c.lookups != QUALITY_OPS as u64 || c.evictions + QUALITY_CAPACITY as u64 != fills {
            out.failed += 1;
            out.notes.push(format!("counters do not add up: {c:?}"));
        }
    }
    let hit_ratio = q.dcl.counters.hit_ratio();
    if !(0.4..=0.75).contains(&hit_ratio) {
        out.invalid.push(format!(
            "DCL hit ratio {hit_ratio:.4} left the band [0.4, 0.75] of kv-quality"
        ));
    }
    out.notes.push(format!(
        "{pass} passes, each LRU cost {} and DCL cost {}: miss_cost_per_kop {:.3}, savings_vs_lru_pct {:.3}",
        q.lru.counters.miss_cost,
        q.dcl.counters.miss_cost,
        q.miss_cost_per_kop(),
        q.savings_vs_lru_pct()
    ));
    summarise(
        &mut out,
        &setup_secs,
        &plain,
        measure::peak_rss_mb(pid),
        Pick::Best,
    );
    if opts.trace {
        // `lats` holds the last pass, sorted.
        out.per_layer = own_layer_metrics(
            &plain,
            &traced,
            std::slice::from_ref(&spans),
            &lats,
            &q.dcl.counters,
            Pick::Best,
        );
        out.spans = vec![spans];
    }
    out
}

// ---------------------------------------------------------------- sim-table2

const TABLE2_GOLDEN: &str = "table2.tsv";
const QUALITY_GOLDEN: &str = "kv-quality.tsv";

/// `label<TAB>value` per line. A file that cannot be read makes the run
/// invalid and reads as empty, so every cell held against it is wrong.
fn read_golden(opts: &Opts, file: &str, out: &mut Outcome) -> Vec<(String, f64)> {
    let path = opts.golden_dir.join(file);
    let parsed = std::fs::read_to_string(&path)
        .map_err(|e| format!("{}: {e}", path.display()))
        .and_then(|text| {
            text.lines()
                .filter(|l| !l.starts_with('#') && !l.is_empty())
                .map(|l| {
                    let (label, value) =
                        l.split_once('\t').ok_or(format!("bad golden line '{l}'"))?;
                    let value = value
                        .parse()
                        .map_err(|_| format!("bad golden value in '{l}'"))?;
                    Ok((label.to_owned(), value))
                })
                .collect()
        });
    parsed.unwrap_or_else(|e| {
        out.invalid.push(e);
        Vec::new()
    })
}

/// Writes both golden files from what the product computes now
/// (`--write-golden`).
pub fn write_golden(opts: &Opts) -> std::io::Result<()> {
    const REGENERATE: &str =
        "# Regenerate with `benchmark/run.sh --write-golden` when these change on purpose.\n";
    let render = |head: &str, cells: &[(String, f64)]| {
        let lines: String = cells
            .iter()
            .map(|(label, v)| format!("{label}\t{v:?}\n"))
            .collect();
        format!("{head}{REGENERATE}{lines}")
    };
    let suite = SimSuite::build();
    let table2: Vec<(String, f64)> = (0..suite.kernels())
        .flat_map(|kernel| suite.table2_row(kernel, load_threads()))
        .map(|c| (c.label, c.savings_pct))
        .collect();
    std::fs::create_dir_all(&opts.golden_dir)?;
    std::fs::write(
        opts.golden_dir.join(TABLE2_GOLDEN),
        render(
            "# Table 2 at Scale::Quick: kernel/policy/ratio, then savings over LRU in percent.\n",
            &table2,
        ),
    )?;
    std::fs::write(
        opts.golden_dir.join(QUALITY_GOLDEN),
        render(
            "# kv-quality on the stream of seed 42: policy/counter, then the count after one replay.\n",
            &quality_golden_cells(),
        ),
    )
}

pub fn sim_table2(opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let golden = read_golden(opts, TABLE2_GOLDEN, &mut out);
    let (suite, setup_secs) = timed_setups(opts, SimSuite::build);
    let refs = suite.table2_refs();
    let threads = load_threads();
    let mut spans = SpanBuf::new(0, if opts.trace { 1024 } else { 0 });
    let pid = std::process::id();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut row_us: Vec<u32> = Vec::new();
    let t0 = Instant::now();
    let mut pass = 0u64;
    while pass < 3 || t0.elapsed().as_secs_f64() < opts.seconds {
        // One pass is the whole table, a kernel's row at a time: the row is
        // what a user of the simulator waits for, so it is the latency.
        let with_spans = opts.trace && pass % 2 == 1;
        let cpu0 = measure::cpu_us(pid);
        let mut cells = Vec::new();
        row_us.clear();
        for kernel in 0..suite.kernels() {
            let a = Instant::now();
            cells.extend(
                suite
                    .table2_row(kernel, threads)
                    .into_iter()
                    .map(|c| (c.label, c.savings_pct)),
            );
            let b = Instant::now();
            row_us.push(u32::try_from((b - a).as_micros()).unwrap_or(u32::MAX));
            if with_spans {
                spans.push("harness.table2_row", a, b, pass);
            }
        }
        let cpu = measure::cpu_us(pid) - cpu0;
        // Rows are timed in microseconds, so the percentiles already are.
        let secs = row_us.iter().map(|&us| f64::from(us)).sum::<f64>() / 1e6;
        row_us.sort_unstable();
        let stats = WindowStats {
            ops_per_s: refs as f64 / secs,
            p50_us: f64::from(percentile(&row_us, 0.5)),
            p90_us: f64::from(percentile(&row_us, 0.9)),
            cpu_us_per_op: cpu as f64 / refs as f64,
        };
        if with_spans { &mut traced } else { &mut plain }.push(stats);
        // Every cell against the golden file: the simulation is
        // deterministic, so the comparison is exact.
        check_golden(&mut out, "sim-table2", &cells, &golden);
        pass += 1;
    }
    out.samples = suite.kernels() as u64;
    summarise(
        &mut out,
        &setup_secs,
        &plain,
        measure::peak_rss_mb(pid),
        Pick::Best,
    );
    if opts.trace {
        // The cache of this workload is the simulated L2: DCL on the
        // raytrace-like trace. `row_us` holds the last pass's rows in
        // microseconds; the tail metrics want nanoseconds.
        let dcl = suite.core_run("dcl");
        let counters = Counters {
            lookups: dcl.l2_accesses,
            hits: dcl.l2_hits,
            evictions: dcl.evictions,
            reservations: dcl.reservations,
            ..Counters::default()
        };
        let rows: Vec<u32> = row_us.iter().map(|us| us.saturating_mul(1000)).collect();
        out.per_layer = own_layer_metrics(
            &plain,
            &traced,
            std::slice::from_ref(&spans),
            &rows,
            &counters,
            Pick::Best,
        );
        out.spans = vec![spans];
    }
    out
}

/// Runs the workload called `name`.
pub fn run(name: &str, opts: &Opts) -> Option<Outcome> {
    Some(match name {
        "sim-table2" => sim_table2(opts),
        "kv-hit" => kv_hit(opts),
        "kv-evict" => kv_evict(opts),
        "kv-quality" => kv_quality(opts),
        "serve-hit" => crate::serve::serve_hit(opts),
        "serve-miss" => crate::serve::serve_miss(opts),
        "serve-set" => crate::serve::serve_set(opts),
        _ => return None,
    })
}
