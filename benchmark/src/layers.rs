//! The layer walk of a traced run: the same probes whatever the workload,
//! each timing calls into one layer's public functions from outside, or
//! reading `/proc/<pid>` and `STATS` of a short-lived daemon. Every probe is
//! recorded as spans; the per-layer metrics are computed from them.

use crate::gen::{self, key_name, origin_value, Zipf, ZIPF_THETA};
use crate::measure::{self, count_allocs, median, run_window, Window};
use crate::serve::{ServeSession, ServeSpec, SERVE_HIT, SERVE_MISS, SERVE_SET};
use crate::sut::{self, KvCache, ReadThroughCache, SimSuite};
use crate::trace::SpanBuf;
use crate::workloads::{self, Opts};
use std::time::Duration;

/// What the walk found.
#[derive(Default)]
pub struct Walk {
    pub metrics: Vec<(&'static str, f64)>,
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Walk {
    fn put(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }
}

/// Length of a daemon probe's one timed window.
const PROBE_WINDOW: Duration = Duration::from_millis(600);
/// Entries of the single shard the eviction probes fill (half the default
/// cache: what one of two shards holds).
const SHARD_ENTRIES: usize = 32_768;

/// Times `reps` batches of `n` calls, one span per batch; the median batch
/// gives nanoseconds per call.
fn probe(
    spans: &mut SpanBuf,
    name: &'static str,
    reps: usize,
    n: u32,
    mut batch: impl FnMut(usize),
) -> f64 {
    let per_call: Vec<f64> = (0..reps)
        .map(|r| spans.time(name, 0, r as u64, n, || batch(r)).1)
        .collect();
    median(&per_call)
}

pub fn walk(opts: &Opts, spans: &mut SpanBuf) -> Walk {
    let mut w = Walk::default();
    let t0 = std::time::Instant::now();
    sim_layers(&mut w, spans);
    let t1 = std::time::Instant::now();
    cache_layers(opts, &mut w, spans);
    let get_budget_ns = wire_layers(opts, &mut w, spans);
    let t2 = std::time::Instant::now();
    daemon_layers(opts, &mut w, get_budget_ns);
    w.notes.push(format!(
        "layer walk: simulator {:.1} s, in-process cache and wire {:.1} s, daemons {:.1} s",
        (t1 - t0).as_secs_f64(),
        (t2 - t1).as_secs_f64(),
        t2.elapsed().as_secs_f64()
    ));
    w
}

fn sim_layers(w: &mut Walk, spans: &mut SpanBuf) {
    let (_, ns, suite) = spans.time("mem-trace.generate", 0, 0, 1, SimSuite::build);
    w.put(
        "mem-trace.gen_refs_per_s",
        suite.generated_refs() as f64 / (ns / 1e9),
    );
    for (core, span, metric) in [
        ("lru", "csr.core.lru", "csr.core.lru.ns_per_ref"),
        ("gd", "csr.core.gd", "csr.core.gd.ns_per_ref"),
        ("bcl", "csr.core.bcl", "csr.core.bcl.ns_per_ref"),
        ("dcl", "csr.core.dcl", "csr.core.dcl.ns_per_ref"),
        ("acl", "csr.core.acl", "csr.core.acl.ns_per_ref"),
    ] {
        // Best of 3: the simulation is deterministic, so the fastest run is
        // the one the host disturbed least.
        let mut best = f64::INFINITY;
        for rep in 0..3 {
            let (_, ns, run) = spans.time(span, 0, rep, 1, || suite.core_run(core));
            best = best.min(ns / run.refs as f64);
            if core == "lru" && rep == 0 {
                w.put("cache-sim.l2_misses", run.l2_misses as f64);
            }
        }
        w.put(metric, best);
    }
    let (_, ns, cells) = spans.time("harness.table2", 0, 0, 1, || {
        (0..suite.kernels())
            .flat_map(|kernel| suite.table2_row(kernel, measure::load_threads()))
            .collect::<Vec<_>>()
    });
    w.put("csr-harness.table2_wall_s", ns / 1e9);
    let dcl_r8: Vec<f64> = cells
        .iter()
        .filter(|c| c.label.contains("/DCL/") && c.label.ends_with("/r=8"))
        .map(|c| c.savings_pct)
        .collect();
    w.put(
        "csr-harness.savings_vs_lru_pct",
        dcl_r8.iter().sum::<f64>() / dcl_r8.len().max(1) as f64,
    );
}

/// Inserts into a full single shard: every insert evicts.
fn evict_probe(
    spans: &mut SpanBuf,
    policy: &str,
    entries: usize,
    reps: usize,
    n: u32,
) -> (f64, KvCache, u64) {
    let cache = KvCache::new(policy, entries, Some(1), false);
    for k in 0..entries as u64 {
        cache.insert(k);
    }
    assert_eq!(cache.resident(), entries, "the shard is full");
    let mut next = entries as u64;
    let ns = probe(spans, "shard.evict", reps, n, |_| {
        for _ in 0..n {
            cache.insert(next);
            next += 1;
        }
    });
    (ns, cache, next)
}

fn cache_layers(opts: &Opts, w: &mut Walk, spans: &mut SpanBuf) {
    let zipf = Zipf::new(SHARD_ENTRIES, ZIPF_THETA);
    let stream = zipf.stream(opts.seed, 0x1a7e, 40 * 4096);
    let mut get_hit = |registry: bool| {
        let cache = KvCache::new("dcl", 2 * SHARD_ENTRIES, Some(1), registry);
        for k in 0..SHARD_ENTRIES as u64 {
            cache.insert(k);
        }
        let mut ok = true;
        let ns = probe(spans, "shard.get_hit", 40, 4096, |r| {
            for &k in &stream[r * 4096..(r + 1) * 4096] {
                ok &= cache.get_or_fill(u64::from(k));
            }
        });
        w.attempted += 1;
        w.failed += u64::from(!ok);
        ns
    };
    let bare = get_hit(false);
    let with_registry = get_hit(true);
    w.put("csr-cache.shard.get_hit_ns", bare);
    w.put("csr-obs.metrics_get_delta_ns", with_registry - bare);
    w.put(
        "csr-obs.histogram_record_ns",
        probe(spans, "obs.histogram_record", 20, 100_000, |_| {
            sut::histogram_records(100_000)
        }),
    );

    for (policy, metric) in [
        ("lru", "csr-cache.shard.evict_ns.lru"),
        ("gd", "csr-cache.shard.evict_ns.gd"),
        ("acl", "csr-cache.shard.evict_ns.acl"),
        ("camp", "csr-cache.shard.evict_ns.camp"),
        ("s3-fifo", "csr-cache.shard.evict_ns.s3-fifo"),
    ] {
        w.put(metric, evict_probe(spans, policy, SHARD_ENTRIES, 15, 16).0);
    }
    // The scaling curve of the default policy: 1k, 32k and 256k entries.
    w.put(
        "csr-cache.shard.evict_ns.dcl.1k",
        evict_probe(spans, "dcl", 1024, 15, 256).0,
    );
    let (ns, cache, mut next) = evict_probe(spans, "dcl", SHARD_ENTRIES, 15, 16);
    w.put("csr-cache.shard.evict_ns.dcl", ns);
    w.put(
        "csr-cache.shard.evict_ns.dcl.256k",
        evict_probe(spans, "dcl", 262_144, 9, 4).0,
    );
    let (allocs, bytes) = count_allocs(|| {
        for _ in 0..64 {
            cache.insert(next);
            next += 1;
        }
    });
    w.put("csr-cache.shard.evict_allocs_per_op", allocs as f64 / 64.0);
    w.put(
        "csr-cache.shard.evict_alloc_bytes_per_op",
        bytes as f64 / 64.0,
    );

    let dur = Duration::from_millis(300);
    let one = workloads::kv_hit_rate(opts.seed, 1, dur);
    let two = workloads::kv_hit_rate(opts.seed, 2, dur);
    w.put("csr-cache.cache.scaling_2t", two / one);

    let stream = workloads::quality_stream(opts.seed);
    let mut lats = Vec::with_capacity(2 * stream.len());
    let (_, _, q) = spans.time(
        "cache.quality_replay",
        0,
        0,
        2 * stream.len() as u32,
        || workloads::quality_pass(&stream, &mut lats, None),
    );
    w.attempted += 1;
    w.failed += q.lru.failed + q.dcl.failed;
    w.put("csr-cache.quality.miss_cost_per_kop", q.miss_cost_per_kop());
    w.put(
        "csr-cache.quality.savings_vs_lru_pct",
        q.savings_vs_lru_pct(),
    );
}

/// Walks the `serve-hit` key stream through what a GET crosses inside the
/// server, and a SET through the WAL encoder. Returns the in-process
/// nanoseconds of one GET (parse + read-through + encode).
fn wire_layers(opts: &Opts, w: &mut Walk, spans: &mut SpanBuf) -> f64 {
    const BATCHES: usize = 64;
    const PER_BATCH: usize = 256;
    let keys = SERVE_HIT.keys;
    let names: Vec<String> = (0..keys as u32).map(key_name).collect();
    let stream = Zipf::new(keys, ZIPF_THETA).stream(opts.seed, 0, BATCHES * PER_BATCH);
    let cache = ReadThroughCache::new(2 * keys);
    for name in &names {
        cache.get(name, || origin_value(name));
    }
    let n = PER_BATCH as u32;
    let (mut parse, mut read, mut encode, mut parse_set, mut wal) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut wire, mut reply, mut values) = (Vec::new(), Vec::new(), Vec::new());
    for (b, batch) in stream.chunks(PER_BATCH).enumerate() {
        let batch_keys: Vec<&str> = batch.iter().map(|&k| names[k as usize].as_str()).collect();
        let req = b as u64;
        // GET: parse -> read-through -> encode, as children of one root.
        wire.clear();
        for key in &batch_keys {
            sut::get_frame(&mut wire, key);
        }
        let root = spans.open("walk.get", req, n);
        let (_, ns, parsed) =
            spans.time("proto.parse", root, req, n, || sut::parse_requests(&wire));
        parse.push(ns);
        values.clear();
        let (_, ns, ()) = spans.time("cache.read_through", root, req, n, || {
            for key in &batch_keys {
                values.push(cache.get(key, || unreachable!("every key is resident")));
            }
        });
        read.push(ns);
        reply.clear();
        let (_, ns, ()) = spans.time("proto.encode", root, req, n, || {
            for (key, value) in batch_keys.iter().zip(&values) {
                sut::encode_value(&mut reply, key, value);
            }
        });
        encode.push(ns);
        spans.close(root);
        w.attempted += 1;
        let right = parsed == PER_BATCH
            && batch_keys
                .iter()
                .zip(&values)
                .all(|(k, v)| gen::is_origin_value(k, v));
        w.failed += u64::from(!right);

        // SET: parse -> WAL record encode.
        wire.clear();
        for (key, value) in batch_keys.iter().zip(&values) {
            sut::set_frame(&mut wire, key, value);
        }
        let root = spans.open("walk.set", req, n);
        let (_, ns, parsed) =
            spans.time("proto.parse", root, req, n, || sut::parse_requests(&wire));
        parse_set.push(ns);
        let (_, ns, ()) = spans.time("persist.encode", root, req, n, || {
            for (i, (key, value)) in batch_keys.iter().zip(&values).enumerate() {
                std::hint::black_box(sut::encode_record(key, value, i as u64));
            }
        });
        wal.push(ns);
        spans.close(root);
        w.attempted += 1;
        w.failed += u64::from(parsed != PER_BATCH);
    }
    let (parse, read, encode) = (median(&parse), median(&read), median(&encode));
    w.put("csr-serve.proto.parse_get_ns", parse);
    w.put("csr-cache.cache.read_through_hit_ns", read);
    w.put("csr-serve.proto.encode_value_ns", encode);
    w.put("csr-serve.proto.parse_set_ns", median(&parse_set));
    w.put("csr-serve.persist.record_encode_ns", median(&wal));

    let mut log = Vec::new();
    for (i, name) in names.iter().enumerate() {
        log.extend_from_slice(&sut::encode_record(name, &origin_value(name), i as u64));
    }
    let ns = probe(spans, "persist.decode", 5, names.len() as u32, |_| {
        w.attempted += 1;
        w.failed += u64::from(sut::decode_records(&log) != names.len());
    });
    w.put("csr-serve.persist.decode_records_per_s", 1e9 / ns);
    parse + read + encode
}

/// One short daemon session: set-up, one timed window.
struct Probe {
    session: ServeSession,
    window: Window,
    client_cpu_us_per_op: f64,
    delta: sut::Counters,
}

fn serve_probe(opts: &Opts, w: &mut Walk, spec: &ServeSpec) -> Result<Probe, String> {
    let mut session = ServeSession::setup(opts, spec)?;
    let pid = session.daemon.pid();
    let before = session.daemon.connect().counters().0;
    let cpu0 = measure::cpu_us(std::process::id());
    let window = run_window(session.fresh_workers(), PROBE_WINDOW, 1, None, pid);
    let client_cpu = measure::cpu_us(std::process::id()) - cpu0;
    let delta = session.daemon.connect().counters().0.since(&before);
    w.attempted += window.ops;
    w.failed += window.failed;
    Ok(Probe {
        session,
        client_cpu_us_per_op: client_cpu as f64 / window.ops as f64,
        window,
        delta,
    })
}

/// Median latency in microseconds of the window's SETs or GETs, and the
/// slowest of them in milliseconds.
fn verb_latency(p: &Probe, sets: bool) -> (f64, f64) {
    let mut lats: Vec<u32> = p
        .session
        .workers
        .iter()
        .zip(&p.window.lat_by_thread)
        .flat_map(|(worker, lats)| {
            worker
                .was_set
                .iter()
                .zip(lats)
                .filter(move |(was_set, _)| **was_set == sets)
                .map(|(_, &ns)| ns)
        })
        .collect();
    lats.sort_unstable();
    (
        f64::from(measure::percentile(&lats, 0.5)) / 1e3,
        f64::from(*lats.last().expect("both verbs ran")) / 1e6,
    )
}

fn daemon_layers(opts: &Opts, w: &mut Walk, get_budget_ns: f64) {
    // A probe that cannot start (a flag the daemon no longer knows) reports
    // zeros and says so; it does not fail the run.
    let run = |w: &mut Walk, what: &str, spec: &ServeSpec| match serve_probe(opts, w, spec) {
        Ok(p) => Some(p),
        Err(e) => {
            w.notes.push(format!("{what} probe absent: {e}"));
            None
        }
    };

    // The serve-hit stream against each I/O engine, named by flag string
    // only, and then against the daemon as shipped, which gives the server
    // and client rows.
    for (engine, ops_metric, p50_metric) in [
        (
            "blocking",
            "csr-serve.server.blocking.ops_per_s",
            "csr-serve.server.blocking.p50_us",
        ),
        (
            "event",
            "csr-serve.reactor.event.ops_per_s",
            "csr-serve.reactor.event.p50_us",
        ),
    ] {
        let spec = ServeSpec {
            daemon_args: &["--io", engine],
            ..SERVE_HIT
        };
        let p = run(w, engine, &spec);
        w.put(ops_metric, p.as_ref().map_or(0.0, |p| p.window.ops_per_s));
        w.put(p50_metric, p.as_ref().map_or(0.0, |p| p.window.p_us(0.5)));
    }
    let hit = run(w, "serve-hit", &SERVE_HIT);
    let window = hit.as_ref().map(|p| &p.window);
    let p50 = window.map_or(0.0, |x| x.p_us(0.5));
    w.put(
        "csr-serve.server.cpu_us_per_op",
        window.map_or(0.0, |x| x.cpu_us_per_op),
    );
    w.put("csr-serve.server.io_self_us", p50 - get_budget_ns / 1e3);
    w.put(
        "csr-serve.client.cpu_us_per_op",
        hit.as_ref().map_or(0.0, |p| p.client_cpu_us_per_op),
    );
    w.put("csr-serve.client.get_p50_us", p50);
    w.put(
        "csr-serve.client.p99_us",
        window.map_or(0.0, |x| x.p_us(0.99)),
    );
    w.put(
        "csr-serve.client.max_ms",
        window.map_or(0.0, |x| x.p_us(1.0) / 1e3),
    );
    drop(hit);

    let miss = run(w, "serve-miss", &SERVE_MISS);
    let kops = miss
        .as_ref()
        .map_or(1.0, |p| p.delta.lookups.max(1) as f64 / 1e3);
    let d = miss.as_ref().map(|p| p.delta).unwrap_or_default();
    w.put(
        "csr-serve.backing.fetches_per_kop",
        (d.lookups - d.hits - d.coalesced) as f64 / kops,
    );
    w.put(
        "csr-serve.backing.coalesced_per_kop",
        d.coalesced as f64 / kops,
    );
    w.put(
        "csr-serve.miss.p90_us",
        miss.as_ref().map_or(0.0, |p| p.window.p_us(0.9)),
    );
    w.put("csr-serve.miss.hit_ratio", d.hit_ratio());
    w.put(
        "csr-serve.miss.evictions_per_kop",
        d.evictions as f64 / kops,
    );
    drop(miss);

    // The SET stream against no WAL, the default WAL, and fsync-per-append.
    let no_wal = run(
        w,
        "serve-set without WAL",
        &ServeSpec {
            persist: None,
            ..SERVE_SET
        },
    );
    let bare_set_p50 = no_wal.as_ref().map_or(0.0, |p| verb_latency(p, true).0);
    drop(no_wal);
    // 2048 keys, not 32768: the prefill pays one fsync per SET too.
    let always = run(
        w,
        "fsync-always",
        &ServeSpec {
            persist: Some(&["--fsync", "always"]),
            keys: 2048,
            ..SERVE_SET
        },
    );
    w.put(
        "csr-serve.persist.fsync_always_set_p50_us",
        always.as_ref().map_or(0.0, |p| verb_latency(p, true).0),
    );
    drop(always);

    // The shipped `--snapshot-every`, so the stall a snapshot causes shows.
    let mut wal = run(
        w,
        "serve-set",
        &ServeSpec {
            persist: Some(&[]),
            ..SERVE_SET
        },
    );
    let (set_p50, stall_ms) = wal.as_ref().map_or((0.0, 0.0), |p| verb_latency(p, true));
    w.put("csr-serve.client.set_p50_us", set_p50);
    w.put("csr-serve.persist.set_delta_us", set_p50 - bare_set_p50);
    w.put("csr-serve.persist.stall_max_ms", stall_ms);
    let stat = |p: &mut Option<Probe>, name: &str| -> f64 {
        p.as_mut()
            .and_then(|p| p.session.daemon.connect().stat(name))
            .unwrap_or(0) as f64
    };
    let appends = stat(&mut wal, "persist_appends");
    w.put(
        "csr-serve.persist.appends_per_kop",
        wal.as_ref()
            .map_or(0.0, |p| p.delta.appends as f64 / p.window.ops as f64 * 1e3),
    );
    w.put("csr-serve.persist.fsyncs", stat(&mut wal, "persist_fsyncs"));
    w.put(
        "csr-serve.persist.snapshots",
        stat(&mut wal, "persist_snapshots"),
    );
    // Every append so far was one SET of a 12-byte key and a 128-byte value.
    let user_bytes = appends * (key_name(0).len() + gen::VALUE_LEN) as f64;
    let dir_bytes = wal
        .as_ref()
        .map_or(0, |p| p.session.daemon.persisted_bytes());
    w.put(
        "csr-serve.persist.bytes_per_user_byte",
        dir_bytes as f64 / user_bytes.max(1.0),
    );
    let (recovery_s, recovered, audited, failed) = wal
        .as_mut()
        .map_or((0.0, 0, 0, 0), |p| p.session.restart_and_audit());
    w.attempted += audited;
    w.failed += failed;
    w.put("csr-serve.persist.recovery_s", recovery_s);
    w.put("csr-serve.persist.recovered_entries", recovered as f64);
}
