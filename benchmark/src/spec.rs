//! The benchmark's contract: workload and metric names, units, directions
//! and regression bounds. `BENCHMARK.json` at the repository root lists the
//! same tables; `tests/contract.rs` fails when the two disagree.

/// A workload and the one-line reason it exists.
pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadSpec; 7] = [
    WorkloadSpec {
        name: "sim-table2",
        why: "paper Table 2 through csr-harness: the set-associative cores and cache-sim do all the work, the KV and serve layers none",
    },
    WorkloadSpec {
        name: "kv-hit",
        why: "in-process CsrCache, every key resident, 2 threads: lock + map + recency list; eviction is bypassed, so an eviction change must not move it",
    },
    WorkloadSpec {
        name: "kv-evict",
        why: "same cache, 8x more keys than capacity, cache full: eviction does almost all the work, where O(1) eviction shows",
    },
    WorkloadSpec {
        name: "kv-quality",
        why: "single-thread LRU and DCL replays at capacity 4096: exact decision counts, so a faster eviction that picks worse victims is caught",
    },
    WorkloadSpec {
        name: "serve-hit",
        why: "csr-serve daemon, shipped defaults, resident keys over loopback: protocol, I/O engine and sockets dominate; cache work is about 1%",
    },
    WorkloadSpec {
        name: "serve-miss",
        why: "same daemon, 8x more keys than capacity, cache full: read-through fill and eviction inside the request path",
    },
    WorkloadSpec {
        name: "serve-set",
        why: "daemon with a WAL directory, 50% SET / 50% GET, then SIGTERM, restart and audit: append lock, snapshots and recovery beside reads",
    },
];

/// Which way a metric improves.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: printed by every workload with `--trace 0`.
/// `bound` is the share of the parent's median by which it may worsen.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "p90_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_us_per_op",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// A per-layer metric: printed by every workload with `--trace 1`.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

pub const PER_LAYER: [PerLayer; 63] = [
    // Measured on the traced workload itself.
    lower("bench.trace_overhead_pct", "%"),
    higher("bench.spans", "count"),
    lower("bench.p99_us", "us"),
    lower("bench.max_ms", "ms"),
    higher("csr-cache.cache.hit_ratio", "ratio"),
    lower("csr-cache.cache.evictions_per_kop", "1/kop"),
    higher("csr-cache.cache.reservations_per_kop", "1/kop"),
    // The layer walk: the same probes in every traced run.
    higher("mem-trace.gen_refs_per_s", "1/s"),
    lower("csr.core.lru.ns_per_ref", "ns"),
    lower("csr.core.gd.ns_per_ref", "ns"),
    lower("csr.core.bcl.ns_per_ref", "ns"),
    lower("csr.core.dcl.ns_per_ref", "ns"),
    lower("csr.core.acl.ns_per_ref", "ns"),
    lower("cache-sim.l2_misses", "count"),
    lower("csr-harness.table2_wall_s", "s"),
    higher("csr-harness.savings_vs_lru_pct", "%"),
    lower("csr-cache.shard.get_hit_ns", "ns"),
    lower("csr-cache.shard.evict_ns.lru", "ns"),
    lower("csr-cache.shard.evict_ns.gd", "ns"),
    lower("csr-cache.shard.evict_ns.dcl", "ns"),
    lower("csr-cache.shard.evict_ns.acl", "ns"),
    lower("csr-cache.shard.evict_ns.camp", "ns"),
    lower("csr-cache.shard.evict_ns.s3-fifo", "ns"),
    lower("csr-cache.shard.evict_ns.dcl.1k", "ns"),
    lower("csr-cache.shard.evict_ns.dcl.256k", "ns"),
    lower("csr-cache.shard.evict_allocs_per_op", "count"),
    lower("csr-cache.shard.evict_alloc_bytes_per_op", "B"),
    higher("csr-cache.cache.scaling_2t", "ratio"),
    lower("csr-cache.cache.read_through_hit_ns", "ns"),
    lower("csr-cache.quality.miss_cost_per_kop", "cost/kop"),
    higher("csr-cache.quality.savings_vs_lru_pct", "%"),
    lower("csr-obs.metrics_get_delta_ns", "ns"),
    lower("csr-obs.histogram_record_ns", "ns"),
    lower("csr-serve.proto.parse_get_ns", "ns"),
    lower("csr-serve.proto.parse_set_ns", "ns"),
    lower("csr-serve.proto.encode_value_ns", "ns"),
    lower("csr-serve.server.cpu_us_per_op", "us"),
    lower("csr-serve.server.io_self_us", "us"),
    higher("csr-serve.server.blocking.ops_per_s", "1/s"),
    lower("csr-serve.server.blocking.p50_us", "us"),
    higher("csr-serve.reactor.event.ops_per_s", "1/s"),
    lower("csr-serve.reactor.event.p50_us", "us"),
    lower("csr-serve.backing.fetches_per_kop", "1/kop"),
    higher("csr-serve.backing.coalesced_per_kop", "1/kop"),
    lower("csr-serve.persist.record_encode_ns", "ns"),
    higher("csr-serve.persist.decode_records_per_s", "1/s"),
    lower("csr-serve.persist.set_delta_us", "us"),
    lower("csr-serve.persist.fsync_always_set_p50_us", "us"),
    lower("csr-serve.persist.bytes_per_user_byte", "ratio"),
    lower("csr-serve.persist.appends_per_kop", "1/kop"),
    lower("csr-serve.persist.fsyncs", "count"),
    lower("csr-serve.persist.snapshots", "count"),
    lower("csr-serve.persist.stall_max_ms", "ms"),
    lower("csr-serve.persist.recovery_s", "s"),
    higher("csr-serve.persist.recovered_entries", "count"),
    lower("csr-serve.client.cpu_us_per_op", "us"),
    lower("csr-serve.client.get_p50_us", "us"),
    lower("csr-serve.client.set_p50_us", "us"),
    lower("csr-serve.client.p99_us", "us"),
    lower("csr-serve.client.max_ms", "ms"),
    lower("csr-serve.miss.p90_us", "us"),
    higher("csr-serve.miss.hit_ratio", "ratio"),
    lower("csr-serve.miss.evictions_per_kop", "1/kop"),
];

/// Seconds one run measures.
pub const RUN_SECONDS: u32 = 10;

/// `BENCHMARK.json`, rendered from the tables above
/// (`benchmark/run.sh --print-contract`).
pub fn benchmark_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.as_str()
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}
