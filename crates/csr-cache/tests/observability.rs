//! Observability integration: the registry's decision counters must agree
//! exactly with [`CacheStats`], the sampled latency histograms must count
//! the operations they saw, and the Prometheus and JSON exporters must
//! round-trip the same numbers.

use csr_cache::{CsrCache, Policy};
use csr_obs::export;
use csr_obs::{CountingObserver, Json, MetricsObserver, Registry, SharedObserver};
use std::sync::Arc;

const LATENCY_FAMILY: &str = "csr_cache_op_latency_ns";

/// Deterministic LCG for reproducible workloads.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

/// A get-then-insert workload with skewed costs over a small key universe.
fn run_workload(cache: &CsrCache<u64, u64>, ops: usize) {
    let mut rng = Lcg(7);
    for _ in 0..ops {
        let key = rng.next() % 600;
        if cache.get(&key).is_none() {
            cache.insert(key, key * 3);
        }
    }
}

fn observed_cache(registry: &Arc<Registry>, policy: Policy) -> CsrCache<u64, u64> {
    CsrCache::builder(256)
        .shards(4)
        .policy(policy)
        .cost_fn(|k, _v| if k % 5 == 0 { 16 } else { 1 })
        .metrics(Arc::clone(registry))
        .latency_sample_every(1)
        .build()
}

fn counter_value(registry: &Registry, policy: &str, event: &str) -> u64 {
    registry
        .snapshot()
        .family(MetricsObserver::FAMILY)
        .expect("event family registered")
        .sample_with(&[("policy", policy), ("event", event)])
        .expect("event sample registered")
        .value
        .as_counter()
        .expect("counter sample")
}

#[test]
fn registry_counters_match_cache_stats() {
    let registry = Arc::new(Registry::new());
    let cache = observed_cache(&registry, Policy::Dcl);
    run_workload(&cache, 50_000);

    let stats = cache.stats();
    assert!(stats.evictions > 0 && stats.reservations > 0 && stats.hits > 0);

    // Single-threaded, so the identities are exact.
    assert_eq!(counter_value(&registry, "DCL", "evict"), stats.evictions);
    assert_eq!(
        counter_value(&registry, "DCL", "reserve"),
        stats.reservations
    );
    // The policy sees a hit per get-hit and per in-place update, and one
    // miss per missing access: every insert here fills the get-miss just
    // before it, which delivered that access's only miss.
    assert_eq!(
        counter_value(&registry, "DCL", "hit"),
        stats.hits + stats.updates
    );
    assert_eq!(counter_value(&registry, "DCL", "miss"), stats.misses);
}

#[test]
fn latency_histograms_count_sampled_ops() {
    let registry = Arc::new(Registry::new());
    let cache = observed_cache(&registry, Policy::Acl);
    run_workload(&cache, 20_000);

    let stats = cache.stats();
    let snap = registry.snapshot();
    let fam = snap.family(LATENCY_FAMILY).expect("latency family");
    // sample_every(1): every op of every shard lands in its histogram.
    let count_of = |op: &str| {
        fam.samples
            .iter()
            .filter(|s| s.labels.iter().any(|(k, v)| k == "op" && v == op))
            .map(|s| s.value.as_histogram().expect("histogram sample").count())
            .sum::<u64>()
    };
    assert_eq!(count_of("get"), stats.lookups);
    assert_eq!(count_of("insert"), stats.insertions + stats.updates);
    assert_eq!(cache.num_shards(), 4);
    assert_eq!(
        fam.samples.len(),
        2 * cache.num_shards(),
        "one histogram per shard per op"
    );
    let merged = fam.merged_histogram().expect("histogram family");
    assert_eq!(
        merged.count(),
        stats.lookups + stats.insertions + stats.updates
    );
}

#[test]
fn default_sampling_records_a_subset() {
    let registry = Arc::new(Registry::new());
    let cache: CsrCache<u64, u64> = CsrCache::builder(64)
        .shards(1)
        .metrics(Arc::clone(&registry))
        .build(); // default 1-in-64 sampling
    for k in 0..1000u64 {
        cache.insert(k, k);
    }
    let snap = registry.snapshot();
    let merged = snap
        .family(LATENCY_FAMILY)
        .and_then(|f| f.merged_histogram())
        .expect("latency family");
    // ceil(1000 / 64) = 16 sampled inserts, and nothing more.
    assert_eq!(merged.count(), 16);
}

#[test]
fn user_observer_composes_with_metrics() {
    let registry = Arc::new(Registry::new());
    let counting = Arc::new(CountingObserver::new());
    let cache: CsrCache<u64, u64> = CsrCache::builder(256)
        .shards(4)
        .policy(Policy::Bcl)
        .cost_fn(|k, _v| 1 + k % 7)
        .metrics(Arc::clone(&registry))
        .observer(Arc::clone(&counting) as SharedObserver)
        .build();
    run_workload(&cache, 30_000);

    let counts = counting.counts();
    let stats = cache.stats();
    assert_eq!(counts.evictions, stats.evictions);
    assert_eq!(counts.reservations, stats.reservations);
    // Both sinks observed the identical event stream.
    assert_eq!(counter_value(&registry, "BCL", "evict"), counts.evictions);
    assert_eq!(
        counter_value(&registry, "BCL", "reserve"),
        counts.reservations
    );
    assert_eq!(
        counter_value(&registry, "BCL", "depreciate"),
        counts.depreciations
    );
}

#[test]
fn prometheus_and_json_round_trip_the_same_numbers() {
    let registry = Arc::new(Registry::new());
    let cache = observed_cache(&registry, Policy::Dcl);
    run_workload(&cache, 10_000);

    let snap = registry.snapshot();
    let prom = export::prometheus(&snap);
    let json = Json::parse(&export::json(&snap)).expect("exported JSON must parse");

    let stats = cache.stats();
    // Prometheus: the eviction counter line carries the exact stat
    // (labels render sorted: event before policy).
    let evict_line = format!(
        "csr_policy_events_total{{event=\"evict\",policy=\"DCL\"}} {}",
        stats.evictions
    );
    assert!(
        prom.lines().any(|l| l == evict_line),
        "missing or mismatched line {evict_line:?} in:\n{prom}"
    );

    // JSON: walk to the same sample and compare against both the stat and
    // the Prometheus view.
    let families = json
        .get("families")
        .and_then(Json::as_arr)
        .expect("families array");
    let events = families
        .iter()
        .find(|f| f.get("name").and_then(Json::as_str) == Some("csr_policy_events_total"))
        .expect("event family in JSON");
    let evict_value = events
        .get("samples")
        .and_then(Json::as_arr)
        .expect("samples array")
        .iter()
        .find(|s| {
            s.get("labels")
                .and_then(|l| l.get("event"))
                .and_then(Json::as_str)
                == Some("evict")
        })
        .and_then(|s| s.get("value"))
        .and_then(Json::as_i64)
        .expect("evict sample value");
    assert_eq!(evict_value, i64::try_from(stats.evictions).unwrap());

    // Histograms: JSON count equals the Prometheus `_count` line.
    let lookups = stats.lookups;
    let hist_counts: i64 = families
        .iter()
        .find(|f| f.get("name").and_then(Json::as_str) == Some(LATENCY_FAMILY))
        .and_then(|f| f.get("samples"))
        .and_then(Json::as_arr)
        .expect("latency samples")
        .iter()
        .filter(|s| {
            s.get("labels")
                .and_then(|l| l.get("op"))
                .and_then(Json::as_str)
                == Some("get")
        })
        .map(|s| {
            s.get("value")
                .and_then(|v| v.get("count"))
                .and_then(Json::as_i64)
                .expect("histogram count")
        })
        .sum();
    assert_eq!(hist_counts, i64::try_from(lookups).unwrap());
}
