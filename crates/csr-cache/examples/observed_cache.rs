//! A fully observed [`CsrCache`]: decision counters and sampled op-latency
//! histograms in a `csr-obs` [`Registry`], a bounded decision trace, and
//! both export formats (Prometheus text and JSON) of the same snapshot.
//!
//! Run with `cargo run --example observed_cache -p csr-cache`. Pass a path
//! (e.g. `-- metrics.json`) to also write the JSON snapshot to a file —
//! CI lints that file with the `csr-obs` `jsonlint` example.

use csr_cache::{CsrCache, Policy};
use csr_obs::export;
use csr_obs::{EventTracer, Registry, SharedObserver};
use std::sync::Arc;

const CAPACITY: usize = 1024;
const RECORDS: u64 = 8192;
const REQUESTS: usize = 200_000;

/// Every 16th record is "remote" and ~30x more expensive to refetch.
fn refetch_cost(key: u64) -> u64 {
    if key.is_multiple_of(16) {
        300
    } else {
        10
    }
}

fn main() {
    let registry = Arc::new(Registry::new());
    let tracer = Arc::new(EventTracer::new(4096));
    let cache: CsrCache<u64, String> = CsrCache::builder(CAPACITY)
        .shards(4)
        .policy(Policy::Dcl)
        .cost_fn(|k: &u64, _v: &String| refetch_cost(*k))
        .metrics(Arc::clone(&registry))
        .observer(Arc::clone(&tracer) as SharedObserver)
        .latency_sample_every(16)
        .build();

    // A skewed cache-aside workload.
    let mut state = 0x5EEDu64;
    for _ in 0..REQUESTS {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let u = (state >> 33) as f64 / (1u64 << 31) as f64;
        let key = ((RECORDS as f64).powf(u) as u64).min(RECORDS - 1);
        if cache.get(&key).is_none() {
            cache.insert(key, format!("record-{key}"));
        }
    }

    let s = cache.stats();
    println!(
        "{} requests: hit rate {:.1}%, miss rate {:.1}%, mean miss cost {:.1}",
        s.lookups,
        100.0 * s.hit_rate(),
        100.0 * s.miss_rate(),
        s.mean_miss_cost()
    );

    let snap = registry.snapshot();
    println!("\n--- Prometheus exposition (scrape this) ---");
    print!("{}", export::prometheus(&snap));

    println!("\n--- last decision events ({} total) ---", tracer.total());
    for t in tracer.events().iter().rev().take(5).rev() {
        println!("#{:<8} {:?}", t.seq, t.event);
    }

    let json = export::json(&snap);
    if let Some(path) = std::env::args().nth(1) {
        std::fs::write(&path, &json).expect("write metrics snapshot");
        println!("\nwrote JSON snapshot to {path}");
    } else {
        println!("\n--- JSON snapshot (first 400 bytes) ---");
        let cut = json.len().min(400);
        println!("{}...", &json[..cut]);
    }
}
