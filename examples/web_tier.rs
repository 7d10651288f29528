//! Cost-sensitive replacement beyond CPU caches: a CDN-edge-like object
//! cache where misses have wildly different backend costs.
//!
//! The paper argues (Section 7) that its algorithms apply to "various
//! kinds of storage where non-uniform cost functions are involved". This
//! example models an edge cache in front of three backends — a local disk
//! (cheap), a regional origin (moderate), and a cross-continent origin
//! (expensive) — and compares LRU, GD, and DCL on a Zipf-like request
//! stream. Cost = backend fetch cost per miss.
//!
//! Run with: `cargo run --release --example web_tier`

use cost_sensitive_cache::policies::{DclCore, GdCore};
use cost_sensitive_cache::sim::{
    AccessType, BlockAddr, Cache, Cost, EvictionPolicy, Geometry, Lru,
};
use cost_sensitive_cache::trace::workloads::synthetic::ZipfRandom;
use cost_sensitive_cache::trace::Workload;

/// Backend of an object, derived from its id.
fn backend_cost(block: BlockAddr) -> Cost {
    match block.0 % 10 {
        // 60% of objects on local disk: cheap refills.
        0..=5 => Cost(1),
        // 30% at the regional origin.
        6..=8 => Cost(10),
        // 10% across the continent.
        _ => Cost(50),
    }
}

fn run<C: EvictionPolicy>(
    name: &str,
    core: impl Fn(&Geometry) -> C,
    requests: &[BlockAddr],
) -> (u64, u64) {
    // Model the edge cache as 4096 object slots, 8-way associative, with
    // one `core()` per set.
    let geom = Geometry::new(4096 * 64, 64, 8);
    let mut cache = Cache::new(geom, || core(&geom));
    for &obj in requests {
        cache.access(obj, AccessType::Read, backend_cost(obj));
    }
    let s = cache.stats();
    println!(
        "{name:<4}  hit rate {:>5.1}%   backend cost {:>8}",
        s.hit_rate() * 100.0,
        s.aggregate_cost
    );
    (s.misses, s.aggregate_cost.0)
}

fn main() {
    println!("Edge object cache with non-uniform backend costs\n");
    // A Zipf-skewed request stream over 40k objects.
    let stream = ZipfRandom {
        refs: 400_000,
        blocks: 40_000,
        exponent: 0.9,
        write_fraction: 0.0,
    };
    let requests: Vec<BlockAddr> = stream.generate(7).iter().map(|r| r.block(64)).collect();

    let (_, lru_cost) = run("LRU", |_| Lru::new(), &requests);
    let (_, gd_cost) = run("GD", |geom| GdCore::new(geom.assoc()), &requests);
    let (_, dcl_cost) = run("DCL", DclCore::for_geometry, &requests);

    println!();
    for (name, cost) in [("GD", gd_cost), ("DCL", dcl_cost)] {
        println!(
            "{name:<4} cuts backend cost by {:.1}% vs LRU",
            100.0 * (lru_cost as f64 - cost as f64) / lru_cost as f64
        );
    }
    println!("\nLocality-centric DCL trades a slightly lower hit rate for far cheaper misses;");
    println!("cost-centric GD pushes further when cost differentials are this wide (50:1).");
}
