//! Quickstart: reserve an expensive cache block the way the paper does.
//!
//! Builds the paper's basic L2 (16 KB, 4-way, 64-byte blocks), runs the
//! same reference stream under LRU and under each cost-sensitive policy,
//! and prints the aggregate miss cost of each — the metric the whole paper
//! is about.
//!
//! Run with: `cargo run --example quickstart`

use cost_sensitive_cache::policies::{AclCore, BclCore, DclCore, GdCore};
use cost_sensitive_cache::sim::{
    AccessType, BlockAddr, Cache, Cost, EvictionPolicy, Geometry, Lru,
};

/// A little scenario: one "remote" block (miss cost 8) is re-read
/// periodically while a stream of "local" blocks (miss cost 1) sweeps
/// through the same cache sets. Each set runs its own `core()`.
fn run<C: EvictionPolicy>(name: &str, core: impl Fn(&Geometry) -> C) -> Cost {
    let geom = Geometry::new(16 * 1024, 64, 4);
    let mut cache = Cache::new(geom, || core(&geom));

    let remote = BlockAddr(0); // cost 8 when it misses
    let sets = geom.num_sets() as u64;
    cache.access(remote, AccessType::Read, Cost(8));
    for round in 0..64u64 {
        // A conflict stream marching over set 0 (where the remote block
        // lives) and its neighbours.
        for k in 0..6u64 {
            let local = BlockAddr((round * 6 + k) * sets + sets); // maps to set 0
            cache.access(local, AccessType::Read, Cost(1));
        }
        // The expensive block comes back after the sweep: under plain LRU
        // it has been evicted every time; a cost-sensitive policy reserves
        // it and pays a cheap miss instead.
        cache.access(remote, AccessType::Read, Cost(8));
    }

    let stats = cache.stats();
    println!(
        "{name:<4}  misses: {:>4}  aggregate cost: {:>4}",
        stats.misses, stats.aggregate_cost
    );
    stats.aggregate_cost
}

fn main() {
    println!("Cost-sensitive replacement on a conflict-heavy scenario");
    println!("(16 KB 4-way L2; one cost-8 block vs a stream of cost-1 blocks)\n");

    let lru = run("LRU", |_| Lru::new());
    let gd = run("GD", |geom| GdCore::new(geom.assoc()));
    let bcl = run("BCL", |_| BclCore::new());
    let dcl = run("DCL", DclCore::for_geometry);
    let acl = run("ACL", AclCore::for_geometry);

    println!();
    for (name, cost) in [("GD", gd), ("BCL", bcl), ("DCL", dcl), ("ACL", acl)] {
        let saved = 100.0 * (lru.0 as f64 - cost.0 as f64) / lru.0 as f64;
        println!("{name:<4} saves {saved:>5.1}% of LRU's aggregate cost");
    }
}
