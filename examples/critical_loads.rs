//! Criticality-based cost-sensitive replacement in a uniprocessor — the
//! paper's Section 7 outlook: "assign a high cost to critical load misses
//! and low cost to store misses", since buffered stores hide their miss
//! latency while loads stall the pipeline.
//!
//! A synthetic workload mixes a load-dominated structure (pointer-chased
//! index) with a store-dominated one (log buffer). Costs come from
//! [`CriticalityCostMap`]; DCL then preferentially keeps the load-critical
//! blocks.
//!
//! Run with: `cargo run --release --example critical_loads`

use cost_sensitive_cache::policies::DclCore;
use cost_sensitive_cache::sim::{relative_savings_pct, Cache, CostPair, Geometry, Lru};
use cost_sensitive_cache::trace::cost_map::CostMap;
use cost_sensitive_cache::trace::criticality::CriticalityCostMap;
use cost_sensitive_cache::trace::workloads::synthetic::ZipfRandom;
use cost_sensitive_cache::trace::{Trace, TraceRecord, Workload};

fn main() {
    // Build a uniprocessor trace: Zipf-distributed loads over an index
    // region interleaved with sequential stores to a log region.
    let loads = ZipfRandom {
        refs: 120_000,
        blocks: 4096,
        exponent: 0.8,
        write_fraction: 0.0,
    }
    .generate(11);
    let mut trace = Trace::new(1);
    let mut log_ptr = 0u64;
    for (i, rec) in loads.iter().enumerate() {
        trace.push(*rec);
        if i % 3 == 0 {
            // A store to the streaming log (write-dominated blocks).
            let addr = cost_sensitive_cache::sim::Addr((1 << 30) + (log_ptr % 8192) * 64);
            trace.push(TraceRecord::write(rec.proc, addr));
            log_ptr += 1;
        }
    }

    // Classify blocks: load-dominated ones get the high (critical) cost.
    let costs = CriticalityCostMap::from_trace(&trace, CostPair::ratio(8), 0.7);
    println!(
        "classified blocks: {:.1}% load-critical\n",
        costs.critical_fraction() * 100.0
    );

    // Simulate a 32 KB 4-way L1D under LRU and DCL.
    let geom = Geometry::new(32 * 1024, 64, 4);
    let mut lru = Cache::new(geom, Lru::new);
    let mut dcl = Cache::new(geom, || DclCore::for_geometry(&geom));
    for rec in &trace {
        let b = rec.block(64);
        lru.access(b, rec.op, costs.cost_of(b));
        dcl.access(b, rec.op, costs.cost_of(b));
    }

    let (l, d) = (lru.stats(), dcl.stats());
    println!(
        "LRU:  misses {:>7}  load-weighted cost {:>8}",
        l.misses, l.aggregate_cost
    );
    println!(
        "DCL:  misses {:>7}  load-weighted cost {:>8}",
        d.misses, d.aggregate_cost
    );
    println!(
        "\nDCL cuts the load-criticality cost by {:.1}% (miss-count change: {:+.1}%)",
        relative_savings_pct(l.aggregate_cost, d.aggregate_cost),
        100.0 * (d.misses as f64 - l.misses as f64) / l.misses as f64
    );
    println!("Store-dominated log blocks are sacrificed to keep hot load blocks resident.");
}
