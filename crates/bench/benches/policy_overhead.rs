//! Per-access decision overhead of each replacement policy (Section 5
//! argues the algorithms add negligible cycle-time cost; this measures
//! their software-simulation analogue).
//!
//! Run with `cargo bench --bench policy_overhead`. A dependency-free
//! driver: each policy replays the same Zipf trace a few times and the
//! best wall-clock pass is reported as ns/access and Maccesses/s.

use cache_sim::{AccessType, BlockAddr, Cache, Cost, Geometry};
use csr::Policy;
use csr_harness::l2_cores;
use mem_trace::workloads::synthetic::ZipfRandom;
use mem_trace::Workload;
use std::hint::black_box;
use std::time::Instant;

const PASSES: usize = 5;

fn main() {
    let geom = Geometry::new(16 * 1024, 64, 4);
    let trace = ZipfRandom {
        refs: 100_000,
        blocks: 8192,
        exponent: 0.9,
        write_fraction: 0.2,
    }
    .generate(42);
    let accesses: Vec<(BlockAddr, AccessType, Cost)> = trace
        .iter()
        .map(|r| {
            let b = r.block(64);
            let cost = if b.0 % 5 == 0 { Cost(8) } else { Cost(1) };
            (b, r.op, cost)
        })
        .collect();

    println!(
        "policy_overhead: {} accesses x {PASSES} passes per policy",
        accesses.len()
    );
    println!("{:<12} {:>12} {:>14}", "policy", "ns/access", "Maccesses/s");
    for kind in [
        Policy::Lru,
        Policy::Fifo,
        Policy::Random,
        Policy::Gd,
        Policy::Bcl,
        Policy::Dcl,
        Policy::DclAlias4,
        Policy::Acl,
    ] {
        let mut best = f64::INFINITY;
        for _ in 0..PASSES {
            let mut cache = Cache::new(geom, l2_cores(kind, &geom, None));
            let start = Instant::now();
            for &(block, op, cost) in &accesses {
                black_box(cache.access(block, op, cost));
            }
            let elapsed = start.elapsed().as_secs_f64();
            black_box(cache.stats().aggregate_cost);
            best = best.min(elapsed);
        }
        let per_access_ns = best * 1e9 / accesses.len() as f64;
        let maccesses = accesses.len() as f64 / best / 1e6;
        println!(
            "{:<12} {:>12.1} {:>14.2}",
            kind.name(),
            per_access_ns,
            maccesses
        );
    }
}
