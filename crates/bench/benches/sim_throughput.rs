//! End-to-end simulator throughput — the trace-driven hierarchy
//! (references/second) and the event-driven NUMA machine
//! (references/second through the full protocol).
//!
//! Run with `cargo bench --bench sim_throughput`. Dependency-free: each
//! configuration runs a few passes and the best wall-clock pass wins.

use csr::Policy;
use csr_harness::{run_sampled, TraceSimConfig};
use mem_trace::cost_map::RandomCostMap;
use mem_trace::workloads::OceanLike;
use mem_trace::{ProcId, SampledTrace, Workload};
use numa_sim::Clock;
use std::hint::black_box;
use std::time::Instant;

const PASSES: usize = 3;

fn best_of<F: FnMut()>(mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..PASSES {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

fn main() {
    let w = OceanLike {
        n: 130,
        grids: 3,
        procs: 16,
        iters: 3,
        col_stride: 2,
        reduction_points: 256,
    };
    let trace = w.generate(7);
    let sampled = SampledTrace::from_trace(&trace, ProcId(3));
    let map = RandomCostMap::new(0.2, cache_sim::CostPair::ratio(8), 5);
    let cfg = TraceSimConfig::paper_basic();

    println!(
        "trace_driven: {} events, best of {PASSES} passes",
        sampled.events().len()
    );
    println!("{:<8} {:>14}", "policy", "Mrefs/s");
    for kind in [Policy::Lru, Policy::Dcl] {
        let secs = best_of(|| {
            black_box(run_sampled(&sampled, &map, kind, cfg));
        });
        println!(
            "{:<8} {:>14.2}",
            kind.name(),
            sampled.events().len() as f64 / secs / 1e6
        );
    }

    let w = OceanLike {
        n: 66,
        grids: 2,
        procs: 16,
        iters: 2,
        col_stride: 2,
        reduction_points: 64,
    };
    let pt = w.generate_phases(7);
    println!(
        "\nnuma_sim: {} refs, best of {PASSES} passes",
        pt.total_refs()
    );
    println!("{:<8} {:>14}", "policy", "Mrefs/s");
    for kind in [Policy::Lru, Policy::Dcl] {
        let secs = best_of(|| {
            black_box(csr_harness::numa_exp::run_numa(&pt, Clock::Mhz500, kind).exec_time_ps);
        });
        println!(
            "{:<8} {:>14.2}",
            kind.name(),
            pt.total_refs() as f64 / secs / 1e6
        );
    }
}
