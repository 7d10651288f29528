//! Beyond the paper: penalty-based cost functions (Section 7 outlook).
//!
//! "The memory performance of CC-NUMA multiprocessors may be further
//! enhanced if we can measure memory access penalty instead of latency and
//! use the penalty as the target cost function." This experiment runs the
//! Table 5 setup with costs = quantized latency (the paper's Section 4)
//! versus costs = quantized *stall* time attributed to each miss.

use crate::{ExperimentOpts, TableBuilder};
use csr::Policy;
use csr_harness::numa_exp::{rsim_suite, run_numa_cfg};
use numa_sim::{Clock, CostMode, SystemConfig};

fn run(trace: &mem_trace::PhasedTrace, mode: CostMode, policy: Policy) -> u64 {
    let mut cfg = SystemConfig::table4(Clock::Ghz1);
    cfg.cost_mode = mode;
    run_numa_cfg(cfg, trace, policy).exec_time_ps
}

/// Prints the latency-cost vs penalty-cost comparison.
pub fn run_experiment(opts: &ExperimentOpts) {
    println!("=== Beyond the paper: latency vs penalty cost functions (1 GHz) ===");
    let suite = rsim_suite();
    let mut t = TableBuilder::new();
    t.header([
        "benchmark",
        "DCL latency-cost",
        "DCL penalty-cost",
        "ACL latency-cost",
        "ACL penalty-cost",
    ]);
    // Per benchmark, the LRU baseline and then the table's four cells in
    // column order, all in one pool.
    let runs = [
        (CostMode::Quantized(60), Policy::Lru),
        (CostMode::Quantized(60), Policy::Dcl),
        (CostMode::Penalty(60), Policy::Dcl),
        (CostMode::Quantized(60), Policy::Acl),
        (CostMode::Penalty(60), Policy::Acl),
    ];
    let tasks: Vec<(usize, CostMode, Policy)> = (0..suite.len())
        .flat_map(|bi| runs.iter().map(move |&(mode, p)| (bi, mode, p)))
        .collect();
    let results = csr_harness::experiments::run_tasks(opts.threads, &tasks, |&(bi, mode, p)| {
        run(&suite[bi].trace, mode, p)
    });
    for (b, times) in suite.iter().zip(results.chunks(runs.len())) {
        let mut row = vec![b.name.clone()];
        row.extend(times[1..].iter().map(|&time| {
            let pct =
                cache_sim::relative_savings_pct(cache_sim::Cost(times[0]), cache_sim::Cost(time));
            format!("{pct:+.2}%")
        }));
        t.row(row);
    }
    print!("{}", t.render());
    println!("(execution-time reduction over the latency-cost LRU baseline)");
    println!();
}
