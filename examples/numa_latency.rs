//! Latency-sensitive replacement on the CC-NUMA machine (Section 4).
//!
//! Runs the Barnes-like kernel on the 16-node Table 4 machine with plain
//! LRU and with DCL at the L2, where each block's miss cost is its last
//! measured miss latency, and prints execution times and miss behaviour.
//!
//! Run with: `cargo run --release --example numa_latency`

use cost_sensitive_cache::harness::numa_exp::{rsim_suite, run_numa};
use cost_sensitive_cache::numa::Clock;
use cost_sensitive_cache::policies::Policy;

fn main() {
    let suite = rsim_suite();
    let bench = &suite[0]; // barnes
    println!(
        "workload: {} ({} refs across 16 processors)\n",
        bench.name,
        bench.trace.total_refs()
    );

    for clock in [Clock::Mhz500, Clock::Ghz1] {
        println!("--- {} ---", clock.label());
        let lru = run_numa(&bench.trace, clock, Policy::Lru);
        for policy in [Policy::Lru, Policy::Dcl, Policy::Acl] {
            let res = if policy == Policy::Lru {
                lru.clone()
            } else {
                run_numa(&bench.trace, clock, policy)
            };
            let delta = 100.0 * (lru.exec_time_ps as f64 - res.exec_time_ps as f64)
                / lru.exec_time_ps as f64;
            println!(
                "{:<4}  exec {:>8.1} us   misses {:>7}   avg miss latency {:>6.0} ns   vs LRU {:+.2}%",
                policy.name(),
                res.exec_time_us(),
                res.total_misses(),
                res.avg_miss_latency_ns(),
                delta,
            );
        }
        println!();
    }
    println!("The paper's Table 5 reports up to ~18% execution-time reduction for DCL/ACL.");
}
