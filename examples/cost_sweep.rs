//! Sweep the cost ratio and high-cost access fraction over a real
//! workload trace — a miniature of the paper's Figure 3.
//!
//! Generates the Ocean-like kernel, samples one processor (plus foreign
//! writes, which invalidate), and prints the relative cost savings of DCL
//! over LRU for a grid of (HAF, r) points under random cost mapping.
//!
//! Run with: `cargo run --release --example cost_sweep`

use cost_sensitive_cache::harness::{
    Benchmark, CostRatio, FilteredTrace, LruMissProfile, PricedTrace, TraceSimConfig,
};
use cost_sensitive_cache::policies::Policy;
use cost_sensitive_cache::sim::relative_savings_pct;
use cost_sensitive_cache::trace::cost_map::RandomCostMap;
use cost_sensitive_cache::trace::workloads::OceanLike;
use cost_sensitive_cache::trace::Workload;

fn main() {
    let workload = OceanLike::default();
    println!("generating {} trace ...", workload.name());
    let Benchmark {
        sample, sampled, ..
    } = Benchmark::build(&workload, 2003);
    println!(
        "sample processor {sample}: {} own refs, {} foreign writes\n",
        sampled.own_refs(),
        sampled.foreign_writes()
    );

    let cfg = TraceSimConfig::paper_basic();
    let baseline = LruMissProfile::collect(&sampled, cfg);
    // The L2's input (the L1 miss stream) is the same for every map: filter
    // the trace through the L1 once.
    let filtered = FilteredTrace::new(&sampled, cfg);

    let hafs = [0.05, 0.1, 0.2, 0.3, 0.5, 0.8];
    let ratios = [
        CostRatio::Finite(2),
        CostRatio::Finite(8),
        CostRatio::Finite(32),
        CostRatio::Infinite,
    ];

    print!("{:>6}", "HAF");
    for r in ratios {
        print!("{:>9}", r.to_string());
    }
    println!("   (DCL savings over LRU, %)");
    for haf in hafs {
        print!("{haf:>6.2}");
        // Which blocks are high-cost depends on the HAF only: classify the
        // stream once and run it under every ratio.
        let classes = RandomCostMap::new(haf, CostRatio::Infinite.pair(), 99);
        let priced = PricedTrace::new(&filtered, &classes);
        for ratio in ratios {
            let map = RandomCostMap::new(haf, ratio.pair(), 99);
            let lru_cost = baseline.aggregate_cost(&map);
            let run = priced.run(ratio.pair(), Policy::Dcl);
            print!(
                "{:>9.2}",
                relative_savings_pct(lru_cost, run.aggregate_cost())
            );
        }
        println!();
    }
    println!("\nExpected shape (paper, Fig. 3): peak near HAF 0.1-0.3, growth with r.");
}
