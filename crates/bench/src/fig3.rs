//! Figure 3: relative cost savings under random cost mapping, as a grid of
//! (benchmark × policy) tables over HAF and cost ratio.

use crate::{report, ExperimentOpts, TableBuilder};
use csr::Policy;
use csr_harness::{build_benchmarks, fig3_grid, fig3_hafs, CostRatio, TraceSimConfig};

/// Prints the full Figure 3 grid.
pub fn run(opts: &ExperimentOpts) {
    println!("=== Figure 3: relative cost savings, random cost mapping (%) ===");
    println!("(16KB 4-way L2, 64B blocks, 4KB direct-mapped L1 filter)");
    let benchmarks = build_benchmarks(opts.scale());
    let hafs = fig3_hafs();
    let points = fig3_grid(
        &benchmarks,
        &hafs,
        &CostRatio::FIG3,
        &Policy::PAPER_SET,
        TraceSimConfig::paper_basic(),
        opts.threads,
    );
    report::write_report(
        opts,
        "fig3",
        &report::envelope("fig3", opts, report::savings_points_json(&points)),
    );

    // Index once instead of scanning the whole grid per cell.
    let mut index: std::collections::HashMap<(&str, Policy, u64, u64), f64> =
        std::collections::HashMap::new();
    let key_of = |ratio: CostRatio| match ratio {
        CostRatio::Finite(r) => r,
        CostRatio::Infinite => u64::MAX,
    };
    for p in &points {
        index.insert(
            (
                p.benchmark.as_str(),
                p.policy,
                key_of(p.ratio),
                (p.haf * 1000.0).round() as u64,
            ),
            p.savings_pct,
        );
    }
    for bench in &benchmarks {
        for policy in Policy::PAPER_SET {
            println!("--- {} / {} ---", bench.name, policy);
            let mut t = TableBuilder::new();
            let mut header = vec!["HAF".to_owned()];
            header.extend(CostRatio::FIG3.iter().map(ToString::to_string));
            t.header(header);
            for &haf in &hafs {
                let mut row = vec![format!("{haf:.2}")];
                for ratio in CostRatio::FIG3 {
                    let key = (
                        bench.name.as_str(),
                        policy,
                        key_of(ratio),
                        (haf * 1000.0).round() as u64,
                    );
                    let savings = index.get(&key).expect("grid point computed");
                    row.push(format!("{savings:.2}"));
                }
                t.row(row);
            }
            print!("{}", t.render());
            println!();
        }
    }
}
