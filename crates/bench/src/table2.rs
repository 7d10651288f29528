//! Table 2: relative cost savings under first-touch cost mapping.

use crate::{report, ExperimentOpts, TableBuilder};
use csr::Policy;
use csr_harness::{build_benchmarks, table2, CostRatio, TraceSimConfig};

/// Prints Table 2.
pub fn run(opts: &ExperimentOpts) {
    println!("=== Table 2: relative cost savings, first-touch cost mapping (%) ===");
    let benchmarks = build_benchmarks(opts.scale());
    let cells = table2(
        &benchmarks,
        &CostRatio::TABLE2,
        &Policy::PAPER_SET,
        TraceSimConfig::paper_basic(),
        opts.threads,
    );
    report::write_report(
        opts,
        "table2",
        &report::envelope("table2", opts, report::table2_cells_json(&cells)),
    );
    let mut t = TableBuilder::new();
    let mut header = vec!["benchmark".to_owned(), "policy".to_owned()];
    header.extend(CostRatio::TABLE2.iter().map(ToString::to_string));
    t.header(header);
    for bench in &benchmarks {
        for policy in Policy::PAPER_SET {
            let mut row = vec![bench.name.clone(), policy.to_string()];
            for ratio in CostRatio::TABLE2 {
                let c = cells
                    .iter()
                    .find(|c| c.benchmark == bench.name && c.policy == policy && c.ratio == ratio)
                    .expect("cell computed");
                row.push(format!("{:.2}", c.savings_pct));
            }
            t.row(row);
        }
    }
    print!("{}", t.render());
    println!();
}
