//! Table 5: execution-time reduction over LRU for the cost-sensitive
//! policies on the CC-NUMA machine, at 500 MHz and 1 GHz.

use crate::{ExperimentOpts, TableBuilder};
use csr_harness::numa_exp::{rsim_suite, rsim_suite_extended, table5, TABLE5_POLICIES};
use numa_sim::Clock;

/// Prints Table 5.
pub fn run(opts: &ExperimentOpts) {
    println!("=== Table 5: execution-time reduction over LRU (%) ===");
    let suite = if opts.extended {
        rsim_suite_extended()
    } else {
        rsim_suite()
    };
    let cells = table5(
        &suite,
        &[Clock::Mhz500, Clock::Ghz1],
        &TABLE5_POLICIES,
        opts.threads,
    );
    for clock in [Clock::Mhz500, Clock::Ghz1] {
        println!("--- {} processor ---", clock.label());
        let mut t = TableBuilder::new();
        let mut header = vec!["benchmark".to_owned()];
        header.extend(TABLE5_POLICIES.iter().map(|p| p.name().to_owned()));
        t.header(header);
        for b in &suite {
            let mut row = vec![b.name.clone()];
            for &policy in &TABLE5_POLICIES {
                let cell = cells
                    .iter()
                    .find(|c| c.benchmark == b.name && c.clock == clock && c.policy == policy)
                    .expect("cell computed");
                row.push(format!("{:.2}", cell.reduction_pct));
            }
            t.row(row);
        }
        print!("{}", t.render());
    }
    println!("(paper: DCL/ACL give the largest, most reliable reductions — up to ~18%)");
    println!();
}
