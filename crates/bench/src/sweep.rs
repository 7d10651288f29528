//! Cache-parameter sweeps (Section 3.1): the paper varies associativity
//! from 2 to 8 and examines cache sizes around the working-set knees
//! (8 KB and 64 KB). This subcommand reports DCL's savings over LRU across
//! that parameter grid, showing where reservations have room to work.

use crate::{ExperimentOpts, TableBuilder};
use csr::Policy;
use csr_harness::{build_benchmarks, fig3_grid, CostRatio, TraceSimConfig};

/// Prints savings across associativities and cache sizes.
pub fn run(opts: &ExperimentOpts) {
    println!("=== Parameter sweep: DCL savings over LRU (%), random mapping, HAF=0.2 r=8 ===");
    let benchmarks = build_benchmarks(opts.scale());

    println!("--- associativity (16 KB L2) ---");
    let mut t = TableBuilder::new();
    let assocs = [2usize, 4, 8];
    let mut header = vec!["benchmark".to_owned()];
    header.extend(assocs.iter().map(|a| format!("{a}-way")));
    t.header(header);
    let mut rows: Vec<Vec<String>> = benchmarks.iter().map(|b| vec![b.name.clone()]).collect();
    for &assoc in &assocs {
        let cfg = TraceSimConfig::with_l2(16 * 1024, assoc);
        let pts = fig3_grid(
            &benchmarks,
            &[0.2],
            &[CostRatio::Finite(8)],
            &[Policy::Dcl],
            cfg,
            opts.threads,
        );
        for (i, b) in benchmarks.iter().enumerate() {
            let p = pts
                .iter()
                .find(|p| p.benchmark == b.name)
                .expect("sweep point computed");
            rows[i].push(format!("{:.2}", p.savings_pct));
        }
    }
    for row in rows {
        t.row(row);
    }
    print!("{}", t.render());
    println!();

    println!("--- L2 size (4-way) ---");
    let sizes = [8u64, 16, 32, 64];
    let mut t = TableBuilder::new();
    let mut header = vec!["benchmark".to_owned()];
    header.extend(sizes.iter().map(|s| format!("{s}KB")));
    t.header(header);
    let mut rows: Vec<Vec<String>> = benchmarks.iter().map(|b| vec![b.name.clone()]).collect();
    for &kb in &sizes {
        let cfg = TraceSimConfig::with_l2(kb * 1024, 4);
        let pts = fig3_grid(
            &benchmarks,
            &[0.2],
            &[CostRatio::Finite(8)],
            &[Policy::Dcl],
            cfg,
            opts.threads,
        );
        for (i, b) in benchmarks.iter().enumerate() {
            let p = pts
                .iter()
                .find(|p| p.benchmark == b.name)
                .expect("sweep point computed");
            rows[i].push(format!("{:.2}", p.savings_pct));
        }
    }
    for row in rows {
        t.row(row);
    }
    print!("{}", t.render());
    println!("(reservations pay off when reuse sits just beyond the cache: growing");
    println!(" the cache toward a kernel's reuse band increases savings, until the");
    println!(" working set fits outright and there is nothing left to save — the");
    println!(" paper picks 16 KB so replacements stay frequent; see Section 3.1)");
    println!();
}
