//! Table 3: correlation between consecutive miss latencies to the same
//! block by the same processor (execution-driven, LRU replacement).

use crate::{ExperimentOpts, TableBuilder};
use csr::Policy;
use csr_harness::numa_exp::{rsim_suite, run_numa_cfg};
use numa_sim::{Clock, MissClass, SystemConfig, Table3Matrix};

/// Prints the Table 3 matrix.
pub fn run(opts: &ExperimentOpts) {
    // The paper's Table 3 is measured on the protocol *without* replacement
    // hints; it notes "similar results are obtained in the protocol with
    // replacement hints" — both are printed here.
    println!("=== Table 3: consecutive-miss latency correlation (no hints, LRU) ===");
    let suite = rsim_suite();
    // One parallel batch covers both protocol variants.
    let tasks: Vec<(usize, bool)> = [false, true]
        .iter()
        .flat_map(|&h| (0..suite.len()).map(move |bi| (bi, h)))
        .collect();
    let per_run = csr_harness::experiments::run_tasks(opts.threads, &tasks, |&(bi, hints)| {
        let mut cfg = SystemConfig::table4(Clock::Mhz500);
        cfg.replacement_hints = hints;
        run_numa_cfg(cfg, &suite[bi].trace, Policy::Lru).table3
    });
    let merge = |hints: bool| {
        let mut merged = Table3Matrix::new();
        for ((_, h), m2) in tasks.iter().zip(&per_run) {
            if *h == hints {
                merged.merge(m2);
            }
        }
        merged
    };
    let m = merge(false);

    let mut occ = TableBuilder::new();
    let mut mis = TableBuilder::new();
    let mut err = TableBuilder::new();
    let header = |t: &mut TableBuilder| {
        let mut h = vec!["last \\ cur".to_owned()];
        h.extend((0..6).map(|i| MissClass::label(i).to_owned()));
        t.header(h);
    };
    header(&mut occ);
    header(&mut mis);
    header(&mut err);
    for last in 0..6 {
        let mut ro = vec![MissClass::label(last).to_owned()];
        let mut rm = ro.clone();
        let mut re = ro.clone();
        for cur in 0..6 {
            let cell = m.cell(last, cur);
            ro.push(format!("{:.1}", m.occurrence_pct(last, cur)));
            rm.push(format!("{:.0}", cell.mismatch_pct()));
            re.push(format!("{:.0}", cell.avg_err_ns()));
        }
        occ.row(ro);
        mis.row(rm);
        err.row(re);
    }
    println!("--- occurrence (%) ---");
    print!("{}", occ.render());
    println!("--- mismatch (%) ---");
    print!("{}", mis.render());
    println!("--- avg |latency error| (ns) over mismatching pairs ---");
    print!("{}", err.render());
    println!(
        "same-latency fraction: {:.1}%  (paper: ~93% of misses repeat the previous latency)",
        m.same_latency_pct()
    );
    println!("pairs analysed: {}", m.total_pairs());
    let with_hints = merge(true);
    println!(
        "with replacement hints (Table 4 protocol): same-latency {:.1}% over {} pairs",
        with_hints.same_latency_pct(),
        with_hints.total_pairs()
    );
    println!();
}
