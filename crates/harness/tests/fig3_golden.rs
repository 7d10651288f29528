//! A reduced Figure 3 — barnes at RSIM scale, three HAFs, two ratios, the
//! paper's four policies — against `golden/fig3_reduced.tsv`, written by
//! the commit before the priced runner. The random-map path (pricing per
//! HAF, one LRU baseline per priced trace, both in the task pool) must
//! reproduce every cell bit for bit.

use csr::Policy;
use csr_harness::experiments::BENCH_SEED;
use csr_harness::{fig3_grid, Benchmark, CostRatio, TraceSimConfig};
use mem_trace::workloads::BarnesLike;

#[test]
fn reduced_fig3_matches_the_golden_bit_for_bit() {
    let bench = Benchmark::build(&BarnesLike::rsim_scale(), BENCH_SEED);
    let points = fig3_grid(
        &[bench],
        &[0.05, 0.2, 0.5],
        &[CostRatio::Finite(8), CostRatio::Infinite],
        &Policy::PAPER_SET,
        TraceSimConfig::paper_basic(),
        2,
    );
    let got: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "{}/{}/{}/haf={}\t{:?}",
                p.benchmark,
                p.policy.name(),
                p.ratio,
                p.haf,
                p.savings_pct
            )
        })
        .collect();
    let golden = include_str!("golden/fig3_reduced.tsv");
    let want: Vec<&str> = golden.lines().filter(|l| !l.starts_with('#')).collect();
    assert_eq!(got, want);
}
