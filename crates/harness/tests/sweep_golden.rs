//! `experiments sweep` at quick scale — DCL at HAF 0.2 and r = 8 on every
//! kernel, for each of its six L2 geometries — against
//! `golden/sweep_quick.tsv`, written before the L1 filter ran once per
//! sample trace. Four of the geometries nest under the 4 KB direct-mapped
//! L1 (the L2 has at least its 64 sets); the 16 KB 8-way and 8 KB 4-way
//! L2s have 32 sets and do not, so both replay paths are pinned at full
//! quick scale.

use csr::Policy;
use csr_harness::{build_benchmarks, fig3_grid, CostRatio, Scale, TraceSimConfig};

/// The sweep's L2s as (KB, ways): its associativity row, then its size row.
const GEOMETRIES: [(u64, usize); 6] = [(16, 2), (16, 4), (16, 8), (8, 4), (32, 4), (64, 4)];

#[test]
fn quick_sweep_matches_the_golden_bit_for_bit() {
    let benchmarks = build_benchmarks(Scale::Quick);
    let mut got = Vec::new();
    for (kb, assoc) in GEOMETRIES {
        let points = fig3_grid(
            &benchmarks,
            &[0.2],
            &[CostRatio::Finite(8)],
            &[Policy::Dcl],
            TraceSimConfig::with_l2(kb * 1024, assoc),
            2,
        );
        got.extend(points.iter().map(|p| {
            format!(
                "l2={kb}KB/{assoc}-way/{}/{}/{}/haf={}\t{:?}",
                p.benchmark,
                p.policy.name(),
                p.ratio,
                p.haf,
                p.savings_pct
            )
        }));
    }
    let golden = include_str!("golden/sweep_quick.tsv");
    let want: Vec<&str> = golden.lines().filter(|l| !l.starts_with('#')).collect();
    assert_eq!(got, want);
}
