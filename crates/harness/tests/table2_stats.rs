//! The quick-scale Table 2 under `paper_basic`, counter for counter,
//! against `golden/table2_stats.tsv`.
//!
//! Table 2's savings are ratios of two aggregate costs, so a change to the
//! replay could move a hit, a fill or an invalidation count and still print
//! the same table. This test pins every `CacheStats` field of every cell's
//! L1 and L2 (four kernels × the paper's four policies × five ratios) and
//! each kernel's LRU baseline by cost class. It only reads the golden file.

use cache_sim::{CacheStats, CostPair};
use csr::Policy;
use csr_harness::experiments::{build_benchmarks, run_tasks, Scale};
use csr_harness::{CostRatio, FilteredTrace, PricedTrace, TraceSimConfig};
use mem_trace::cost_map::FirstTouchCostMap;

/// Every field of `s`, named; a new field fails to compile here.
fn fields(s: &CacheStats) -> String {
    let CacheStats {
        accesses,
        reads,
        writes,
        hits,
        misses,
        aggregate_cost,
        fills,
        evictions,
        dirty_evictions,
        non_lru_evictions,
        invalidations_requested,
        invalidations_hit,
    } = *s;
    format!(
        "accesses={accesses} reads={reads} writes={writes} hits={hits} misses={misses} \
         cost={} fills={fills} evictions={evictions} dirty_evictions={dirty_evictions} \
         non_lru={non_lru_evictions} inv_requested={invalidations_requested} \
         inv_hit={invalidations_hit}",
        aggregate_cost.0
    )
}

#[test]
fn quick_table2_counters_match_the_golden() {
    let cfg = TraceSimConfig::paper_basic();
    let benchmarks = build_benchmarks(Scale::Quick);
    let bb = cfg.l2.block_bytes();
    let rows = run_tasks(2, &benchmarks, |b| {
        let filtered = FilteredTrace::new(&b.sampled, cfg);
        let map = FirstTouchCostMap::new(&b.placement, b.sample, CostPair::infinite_ratio(), bb);
        let priced = PricedTrace::new(&filtered, &map);
        let lru = priced.lru_misses();
        let mut rows = vec![format!("{}/LRU\tlow={} high={}", b.name, lru.low, lru.high)];
        for policy in Policy::PAPER_SET {
            for ratio in CostRatio::TABLE2 {
                let run = priced.run(ratio.pair(), policy);
                rows.push(format!(
                    "{}/{policy}/{ratio}\tl1: {}\tl2: {}",
                    b.name,
                    fields(&run.l1),
                    fields(&run.l2)
                ));
            }
        }
        rows
    });
    let got: Vec<String> = rows.into_iter().flatten().collect();
    let golden = include_str!("golden/table2_stats.tsv");
    let want: Vec<&str> = golden.lines().filter(|l| !l.starts_with('#')).collect();
    assert_eq!(got.len(), want.len(), "row count");
    for (got, want) in got.iter().zip(want) {
        assert_eq!(got, want);
    }
}
