//! Cross-crate integration tests of the trace-driven methodology
//! (Section 3): real workload kernels through the L1-filtered cache
//! hierarchy under every policy.

use cost_sensitive_cache::harness::{
    build_benchmarks, fig3_grid, l2_cores, run_sampled, table2, CostRatio, LruMissProfile, Scale,
    TraceSimConfig,
};
use cost_sensitive_cache::policies::Policy;
use cost_sensitive_cache::sim::{Cost, CostPair};
use cost_sensitive_cache::trace::cost_map::{RandomCostMap, UniformCostMap};
use cost_sensitive_cache::trace::workloads::synthetic::UniformRandom;
use cost_sensitive_cache::trace::{ProcId, SampledTrace, Workload};

fn small_sampled() -> SampledTrace {
    let w = UniformRandom {
        refs: 80_000,
        blocks: 3000,
        procs: 4,
        write_fraction: 0.3,
    };
    SampledTrace::from_trace(&w.generate(17), ProcId(0))
}

#[test]
fn uniform_costs_collapse_every_lru_extension_to_lru() {
    // DESIGN.md invariant 1, on a multiprocessor trace with invalidations.
    let s = small_sampled();
    let cfg = TraceSimConfig::paper_basic();
    let map = UniformCostMap(Cost(7));
    let lru = run_sampled(&s, &map, Policy::Lru, cfg);
    for kind in [Policy::Bcl, Policy::Dcl, Policy::Acl] {
        let r = run_sampled(&s, &map, kind, cfg);
        assert_eq!(r.l2.misses, lru.l2.misses, "{kind}");
        assert_eq!(r.l2.hits, lru.l2.hits, "{kind}");
        assert_eq!(r.l2.non_lru_evictions, 0, "{kind} must never reserve");
    }
}

#[test]
fn infinite_ratio_gives_upper_bound_savings() {
    // At r = infinity the depreciation is inert, so DCL's savings at any
    // finite r cannot exceed the infinite-ratio savings.
    let s = small_sampled();
    let cfg = TraceSimConfig::paper_basic();
    let profile = LruMissProfile::collect(&s, cfg);
    let mut savings = Vec::new();
    for ratio in [
        CostRatio::Finite(4),
        CostRatio::Finite(16),
        CostRatio::Infinite,
    ] {
        let map = RandomCostMap::new(0.2, ratio.pair(), 5);
        let base = profile.aggregate_cost(&map);
        let run = run_sampled(&s, &map, Policy::Dcl, cfg);
        savings.push(cost_sensitive_cache::sim::relative_savings_pct(
            base,
            run.aggregate_cost(),
        ));
    }
    assert!(
        savings[2] >= savings[0] && savings[2] >= savings[1],
        "infinite ratio must dominate: {savings:?}"
    );
}

#[test]
fn aggregate_cost_equals_sum_of_charged_misses() {
    // DESIGN.md invariant 4: replaying the events and summing the charged
    // costs reproduces the cache's aggregate-cost counter.
    let s = small_sampled();
    let cfg = TraceSimConfig::paper_basic();
    let map = RandomCostMap::new(0.3, CostPair::ratio(8), 3);
    let result = run_sampled(&s, &map, Policy::Bcl, cfg);

    // Manual replay with explicit accounting.
    use cost_sensitive_cache::sim::{Cost as C, TwoLevel};
    let mut h = TwoLevel::new(cfg.l1, cfg.l2, l2_cores(Policy::Bcl, &cfg.l2, None));
    let mut total = C::ZERO;
    use cost_sensitive_cache::trace::cost_map::CostMap;
    use cost_sensitive_cache::trace::SampledKind;
    for ev in s.events() {
        let (addr, kind) = ev.unpack();
        let block = addr.block(64);
        match kind {
            SampledKind::Own(op) => total += h.access(block, op, map.cost_of(block)).cost_charged,
            SampledKind::ForeignWrite => h.invalidate(block),
        }
    }
    assert_eq!(total, result.aggregate_cost());
}

#[test]
fn fig3_sweet_spot_is_positive_on_irregular_kernels() {
    // The headline of Figure 3: at moderate HAF and r, the cost-sensitive
    // policies save real cost on the irregular kernels.
    let benchmarks = build_benchmarks(Scale::Quick);
    let barnes: Vec<_> = benchmarks
        .into_iter()
        .filter(|b| b.name == "barnes")
        .collect();
    let pts = fig3_grid(
        &barnes,
        &[0.1, 0.2],
        &[CostRatio::Finite(8), CostRatio::Infinite],
        &[Policy::Dcl],
        TraceSimConfig::paper_basic(),
        4,
    );
    for p in &pts {
        assert!(
            p.savings_pct > 2.0,
            "barnes DCL at HAF {} {} should save clearly: {:.2}%",
            p.haf,
            p.ratio,
            p.savings_pct
        );
    }
}

#[test]
fn acl_is_reliable_under_first_touch() {
    // Table 2's ACL claim: "its cost is never worse than LRU's" — allow a
    // small tolerance for simulator noise.
    let benchmarks = build_benchmarks(Scale::Quick);
    let cells = table2(
        &benchmarks,
        &[CostRatio::Finite(4), CostRatio::Finite(16)],
        &[Policy::Acl],
        TraceSimConfig::paper_basic(),
        4,
    );
    for c in &cells {
        assert!(
            c.savings_pct > -1.0,
            "ACL must stay near-or-above LRU on {} at {}: {:.2}%",
            c.benchmark,
            c.ratio,
            c.savings_pct
        );
    }
}

#[test]
fn savings_grow_with_ratio_under_first_touch() {
    // Table 2 shape: for the kernels with remote reuse, savings increase
    // with the cost ratio.
    let benchmarks = build_benchmarks(Scale::Quick);
    let barnes: Vec<_> = benchmarks
        .into_iter()
        .filter(|b| b.name == "barnes")
        .collect();
    let cells = table2(
        &barnes,
        &CostRatio::TABLE2,
        &[Policy::Dcl],
        TraceSimConfig::paper_basic(),
        4,
    );
    let series: Vec<f64> = cells.iter().map(|c| c.savings_pct).collect();
    assert!(
        series.last() > series.first(),
        "savings should grow from r=2 to r=32: {series:?}"
    );
}
