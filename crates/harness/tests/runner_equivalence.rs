//! The priced runner against the per-reference loop it replaced: that loop
//! asked the cost map for every reference's cost and drove both cache
//! levels for every event; the runner filters the trace through the L1
//! once when the geometry nests, classifies each event of what is left
//! once per map, and replays the bits under any pair. Every `Policy`,
//! under first-touch, random (HAF 0, 0.2, 1), uniform and criticality maps
//! at r = 2, 32 and ∞, must give the same L1 and L2 statistics both ways —
//! through `run_sampled` (filter, price, then run) and through one
//! `PricedTrace` per map run under every ratio, as `table2` and `fig3_grid`
//! do — on two geometries that nest and two that do not. The class-count
//! LRU baseline must equal `LruMissProfile`'s per-block one.

use cache_sim::{CacheStats, CostPair, Geometry, TwoLevel};
use csr::Policy;
use csr_harness::{
    l2_cores, run_sampled, FilteredTrace, LruMissProfile, PricedTrace, TraceSimConfig,
};
use mem_trace::cost_map::{CostMap, FirstTouchCostMap, RandomCostMap, UniformCostMap};
use mem_trace::criticality::CriticalityCostMap;
use mem_trace::workloads::BarnesLike;
use mem_trace::{SampledKind, SampledTrace, Trace, TraceCensus, Workload};

const KINDS: [Policy; 12] = [
    Policy::Lru,
    Policy::Fifo,
    Policy::Random,
    Policy::Gd,
    Policy::Bcl,
    Policy::Dcl,
    Policy::DclAlias4,
    Policy::Acl,
    Policy::AclAlias4,
    Policy::S3Fifo,
    Policy::Gdsf,
    Policy::Camp,
];

/// The pre-change runner: one cost-map query per reference.
fn per_reference_loop(
    sampled: &SampledTrace,
    costs: &dyn CostMap,
    policy: Policy,
    cfg: TraceSimConfig,
) -> (CacheStats, CacheStats) {
    let block_bytes = cfg.l2.block_bytes();
    let mut h = TwoLevel::new(cfg.l1, cfg.l2, l2_cores(policy, &cfg.l2, None));
    for ev in sampled.events() {
        let (addr, kind) = ev.unpack();
        let block = addr.block(block_bytes);
        match kind {
            SampledKind::Own(op) => {
                h.access(block, op, costs.cost_of(block));
            }
            SampledKind::ForeignWrite => h.invalidate(block),
        }
    }
    (*h.l1().stats(), *h.l2().stats())
}

/// A small barnes-like trace of `bodies` bodies: remote reuse, foreign
/// writes, evictions.
fn trace(bodies: usize) -> Trace {
    BarnesLike {
        bodies,
        procs: 4,
        steps: 2,
        walk_len: 12,
        locality_bias: 0.68,
    }
    .generate(7)
}

/// Every map of the test under `pair`, named.
fn maps(trace: &Trace, sampled: &SampledTrace, pair: CostPair) -> Vec<(String, Box<dyn CostMap>)> {
    let placement = TraceCensus::from_trace(64, trace).into_placement();
    let mut maps: Vec<(String, Box<dyn CostMap>)> = vec![
        (
            "first-touch".into(),
            Box::new(FirstTouchCostMap::new(placement, sampled.proc(), pair, 64)),
        ),
        ("uniform".into(), Box::new(UniformCostMap(pair.high()))),
        (
            "criticality".into(),
            Box::new(CriticalityCostMap::from_trace(trace, pair, 0.6)),
        ),
    ];
    for haf in [0.0, 0.2, 1.0] {
        maps.push((
            format!("random haf {haf}"),
            Box::new(RandomCostMap::new(haf, pair, 11)),
        ));
    }
    maps
}

/// The geometries of the test, named, with whether each nests and the
/// bodies of a trace that makes its L2 evict.
fn configs() -> [(&'static str, TraceSimConfig, bool, usize); 4] {
    let two_way_l1 = TraceSimConfig {
        l1: Geometry::new(4 * 1024, 64, 2),
        ..TraceSimConfig::paper_basic()
    };
    [
        ("paper basic", TraceSimConfig::paper_basic(), true, 512),
        (
            "64 KB 4-way L2",
            TraceSimConfig::with_l2(64 << 10, 4),
            true,
            1536,
        ),
        (
            "16 KB 8-way L2",
            TraceSimConfig::with_l2(16 << 10, 8),
            false,
            512,
        ),
        ("2-way L1", two_way_l1, false, 512),
    ]
}

#[test]
fn priced_runs_equal_the_per_reference_loop() {
    let pairs = [
        CostPair::ratio(2),
        CostPair::ratio(32),
        CostPair::infinite_ratio(),
    ];
    for (geometry, cfg, nests, bodies) in configs() {
        assert_eq!(cfg.nests(), nests, "{geometry}");
        let trace = trace(bodies);
        let sampled = SampledTrace::from_trace(&trace, mem_trace::ProcId(1));
        let filtered = FilteredTrace::new(&sampled, cfg);
        // Classes are priced once per map, under a pair none of the runs
        // use.
        let priced: Vec<(String, PricedTrace<'_>)> = maps(&trace, &sampled, CostPair::ratio(5))
            .into_iter()
            .map(|(name, map)| (name, PricedTrace::new(&filtered, map.as_ref())))
            .collect();
        let profile = LruMissProfile::collect(&sampled, cfg);
        let (mut evictions, mut dirty_writebacks) = (0, 0);
        for pair in pairs {
            for ((name, map), (_, once)) in maps(&trace, &sampled, pair).iter().zip(&priced) {
                // The map's own pair: `pair` for all but the uniform map.
                let pair = map.pair();
                let lru = once.lru_misses().aggregate_cost(pair);
                let at = format!("{geometry}, {name} {pair}");
                assert_eq!(lru, profile.aggregate_cost(map.as_ref()), "{at}");
                for kind in KINDS {
                    let want = per_reference_loop(&sampled, map.as_ref(), kind, cfg);
                    let got = run_sampled(&sampled, map.as_ref(), kind, cfg);
                    assert_eq!((got.l1, got.l2), want, "run_sampled: {kind} {at}");
                    let got = once.run(pair, kind);
                    assert_eq!((got.l1, got.l2), want, "priced once: {kind} {at}");
                    if kind == Policy::Lru {
                        assert_eq!(lru, want.1.aggregate_cost, "{at}");
                    }
                    evictions += want.1.evictions;
                    dirty_writebacks += want.0.dirty_evictions;
                }
            }
        }
        assert!(
            evictions > 100_000,
            "{geometry}: the trace must evict: {evictions}"
        );
        assert!(
            dirty_writebacks > 0,
            "{geometry}: the L1 must write dirty blocks back"
        );
    }
}
