//! The one-pass sample-trace filter against the two-pass one it replaced,
//! kept verbatim in `reference/filter.rs` (the L1 filter loop, then
//! `mark_dead`'s walk over the whole stream with a hash set).
//!
//! On `dead_invalidations.rs`'s random traces (50, 65 and 80% foreign
//! writes) under the paper's geometry, which nests, and the 16 KB 8-way L2,
//! which does not, and on the four quick-scale kernels, both filters must
//! find the same dead invalidations, and every policy's run over the
//! shipped filter must give the L1 and L2 statistics that replaying the
//! reference's streams gives: its live stream for a policy whose cores
//! compare full tags, its full stream for the alias4 variants.

#[allow(dead_code)]
#[path = "reference/filter.rs"]
mod reference;

use cache_sim::{AccessType, Addr, BlockAddr, Cache, CacheStats, CostPair, TwoLevel};
use csr::Policy;
use csr_harness::experiments::{build_benchmarks, run_tasks, Scale};
use csr_harness::{l2_cores, FilteredTrace, PricedTrace, TraceSimConfig};
use mem_trace::cost_map::{CostMap, FirstTouchCostMap, RandomCostMap};
use mem_trace::rng::SplitMix64;
use mem_trace::{ProcId, SampledTrace, Trace, TraceRecord};

/// `Policy::ALL` and the rest: the two cache-sim baselines, and the alias4
/// variants, which replay the full stream.
const POLICIES: [Policy; 12] = [
    Policy::Lru,
    Policy::Gd,
    Policy::Bcl,
    Policy::Dcl,
    Policy::Acl,
    Policy::S3Fifo,
    Policy::Gdsf,
    Policy::Camp,
    Policy::Fifo,
    Policy::Random,
    Policy::DclAlias4,
    Policy::AclAlias4,
];

/// The reference's event words: `block << KIND_BITS | kind`.
const KIND_BITS: u32 = 3;
const WRITEBACK: u64 = 2;
const INVALIDATE: u64 = 3;

/// `policy`'s L1 and L2 statistics from the reference's streams, replayed
/// as the runner replays a filtered trace: skipped dead invalidations are
/// still counted, and in a nesting geometry the L1 is the filter pass's,
/// asked once more for every L2 victim.
fn replay_reference(
    trace: &reference::FilteredTrace,
    costs: &dyn CostMap,
    pair: CostPair,
    policy: Policy,
) -> (CacheStats, CacheStats) {
    let (cfg, stream, live, l1) = trace.parts();
    let skip_dead = policy.compares_full_tags();
    let (words, skipped) = if skip_dead {
        (live, trace.dead_invalidations())
    } else {
        (stream, 0)
    };
    let cores = l2_cores(policy, &cfg.l2, None);
    let cost = |block| pair.pick(costs.is_high_cost(block));
    let event = |word: u64| (BlockAddr(word >> KIND_BITS), word & ((1 << KIND_BITS) - 1));
    let op = |kind| match kind {
        0 => AccessType::Read,
        _ => AccessType::Write,
    };
    let (l1, mut l2) = match l1 {
        Some(mut l1) => {
            let mut l2 = Cache::new(cfg.l2, cores);
            for &word in words {
                match event(word) {
                    (block, WRITEBACK) => {
                        l2.writeback(block);
                    }
                    (block, kind) if kind >= INVALIDATE => {
                        l2.invalidate(block);
                    }
                    (block, kind) => {
                        l2.access(block, op(kind), cost(block));
                    }
                }
            }
            l1.invalidations_requested += l2.stats().evictions;
            (l1, *l2.stats())
        }
        None => {
            let mut h = TwoLevel::new(cfg.l1, cfg.l2, cores);
            for &word in words {
                match event(word) {
                    (block, kind) if kind >= INVALIDATE => h.invalidate(block),
                    (block, kind) => {
                        h.access(block, op(kind), cost(block));
                    }
                }
            }
            let mut l1 = *h.l1().stats();
            l1.invalidations_requested += skipped;
            (l1, *h.l2().stats())
        }
    };
    l2.invalidations_requested += skipped;
    (l1, l2)
}

/// Filters `sampled` both ways and holds every policy's run under `pair`
/// to the reference's; returns the dead invalidations.
fn check(
    sampled: &SampledTrace,
    cfg: TraceSimConfig,
    costs: &dyn CostMap,
    pair: CostPair,
    at: &str,
) -> u64 {
    let want = reference::FilteredTrace::new(sampled, cfg);
    let got = FilteredTrace::new(sampled, cfg);
    assert_eq!(got.dead_invalidations(), want.dead_invalidations(), "{at}");
    let priced = PricedTrace::new(&got, costs);
    for policy in POLICIES {
        let run = priced.run(pair, policy);
        let (l1, l2) = replay_reference(&want, costs, pair, policy);
        assert_eq!(run.l1, l1, "L1, {policy}, {at}");
        assert_eq!(run.l2, l2, "L2, {policy}, {at}");
    }
    got.dead_invalidations()
}

/// `events` records: processor 0 reads and writes blocks below `blocks`;
/// with probability `foreign`, processor 1 writes one below
/// `foreign_blocks` instead.
fn random_trace(seed: u64, events: usize, blocks: u64, foreign_blocks: u64, foreign: f64) -> Trace {
    let mut rng = SplitMix64::new(seed);
    let mut t = Trace::new(2);
    for _ in 0..events {
        if rng.chance(foreign) {
            let addr = Addr(rng.below(foreign_blocks) * 64);
            t.push(TraceRecord::write(ProcId(1), addr));
        } else {
            let addr = Addr(rng.below(blocks) * 64);
            t.push(if rng.chance(0.3) {
                TraceRecord::write(ProcId(0), addr)
            } else {
                TraceRecord::read(ProcId(0), addr)
            });
        }
    }
    t
}

#[test]
fn one_pass_filter_matches_the_two_pass_reference_on_random_traces() {
    let geometries = [
        ("paper basic", TraceSimConfig::paper_basic()),
        ("16 KB 8-way L2", TraceSimConfig::with_l2(16 << 10, 8)),
    ];
    for (geometry, cfg) in geometries {
        let blocks = 3 * cfg.l2.size_bytes() / 64;
        let mut dead = 0;
        for (case, foreign) in [0.5, 0.65, 0.8].into_iter().enumerate() {
            let case = case as u64;
            let trace = random_trace(0xF11 ^ case, 12_000, blocks, blocks * (1 + case), foreign);
            let sampled = SampledTrace::from_trace(&trace, ProcId(0));
            let pair = CostPair::ratio(4);
            let map = RandomCostMap::new(0.3, pair, case);
            dead += check(
                &sampled,
                cfg,
                &map,
                pair,
                &format!("{geometry}, case {case}"),
            );
        }
        assert!(dead > 0, "{geometry}: some invalidations must be dead");
    }
}

#[test]
fn one_pass_filter_matches_the_two_pass_reference_on_the_quick_suite() {
    let cfg = TraceSimConfig::paper_basic();
    let benchmarks = build_benchmarks(Scale::Quick);
    let bb = cfg.l2.block_bytes();
    let dead = run_tasks(2, &benchmarks, |b| {
        let map = FirstTouchCostMap::new(&b.placement, b.sample, CostPair::infinite_ratio(), bb);
        check(&b.sampled, cfg, &map, CostPair::ratio(8), &b.name)
    });
    // The quick suite's count, as DESIGN.md states it.
    assert_eq!(dead.iter().sum::<u64>(), 1_727_127);
}
