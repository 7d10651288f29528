//! Skipping dead coherence invalidations is exact (DESIGN.md invariant 10).
//!
//! A foreign write to a block the sample processor has not referenced
//! since the block's previous foreign write finds the block in no level and
//! no directory, so a run of a policy whose cores compare full tags may skip
//! it and only count it. On random traces made mostly of foreign writes,
//! every `Policy` must give the same L1 and L2 statistics, the invalidation
//! counters included, whether the runner skips or a per-reference loop
//! replays every event, on two geometries that nest and two that do not. A
//! hand-built trace shows why the alias4 variants replay every event: their
//! directory's invalidation can consume another block's entry.

use cache_sim::{Addr, BlockAddr, CacheStats, CostPair, Geometry, TwoLevel};
use csr::Policy;
use csr_harness::{
    l2_cores, run_sampled, run_sampled_observed, run_sampled_policy, FilteredTrace, PricedTrace,
    TraceSimConfig,
};
use csr_obs::{CountingObserver, SharedObserver};
use mem_trace::cost_map::{CostMap, RandomCostMap};
use mem_trace::rng::SplitMix64;
use mem_trace::{ProcId, SampledKind, SampledTrace, Trace, TraceRecord};
use std::sync::Arc;

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

/// Every event of `sampled` into a `TwoLevel` of `policy`'s boxed cores
/// reporting to `obs`, each reference asking the map for its cost: nothing
/// filtered, nothing skipped.
fn replay_every_event(
    sampled: &SampledTrace,
    costs: &dyn CostMap,
    policy: Policy,
    cfg: TraceSimConfig,
    obs: Option<SharedObserver>,
) -> (CacheStats, CacheStats) {
    let block_bytes = cfg.l2.block_bytes();
    let mut h = TwoLevel::new(cfg.l1, cfg.l2, l2_cores(policy, &cfg.l2, obs));
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

/// The geometries of the test, named, with whether each nests.
fn configs() -> [(&'static str, TraceSimConfig, bool); 4] {
    let two_way_l1 = TraceSimConfig {
        l1: Geometry::new(4 * 1024, 64, 2),
        ..TraceSimConfig::paper_basic()
    };
    [
        ("paper basic", TraceSimConfig::paper_basic(), true),
        ("64 KB 4-way L2", TraceSimConfig::with_l2(64 << 10, 4), true),
        (
            "16 KB 8-way L2",
            TraceSimConfig::with_l2(16 << 10, 8),
            false,
        ),
        ("2-way L1", two_way_l1, false),
    ]
}

#[test]
fn skipping_dead_invalidations_equals_replaying_every_event() {
    let pairs = [CostPair::ratio(4), CostPair::infinite_ratio()];
    for (geometry, cfg, nests) in configs() {
        assert_eq!(cfg.nests(), nests, "{geometry}");
        // Three times the L2's blocks: every run evicts.
        let blocks = 3 * cfg.l2.size_bytes() / 64;
        let (mut dead, mut hits, mut evictions) = (0, 0, 0);
        for case in 0..3u64 {
            let foreign = [0.5, 0.65, 0.8][case as usize];
            // Some foreign writes fall on blocks the processor never uses.
            let foreign_blocks = blocks * (1 + case);
            let trace = random_trace(0xDEAD ^ case, 12_000, blocks, foreign_blocks, foreign);
            let sampled = SampledTrace::from_trace(&trace, ProcId(0));
            assert!(2 * sampled.foreign_writes() >= sampled.events().len() as u64);
            let filtered = FilteredTrace::new(&sampled, cfg);
            let map = RandomCostMap::new(0.3, CostPair::ratio(5), case);
            let priced = PricedTrace::new(&filtered, &map);
            assert!(filtered.dead_invalidations() < sampled.foreign_writes());
            dead += filtered.dead_invalidations();
            for pair in pairs {
                let map = RandomCostMap::new(0.3, pair, case);
                for kind in KINDS {
                    let at = format!("{geometry}, case {case}, {kind} {pair}");
                    let want = replay_every_event(&sampled, &map, kind, cfg, None);
                    let got = run_sampled(&sampled, &map, kind, cfg);
                    assert_eq!((got.l1, got.l2), want, "run_sampled: {at}");
                    let got = priced.run(pair, kind);
                    assert_eq!((got.l1, got.l2), want, "priced: {at}");
                    let got =
                        run_sampled_policy(&sampled, &map, l2_cores(kind, &cfg.l2, None), cfg);
                    assert_eq!(got, want, "run_sampled_policy: {at}");
                    let obs = Arc::new(CountingObserver::new());
                    let got = run_sampled_observed(&sampled, &map, kind, cfg, obs);
                    assert_eq!((got.l1, got.l2), want, "run_sampled_observed: {at}");
                    hits += want.1.invalidations_hit;
                    evictions += want.1.evictions;
                }
            }
        }
        assert!(dead > 0, "{geometry}: some invalidations must be dead");
        assert!(hits > 0, "{geometry}: some invalidations must hit the L2");
        assert!(evictions > 10_000, "{geometry}: the L2 must evict");
    }
}

/// The runner hands each policy's cores to its replay as their concrete
/// type; `Policy::cores` boxes them. On the random traces above, on a
/// geometry that nests and one that does not, every named policy gives the
/// same statistics either way, observed or not, and a `CountingObserver`
/// hears the same events from both.
#[test]
fn statically_dispatched_cores_match_boxed_ones() {
    let [nesting, _, not_nesting, _] = configs();
    for (geometry, cfg, _) in [nesting, not_nesting] {
        let blocks = 3 * cfg.l2.size_bytes() / 64;
        for case in 0..2u64 {
            let trace = random_trace(0xB0C5 ^ case, 12_000, blocks, 2 * blocks, 0.5);
            let sampled = SampledTrace::from_trace(&trace, ProcId(0));
            let map = RandomCostMap::new(0.3, CostPair::ratio(8), case);
            let filtered = FilteredTrace::new(&sampled, cfg);
            let priced = PricedTrace::new(&filtered, &map);
            for kind in Policy::ALL {
                let at = format!("{geometry}, case {case}, {kind}");
                let boxed = replay_every_event(&sampled, &map, kind, cfg, None);
                let got = priced.run(map.pair(), kind);
                assert_eq!((got.l1, got.l2), boxed, "unobserved: {at}");

                let heard_boxed = Arc::new(CountingObserver::new());
                let obs: SharedObserver = heard_boxed.clone();
                let boxed_observed = replay_every_event(&sampled, &map, kind, cfg, Some(obs));
                assert_eq!(boxed_observed, boxed, "boxed, observed: {at}");
                let heard = Arc::new(CountingObserver::new());
                let got = run_sampled_observed(&sampled, &map, kind, cfg, heard.clone());
                assert_eq!((got.l1, got.l2), boxed, "observed: {at}");
                assert_eq!(heard.counts(), heard_boxed.counts(), "events: {at}");
                assert_eq!(heard.counts().misses, boxed.1.misses, "{at}");
            }
        }
    }
}

/// Block 0 costs 2, every other block 1.
struct BlockZeroHigh;

impl CostMap for BlockZeroHigh {
    fn pair(&self) -> CostPair {
        CostPair::ratio(2)
    }

    fn is_high_cost(&self, block: BlockAddr) -> bool {
        block.0 == 0
    }
}

/// Processor 0 reads blocks `k·64` of set 0 of the paper's L2 for `k` in
/// `ks`; a foreign write to `k = 18` follows the fifth read when
/// `dead_write`. Every read misses the direct-mapped L1, whose line 0 they
/// all share.
fn witness(ks: &[u64], dead_write: bool) -> SampledTrace {
    let block = |k: u64| Addr(k * 64 * 64);
    let mut t = Trace::new(2);
    for (i, &k) in ks.iter().enumerate() {
        t.push(TraceRecord::read(ProcId(0), block(k)));
        if i == 4 && dead_write {
            t.push(TraceRecord::write(ProcId(1), block(18)));
        }
    }
    SampledTrace::from_trace(&t, ProcId(0))
}

/// `stats` without its invalidation counters.
fn decisions(mut stats: CacheStats) -> CacheStats {
    stats.invalidations_requested = 0;
    stats.invalidations_hit = 0;
    stats
}

#[test]
fn an_aliased_directory_needs_its_dead_invalidations() {
    // A (k = 0) costs 2, the rest 1. A, B, C, D fill the set; E misses,
    // and DCL keeps the LRU block A, evicting B into the directory. The
    // foreign write to k = 18 is dead: processor 0 never touches it. B's
    // return then finds its entry and depreciates A to 0, so the next
    // victim is A — unless the entry is gone, and then it is C. With
    // 4-bit aliased tags, 18 and B (k = 2) share stored bits 0b0010, and
    // the dead invalidation takes B's entry.
    let ks = [0, 2, 3, 4, 1, 2];
    let cfg = TraceSimConfig::paper_basic();
    let with = witness(&ks, true);
    let without = witness(&ks, false);
    assert_eq!(FilteredTrace::new(&with, cfg).dead_invalidations(), 1);
    let full = |sampled: &SampledTrace, kind| {
        replay_every_event(sampled, &BlockZeroHigh, kind, cfg, None).1
    };

    // Full tags: the dead write changes nothing but the count.
    let (dcl_with, dcl_without) = (full(&with, Policy::Dcl), full(&without, Policy::Dcl));
    assert_eq!(decisions(dcl_with), decisions(dcl_without));
    assert_eq!(dcl_with.invalidations_requested, 1);
    assert_eq!(dcl_with.non_lru_evictions, 1);

    // Aliased tags: it takes B's entry, and C goes instead of A.
    let alias_with = full(&with, Policy::DclAlias4);
    assert_eq!(
        decisions(full(&without, Policy::DclAlias4)),
        decisions(dcl_with)
    );
    assert_eq!(alias_with.non_lru_evictions, 2);

    // So the runner replays it for alias4, and may skip it for DCL.
    assert_eq!(
        run_sampled(&with, &BlockZeroHigh, Policy::DclAlias4, cfg).l2,
        alias_with
    );
    assert_eq!(
        run_sampled(&with, &BlockZeroHigh, Policy::Dcl, cfg).l2,
        dcl_with
    );
}

/// Processor 0's reads of `reads`, by index into `blocks`, with processor
/// 1's writes of `blocks[i]` after read `j` for each `(j, i)` of `writes`.
fn script(blocks: &[u64], reads: &[usize], writes: &[(usize, usize)]) -> SampledTrace {
    let mut t = Trace::new(2);
    for (j, &i) in reads.iter().enumerate() {
        t.push(TraceRecord::read(ProcId(0), Addr(blocks[i] * 64)));
        for &(_, w) in writes.iter().filter(|&&(after, _)| after == j) {
            t.push(TraceRecord::write(ProcId(1), Addr(blocks[w] * 64)));
        }
    }
    SampledTrace::from_trace(&t, ProcId(0))
}

#[test]
fn the_filter_pass_tells_live_from_dead_where_the_l1_cannot() {
    let cfg = TraceSimConfig::paper_basic();
    let costs = RandomCostMap::new(0.5, CostPair::ratio(4), 1);
    // Blocks 0 and 64 share line 0 of the 64-line L1 and set 0 of the L2.
    let blocks = [0, 64];

    // Block 0 is read, then displaced from the L1 by block 64, then
    // written by processor 1: it is in no L1 line but still live, and the
    // write reaches the L2 copy, so the next read of block 0 misses.
    let conflict = script(&blocks, &[0, 1, 0], &[(1, 0)]);
    assert_eq!(FilteredTrace::new(&conflict, cfg).dead_invalidations(), 0);
    let run = run_sampled(&conflict, &costs, Policy::Lru, cfg);
    assert_eq!(
        (run.l2.invalidations_requested, run.l2.invalidations_hit),
        (1, 1)
    );
    assert_eq!(
        (run.l1.invalidations_requested, run.l1.invalidations_hit),
        (1, 0)
    );
    assert_eq!(run.l2.misses, 3);
    let want = replay_every_event(&conflict, &costs, Policy::Lru, cfg, None);
    assert_eq!((run.l1, run.l2), want);

    // Block 0 is read, then written twice by processor 1 with no read
    // between: the second write is dead, and both levels still count it.
    let twice = script(&blocks, &[0, 1], &[(0, 0), (0, 0)]);
    assert_eq!(FilteredTrace::new(&twice, cfg).dead_invalidations(), 1);
    let run = run_sampled(&twice, &costs, Policy::Lru, cfg);
    assert_eq!(
        (run.l1.invalidations_requested, run.l1.invalidations_hit),
        (2, 1)
    );
    assert_eq!(
        (run.l2.invalidations_requested, run.l2.invalidations_hit),
        (2, 1)
    );
    let want = replay_every_event(&twice, &costs, Policy::Lru, cfg, None);
    assert_eq!((run.l1, run.l2), want);
}
