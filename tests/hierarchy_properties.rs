//! Randomized tests (seeded, dependency-free) of the two-level hierarchy
//! and the offline oracles against the on-line policies.
//!
//! Scripts come from the internal [`SplitMix64`] generator with fixed
//! seeds, so any failure reproduces exactly.

use cost_sensitive_cache::harness::{l2_cores, TraceSimConfig};
use cost_sensitive_cache::policies::csopt::simulate_csopt;
use cost_sensitive_cache::policies::{AclCore, BclCore, DclCore, GdCore, Policy, TraceEvent};
use cost_sensitive_cache::sim::{
    AccessType, BlockAddr, Cache, Cost, EvictionPolicy, Geometry, Lru, TwoLevel,
};
use cost_sensitive_cache::trace::rng::SplitMix64;

const CASES: u64 = 32;
const SEED: u64 = 0x1E12_AC4E;

#[derive(Debug, Clone, Copy)]
enum Step {
    Read(u64),
    Write(u64),
    Invalidate(u64),
}

/// Reads, writes and invalidations over 24 blocks, weighted 4:2:1, up to
/// 250 steps.
fn random_script(case: u64) -> Vec<Step> {
    let mut rng = SplitMix64::new(SEED ^ case.wrapping_mul(0xA5A5_1234));
    let len = 1 + rng.below(250) as usize;
    (0..len)
        .map(|_| {
            let b = rng.below(24);
            match rng.below(7) {
                0..=3 => Step::Read(b),
                4..=5 => Step::Write(b),
                _ => Step::Invalidate(b),
            }
        })
        .collect()
}

fn cost_of(b: u64) -> Cost {
    if b.is_multiple_of(3) {
        Cost(9)
    } else {
        Cost(1)
    }
}

/// The oracle's view of a script: accesses at their miss cost, plus the
/// invalidations.
fn trace_events(script: &[Step]) -> Vec<TraceEvent> {
    script
        .iter()
        .map(|st| match *st {
            Step::Read(b) | Step::Write(b) => TraceEvent::Access {
                block: BlockAddr(b),
                cost: cost_of(b),
            },
            Step::Invalidate(b) => TraceEvent::Invalidate {
                block: BlockAddr(b),
            },
        })
        .collect()
}

/// The aggregate miss cost a cache of `core`s pays on `script`.
fn aggregate_cost<C: EvictionPolicy>(
    geom: Geometry,
    core: impl FnMut() -> C,
    script: &[Step],
) -> Cost {
    let mut c = Cache::new(geom, core);
    for st in script {
        match *st {
            Step::Read(b) => {
                c.access(BlockAddr(b), AccessType::Read, cost_of(b));
            }
            Step::Write(b) => {
                c.access(BlockAddr(b), AccessType::Write, cost_of(b));
            }
            Step::Invalidate(b) => {
                c.invalidate(BlockAddr(b));
            }
        }
    }
    c.stats().aggregate_cost
}

/// CSOPT is a true lower bound on the aggregate cost of every on-line
/// policy (the defining property of the offline optimum).
#[test]
fn csopt_lower_bounds_every_online_policy() {
    for case in 0..CASES {
        let script = random_script(case);
        let geom = Geometry::new(512, 64, 4); // 2 sets x 4 ways
        let opt = simulate_csopt(&geom, &trace_events(&script));

        for (name, cost) in [
            ("LRU", aggregate_cost(geom, Lru::new, &script)),
            (
                "GD",
                aggregate_cost(geom, || GdCore::new(geom.assoc()), &script),
            ),
            ("BCL", aggregate_cost(geom, BclCore::new, &script)),
            (
                "DCL",
                aggregate_cost(geom, || DclCore::for_geometry(&geom), &script),
            ),
            (
                "ACL",
                aggregate_cost(geom, || AclCore::for_geometry(&geom), &script),
            ),
        ] {
            assert!(
                opt.aggregate_cost <= cost,
                "CSOPT {} must lower-bound {name} {cost} in case {case}",
                opt.aggregate_cost,
            );
        }
    }
}

/// The paper's "GD is s-competitive" (Section 2.1) as a checked inequality:
/// Young's `k/(k-h+1)` bound at `h = k` against the true offline optimum,
/// `GD <= k * CSOPT + k * max_cost` with `k` the associativity.
#[test]
fn gd_is_k_competitive_with_csopt() {
    const MAX_COST: u64 = 9;
    for case in 0..CASES {
        let script = random_script(case);
        let geom = Geometry::new(512, 64, 4); // 2 sets x 4 ways
        let k = geom.assoc() as u64;
        let opt = simulate_csopt(&geom, &trace_events(&script));
        let gd = aggregate_cost(geom, || GdCore::new(geom.assoc()), &script);
        assert!(
            gd.0 <= k * opt.aggregate_cost.0 + k * MAX_COST,
            "GD {gd} exceeds {k} x CSOPT {} + {k} x {MAX_COST} in case {case}",
            opt.aggregate_cost,
        );
    }
}

/// Inclusion holds at every step and hierarchy hit counts are
/// self-consistent, under arbitrary scripts.
#[test]
fn hierarchy_inclusion_holds_under_arbitrary_scripts() {
    for case in 0..CASES {
        let script = random_script(case);
        let l1 = Geometry::direct_mapped(256, 64); // 4 sets
        let l2 = Geometry::new(1024, 64, 4); // 4 sets x 4 ways
        let mut h = TwoLevel::new(l1, l2, Lru::new);
        for st in &script {
            match *st {
                Step::Read(b) => {
                    h.access(BlockAddr(b), AccessType::Read, cost_of(b));
                }
                Step::Write(b) => {
                    h.access(BlockAddr(b), AccessType::Write, cost_of(b));
                }
                Step::Invalidate(b) => h.invalidate(BlockAddr(b)),
            }
            for blk in h.l1().resident_blocks() {
                assert!(
                    h.l2().contains(blk),
                    "L1 block {blk} missing from L2 in case {case}"
                );
            }
        }
        let s1 = h.l1().stats();
        assert_eq!(s1.hits + s1.misses, s1.accesses);
    }
}

/// An L1 hit must never reach the L2: L2 accesses equal L1 misses.
#[test]
fn l2_sees_exactly_the_l1_miss_stream() {
    for case in 0..CASES {
        let script = random_script(case);
        let l1 = Geometry::direct_mapped(256, 64);
        let l2 = Geometry::new(1024, 64, 4);
        let mut h = TwoLevel::new(l1, l2, Lru::new);
        for st in &script {
            match *st {
                Step::Read(b) => {
                    h.access(BlockAddr(b), AccessType::Read, Cost(1));
                }
                Step::Write(b) => {
                    h.access(BlockAddr(b), AccessType::Write, Cost(1));
                }
                Step::Invalidate(b) => h.invalidate(BlockAddr(b)),
            }
        }
        assert_eq!(
            h.l2().stats().accesses,
            h.l1().stats().misses,
            "case {case}"
        );
    }
}

/// DESIGN.md invariant 9: behind a direct-mapped L1 whose sets divide the
/// L2's, an L2 eviction never finds its block in the L1 — whichever block
/// the L2's policy picks. So the only L1 invalidations that hit are the
/// coherence invalidations that found their block there, no dirty L1 copy
/// is ever dropped, and every L2 eviction adds one probe that misses.
#[test]
fn inclusion_never_reaches_a_nesting_l1() {
    let l1 = Geometry::direct_mapped(256, 64); // 4 sets
    let mut non_lru_evictions = 0;
    for l2 in [Geometry::new(1024, 64, 4), Geometry::new(1024, 64, 2)] {
        assert!(TraceSimConfig { l1, l2 }.nests(), "{l2:?}");
        for policy in std::iter::once(Policy::Lru).chain(Policy::PAPER_SET) {
            for case in 0..CASES {
                let mut h = TwoLevel::new(l1, l2, l2_cores(policy, &l2, None));
                let (mut coherence, mut found_in_l1) = (0, 0);
                for st in &random_script(case) {
                    match *st {
                        Step::Read(b) => {
                            h.access(BlockAddr(b), AccessType::Read, cost_of(b));
                        }
                        Step::Write(b) => {
                            h.access(BlockAddr(b), AccessType::Write, cost_of(b));
                        }
                        Step::Invalidate(b) => {
                            coherence += 1;
                            found_in_l1 += u64::from(h.l1().contains(BlockAddr(b)));
                            h.invalidate(BlockAddr(b));
                        }
                    }
                }
                let (s1, s2) = (h.l1().stats(), h.l2().stats());
                let at = format!("{policy} on {} sets, case {case}", l2.num_sets());
                assert_eq!(s1.invalidations_hit, found_in_l1, "{at}");
                assert_eq!(s1.invalidations_requested, coherence + s2.evictions, "{at}");
                assert_eq!(h.dirty_backinvalidations(), 0, "{at}");
                non_lru_evictions += s2.non_lru_evictions;
            }
        }
    }
    assert!(
        non_lru_evictions > 0,
        "the cost-sensitive cores must leave reservations"
    );
}

/// The precondition of invariant 9 is needed: behind the 64-line L1, the
/// sweep's 8 KB 4-way L2 has 32 sets, and its LRU victim can sit in an L1
/// line other than the one just filled — here dirty, so inclusion drops
/// the newer copy.
#[test]
fn inclusion_reaches_an_l1_with_more_sets_than_the_l2() {
    let cfg = TraceSimConfig::with_l2(8 * 1024, 4);
    assert_eq!((cfg.l1.num_sets(), cfg.l2.num_sets()), (64, 32));
    assert!(!cfg.nests());
    let mut h = TwoLevel::new(cfg.l1, cfg.l2, Lru::new);
    // Block 32 lives in L1 line 32 and L2 set 0; 0, 64 and 128 fill L2 set
    // 0 through L1 line 0, and 192 evicts 32 from the L2.
    h.access(BlockAddr(32), AccessType::Write, Cost(1));
    for b in [0, 64, 128] {
        h.access(BlockAddr(b), AccessType::Read, Cost(1));
    }
    assert!(h.l1().contains(BlockAddr(32)));
    h.access(BlockAddr(192), AccessType::Read, Cost(1));
    assert!(!h.l2().contains(BlockAddr(32)));
    assert!(!h.l1().contains(BlockAddr(32)), "inclusion must take it");
    assert_eq!(h.l1().stats().invalidations_hit, 1);
    assert_eq!(h.dirty_backinvalidations(), 1);
}
