//! Randomized tests (seeded, dependency-free) of the two-level hierarchy
//! and the offline oracles against the on-line policies.
//!
//! Scripts come from the internal [`SplitMix64`] generator with fixed
//! seeds, so any failure reproduces exactly.

use cost_sensitive_cache::policies::csopt::{simulate_csopt, CsoptLimits};
use cost_sensitive_cache::policies::{AclCore, BclCore, DclCore, GdCore, TraceEvent};
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
        let opt = simulate_csopt(&geom, &trace_events(&script), CsoptLimits::default())
            .expect("24 blocks / 4 ways stays tractable");

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
        let opt = simulate_csopt(&geom, &trace_events(&script), CsoptLimits::default())
            .expect("24 blocks / 4 ways stays tractable");
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
