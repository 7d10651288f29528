//! The shipped CSOPT (a min-cost flow per set) against the exact dynamic
//! program it replaced, kept in `reference/csopt.rs` (a frontier of every
//! reachable set content, capped). On seeded random traces — 1–4 ways, 1–2
//! sets, about 10% invalidations, per-access costs 0–20 — both must find
//! the same optimal aggregate cost. Their miss counts are not compared:
//! schedules of equal cost may miss differently, and the reference picks
//! among them in `HashMap` order. At unit costs the optimum is the least
//! miss count, which Belady's OPT must reach too.

// The frozen file names its sibling through `crate::`: this is it.
mod opt {
    pub use csr::opt::*;
}
#[allow(dead_code)]
#[path = "reference/csopt.rs"]
mod reference;

use cache_sim::{BlockAddr, Cost, Geometry};
use csr::{simulate_belady, simulate_csopt, TraceEvent};

const CASES: u64 = 3_000;

/// SplitMix64, inline so the crate's tests stay dependency-free.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % n
    }
}

/// Case `case`'s geometry and trace: up to 80 events over 2–12 blocks, one
/// in ten an invalidation, each access charged `cost(rng)`.
fn random_case(case: u64, mut cost: impl FnMut(&mut Rng) -> u64) -> (Geometry, Vec<TraceEvent>) {
    let mut rng = Rng(0xC5_0F7 ^ case.wrapping_mul(0x2545_F491_4F6C_DD1D));
    let ways = 1 + rng.below(4) as usize;
    let sets = 1 + rng.below(2);
    let geom = Geometry::new(64 * ways as u64 * sets, 64, ways);
    let blocks = 2 + rng.below(11);
    let len = 1 + rng.below(80);
    let trace = (0..len)
        .map(|_| {
            let block = BlockAddr(rng.below(blocks));
            if rng.below(10) == 0 {
                TraceEvent::Invalidate { block }
            } else {
                TraceEvent::Access {
                    block,
                    cost: Cost(cost(&mut rng)),
                }
            }
        })
        .collect();
    (geom, trace)
}

#[test]
fn flow_finds_the_reference_optimum() {
    for case in 0..CASES {
        let (geom, trace) = random_case(case, |rng| rng.below(21));
        let flow = simulate_csopt(&geom, &trace);
        let dp = reference::simulate_csopt(&geom, &trace, reference::CsoptLimits::default())
            .expect("a dozen blocks stay tractable");
        let at = format!("case {case}: {geom:?} {trace:?}");
        assert_eq!(flow.aggregate_cost, dp.aggregate_cost, "{at}");
        assert_eq!(flow.accesses, dp.accesses, "{at}");
        assert_eq!(flow.hits + flow.misses, flow.accesses, "{at}");
    }
}

/// At unit costs the optimum's cost is its miss count, and Belady's OPT,
/// which treats a block invalidated before its next access as dead, reaches
/// it.
#[test]
fn belady_is_miss_optimal_with_invalidations() {
    for case in 0..CASES {
        let (geom, trace) = random_case(case, |_| 1);
        let belady = simulate_belady(&geom, &trace);
        let opt = simulate_csopt(&geom, &trace);
        assert_eq!(opt.aggregate_cost, Cost(opt.misses), "case {case}");
        assert_eq!(belady.misses, opt.misses, "case {case}: {trace:?}");
    }
}
