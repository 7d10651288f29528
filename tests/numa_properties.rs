//! Randomized tests (seeded, dependency-free) of the CC-NUMA simulator:
//! random small phased traces through the full protocol, checking
//! liveness (completion), coherence invariants, and policy-independent
//! accounting.

use cost_sensitive_cache::harness::l2_cores;
use cost_sensitive_cache::numa::{Clock, System, SystemConfig};
use cost_sensitive_cache::policies::Policy;
use cost_sensitive_cache::sim::Addr;
use cost_sensitive_cache::trace::rng::SplitMix64;
use cost_sensitive_cache::trace::{PackedRef, Phase, PhasedTrace};

const PROCS: usize = 4;

/// A compact random phased trace: a few phases, each with a few references
/// per processor over a small, heavily-shared block pool — maximal
/// protocol contention per reference.
fn random_phased(case: u64) -> PhasedTrace {
    let mut rng = SplitMix64::new(0x0DA_2003 ^ case.wrapping_mul(0xC0FF_EE01));
    let num_phases = 1 + rng.below(3) as usize;
    let mut pt = PhasedTrace::new(PROCS);
    for _ in 0..num_phases {
        let streams: Vec<Vec<PackedRef>> = (0..PROCS)
            .map(|_| {
                let len = rng.below(24) as usize;
                (0..len)
                    .map(|_| {
                        let addr = Addr(rng.below(24) * 64);
                        if rng.chance(0.5) {
                            PackedRef::write(addr)
                        } else {
                            PackedRef::read(addr)
                        }
                    })
                    .collect()
            })
            .collect();
        pt.push(Phase::from_streams(streams));
    }
    pt
}

/// The protocol always completes (no deadlock) and preserves its
/// invariants, for LRU and for the most complex policy (ACL), on
/// arbitrary sharing patterns.
#[test]
fn protocol_liveness_and_coherence() {
    for case in 0..24 {
        let pt = random_phased(case);
        for policy in [Policy::Lru, Policy::Acl] {
            let mut cfg = SystemConfig::table4(Clock::Mhz500);
            cfg.num_nodes = PROCS;
            let cores = l2_cores(policy, &cfg.l2, None);
            let mut sys = System::new(cfg, &pt, cores);
            let res = sys.run(); // panics on deadlock
            assert_eq!(
                res.nodes.iter().map(|n| n.refs).sum::<u64>(),
                pt.total_refs() as u64,
                "{policy}: lost references in case {case}"
            );
            if let Err(e) = sys.validate_coherence() {
                panic!("{policy}: {e} in case {case}");
            }
        }
    }
}

/// Execution time is invariant to event-insertion details: running the
/// same trace twice gives identical timing (full determinism).
#[test]
fn timing_is_deterministic() {
    for case in 0..12 {
        let pt = random_phased(1000 + case);
        let run = || {
            let mut cfg = SystemConfig::table4(Clock::Ghz1);
            cfg.num_nodes = PROCS;
            System::new(cfg, &pt, || Box::new(cost_sensitive_cache::sim::Lru::new()))
                .run()
                .exec_time_ps
        };
        assert_eq!(run(), run(), "case {case}");
    }
}
