//! Integration tests of the CC-NUMA simulator's protocol invariants
//! (DESIGN.md §6, invariant 6) across policies and workloads.

use cost_sensitive_cache::harness::l2_cores;
use cost_sensitive_cache::numa::{Clock, System, SystemConfig};
use cost_sensitive_cache::policies::Policy;
use cost_sensitive_cache::trace::workloads::{BarnesLike, OceanLike};
use cost_sensitive_cache::trace::Workload;

fn run_and_validate(trace: &cost_sensitive_cache::trace::PhasedTrace, policy: Policy) {
    let cfg = SystemConfig::table4(Clock::Mhz500);
    let cores = l2_cores(policy, &cfg.l2, None);
    let mut sys = System::new(cfg, trace, cores);
    let res = sys.run();
    assert!(res.exec_time_ps > 0);
    sys.validate_coherence()
        .unwrap_or_else(|e| panic!("{policy}: {e}"));
}

#[test]
fn coherence_invariants_hold_after_ocean_runs() {
    let w = OceanLike {
        n: 66,
        grids: 3,
        procs: 16,
        iters: 3,
        col_stride: 2,
        reduction_points: 128,
    };
    let trace = w.generate_phases(5);
    for policy in [
        Policy::Lru,
        Policy::Gd,
        Policy::Bcl,
        Policy::Dcl,
        Policy::Acl,
    ] {
        run_and_validate(&trace, policy);
    }
}

#[test]
fn coherence_invariants_hold_after_barnes_runs() {
    // Barnes exercises read-write sharing of tree cells (fetches,
    // invalidations and upgrades all fire).
    let w = BarnesLike {
        bodies: 2048,
        procs: 16,
        steps: 2,
        walk_len: 12,
        locality_bias: 0.68,
    };
    let trace = w.generate_phases(9);
    for policy in [Policy::Lru, Policy::Dcl, Policy::AclAlias4] {
        run_and_validate(&trace, policy);
    }
}

#[test]
fn miss_latencies_stay_above_unloaded_floor() {
    // No measured miss can beat the local-clean unloaded minimum (minus
    // the probe portion, which the measurement excludes).
    let w = OceanLike {
        n: 66,
        grids: 2,
        procs: 16,
        iters: 2,
        col_stride: 2,
        reduction_points: 64,
    };
    let trace = w.generate_phases(3);
    let cfg = SystemConfig::table4(Clock::Mhz500);
    let floor_ns = cfg.ctrl_ns * 3 + cfg.mem_ns; // local clean without probe
    let mut sys = System::new(cfg, &trace, || {
        Box::new(cost_sensitive_cache::sim::Lru::new())
    });
    let res = sys.run();
    for n in &res.nodes {
        if n.l2_misses > 0 {
            assert!(
                n.avg_miss_latency_ns() >= floor_ns as f64,
                "node avg {} below physical floor {}",
                n.avg_miss_latency_ns(),
                floor_ns
            );
        }
    }
}

#[test]
fn total_refs_are_policy_independent() {
    let w = OceanLike {
        n: 66,
        grids: 2,
        procs: 16,
        iters: 2,
        col_stride: 2,
        reduction_points: 64,
    };
    let trace = w.generate_phases(3);
    let refs_of = |policy: Policy| {
        let cfg = SystemConfig::table4(Clock::Mhz500);
        let cores = l2_cores(policy, &cfg.l2, None);
        let mut sys = System::new(cfg, &trace, cores);
        sys.run().nodes.iter().map(|n| n.refs).sum::<u64>()
    };
    let base = refs_of(Policy::Lru);
    assert_eq!(base, trace.total_refs() as u64);
    for policy in [Policy::Gd, Policy::Dcl] {
        assert_eq!(refs_of(policy), base, "{policy}");
    }
}

#[test]
fn table3_diagonal_dominates_under_lru() {
    // The prediction premise (Section 4.1): most consecutive misses to a
    // block repeat the previous latency class.
    let w = OceanLike {
        n: 130,
        grids: 4,
        procs: 16,
        iters: 4,
        col_stride: 2,
        reduction_points: 256,
    };
    let trace = w.generate_phases(11);
    let cfg = SystemConfig::table4(Clock::Mhz500);
    let mut sys = System::new(cfg, &trace, || {
        Box::new(cost_sensitive_cache::sim::Lru::new())
    });
    let res = sys.run();
    assert!(res.table3.total_pairs() > 1000);
    assert!(
        res.table3.same_latency_pct() > 55.0,
        "same-latency fraction too low: {:.1}%",
        res.table3.same_latency_pct()
    );
}
