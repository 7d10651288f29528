//! A reduced Section 4 — Table 5 (both clocks, LRU and the six Table 5
//! policies), the Table 3 matrix and the 1 GHz latency- vs penalty-cost
//! cells — on two small kernels, against `golden/numa_reduced.tsv`. Every
//! execution time, summed L2 counter and matrix cell must match bit for bit:
//! the file pins what the execution-driven simulator decides, so a refactor
//! of its caches or their policy cores never rewrites it.

use csr::Policy;
use csr_harness::experiments::run_tasks;
use csr_harness::numa_exp::{run_numa_cfg, table3};
use csr_harness::{NumaBenchmark, TABLE5_POLICIES};
use mem_trace::workloads::{LuLike, OceanLike};
use mem_trace::Workload;
use numa_sim::{Clock, CostMode, MissClass, NodeStats, SimResult, SystemConfig};

/// The two kernels, both generated with seed 3.
fn kernels() -> Vec<NumaBenchmark> {
    let workloads: [Box<dyn Workload>; 2] = [
        Box::new(OceanLike {
            n: 66,
            grids: 2,
            procs: 16,
            iters: 2,
            col_stride: 2,
            reduction_points: 64,
        }),
        Box::new(LuLike {
            n: 64,
            block: 16,
            procs: 16,
            element_stride: 2,
        }),
    ];
    workloads
        .iter()
        .map(|w| NumaBenchmark {
            name: w.name().to_owned(),
            trace: w.generate_phases(3),
        })
        .collect()
}

/// One run's line: its label, the execution time and the L2 counters
/// summed over the nodes.
fn line(label: &str, res: &SimResult) -> String {
    let sum = |f: fn(&NodeStats) -> u64| res.nodes.iter().map(f).sum::<u64>();
    format!(
        "{label}\t{}\t{}\t{}\t{}\t{}",
        res.exec_time_ps,
        sum(|n| n.l2_hits),
        sum(|n| n.l2_misses),
        sum(|n| n.writebacks),
        sum(|n| n.repl_hints)
    )
}

#[test]
fn reduced_section4_matches_the_golden_bit_for_bit() {
    let kernels = kernels();
    let mut runs = Vec::new();
    for (k, kernel) in kernels.iter().enumerate() {
        for clock in [Clock::Mhz500, Clock::Ghz1] {
            for policy in std::iter::once(Policy::Lru).chain(TABLE5_POLICIES) {
                let label = format!("table5/{}/{}/{policy}", kernel.name, clock.label());
                runs.push((label, k, SystemConfig::table4(clock), policy));
            }
        }
        for policy in [Policy::Dcl, Policy::Acl] {
            let mut cfg = SystemConfig::table4(Clock::Ghz1);
            cfg.cost_mode = CostMode::Penalty(60);
            let label = format!("penalty/{}/1GHz/{policy}", kernel.name);
            runs.push((label, k, cfg, policy));
        }
    }
    let mut got = run_tasks(2, &runs, |(label, k, cfg, policy)| {
        line(
            label,
            &run_numa_cfg(cfg.clone(), &kernels[*k].trace, *policy),
        )
    });
    let m = table3(&kernels, Clock::Mhz500, 2);
    for last in 0..6 {
        for cur in 0..6 {
            let c = m.cell(last, cur);
            got.push(format!(
                "table3/{}/{}\t{}\t{}\t{}",
                MissClass::label(last),
                MissClass::label(cur),
                c.count,
                c.mismatches,
                c.err_sum_ns
            ));
        }
    }
    got.push(format!("table3/pairs\t{}", m.total_pairs()));

    let golden = include_str!("golden/numa_reduced.tsv");
    let want: Vec<&str> = golden.lines().filter(|l| !l.starts_with('#')).collect();
    assert_eq!(got.len(), want.len(), "line count");
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(g, w);
    }
}
