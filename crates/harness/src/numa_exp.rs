//! Execution-driven experiments (Section 4): Table 3 and Table 5.

use crate::runner::l2_cores;
use csr::Policy;
use mem_trace::workloads::{BarnesLike, FftLike, LuLike, OceanLike, RadixLike, RaytraceLike};
use mem_trace::{PhasedTrace, Workload};
use numa_sim::{Clock, SimResult, System, SystemConfig, Table3Matrix};

/// Seed for NUMA workload generation.
pub const NUMA_SEED: u64 = 411;

/// A prepared execution-driven benchmark.
pub struct NumaBenchmark {
    /// Workload name.
    pub name: String,
    /// Barrier-phased per-processor streams.
    pub trace: PhasedTrace,
}

impl std::fmt::Debug for NumaBenchmark {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NumaBenchmark")
            .field("name", &self.name)
            .field("refs", &self.trace.total_refs())
            .finish()
    }
}

/// The Section 4.2 suite at RSIM scale (reduced problem sizes, 16 procs).
#[must_use]
pub fn rsim_suite() -> Vec<NumaBenchmark> {
    suite_of(vec![
        Box::new(BarnesLike::rsim_scale()),
        Box::new(LuLike::rsim_scale()),
        Box::new(OceanLike::rsim_scale()),
        Box::new(RaytraceLike::rsim_scale()),
    ])
}

/// The rsim suite extended with the footnote-2 kernels (FFT and Radix).
#[must_use]
pub fn rsim_suite_extended() -> Vec<NumaBenchmark> {
    let mut suite = rsim_suite();
    suite.extend(suite_of(vec![
        Box::new(FftLike::rsim_scale()),
        Box::new(RadixLike::rsim_scale()),
    ]));
    suite
}

fn suite_of(workloads: Vec<Box<dyn Workload>>) -> Vec<NumaBenchmark> {
    workloads
        .into_iter()
        .map(|w| NumaBenchmark {
            name: w.name().to_owned(),
            trace: w.generate_phases(NUMA_SEED),
        })
        .collect()
}

/// Runs one benchmark on the Table 4 machine with the given policy.
#[must_use]
pub fn run_numa(trace: &PhasedTrace, clock: Clock, policy: Policy) -> SimResult {
    run_numa_cfg(SystemConfig::table4(clock), trace, policy)
}

/// Runs one benchmark under an explicit machine configuration.
#[must_use]
pub fn run_numa_cfg(cfg: SystemConfig, trace: &PhasedTrace, policy: Policy) -> SimResult {
    let l2_core = l2_cores(policy, &cfg.l2, None);
    let mut sys = System::new(cfg, trace, l2_core);
    sys.run()
}

/// One cell of Table 5: execution-time reduction over LRU, percent.
#[derive(Debug, Clone, PartialEq)]
pub struct Table5Cell {
    /// Benchmark name.
    pub benchmark: String,
    /// Processor clock.
    pub clock: Clock,
    /// Policy measured.
    pub policy: Policy,
    /// Execution time, µs.
    pub exec_us: f64,
    /// Reduction relative to LRU, percent (positive = faster).
    pub reduction_pct: f64,
}

/// The Table 5 policy set: the four cost-sensitive policies plus the
/// 4-bit-aliased ETD variants of DCL and ACL (Section 4.3).
pub const TABLE5_POLICIES: [Policy; 6] = [
    Policy::Gd,
    Policy::Bcl,
    Policy::Dcl,
    Policy::Acl,
    Policy::DclAlias4,
    Policy::AclAlias4,
];

/// Computes the Table 5 grid over `benchmarks`, `clocks` and `policies`,
/// spreading runs over `threads` OS threads.
#[must_use]
pub fn table5(
    benchmarks: &[NumaBenchmark],
    clocks: &[Clock],
    policies: &[Policy],
    threads: usize,
) -> Vec<Table5Cell> {
    // Baselines first (one LRU run per benchmark and clock).
    let mut base_tasks = Vec::new();
    for (bi, _) in benchmarks.iter().enumerate() {
        for &clock in clocks {
            base_tasks.push((bi, clock));
        }
    }
    let baselines = crate::experiments::run_tasks(threads, &base_tasks, |&(bi, clock)| {
        run_numa(&benchmarks[bi].trace, clock, Policy::Lru).exec_time_ps
    });
    let baseline_of = |bi: usize, clock: Clock| {
        base_tasks
            .iter()
            .position(|&(b, c)| b == bi && c == clock)
            .map(|i| baselines[i])
            .expect("baseline computed")
    };

    // Benchmark-innermost ordering spreads the heavyweight benchmarks
    // across run_tasks's contiguous thread chunks.
    let mut tasks = Vec::new();
    for &clock in clocks {
        for &policy in policies {
            for (bi, _) in benchmarks.iter().enumerate() {
                tasks.push((bi, clock, policy));
            }
        }
    }
    crate::experiments::run_tasks(threads, &tasks, |&(bi, clock, policy)| {
        let res = run_numa(&benchmarks[bi].trace, clock, policy);
        let base = baseline_of(bi, clock);
        Table5Cell {
            benchmark: benchmarks[bi].name.clone(),
            clock,
            policy,
            exec_us: res.exec_time_ps as f64 / 1e6,
            reduction_pct: cache_sim::relative_savings_pct(
                cache_sim::Cost(base),
                cache_sim::Cost(res.exec_time_ps),
            ),
        }
    })
}

/// Aggregates the Table 3 consecutive-miss matrix across the suite under
/// LRU replacement (the paper computes it "in the normal execution with
/// LRU replacement").
#[must_use]
pub fn table3(benchmarks: &[NumaBenchmark], clock: Clock, threads: usize) -> Table3Matrix {
    table3_with_hints(benchmarks, clock, threads, true)
}

/// As [`table3`], selecting whether the protocol uses replacement hints
/// (the paper's Table 3 is measured on the protocol *without* hints).
#[must_use]
pub fn table3_with_hints(
    benchmarks: &[NumaBenchmark],
    clock: Clock,
    threads: usize,
    hints: bool,
) -> Table3Matrix {
    let idx: Vec<usize> = (0..benchmarks.len()).collect();
    let per_bench = crate::experiments::run_tasks(threads, &idx, |&bi| {
        let mut cfg = SystemConfig::table4(clock);
        cfg.replacement_hints = hints;
        run_numa_cfg(cfg, &benchmarks[bi].trace, Policy::Lru).table3
    });
    let mut merged = Table3Matrix::new();
    for m in &per_bench {
        merged.merge(m);
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_benchmark() -> NumaBenchmark {
        let w = OceanLike {
            n: 66,
            grids: 2,
            procs: 16,
            iters: 2,
            col_stride: 2,
            reduction_points: 64,
        };
        NumaBenchmark {
            name: "tiny-ocean".into(),
            trace: w.generate_phases(3),
        }
    }

    #[test]
    fn table5_reduction_is_zero_for_lru_vs_lru() {
        let b = vec![tiny_benchmark()];
        let cells = table5(&b, &[Clock::Mhz500], &[Policy::Lru], 2);
        assert_eq!(cells.len(), 1);
        assert!(cells[0].reduction_pct.abs() < 1e-9);
    }

    #[test]
    fn table3_has_pairs_on_shared_workload() {
        let b = vec![tiny_benchmark()];
        let m = table3(&b, Clock::Mhz500, 1);
        assert!(m.total_pairs() > 0);
        // A meaningful fraction repeats latencies even on this tiny,
        // sharing-heavy configuration; the full rsim suite lands near the
        // paper's ~93 % (see EXPERIMENTS.md).
        assert!(m.same_latency_pct() > 15.0, "{}", m.same_latency_pct());
    }
}
