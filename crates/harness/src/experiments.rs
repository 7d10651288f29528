//! Assembly of the paper's trace-driven experiments (Table 1, Figure 3,
//! Table 2) from the substrate crates. The `csr-bench` binary formats the
//! structures produced here; integration tests assert their shapes.

use crate::runner::{ClassMisses, FilteredTrace, PricedTrace, TraceSimConfig};
use cache_sim::{relative_savings_pct, Cost, CostPair};
use csr::Policy;
use mem_trace::cost_map::{FirstTouchCostMap, RandomCostMap};
use mem_trace::workloads::{BarnesLike, LuLike, OceanLike, RaytraceLike, INTERLEAVE_CHUNK};
use mem_trace::{
    FirstTouchPlacement, ProcId, SampledTrace, TraceCensus, TraceCharacteristics, Workload,
};
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A cost ratio `r` of the two-static-cost experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CostRatio {
    /// Low cost 1, high cost `r`.
    Finite(u64),
    /// Low cost 0, high cost 1 (Section 3.1's infinite ratio).
    Infinite,
}

impl CostRatio {
    /// The ratios swept in Figure 3.
    pub const FIG3: [CostRatio; 6] = [
        CostRatio::Finite(2),
        CostRatio::Finite(4),
        CostRatio::Finite(8),
        CostRatio::Finite(16),
        CostRatio::Finite(32),
        CostRatio::Infinite,
    ];

    /// The ratios swept in Table 2.
    pub const TABLE2: [CostRatio; 5] = [
        CostRatio::Finite(2),
        CostRatio::Finite(4),
        CostRatio::Finite(8),
        CostRatio::Finite(16),
        CostRatio::Finite(32),
    ];

    /// The corresponding low/high cost pair.
    #[must_use]
    pub fn pair(self) -> CostPair {
        match self {
            CostRatio::Finite(r) => CostPair::ratio(r),
            CostRatio::Infinite => CostPair::infinite_ratio(),
        }
    }
}

impl fmt::Display for CostRatio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CostRatio::Finite(r) => write!(f, "r={r}"),
            CostRatio::Infinite => write!(f, "r=inf"),
        }
    }
}

/// Which problem sizes to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Reduced sizes for quick runs (default; preserves all shapes).
    Quick,
    /// The paper's Table-1 problem sizes (slow).
    Paper,
}

/// A prepared benchmark: its sampled trace, placement and characteristics.
#[derive(Debug, Clone)]
pub struct Benchmark {
    /// Workload name ("barnes", "lu", "ocean", "raytrace").
    pub name: String,
    /// The sample processor whose cache is simulated.
    pub sample: ProcId,
    /// The sample-processor trace view.
    pub sampled: SampledTrace,
    /// Per-block first-touch placement of the full trace.
    pub placement: FirstTouchPlacement,
    /// Table-1 characteristics.
    pub characteristics: TraceCharacteristics,
}

impl Benchmark {
    /// Prepares `w` as Section 3.1 does, from its barrier phases in the
    /// interleaved order ([`PhasedTrace::records`]) without ever copying
    /// them into one trace: a census pass places every block at its first
    /// toucher, picks the most representative processor and characterizes
    /// the trace from its view; a second pass takes that processor's
    /// sample. For every SPLASH-like kernel the order is `w.generate(seed)`.
    ///
    /// [`PhasedTrace::records`]: mem_trace::PhasedTrace::records
    #[must_use]
    pub fn build(w: &dyn Workload, seed: u64) -> Self {
        let phases = w.generate_phases(seed);
        let census =
            TraceCensus::from_records(phases.num_procs(), 64, phases.records(INTERLEAVE_CHUNK));
        let sample = census.representative_processor();
        Benchmark {
            name: w.name().to_owned(),
            sample,
            sampled: SampledTrace::from_records(phases.records(INTERLEAVE_CHUNK), sample),
            characteristics: census.characterize(w.name(), &w.problem_size(), sample),
            placement: census.into_placement(),
        }
    }
}

/// Seed used for all benchmark generation (experiments are reproducible).
pub const BENCH_SEED: u64 = 2003;

/// Generates and samples the four-benchmark suite, one kernel per worker
/// thread ([`run_tasks`] over [`default_threads`]), in suite order.
#[must_use]
pub fn build_benchmarks(scale: Scale) -> Vec<Benchmark> {
    let workloads: Vec<Box<dyn Workload + Sync>> = match scale {
        Scale::Quick => vec![
            Box::new(BarnesLike::default()),
            Box::new(LuLike::default()),
            Box::new(OceanLike::default()),
            Box::new(RaytraceLike::default()),
        ],
        Scale::Paper => vec![
            Box::new(BarnesLike::paper_scale()),
            Box::new(LuLike::paper_scale()),
            Box::new(OceanLike::paper_scale()),
            Box::new(RaytraceLike::paper_scale()),
        ],
    };
    run_tasks(default_threads(), &workloads, |w| {
        Benchmark::build(w.as_ref(), BENCH_SEED)
    })
}

/// One cell of the Figure 3 grid.
#[derive(Debug, Clone, PartialEq)]
pub struct SavingsPoint {
    /// Benchmark name.
    pub benchmark: String,
    /// Policy measured.
    pub policy: Policy,
    /// Cost ratio.
    pub ratio: CostRatio,
    /// High-cost access fraction of the random mapping.
    pub haf: f64,
    /// Relative cost savings over LRU, percent.
    pub savings_pct: f64,
}

/// The HAF sweep of Figure 3: 0, 0.01, 0.05, then 0.1 … 1.0 in steps of 0.1.
#[must_use]
pub fn fig3_hafs() -> Vec<f64> {
    let mut hafs = vec![0.0, 0.01, 0.05];
    for i in 1..=10 {
        hafs.push(i as f64 / 10.0);
    }
    hafs
}

/// Computes the Figure 3 grid: relative savings of each policy over LRU
/// under random cost mapping, for every (benchmark, ratio, HAF) triple.
/// Work is spread over `threads` OS threads.
#[must_use]
pub fn fig3_grid(
    benchmarks: &[Benchmark],
    hafs: &[f64],
    ratios: &[CostRatio],
    policies: &[Policy],
    cfg: TraceSimConfig,
    threads: usize,
) -> Vec<SavingsPoint> {
    // The L2's input depends on the kernel alone, and a block's class on
    // the HAF, not on r: one filtering per kernel serves every HAF, and one
    // pricing per (kernel, HAF) every ratio.
    let filtered = run_tasks(threads, benchmarks, |b| FilteredTrace::new(&b.sampled, cfg));
    let maps: Vec<(usize, f64)> = (0..benchmarks.len())
        .flat_map(|bi| hafs.iter().map(move |&haf| (bi, haf)))
        .collect();
    let priced = run_tasks(threads, &maps, |&(bi, haf)| {
        let map = RandomCostMap::new(haf, CostPair::infinite_ratio(), BENCH_SEED ^ 0x5EED);
        PricedTrace::new(&filtered[bi], &map)
    });

    let mut runs: Vec<Run> = Vec::new();
    for bi in 0..benchmarks.len() {
        for &ratio in ratios {
            for hi in 0..hafs.len() {
                for &policy in policies {
                    runs.push((bi * hafs.len() + hi, ratio, policy));
                }
            }
        }
    }
    let savings = savings_over_lru(&priced, &runs, threads);
    runs.into_iter()
        .zip(savings)
        .map(|((t, ratio, policy), savings_pct)| SavingsPoint {
            benchmark: benchmarks[t / hafs.len()].name.clone(),
            policy,
            ratio,
            haf: hafs[t % hafs.len()],
            savings_pct,
        })
        .collect()
}

/// One row cell of Table 2 (first-touch cost mapping).
#[derive(Debug, Clone, PartialEq)]
pub struct Table2Cell {
    /// Benchmark name.
    pub benchmark: String,
    /// Policy measured.
    pub policy: Policy,
    /// Cost ratio.
    pub ratio: CostRatio,
    /// Relative cost savings over LRU, percent.
    pub savings_pct: f64,
}

/// Computes Table 2: savings under first-touch cost mapping (remote blocks
/// are high-cost).
#[must_use]
pub fn table2(
    benchmarks: &[Benchmark],
    ratios: &[CostRatio],
    policies: &[Policy],
    cfg: TraceSimConfig,
    threads: usize,
) -> Vec<Table2Cell> {
    let bb = cfg.l2.block_bytes();
    // A block is remote or not whatever r is: one filtering and one pricing
    // per benchmark serve every ratio.
    let filtered = run_tasks(threads, benchmarks, |b| FilteredTrace::new(&b.sampled, cfg));
    let kernels: Vec<usize> = (0..benchmarks.len()).collect();
    let priced = run_tasks(threads, &kernels, |&bi| {
        let b = &benchmarks[bi];
        let map = FirstTouchCostMap::new(&b.placement, b.sample, CostPair::infinite_ratio(), bb);
        PricedTrace::new(&filtered[bi], &map)
    });

    let mut runs: Vec<Run> = Vec::new();
    for bi in 0..benchmarks.len() {
        for &ratio in ratios {
            for &policy in policies {
                runs.push((bi, ratio, policy));
            }
        }
    }
    let savings = savings_over_lru(&priced, &runs, threads);
    runs.into_iter()
        .zip(savings)
        .map(|((bi, ratio, policy), savings_pct)| Table2Cell {
            benchmark: benchmarks[bi].name.clone(),
            policy,
            ratio,
            savings_pct,
        })
        .collect()
}

/// One policy run: which priced trace, at which ratio.
type Run = (usize, CostRatio, Policy);

/// The savings over LRU of every run, in order. One LRU run per priced
/// trace is the baseline of every pair ([`PricedTrace::lru_misses`]); the
/// baselines go first into the same pool as the runs.
fn savings_over_lru(priced: &[PricedTrace<'_>], runs: &[Run], threads: usize) -> Vec<f64> {
    enum Job {
        Lru(usize),
        Run(Run),
    }
    enum Done {
        Lru(usize, ClassMisses),
        Run(Cost),
    }
    let jobs: Vec<Job> = (0..priced.len())
        .map(Job::Lru)
        .chain(runs.iter().copied().map(Job::Run))
        .collect();
    let done = run_tasks(threads, &jobs, |job| match *job {
        Job::Lru(t) => Done::Lru(t, priced[t].lru_misses()),
        Job::Run((t, ratio, policy)) => {
            Done::Run(priced[t].run(ratio.pair(), policy).aggregate_cost())
        }
    });
    let mut lru = vec![ClassMisses::default(); priced.len()];
    let mut costs = Vec::with_capacity(runs.len());
    for d in done {
        match d {
            Done::Lru(t, misses) => lru[t] = misses,
            Done::Run(cost) => costs.push(cost),
        }
    }
    runs.iter()
        .zip(costs)
        .map(|(&(t, ratio, _), cost)| {
            relative_savings_pct(lru[t].aggregate_cost(ratio.pair()), cost)
        })
        .collect()
}

/// Maps `tasks` to results over `threads` OS threads, preserving order —
/// the parallel-map building block behind every experiment sweep. Workers
/// take the next task from a shared counter, so a list mixing long and
/// short tasks balances itself.
pub fn run_tasks<T: Sync, R: Send>(
    threads: usize,
    tasks: &[T],
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let threads = threads.clamp(1, tasks.len().max(1));
    if threads == 1 {
        return tasks.iter().map(&f).collect();
    }
    let next = AtomicUsize::new(0);
    let work = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(task) = tasks.get(i) else {
                return done;
            };
            done.push((i, f(task)));
        }
    };
    let mut done: Vec<(usize, R)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads).map(|_| scope.spawn(work)).collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

/// A sensible default worker count.
#[must_use]
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(4, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mem_trace::workloads::synthetic::UniformRandom;

    #[test]
    fn run_tasks_preserves_order() {
        let tasks: Vec<u64> = (0..37).collect();
        let want: Vec<u64> = tasks.iter().map(|&t| t * 2).collect();
        for threads in [0, 1, 2, 4, 64] {
            assert_eq!(run_tasks(threads, &tasks, |&t| t * 2), want, "{threads}");
        }
        assert!(run_tasks(4, &[] as &[u64], |&t| t).is_empty());
    }

    #[test]
    fn run_tasks_hands_out_every_task_once() {
        // A slow task beside fast ones: each still runs exactly once and
        // the results come back in task order.
        let calls = AtomicUsize::new(0);
        let tasks: Vec<u64> = (0..100).collect();
        let got = run_tasks(2, &tasks, |&t| {
            calls.fetch_add(1, Ordering::Relaxed);
            if t == 0 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            t
        });
        assert_eq!(got, tasks);
        assert_eq!(calls.into_inner(), tasks.len());
    }

    #[test]
    #[should_panic(expected = "task 3 failed")]
    fn run_tasks_propagates_a_task_panic() {
        let tasks: Vec<u64> = (0..8).collect();
        let _ = run_tasks(2, &tasks, |&t| {
            assert!(t != 3, "task 3 failed");
            t
        });
    }

    #[test]
    fn fig3_hafs_matches_paper_grid() {
        let hafs = fig3_hafs();
        assert_eq!(hafs.len(), 13);
        assert_eq!(hafs[0], 0.0);
        assert_eq!(hafs[1], 0.01);
        assert_eq!(hafs[2], 0.05);
        assert_eq!(*hafs.last().expect("nonempty"), 1.0);
    }

    #[test]
    fn fig3_grid_small_smoke() {
        // A miniature grid over a synthetic benchmark exercises the whole
        // pipeline quickly.
        let w = UniformRandom {
            refs: 40_000,
            blocks: 2048,
            procs: 2,
            write_fraction: 0.3,
        };
        let pts = fig3_grid(
            &[Benchmark::build(&w, BENCH_SEED)],
            &[0.2],
            &[CostRatio::Finite(8)],
            &[Policy::Dcl],
            TraceSimConfig::paper_basic(),
            2,
        );
        assert_eq!(pts.len(), 1);
        let p = &pts[0];
        assert!(
            p.savings_pct > 0.0,
            "DCL should save at the sweet spot: {}",
            p.savings_pct
        );
        assert!(p.savings_pct < 100.0);
    }
}
