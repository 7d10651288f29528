//! # csr-harness
//!
//! Experiment machinery for the HPCA 2003 reproduction: the Section 3.1
//! trace-driven simulation loop ([`runner`]), assembly of the paper's
//! trace-driven experiments ([`experiments`]) and the execution-driven ones
//! ([`numa_exp`]). Policies are `csr::Policy`, whose `cores` builds the L2's
//! one core per set. The `csr-bench` crate's binaries format the data this
//! crate produces.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod numa_exp;
pub mod runner;

/// The name the benchmark adapter knows `csr::Policy` by.
pub use csr::Policy as PolicyKind;
pub use experiments::{
    build_benchmarks, default_threads, fig3_grid, fig3_hafs, table2, Benchmark, CostRatio,
    SavingsPoint, Scale, Table2Cell,
};
pub use numa_exp::{
    rsim_suite, rsim_suite_extended, run_numa, NumaBenchmark, Table5Cell, TABLE5_POLICIES,
};
pub use runner::{
    l2_cores, run_sampled, run_sampled_observed, run_sampled_policy, ClassMisses, FilteredTrace,
    LruMissProfile, PricedTrace, RunResult, TraceSimConfig,
};
