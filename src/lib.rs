//! # cost-sensitive-cache
//!
//! A reproduction of **“Cost-Sensitive Cache Replacement Algorithms”**
//! (Jaeheon Jeong and Michel Dubois, HPCA 2003) as a Rust workspace.
//!
//! Cache replacement traditionally minimizes the *miss count*; this work
//! minimizes the *aggregate miss cost* when misses are not equally
//! expensive (remote vs. local memory in a CC-NUMA machine, bandwidth,
//! power, …). Four on-line policies are provided — GreedyDual and the
//! paper's BCL / DCL / ACL family built on LRU block *reservations* with
//! cost *depreciation* — together with every substrate needed to evaluate
//! them the way the paper does.
//!
//! This crate is a facade: it re-exports the workspace's crates.
//!
//! | Module | Crate | Contents |
//! |--------|-------|----------|
//! | [`sim`] | `cache-sim` | set-associative cache engine, policies' substrate |
//! | [`policies`] | `csr` | GD, BCL, DCL, ACL, ETD, offline baselines, HW model |
//! | [`cache`] | `csr-cache` | concurrent sharded KV cache driven by the policies |
//! | [`obs`] | `csr-obs` | metrics registry, exporters, decision observers |
//! | [`serve`] | `csr-serve` | TCP cache server with measured miss costs |
//! | [`trace`] | `mem-trace` | SPLASH-2-like workloads, first touch, cost maps |
//! | [`numa`] | `numa-sim` | execution-driven CC-NUMA simulator (Section 4) |
//! | [`harness`] | `csr-harness` | experiment runners for every table/figure |
//!
//! # Quick start
//!
//! Measure DCL's cost savings over LRU in the paper's basic trace-driven
//! setup:
//!
//! ```
//! use cost_sensitive_cache::harness::{run_sampled, LruMissProfile, TraceSimConfig};
//! use cost_sensitive_cache::policies::Policy;
//! use cost_sensitive_cache::sim::{relative_savings_pct, CostPair};
//! use cost_sensitive_cache::trace::cost_map::RandomCostMap;
//! use cost_sensitive_cache::trace::workloads::synthetic::UniformRandom;
//! use cost_sensitive_cache::trace::{ProcId, SampledTrace, Workload};
//!
//! let workload = UniformRandom { refs: 50_000, blocks: 2048, procs: 2, write_fraction: 0.3 };
//! let sampled = SampledTrace::from_trace(&workload.generate(1), ProcId(0));
//! let cfg = TraceSimConfig::paper_basic();
//! let costs = RandomCostMap::new(0.2, CostPair::ratio(8), 7);
//!
//! let lru = LruMissProfile::collect(&sampled, cfg).aggregate_cost(&costs);
//! let dcl = run_sampled(&sampled, &costs, Policy::Dcl, cfg).aggregate_cost();
//! assert!(relative_savings_pct(lru, dcl) > 0.0);
//! ```
//!
//! Or use the policies as a concurrent key-value cache ([`cache`]):
//!
//! ```
//! use cost_sensitive_cache::cache::{CsrCache, Policy};
//!
//! let cache: CsrCache<u64, String> = CsrCache::builder(1024)
//!     .policy(Policy::Acl)
//!     .cost_fn(|_k: &u64, v: &String| 1 + v.len() as u64)
//!     .build();
//! cache.insert(7, "expensive remote row".to_string());
//! assert!(cache.get(&7).is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// The set-associative cache simulator substrate (`cache-sim`).
pub mod sim {
    pub use cache_sim::*;
}

/// The cost-sensitive replacement policies (`csr`).
pub mod policies {
    pub use csr::*;
}

/// The concurrent, sharded, cost-aware key-value cache (`csr-cache`).
pub mod cache {
    pub use csr_cache::*;
}

/// Observability: metrics, exporters, decision observers (`csr-obs`).
pub mod obs {
    pub use csr_obs::*;
}

/// The TCP cache server with measured miss costs (`csr-serve`).
pub mod serve {
    pub use csr_serve::*;
}

/// Traces, workloads and cost mappings (`mem-trace`).
pub mod trace {
    pub use mem_trace::*;
}

/// The execution-driven CC-NUMA simulator (`numa-sim`).
pub mod numa {
    pub use numa_sim::*;
}

/// Experiment machinery (`csr-harness`).
pub mod harness {
    pub use csr_harness::*;
}
