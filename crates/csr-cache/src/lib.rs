//! # csr-cache — a concurrent, cost-aware key-value cache
//!
//! A thread-safe, sharded key-value cache whose evictions are driven by
//! the cost-sensitive replacement policies of *Cost-Sensitive Cache
//! Replacement Algorithms* (Jeong & Dubois, HPCA 2003) — the same
//! single-region policy cores that power the `csr` set-associative
//! simulator, lifted to a software cache where each shard is one large
//! replacement region.
//!
//! Unlike a classic LRU map, a [`CsrCache`] knows that misses are not all
//! equal: a user-supplied [`CostFn`] prices every entry (refetch latency,
//! backend load, dollars), and the [`Policy`] chosen at build time (BCL,
//! DCL, ACL, GreedyDual, or plain LRU) *reserves* expensive entries past
//! their normal LRU eviction point whenever doing so is expected to lower
//! the **aggregate miss cost**.
//!
//! * Thread safety: keys are spread over independently locked shards by
//!   hash; statistics counters are readable without any lock.
//! * One policy table: [`Policy`] is `csr::Policy`, so a shard runs the
//!   very core, built by the same `Policy::cores`, that the simulator runs
//!   per cache set.
//!
//! # Quick start
//!
//! ```
//! use csr_cache::{CsrCache, Policy};
//!
//! // 10_000 entries, sharded across cores, DCL replacement, and a cost
//! // function that prices entries by how expensive they are to refetch.
//! let cache: CsrCache<String, Vec<u8>> = CsrCache::builder(10_000)
//!     .policy(Policy::Dcl)
//!     .cost_fn(|_key: &String, bytes: &Vec<u8>| 100 + bytes.len() as u64)
//!     .build();
//!
//! cache.insert("user:42".into(), vec![1, 2, 3]);
//! assert_eq!(cache.get(&"user:42".into()), Some(vec![1, 2, 3]));
//!
//! let stats = cache.stats();
//! assert_eq!(stats.hits, 1);
//! println!("hit rate {:.1}% — total refetch cost {}",
//!          100.0 * stats.hit_rate(), stats.aggregate_miss_cost);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod region;
mod shard;
mod stats;

pub use cache::{CacheBuilder, CostFn, CsrCache};
pub use csr::Policy;
pub use stats::CacheStats;
