//! # cache-sim
//!
//! A set-associative cache simulator substrate with pluggable replacement
//! policies, built as the foundation for reproducing *Cost-Sensitive Cache
//! Replacement Algorithms* (Jeong & Dubois, HPCA 2003).
//!
//! The crate provides:
//!
//! * address arithmetic and cache [`Geometry`] ([`addr`]),
//! * the miss-[`Cost`] model, including the paper's two-static-cost
//!   configuration ([`cost`]),
//! * the one replacement-policy contract, [`EvictionPolicy`]: a core for a
//!   single region that asks its driver [`Residents`] questions instead of
//!   reading the recency order ([`policy`]),
//! * the [`Cache`] engine, which drives one core per set and answers those
//!   questions from its own per-set recency stacks, with statistics and
//!   coherence invalidations ([`cache`]),
//! * a [`TwoLevel`] hierarchy with an L1 filter, as used by the paper's
//!   trace-driven experiments ([`hierarchy`]),
//! * baseline cores: [`Lru`], [`Fifo`], [`RandomEvict`].
//!
//! Cost-sensitive cores (GD, BCL, DCL, ACL and the policy zoo) live in the
//! companion `csr` crate.
//!
//! # Examples
//!
//! ```
//! use cache_sim::{Cache, Geometry, Lru, AccessType, Cost, BlockAddr};
//!
//! // The paper's basic L2: 16 KB, 4-way, 64-byte blocks.
//! let mut cache = Cache::new(Geometry::new(16 * 1024, 64, 4), Lru::new);
//! for b in 0..128u64 {
//!     cache.access(BlockAddr(b), AccessType::Read, Cost(1));
//! }
//! assert_eq!(cache.stats().misses, 128);
//! assert_eq!(cache.stats().aggregate_cost, Cost(128));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addr;
pub mod cache;
pub mod cost;
pub mod fifo;
pub mod hierarchy;
pub mod lru;
pub mod policy;
pub mod random_policy;
pub mod stats;

pub use addr::{Addr, BlockAddr, Geometry, SetIndex, Way};
pub use cache::{AccessOutcome, AccessType, Cache, Evicted};
pub use cost::{Cost, CostPair};
pub use fifo::Fifo;
pub use hierarchy::{HierarchyOutcome, TwoLevel};
pub use lru::Lru;
pub use policy::{BoxedPolicy, EvictionPolicy, Residents, SetView, WayView};
pub use random_policy::RandomEvict;
pub use stats::{relative_savings_pct, CacheStats};
