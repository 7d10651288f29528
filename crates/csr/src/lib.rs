//! # csr — cost-sensitive cache replacement
//!
//! The primary contribution of *Cost-Sensitive Cache Replacement
//! Algorithms* (Jeong & Dubois, HPCA 2003): replacement policies that
//! minimize the **aggregate miss cost** rather than the miss count, for
//! caches whose misses have non-uniform costs (remote vs. local latency,
//! bandwidth, power, …).
//!
//! Four on-line policies come from the paper, each a core for one
//! replacement region implementing `cache_sim`'s [`EvictionPolicy`]:
//!
//! * [`GdCore`] — prior-work cost-centric GreedyDual baseline (Section 2.1);
//! * [`BclCore`] — Basic Cost-sensitive LRU: block reservation with
//!   immediate, pessimistic cost depreciation (Section 2.3);
//! * [`DclCore`] — Dynamic Cost-sensitive LRU: depreciation only on detected
//!   re-references via the Extended Tag Directory (Section 2.4);
//! * [`AclCore`] — Adaptive Cost-sensitive LRU: DCL gated by a per-set 2-bit
//!   success/failure automaton (Section 2.5).
//!
//! Every core is **set-size-agnostic**. The cores, by family:
//!
//! * **LRU** — [`LruCore`], the baseline ([`eviction`]);
//! * **reservation** — [`BclCore`], [`DclCore`], [`AclCore`]: the paper's
//!   LRU extensions, sharing Fig. 1's scan (asked of the driver) and the
//!   `Acost` tracker;
//! * **rank** — [`GdCore`], [`GdsfCore`], [`LfudaCore`]: one
//!   inflation-offset [`RankCore`] with three key functions ([`rank`]);
//! * **queue** — [`S3FifoCore`] (small/main/ghost FIFOs, scan-resistant),
//!   [`SlruCore`] (probationary/protected segments), [`CampCore`]
//!   (cost-adaptive multi-queue with rounded-cost buckets): FIFO lists
//!   threaded through the region's ways, nothing allocated after
//!   construction.
//!
//! GDSF, LFUDA and the queue family are a **policy zoo** of modern
//! general-purpose cores riding on the same trait for head-to-head
//! comparison and online selection.
//!
//! [`Policy`] names every core once — these, `cache_sim`'s FIFO and Random,
//! and DCL/ACL with 4-bit aliased directory tags — and
//! [`Policy::cores`] is the one place a name becomes a core, for either
//! driver ([`policy`]).
//!
//! A core is never driven directly; exactly two drivers speak its protocol,
//! one per layer, and both enforce the same contract (stated once, in
//! `cache_sim::policy`):
//!
//! * `cache_sim::Cache` — the simulator's driver: one core per cache set,
//!   built by the factory given to `Cache::new`, each answered as
//!   [`Residents`] from the set's rows of the cache's flat arrays; per-set
//!   state is read through `Cache::core` and `Cache::cores`.
//! * `csr_cache::Region<T>` — the key-value driver: one boxed core over a
//!   slab of arbitrary size whose recency order is kept as one list per
//!   distinct cost, one per cache shard.
//!
//! Supporting modules: the [`etd`] shadow directory, the offline optima —
//! Belady's in [`opt`], the cost-optimal CSOPT in [`csopt`] — and the
//! Section 5 hardware-overhead model in [`hw`].
//!
//! # Observability
//!
//! Every core is generic over a `csr-obs` [`Observer`] that receives the
//! policy's decisions — hits, misses, evictions, reservations,
//! depreciations, ETD hits and ACL automaton flips — as they happen. That
//! stream is the cores' **only** accounting channel: a core keeps no
//! counters of its own (the rules are stated once, in [`eviction`]). For
//! counts, read the driver — [`cache_sim::CacheStats`]
//! `hits`/`misses`/`evictions`/`non_lru_evictions` (a reservation *is* a
//! non-LRU eviction; ACL alone fires `on_reserve` once per reservation
//! streak, so its reserve count is the number of streaks, not of non-LRU
//! evictions) — or attach a `csr_obs::CountingObserver` and read its
//! `EventCounts`; the ETD's structure counters stay on each core's
//! [`EtdStats`] (`etd().stats()`, merged over `Cache::cores` by the reader).
//! The default [`NopObserver`] compiles to nothing; attach a real one with
//! `with_observer`, one clone per set:
//!
//! ```
//! use cache_sim::{Cache, Geometry, AccessType, Cost, BlockAddr};
//! use csr::DclCore;
//! use csr_obs::CountingObserver;
//! use std::sync::Arc;
//!
//! let geom = Geometry::new(128, 64, 2);
//! let obs = Arc::new(CountingObserver::default());
//! let mut cache = Cache::new(geom, || {
//!     DclCore::for_geometry(&geom).with_observer(Arc::clone(&obs))
//! });
//! cache.access(BlockAddr(0), AccessType::Read, Cost(8));
//! assert_eq!(obs.counts().misses, 1);
//! ```
//!
//! # Examples
//!
//! Reserving a high-cost block the way Section 2.2 describes:
//!
//! ```
//! use cache_sim::{Cache, Geometry, AccessType, Cost, BlockAddr};
//! use csr::DclCore;
//!
//! let geom = Geometry::new(128, 64, 2); // one 2-way set
//! let mut cache = Cache::new(geom, || DclCore::for_geometry(&geom));
//!
//! cache.access(BlockAddr(0), AccessType::Read, Cost(8)); // expensive block
//! cache.access(BlockAddr(1), AccessType::Read, Cost(1)); // cheap block
//! // A new block would evict the LRU under plain LRU; DCL instead
//! // victimizes the cheap non-LRU block, reserving the expensive one.
//! cache.access(BlockAddr(2), AccessType::Read, Cost(1));
//! assert!(cache.contains(BlockAddr(0)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod acl;
pub mod bcl;
pub mod camp;
pub mod csopt;
pub mod dcl;
pub mod etd;
pub mod eviction;
pub mod hw;
pub mod opt;
pub mod policy;
pub mod rank;
mod reserve;
pub mod s3fifo;
pub mod slru;
mod waylists;

pub use acl::AclCore;
pub use bcl::BclCore;
pub use camp::CampCore;
pub use csopt::simulate_csopt;
pub use csr_obs::{NopObserver, Observer};
pub use dcl::DclCore;
pub use etd::{EtdConfig, EtdSet, EtdStats};
pub use eviction::{EvictionPolicy, LruCore, Residents};
pub use hw::{CostSource, HwParams, HwPolicy};
pub use opt::{simulate_belady, OfflineStats, TraceEvent};
pub use policy::Policy;
pub use rank::{GdCore, GdsfCore, LfudaCore, RankCore};
pub use s3fifo::S3FifoCore;
pub use slru::SlruCore;
