//! # csr — cost-sensitive cache replacement
//!
//! The primary contribution of *Cost-Sensitive Cache Replacement
//! Algorithms* (Jeong & Dubois, HPCA 2003): replacement policies that
//! minimize the **aggregate miss cost** rather than the miss count, for
//! caches whose misses have non-uniform costs (remote vs. local latency,
//! bandwidth, power, …).
//!
//! Four on-line policies come from the paper, all implementing
//! [`cache_sim::ReplacementPolicy`]:
//!
//! * [`GreedyDual`] — prior-work cost-centric baseline (Section 2.1);
//! * [`Bcl`] — Basic Cost-sensitive LRU: block reservation with immediate,
//!   pessimistic cost depreciation (Section 2.3);
//! * [`Dcl`] — Dynamic Cost-sensitive LRU: depreciation only on detected
//!   re-references via the Extended Tag Directory (Section 2.4);
//! * [`Acl`] — Adaptive Cost-sensitive LRU: DCL gated by a per-set 2-bit
//!   success/failure automaton (Section 2.5).
//!
//! Each policy's decision logic is a **set-size-agnostic core** implementing
//! the single-region [`EvictionPolicy`] trait from [`eviction`]. The cores,
//! by family:
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
//! A core is never driven directly; exactly two drivers speak
//! its protocol, one per layer, and both enforce the same contract
//! (`on_hit` before promotion, `on_miss` with the LRU pair before victim
//! selection, `victim` once per replacement with the driver answering as
//! [`Residents`] — the LRU entry, the entry in a way, the entry nearest the
//! LRU end cheaper than a bound — `on_fill` after linking,
//! `on_remove(block, way)` for every other departure, with the way the block
//! leaves):
//!
//! * [`PerSet<C>`] — the simulator's driver: one core per cache set behind
//!   [`cache_sim::ReplacementPolicy`], statically dispatched. The
//!   set-indexed types ([`GreedyDual`], [`Bcl`], [`Dcl`], [`Acl`],
//!   [`S3Fifo`], [`Slru`], [`Lfuda`], [`Gdsf`], [`Camp`]) are aliases of it
//!   (`Dcl<O>` is `PerSet<DclCore<O>>`); per-set state is read through
//!   [`PerSet::core`].
//! * `csr_cache::Region<T>` — the key-value driver: one boxed core over a
//!   slab of arbitrary size whose recency order is kept as one list per
//!   distinct cost, shared by the cache's shards and the adaptive
//!   selector's ghost caches.
//!
//! Supporting modules: the [`etd`] shadow directory, clairvoyant baselines
//! in [`opt`], and the Section 5 hardware-overhead model in [`hw`].
//!
//! # Observability
//!
//! Every core (and therefore every [`PerSet`] alias) is generic over a `csr-obs`
//! [`Observer`] that receives the policy's decisions — hits, misses,
//! evictions, reservations, depreciations, ETD hits and ACL automaton
//! flips — as they happen. That stream is the cores' **only** accounting
//! channel: a core keeps no counters of its own (the contract is stated
//! once, in [`eviction`]). For counts, read the driver —
//! [`cache_sim::CacheStats`] `hits`/`misses`/`evictions`/`non_lru_evictions`
//! (a reservation *is* a non-LRU eviction; ACL alone fires `on_reserve` once
//! per reservation streak, so its reserve count is the number of streaks,
//! not of non-LRU evictions) — or attach a
//! `csr_obs::CountingObserver` and read its `EventCounts`; the ETD's
//! structure counters stay on [`EtdStats`] (`etd_stats()`). The default
//! [`NopObserver`] compiles to nothing; attach a real one with
//! `with_observer`:
//!
//! ```
//! use cache_sim::{Cache, Geometry, AccessType, Cost, BlockAddr};
//! use csr::Dcl;
//! use csr_obs::CountingObserver;
//! use std::sync::Arc;
//!
//! let geom = Geometry::new(128, 64, 2);
//! let obs = Arc::new(CountingObserver::default());
//! let mut cache = Cache::new(geom, Dcl::new(&geom).with_observer(Arc::clone(&obs)));
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
//! use csr::Dcl;
//!
//! let geom = Geometry::new(128, 64, 2); // one 2-way set
//! let mut cache = Cache::new(geom, Dcl::new(&geom));
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
pub mod rank;
mod reserve;
pub mod s3fifo;
pub mod slru;
mod waylists;

pub use acl::{Acl, AclCore};
pub use bcl::{Bcl, BclCore};
pub use camp::{Camp, CampCore};
pub use csopt::{simulate_csopt, CsoptLimits};
pub use csr_obs::{NopObserver, Observer};
pub use dcl::{Dcl, DclCore};
pub use etd::{EtdConfig, EtdSet, EtdStats};
pub use eviction::{EvictionPolicy, LruCore, PerSet, Residents};
pub use hw::{CostSource, HwParams, HwPolicy};
pub use opt::{simulate_belady, simulate_cost_greedy, OfflineStats, TraceEvent};
pub use rank::{GdCore, Gdsf, GdsfCore, GreedyDual, Lfuda, LfudaCore, RankCore};
pub use s3fifo::{S3Fifo, S3FifoCore};
pub use slru::{Slru, SlruCore};
