//! Online adaptive per-shard policy selection by shadow scoring.
//!
//! The paper's ACL (Section 2.5) already demonstrates that *adapting* the
//! replacement policy online beats committing to one — but only between
//! two hardwired variants (reservations on/off) via a 2-bit automaton.
//! This module generalizes the idea to any pair of [`Policy`] candidates:
//!
//! * Each shard runs two **ghost caches** — key-only miniatures of the
//!   shard, one per candidate, each driven by a real policy core — over a
//!   deterministic 1-in-N *key* sample of the shard's traffic. Sampling by
//!   key hash (not by operation) keeps a sampled key's gets and fills
//!   paired, so each ghost sees a coherent miniature of the workload; the
//!   ghosts are sized down by the same factor (the miniature-cache
//!   principle), bounding the overhead to O(ways / N) memory and O(1)
//!   amortized time per sampled op.
//! * Candidates are scored by **modeled cost savings** — the sum of the
//!   stored entry costs of their shadow hits, the paper's aggregate-miss-
//!   cost metric from the saved side — over fixed-length epochs of sampled
//!   lookups.
//! * At each epoch close the shard **hot-flips** its live core to the
//!   winner, with hysteresis: the challenger must win
//!   [`SelectorConfig::hysteresis`] consecutive epochs, and flips are
//!   rate-capped by [`SelectorConfig::min_flip_gap`]. The incoming core is
//!   warmed by replaying the shard's resident entries (LRU → MRU) as
//!   fills, then takes over seamlessly.
//!
//! Every flip emits the `policy_flip` observer event and bumps the
//! `csr_cache_selector_*` metrics family.

use cache_sim::{BlockAddr, BoxedPolicy};
use csr::Policy;
use csr_obs::{Counter, Registry, SharedObserver};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::region::Region;

/// Configures the per-shard adaptive policy selector
/// ([`CacheBuilder::adaptive`](crate::CacheBuilder::adaptive)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SelectorConfig {
    /// The two candidate policies. The first is the initial live policy of
    /// every shard.
    pub candidates: (Policy, Policy),
    /// Shadow 1 in `sample_every` keys (by key hash). 1 shadows every key.
    pub sample_every: u64,
    /// Sampled lookups per scoring epoch (per shard).
    pub epoch_len: u64,
    /// Consecutive epochs the challenger must win before a flip.
    pub hysteresis: u32,
    /// Minimum epochs between two flips of the same shard (flip-rate cap).
    pub min_flip_gap: u64,
    /// Ghost-cache capacity per shard; 0 sizes it automatically to
    /// `max(8, ways / sample_every)` (the miniature-cache scale).
    pub ghost_capacity: usize,
}

impl Default for SelectorConfig {
    fn default() -> Self {
        SelectorConfig {
            candidates: (Policy::Dcl, Policy::S3Fifo),
            sample_every: 8,
            epoch_len: 256,
            hysteresis: 2,
            min_flip_gap: 4,
            ghost_capacity: 0,
        }
    }
}

impl SelectorConfig {
    /// Whether the key with hash identity `id` is in the shadow sample.
    pub(crate) fn sampled(&self, id: BlockAddr) -> bool {
        self.sample_every <= 1 || id.0.is_multiple_of(self.sample_every)
    }

    fn ghost_capacity_for(&self, ways: usize) -> usize {
        if self.ghost_capacity > 0 {
            self.ghost_capacity
        } else {
            (ways as u64 / self.sample_every.max(1)).max(8) as usize
        }
    }
}

/// A snapshot of the adaptive selector's cache-wide state
/// ([`CsrCache::selector_stats`](crate::CsrCache::selector_stats)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SelectorStats {
    /// The candidate policy names `(a, b)`.
    pub candidates: (&'static str, &'static str),
    /// Completed policy flips across all shards.
    pub flips: u64,
    /// Completed scoring epochs across all shards.
    pub epochs: u64,
    /// Sampled lookups fed to the ghost caches.
    pub sampled_gets: u64,
    /// Sampled fills fed to the ghost caches.
    pub sampled_fills: u64,
    /// Shadow hits per candidate.
    pub shadow_hits: (u64, u64),
    /// Modeled cost savings (sum of shadow-hit entry costs) per candidate.
    pub shadow_savings: (u64, u64),
    /// Shards currently running each candidate.
    pub live_shards: (u64, u64),
}

/// Cache-wide selector state shared by every shard: lifetime counters, the
/// optional metrics feed, and the optional decision observer that receives
/// `policy_flip` events.
pub(crate) struct SelectorShared {
    names: (&'static str, &'static str),
    flips: AtomicU64,
    epochs: AtomicU64,
    sampled_gets: AtomicU64,
    sampled_fills: AtomicU64,
    shadow_hits: [AtomicU64; 2],
    shadow_savings: [AtomicU64; 2],
    live_shards: [AtomicU64; 2],
    metrics: Option<SelectorMetrics>,
    obs: Option<SharedObserver>,
}

/// The `csr_cache_selector_*` metric handles.
struct SelectorMetrics {
    flips: Arc<Counter>,
    epochs: Arc<Counter>,
    sampled: Arc<Counter>,
    savings: [Arc<Counter>; 2],
}

impl SelectorShared {
    /// Prometheus family names.
    pub(crate) const FLIPS_FAMILY: &'static str = "csr_cache_selector_flips_total";
    pub(crate) const EPOCHS_FAMILY: &'static str = "csr_cache_selector_epochs_total";
    pub(crate) const SAMPLED_FAMILY: &'static str = "csr_cache_selector_sampled_ops_total";
    pub(crate) const SAVINGS_FAMILY: &'static str = "csr_cache_selector_shadow_savings_total";

    pub(crate) fn new(
        candidates: (Policy, Policy),
        shards: usize,
        registry: Option<&Registry>,
        obs: Option<SharedObserver>,
    ) -> Self {
        let names = (candidates.0.name(), candidates.1.name());
        let metrics = registry.map(|r| SelectorMetrics {
            flips: r.counter(
                Self::FLIPS_FAMILY,
                "Completed adaptive policy flips",
                &[("a", names.0), ("b", names.1)],
            ),
            epochs: r.counter(
                Self::EPOCHS_FAMILY,
                "Completed shadow-scoring epochs",
                &[("a", names.0), ("b", names.1)],
            ),
            sampled: r.counter(
                Self::SAMPLED_FAMILY,
                "Operations fed to the shadow ghost caches",
                &[("a", names.0), ("b", names.1)],
            ),
            savings: [
                r.counter(
                    Self::SAVINGS_FAMILY,
                    "Modeled cost savings accumulated by each shadow candidate",
                    &[("policy", names.0)],
                ),
                r.counter(
                    Self::SAVINGS_FAMILY,
                    "Modeled cost savings accumulated by each shadow candidate",
                    &[("policy", names.1)],
                ),
            ],
        });
        SelectorShared {
            names,
            flips: AtomicU64::new(0),
            epochs: AtomicU64::new(0),
            sampled_gets: AtomicU64::new(0),
            sampled_fills: AtomicU64::new(0),
            shadow_hits: [AtomicU64::new(0), AtomicU64::new(0)],
            shadow_savings: [AtomicU64::new(0), AtomicU64::new(0)],
            live_shards: [AtomicU64::new(shards as u64), AtomicU64::new(0)],
            metrics,
            obs,
        }
    }

    pub(crate) fn stats(&self) -> SelectorStats {
        let ld = |a: &AtomicU64| a.load(Ordering::Relaxed);
        SelectorStats {
            candidates: self.names,
            flips: ld(&self.flips),
            epochs: ld(&self.epochs),
            sampled_gets: ld(&self.sampled_gets),
            sampled_fills: ld(&self.sampled_fills),
            shadow_hits: (ld(&self.shadow_hits[0]), ld(&self.shadow_hits[1])),
            shadow_savings: (ld(&self.shadow_savings[0]), ld(&self.shadow_savings[1])),
            live_shards: (ld(&self.live_shards[0]), ld(&self.live_shards[1])),
        }
    }

    fn record_shadow_hit(&self, cand: usize, cost: u64) {
        self.shadow_hits[cand].fetch_add(1, Ordering::Relaxed);
        self.shadow_savings[cand].fetch_add(cost, Ordering::Relaxed);
        if let Some(m) = &self.metrics {
            m.savings[cand].add(cost);
        }
    }

    fn record_flip(&self, from: usize, to: usize) {
        self.flips.fetch_add(1, Ordering::Relaxed);
        self.live_shards[from].fetch_sub(1, Ordering::Relaxed);
        self.live_shards[to].fetch_add(1, Ordering::Relaxed);
        if let Some(m) = &self.metrics {
            m.flips.inc();
        }
        if let Some(obs) = &self.obs {
            let names = [self.names.0, self.names.1];
            obs.on_policy_flip(names[from], names[to]);
        }
    }
}

/// A key-only miniature of a shard driven by a real policy core: the same
/// [`Region`] as the shard itself, minus values, locks and flights.
/// Deterministic given the id sequence.
struct Ghost {
    map: HashMap<u64, u32>,
    region: Region<()>,
}

impl Ghost {
    fn new(policy: Policy, capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Ghost {
            map: HashMap::with_capacity(capacity),
            region: Region::new(capacity, policy.cores(capacity, 0, None)()),
        }
    }

    /// A shadow lookup: on a hit, promotes and returns the stored cost (the
    /// modeled saving); on a miss, notifies the core and returns `None`.
    fn touch(&mut self, id: BlockAddr) -> Option<u64> {
        match self.map.get(&id.0) {
            Some(&i) => {
                self.region.touch(i);
                Some(self.region.cost(i))
            }
            None => {
                self.region.miss(id);
                None
            }
        }
    }

    /// A shadow fill: inserts (evicting per the candidate core if full) or
    /// refreshes the stored cost of a resident key.
    fn fill(&mut self, id: BlockAddr, cost: u64) {
        if let Some(&i) = self.map.get(&id.0) {
            self.region.refresh(i, cost);
            return;
        }
        let (i, evicted) = self.region.insert(id, cost, ());
        if let Some(evicted) = evicted {
            self.map.remove(&evicted.slot.id.0);
        }
        self.map.insert(id.0, i);
    }

    fn remove(&mut self, id: BlockAddr) {
        if let Some(i) = self.map.remove(&id.0) {
            self.region.remove(i);
        }
    }
}

/// The outcome of a sampled operation: when a flip fired, the replacement
/// core (already observed, if the cache has an observer) the shard must
/// install via its region's warm `swap_core`.
pub(crate) struct FlipDecision {
    pub(crate) core: BoxedPolicy,
}

/// Per-shard selector state: two ghost caches, the current epoch's scores,
/// and the hysteresis bookkeeping. Lives behind its own mutex in the shard
/// (never taken while the shard state lock is held).
pub(crate) struct ShardSelector {
    cfg: SelectorConfig,
    ways: usize,
    ghosts: [Ghost; 2],
    scores: [u64; 2],
    sampled_in_epoch: u64,
    /// Index (0/1) of the candidate currently live in the shard.
    live: usize,
    /// Consecutive epochs won per candidate.
    wins: [u32; 2],
    epochs_since_flip: u64,
    shared: Arc<SelectorShared>,
    obs: Option<SharedObserver>,
}

impl ShardSelector {
    pub(crate) fn new(
        cfg: SelectorConfig,
        ways: usize,
        shared: Arc<SelectorShared>,
        obs: Option<SharedObserver>,
    ) -> Self {
        let ghost_cap = cfg.ghost_capacity_for(ways);
        ShardSelector {
            ghosts: [
                Ghost::new(cfg.candidates.0, ghost_cap),
                Ghost::new(cfg.candidates.1, ghost_cap),
            ],
            scores: [0, 0],
            sampled_in_epoch: 0,
            live: 0,
            wins: [0, 0],
            epochs_since_flip: cfg.min_flip_gap, // first flip is not gap-capped
            cfg,
            ways,
            shared,
            obs,
        }
    }

    /// The live candidate's policy.
    pub(crate) fn live_policy(&self) -> Policy {
        [self.cfg.candidates.0, self.cfg.candidates.1][self.live]
    }

    /// Feeds a sampled lookup to both ghosts; closes the epoch when due.
    pub(crate) fn on_get(&mut self, id: BlockAddr) -> Option<FlipDecision> {
        self.shared.sampled_gets.fetch_add(1, Ordering::Relaxed);
        if let Some(m) = &self.shared.metrics {
            m.sampled.inc();
        }
        for cand in 0..2 {
            if let Some(cost) = self.ghosts[cand].touch(id) {
                self.scores[cand] = self.scores[cand].saturating_add(cost);
                self.shared.record_shadow_hit(cand, cost);
            }
        }
        self.sampled_in_epoch += 1;
        if self.sampled_in_epoch >= self.cfg.epoch_len {
            self.close_epoch()
        } else {
            None
        }
    }

    /// Feeds a sampled fill to both ghosts.
    pub(crate) fn on_fill(&mut self, id: BlockAddr, cost: u64) {
        self.shared.sampled_fills.fetch_add(1, Ordering::Relaxed);
        if let Some(m) = &self.shared.metrics {
            m.sampled.inc();
        }
        for g in &mut self.ghosts {
            g.fill(id, cost);
        }
    }

    /// Forwards a removal to both ghosts.
    pub(crate) fn on_remove(&mut self, id: BlockAddr) {
        for g in &mut self.ghosts {
            g.remove(id);
        }
    }

    fn close_epoch(&mut self) -> Option<FlipDecision> {
        self.sampled_in_epoch = 0;
        self.epochs_since_flip = self.epochs_since_flip.saturating_add(1);
        self.shared.epochs.fetch_add(1, Ordering::Relaxed);
        if let Some(m) = &self.shared.metrics {
            m.epochs.inc();
        }
        let (a, b) = (self.scores[0], self.scores[1]);
        self.scores = [0, 0];
        // Ties favor the incumbent: no churn without evidence.
        let winner = match a.cmp(&b) {
            std::cmp::Ordering::Greater => 0,
            std::cmp::Ordering::Less => 1,
            std::cmp::Ordering::Equal => self.live,
        };
        let loser = 1 - winner;
        self.wins[winner] = self.wins[winner].saturating_add(1);
        self.wins[loser] = 0;
        if winner == self.live
            || self.wins[winner] < self.cfg.hysteresis
            || self.epochs_since_flip < self.cfg.min_flip_gap
        {
            return None;
        }
        let from = self.live;
        self.live = winner;
        self.epochs_since_flip = 0;
        self.wins = [0, 0];
        self.shared.record_flip(from, winner);
        let core = self.live_policy().cores(self.ways, 0, self.obs.clone())();
        Some(FlipDecision { core })
    }
}

/// What the shard owns: the sampling predicate readable without a lock,
/// and the mutexed selector state.
pub(crate) struct SelectorCell {
    cfg: SelectorConfig,
    inner: std::sync::Mutex<ShardSelector>,
}

impl SelectorCell {
    pub(crate) fn new(
        cfg: SelectorConfig,
        ways: usize,
        shared: Arc<SelectorShared>,
        obs: Option<SharedObserver>,
    ) -> Self {
        SelectorCell {
            cfg,
            inner: std::sync::Mutex::new(ShardSelector::new(cfg, ways, shared, obs)),
        }
    }

    pub(crate) fn sampled(&self, id: BlockAddr) -> bool {
        self.cfg.sampled(id)
    }

    pub(crate) fn on_get(&self, id: BlockAddr) -> Option<FlipDecision> {
        self.inner
            .lock()
            .expect("selector lock poisoned")
            .on_get(id)
    }

    pub(crate) fn on_fill(&self, id: BlockAddr, cost: u64) {
        self.inner
            .lock()
            .expect("selector lock poisoned")
            .on_fill(id, cost);
    }

    pub(crate) fn on_remove(&self, id: BlockAddr) {
        self.inner
            .lock()
            .expect("selector lock poisoned")
            .on_remove(id);
    }

    /// The shard's current live policy name (for diagnostics).
    pub(crate) fn live_name(&self) -> &'static str {
        self.inner
            .lock()
            .expect("selector lock poisoned")
            .live_policy()
            .name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shared(cands: (Policy, Policy)) -> Arc<SelectorShared> {
        Arc::new(SelectorShared::new(cands, 1, None, None))
    }

    #[test]
    fn ghost_tracks_a_lru_miniature() {
        let mut g = Ghost::new(Policy::Lru, 2);
        g.fill(BlockAddr(1), 5);
        g.fill(BlockAddr(2), 7);
        assert_eq!(g.touch(BlockAddr(1)), Some(5));
        g.fill(BlockAddr(3), 1); // evicts 2 (LRU)
        assert_eq!(g.touch(BlockAddr(2)), None);
        assert_eq!(g.touch(BlockAddr(1)), Some(5));
        g.remove(BlockAddr(1));
        assert_eq!(g.touch(BlockAddr(1)), None);
    }

    #[test]
    fn hysteresis_defers_the_flip() {
        let cfg = SelectorConfig {
            candidates: (Policy::Lru, Policy::Slru),
            sample_every: 1,
            epoch_len: 1,
            hysteresis: 2,
            min_flip_gap: 0,
            ghost_capacity: 2,
        };
        let sh = shared(cfg.candidates);
        let mut sel = ShardSelector::new(cfg, 4, Arc::clone(&sh), None);
        // Make candidate B (index 1) hit while A misses: warm only B via a
        // direct ghost fill.
        sel.ghosts[1].fill(BlockAddr(0), 9);
        // Epoch 1: B wins once — no flip yet (hysteresis 2).
        assert!(sel.on_get(BlockAddr(0)).is_none());
        // Epoch 2: B wins again — flip fires.
        sel.ghosts[1].fill(BlockAddr(0), 9);
        let flip = sel.on_get(BlockAddr(0));
        assert!(flip.is_some(), "two consecutive wins must flip");
        assert_eq!(sel.live_policy(), Policy::Slru);
        let s = sh.stats();
        assert_eq!(s.flips, 1);
        assert_eq!(s.epochs, 2);
        assert_eq!(s.live_shards, (0, 1));
        assert!(s.shadow_savings.1 >= 18);
    }

    #[test]
    fn ties_keep_the_incumbent() {
        let cfg = SelectorConfig {
            candidates: (Policy::Lru, Policy::Slru),
            sample_every: 1,
            epoch_len: 1,
            hysteresis: 1,
            min_flip_gap: 0,
            ghost_capacity: 2,
        };
        let sh = shared(cfg.candidates);
        let mut sel = ShardSelector::new(cfg, 4, sh, None);
        // Both ghosts miss: a 0-0 tie must not flip, ever.
        for k in 0..16u64 {
            assert!(sel.on_get(BlockAddr(k)).is_none());
        }
        assert_eq!(sel.live_policy(), Policy::Lru);
    }

    #[test]
    fn flip_gap_caps_the_rate() {
        let cfg = SelectorConfig {
            candidates: (Policy::Lru, Policy::Slru),
            sample_every: 1,
            epoch_len: 1,
            hysteresis: 1,
            min_flip_gap: 1000,
            ghost_capacity: 2,
        };
        let sh = shared(cfg.candidates);
        let mut sel = ShardSelector::new(cfg, 4, sh, None);
        // First flip is allowed (the gap counter starts satisfied)...
        sel.ghosts[1].fill(BlockAddr(0), 9);
        assert!(sel.on_get(BlockAddr(0)).is_some());
        // ...but an immediate flip back is rate-capped.
        sel.ghosts[0].fill(BlockAddr(1), 9);
        assert!(sel.on_get(BlockAddr(1)).is_none());
    }

    #[test]
    fn sampling_is_by_key_identity() {
        let cfg = SelectorConfig {
            sample_every: 8,
            ..SelectorConfig::default()
        };
        assert!(cfg.sampled(BlockAddr(0)));
        assert!(cfg.sampled(BlockAddr(16)));
        assert!(!cfg.sampled(BlockAddr(17)));
        let every = SelectorConfig {
            sample_every: 1,
            ..SelectorConfig::default()
        };
        assert!(every.sampled(BlockAddr(17)));
    }
}
