//! The Adaptive Cost-sensitive LRU algorithm (ACL, Section 2.5 / Figure 2).
//!
//! ACL is DCL plus a per-set 2-bit saturating counter that enables or
//! disables reservations, exploiting the observation that reservation
//! successes and failures come in streaks that differ across sets and time:
//!
//! * the counter **increments** when a reservation succeeds (the reserved
//!   block is re-referenced while reserved) and **decrements** when one
//!   fails (the reserved block is evicted or invalidated without a hit);
//! * reservations are possible only while the counter is greater than zero;
//!   the counter starts at zero, so every set begins with reservations
//!   disabled;
//! * while disabled, the ETD watches would-be reservations: an evicted LRU
//!   block enters the ETD whenever a cheaper block was present in the set.
//!   An ETD hit means a reservation would have saved cost — all entries are
//!   invalidated and the counter jumps to two, re-enabling reservations.
//!
//! The logic lives in [`AclCore`], one region's [`EvictionPolicy`]; the
//! simulator's cache drives one per set, each with its own directory and
//! automaton.

use crate::etd::{EtdConfig, EtdSet};
use crate::eviction::{EvictionPolicy, Residents};
use crate::reserve::AcostTracker;
use cache_sim::{BlockAddr, Cost, Geometry, Way};
use csr_obs::{NopObserver, Observer};

/// Counter ceiling of the 2-bit automaton.
const COUNTER_MAX: u8 = 3;
/// Counter value installed when a disabled set observes an ETD hit.
const TRIGGER_VALUE: u8 = 2;

#[derive(Debug, Clone, Copy, Default)]
struct SetAutomaton {
    counter: u8,
    reserved: bool,
}

impl SetAutomaton {
    fn enabled(&self) -> bool {
        self.counter > 0
    }
}

/// ACL for a single replacement region, owning its shadow directory and
/// 2-bit automaton.
///
/// # Examples
///
/// ```
/// use cache_sim::{Cache, Geometry, AccessType, Cost, BlockAddr};
/// use csr::AclCore;
///
/// let geom = Geometry::new(16 * 1024, 64, 4);
/// let mut cache = Cache::new(geom, || AclCore::for_geometry(&geom));
/// cache.access(BlockAddr(1), AccessType::Read, Cost(8));
/// ```
#[derive(Debug, Clone)]
pub struct AclCore<O: Observer = NopObserver> {
    tracker: AcostTracker,
    automaton: SetAutomaton,
    etd: EtdSet,
    factor: u64,
    obs: O,
}

impl AclCore {
    /// Creates a core around the given shadow directory.
    #[must_use]
    pub fn new(etd: EtdSet) -> Self {
        AclCore {
            tracker: AcostTracker::default(),
            automaton: SetAutomaton::default(),
            etd,
            factor: 2,
            obs: NopObserver,
        }
    }

    /// Creates a core for one set of a `geom` cache with the paper's
    /// full-tag, `assoc - 1`-entry directory.
    #[must_use]
    pub fn for_geometry(geom: &Geometry) -> Self {
        AclCore::with_etd_config(geom, EtdConfig::for_assoc(geom.assoc()))
    }

    /// Creates a core for one set of a `geom` cache with an explicit
    /// directory configuration; the set-index bits are stripped from the
    /// tags it compares.
    #[must_use]
    pub fn with_etd_config(geom: &Geometry, cfg: EtdConfig) -> Self {
        AclCore::new(EtdSet::with_stripped_bits(
            cfg,
            geom.num_sets().trailing_zeros(),
        ))
    }
}

impl<O: Observer> AclCore<O> {
    /// Overrides the depreciation factor (the paper's value is 2).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is zero.
    #[must_use]
    pub fn with_depreciation_factor(mut self, factor: u64) -> Self {
        assert!(factor > 0, "depreciation factor must be positive");
        self.factor = factor;
        self
    }

    /// The embedded shadow directory.
    #[must_use]
    pub fn etd(&self) -> &EtdSet {
        &self.etd
    }

    /// The automaton counter (tests and debugging).
    #[must_use]
    pub fn counter(&self) -> u8 {
        self.automaton.counter
    }

    /// Whether reservations are currently enabled.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.automaton.enabled()
    }

    /// The remaining depreciated cost of the tracked LRU block.
    #[must_use]
    pub fn acost(&self) -> u64 {
        self.tracker.acost()
    }

    /// Attaches a decision observer, replacing any existing one.
    #[must_use]
    pub fn with_observer<O2: Observer>(self, obs: O2) -> AclCore<O2> {
        AclCore {
            tracker: self.tracker,
            automaton: self.automaton,
            etd: self.etd,
            factor: self.factor,
            obs,
        }
    }

    fn end_reservation_failure(&mut self) {
        let a = &mut self.automaton;
        if a.reserved {
            a.counter = a.counter.saturating_sub(1);
            a.reserved = false;
            if a.counter == 0 {
                // Transition into watch mode with a clean slate: entries
                // left over from the failed reservation must not be
                // misread as watch hits (they are evidence reservations
                // *hurt*, not that one would have helped).
                self.etd.clear();
                self.obs.on_automaton_flip(false);
            }
        }
    }
}

impl<O: Observer> EvictionPolicy for AclCore<O> {
    fn name(&self) -> &'static str {
        "ACL"
    }

    fn victim(&mut self, residents: &dyn Residents) -> Way {
        let lru = residents.lru();
        self.tracker.sync_to(Some((lru.block, lru.cost)));
        if self.automaton.enabled() {
            // DCL behaviour: reserve the LRU block if a cheaper block sits
            // above it.
            if let Some(e) = residents.lru_most_cheaper_than(self.tracker.acost()) {
                self.etd.insert(e.block, e.cost);
                if !self.automaton.reserved {
                    self.automaton.reserved = true;
                    self.obs.on_reserve(lru.block, e.block, e.cost);
                }
                self.obs.on_evict(e.block, e.cost);
                return e.way;
            }
            // The reserved block (if any) is evicted: the reservation failed.
            self.end_reservation_failure();
        } else if residents.lru_most_cheaper_than(lru.cost.0).is_some() {
            // Watch mode: remember the evicted LRU block if a reservation
            // *could* have been made (a cheaper block exists in the set).
            self.etd.insert(lru.block, lru.cost);
        }
        self.tracker.note_departure(lru.block);
        self.obs.on_evict(lru.block, lru.cost);
        lru.way
    }

    fn on_hit(&mut self, block: BlockAddr, _way: Way, cost: Cost, is_lru: bool) {
        if is_lru {
            if self.automaton.reserved {
                // The reserved block was re-referenced: success.
                self.automaton.counter = (self.automaton.counter + 1).min(COUNTER_MAX);
                self.automaton.reserved = false;
            }
            if self.automaton.enabled() {
                self.etd.clear();
            }
        }
        self.tracker.note_departure(block);
        self.obs.on_hit(block, cost);
    }

    fn on_miss(&mut self, block: BlockAddr, lru: Option<(BlockAddr, Cost)>) {
        self.obs.on_miss(block);
        if self.automaton.enabled() {
            if let Some(cost) = self.etd.probe_and_take(block) {
                self.tracker.sync_to(lru);
                let amount = cost.0.saturating_mul(self.factor);
                self.tracker.depreciate(Cost(amount));
                self.obs.on_etd_hit(block, cost);
                self.obs.on_depreciate(amount, self.tracker.acost());
            }
        } else if let Some(cost) = self.etd.probe_and_take(block) {
            // A watch hit: keeping the block would have saved its miss cost.
            // Enable reservations, hoping a streak of successes started.
            self.etd.clear();
            self.automaton.counter = TRIGGER_VALUE;
            self.obs.on_etd_hit(block, cost);
            self.obs.on_automaton_flip(true);
        }
    }

    fn on_remove(&mut self, block: BlockAddr, _way: Option<Way>) {
        self.etd.invalidate(block);
        if self.tracker.tracked() == Some(block) {
            // The reserved block disappeared without a hit: failure.
            self.end_reservation_failure();
        }
        self.tracker.note_departure(block);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_sim::{AccessType, Cache, SetIndex};

    fn cache(assoc: usize) -> Cache<AclCore> {
        let geom = Geometry::new(64 * assoc as u64, 64, assoc);
        Cache::new(geom, || AclCore::for_geometry(&geom))
    }

    const S0: SetIndex = SetIndex(0);

    #[test]
    fn starts_disabled_and_behaves_like_lru() {
        let mut c = cache(2);
        c.access(BlockAddr(0), AccessType::Read, Cost(8)); // high-cost LRU
        c.access(BlockAddr(1), AccessType::Read, Cost(1));
        c.access(BlockAddr(2), AccessType::Read, Cost(1));
        // Disabled: plain LRU evicts the high-cost block 0.
        assert!(!c.contains(BlockAddr(0)));
        assert!(!c.core(S0).enabled());
        assert_eq!(c.stats().non_lru_evictions, 0);
        // ...but block 0 entered the watch ETD (cheaper block 1 existed).
        assert_eq!(c.core(S0).etd().blocks(), vec![BlockAddr(0)]);
    }

    #[test]
    fn watch_hit_enables_reservations() {
        let mut c = cache(2);
        c.access(BlockAddr(0), AccessType::Read, Cost(8));
        c.access(BlockAddr(1), AccessType::Read, Cost(1));
        c.access(BlockAddr(2), AccessType::Read, Cost(1)); // LRU 0 evicted -> watch ETD
        c.access(BlockAddr(0), AccessType::Read, Cost(8)); // watch hit!
        assert!(c.core(S0).enabled());
        assert_eq!(c.core(S0).counter(), TRIGGER_VALUE);
        assert_eq!(c.core(S0).etd().stats().hits, 1, "one watch hit");
    }

    #[test]
    fn enabled_set_reserves_like_dcl() {
        let mut c = cache(2);
        // Warm up the automaton via a watch hit.
        c.access(BlockAddr(0), AccessType::Read, Cost(8));
        c.access(BlockAddr(1), AccessType::Read, Cost(1));
        c.access(BlockAddr(2), AccessType::Read, Cost(1));
        c.access(BlockAddr(0), AccessType::Read, Cost(8)); // enables; set = [0(MRU), 2]
                                                           // Make 0 the LRU again, then fill: reservation protects it now.
        c.access(BlockAddr(2), AccessType::Read, Cost(1)); // set = [2(MRU), 0]...
                                                           // (block 0 at LRU, enabled): next fill displaces 2 instead of 0.
        c.access(BlockAddr(3), AccessType::Read, Cost(1));
        assert!(
            c.contains(BlockAddr(0)),
            "enabled ACL must reserve the high-cost LRU block"
        );
        assert!(!c.contains(BlockAddr(2)));
        assert_eq!(c.stats().non_lru_evictions, 1);
    }

    #[test]
    fn success_increments_counter() {
        let mut c = cache(2);
        c.access(BlockAddr(0), AccessType::Read, Cost(8));
        c.access(BlockAddr(1), AccessType::Read, Cost(1));
        c.access(BlockAddr(2), AccessType::Read, Cost(1));
        c.access(BlockAddr(0), AccessType::Read, Cost(8)); // trigger: counter = 2
        c.access(BlockAddr(2), AccessType::Read, Cost(1)); // 0 back to LRU
        c.access(BlockAddr(3), AccessType::Read, Cost(1)); // reserve 0
        c.access(BlockAddr(0), AccessType::Read, Cost(8)); // hit reserved block: success
        assert_eq!(c.core(S0).counter(), 3);
    }

    #[test]
    fn failure_decrements_counter_until_disabled() {
        let geom = Geometry::new(128, 64, 2);
        let mut c = Cache::new(geom, || AclCore::for_geometry(&geom));
        // Enable via watch hit.
        c.access(BlockAddr(0), AccessType::Read, Cost(8));
        c.access(BlockAddr(1), AccessType::Read, Cost(1));
        c.access(BlockAddr(2), AccessType::Read, Cost(1));
        c.access(BlockAddr(0), AccessType::Read, Cost(8)); // counter = 2; set [0, 2]
                                                           // Two failed reservations in a row: 0 reserved, depreciated away by
                                                           // ETD hits, finally evicted. Alternate accesses to 1 and 2 so the
                                                           // displaced block always returns.
        let mut expect_counter = TRIGGER_VALUE;
        for _ in 0..2 {
            // Move 0 to LRU by touching the other resident block.
            let others: Vec<u64> = c
                .recency_of(S0)
                .iter()
                .map(|b| b.0)
                .filter(|&b| b != 0)
                .collect();
            c.access(BlockAddr(others[0]), AccessType::Read, Cost(1));
            // Reserve 0 by filling new cheap blocks and re-referencing the
            // displaced ones until Acost (8) is exhausted: each round trip
            // costs 2*1 = 2, so 4 ETD hits end the reservation.
            let mut fresh = 100 + expect_counter as u64 * 10;
            for _ in 0..4 {
                c.access(BlockAddr(fresh), AccessType::Read, Cost(1)); // displace cheap
                let displaced: Vec<u64> = c.core(S0).etd().blocks().iter().map(|b| b.0).collect();
                c.access(BlockAddr(displaced[0]), AccessType::Read, Cost(1)); // ETD hit
                fresh += 1;
            }
            // Acost now 0: next fill evicts the reserved block 0 => failure.
            c.access(BlockAddr(fresh + 1), AccessType::Read, Cost(1));
            assert!(!c.contains(BlockAddr(0)));
            expect_counter -= 1;
            assert_eq!(c.core(S0).counter(), expect_counter);
            // Bring 0 back for the next round.
            c.access(BlockAddr(0), AccessType::Read, Cost(8));
        }
        assert!(!c.core(S0).enabled());
    }

    #[test]
    fn invalidation_of_reserved_block_is_failure() {
        let mut c = cache(2);
        c.access(BlockAddr(0), AccessType::Read, Cost(8));
        c.access(BlockAddr(1), AccessType::Read, Cost(1));
        c.access(BlockAddr(2), AccessType::Read, Cost(1));
        c.access(BlockAddr(0), AccessType::Read, Cost(8)); // counter = 2
        c.access(BlockAddr(2), AccessType::Read, Cost(1)); // 0 to LRU
        c.access(BlockAddr(3), AccessType::Read, Cost(1)); // reserve 0
        assert_eq!(c.stats().non_lru_evictions, 1);
        c.invalidate(BlockAddr(0));
        assert_eq!(c.core(S0).counter(), 1);
    }

    #[test]
    fn uniform_costs_reduce_to_lru() {
        let mut c = cache(4);
        for b in [0u64, 4, 8, 12, 16, 20] {
            c.access(BlockAddr(b), AccessType::Read, Cost(3));
        }
        assert!(!c.contains(BlockAddr(0)));
        assert!(!c.contains(BlockAddr(4)));
        assert_eq!(c.stats().non_lru_evictions, 0);
        assert_eq!(c.core(S0).etd().stats().allocations, 0, "no watch insert");
    }
}
