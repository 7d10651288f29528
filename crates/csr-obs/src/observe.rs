//! The policy decision-event layer.
//!
//! An [`Observer`] receives the individual decisions a replacement policy
//! makes — hits, misses, evictions, reservations, depreciations, ETD hits,
//! ACL automaton flips — as they happen. The `csr` policy cores are generic
//! over an observer that defaults to [`NopObserver`], so an unobserved core
//! monomorphizes to exactly the pre-observability code; attaching an
//! [`EventTracer`] (bounded ring buffer), a [`CountingObserver`] (per-kind
//! totals), or a [`MetricsObserver`] (registry counters) turns the stream
//! on without touching the policy logic.
//!
//! All methods take `&self` so one observer can be shared — `Arc`-cloned —
//! across every set of a simulated cache or every shard of a concurrent
//! one; implementations are responsible for their own synchronization.

use crate::metrics::Counter;
use crate::registry::Registry;
use cache_sim::{BlockAddr, Cost};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Receiver of replacement-policy decision events.
///
/// Every method has a no-op default, so an implementation overrides only
/// the events it cares about. The policy cores keep no counters of their
/// own — this stream is their only accounting channel — and for any
/// reference stream the hit/miss/evict event counts equal the driving
/// cache's own `CacheStats` counters.
pub trait Observer {
    /// An access hit `block` (cost as stored at fill time).
    fn on_hit(&self, block: BlockAddr, cost: Cost) {
        let _ = (block, cost);
    }

    /// An access to `block` missed.
    fn on_miss(&self, block: BlockAddr) {
        let _ = block;
    }

    /// `block` was selected for eviction (any victim, LRU or not).
    fn on_evict(&self, block: BlockAddr, cost: Cost) {
        let _ = (block, cost);
    }

    /// A reservation: the LRU block `reserved` was spared and the cheaper
    /// `victim` (cost `victim_cost`) evicted in its place. For GreedyDual
    /// this reports any non-LRU victim selection (`reserved` is the LRU
    /// block it spared).
    fn on_reserve(&self, reserved: BlockAddr, victim: BlockAddr, victim_cost: Cost) {
        let _ = (reserved, victim, victim_cost);
    }

    /// The reserved block's depreciated cost `Acost` dropped by `amount`
    /// to `remaining`.
    fn on_depreciate(&self, amount: u64, remaining: u64) {
        let _ = (amount, remaining);
    }

    /// A miss on `block` hit the Extended Tag Directory: a block displaced
    /// by a reservation was re-referenced (DCL/ACL) or a watch-mode entry
    /// fired (ACL).
    fn on_etd_hit(&self, block: BlockAddr, cost: Cost) {
        let _ = (block, cost);
    }

    /// The ACL automaton crossed the enabled/disabled boundary.
    fn on_automaton_flip(&self, enabled: bool) {
        let _ = enabled;
    }
}

/// The default observer: every event is a no-op that the compiler removes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NopObserver;

impl Observer for NopObserver {}

impl<O: Observer + ?Sized> Observer for Arc<O> {
    fn on_hit(&self, block: BlockAddr, cost: Cost) {
        (**self).on_hit(block, cost);
    }
    fn on_miss(&self, block: BlockAddr) {
        (**self).on_miss(block);
    }
    fn on_evict(&self, block: BlockAddr, cost: Cost) {
        (**self).on_evict(block, cost);
    }
    fn on_reserve(&self, reserved: BlockAddr, victim: BlockAddr, victim_cost: Cost) {
        (**self).on_reserve(reserved, victim, victim_cost);
    }
    fn on_depreciate(&self, amount: u64, remaining: u64) {
        (**self).on_depreciate(amount, remaining);
    }
    fn on_etd_hit(&self, block: BlockAddr, cost: Cost) {
        (**self).on_etd_hit(block, cost);
    }
    fn on_automaton_flip(&self, enabled: bool) {
        (**self).on_automaton_flip(enabled);
    }
}

/// Fan-out: both observers receive every event (compose freely:
/// `((a, b), c)`).
impl<A: Observer, B: Observer> Observer for (A, B) {
    fn on_hit(&self, block: BlockAddr, cost: Cost) {
        self.0.on_hit(block, cost);
        self.1.on_hit(block, cost);
    }
    fn on_miss(&self, block: BlockAddr) {
        self.0.on_miss(block);
        self.1.on_miss(block);
    }
    fn on_evict(&self, block: BlockAddr, cost: Cost) {
        self.0.on_evict(block, cost);
        self.1.on_evict(block, cost);
    }
    fn on_reserve(&self, reserved: BlockAddr, victim: BlockAddr, victim_cost: Cost) {
        self.0.on_reserve(reserved, victim, victim_cost);
        self.1.on_reserve(reserved, victim, victim_cost);
    }
    fn on_depreciate(&self, amount: u64, remaining: u64) {
        self.0.on_depreciate(amount, remaining);
        self.1.on_depreciate(amount, remaining);
    }
    fn on_etd_hit(&self, block: BlockAddr, cost: Cost) {
        self.0.on_etd_hit(block, cost);
        self.1.on_etd_hit(block, cost);
    }
    fn on_automaton_flip(&self, enabled: bool) {
        self.0.on_automaton_flip(enabled);
        self.1.on_automaton_flip(enabled);
    }
}

/// One recorded policy decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecisionEvent {
    /// Hit on a resident block.
    Hit {
        /// The block that hit.
        block: BlockAddr,
        /// Its fill-time cost.
        cost: Cost,
    },
    /// Miss.
    Miss {
        /// The missing block.
        block: BlockAddr,
    },
    /// Victim selection.
    Evict {
        /// The evicted block.
        block: BlockAddr,
        /// Its fill-time cost.
        cost: Cost,
    },
    /// Reservation of the LRU block.
    Reserve {
        /// The spared LRU block.
        reserved: BlockAddr,
        /// The cheaper block evicted in its place.
        victim: BlockAddr,
        /// The victim's cost.
        victim_cost: Cost,
    },
    /// Depreciation of the reserved block's `Acost`.
    Depreciate {
        /// How much was subtracted.
        amount: u64,
        /// The remaining `Acost`.
        remaining: u64,
    },
    /// A miss matched an ETD entry.
    EtdHit {
        /// The re-referenced block.
        block: BlockAddr,
        /// The cost it was displaced with.
        cost: Cost,
    },
    /// The ACL automaton flipped.
    AutomatonFlip {
        /// Whether reservations are now enabled.
        enabled: bool,
    },
}

impl DecisionEvent {
    /// A short kind label ("hit", "reserve", ...).
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            DecisionEvent::Hit { .. } => "hit",
            DecisionEvent::Miss { .. } => "miss",
            DecisionEvent::Evict { .. } => "evict",
            DecisionEvent::Reserve { .. } => "reserve",
            DecisionEvent::Depreciate { .. } => "depreciate",
            DecisionEvent::EtdHit { .. } => "etd_hit",
            DecisionEvent::AutomatonFlip { .. } => "automaton_flip",
        }
    }
}

/// A [`DecisionEvent`] plus its global sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TracedEvent {
    /// 0-based position in the event stream (gaps never occur; dropped
    /// events are the *oldest*, so `seq` of retained events stays dense).
    pub seq: u64,
    /// The event.
    pub event: DecisionEvent,
}

struct TracerState {
    buf: VecDeque<TracedEvent>,
    next_seq: u64,
    dropped: u64,
}

/// A bounded ring-buffer [`Observer`]: keeps the most recent `capacity`
/// events and counts how many older ones were dropped.
///
/// Wrap it in an `Arc` to share across sets/shards:
///
/// ```
/// use csr_obs::EventTracer;
/// use std::sync::Arc;
///
/// let tracer = Arc::new(EventTracer::new(1024));
/// // ... attach Arc::clone(&tracer) to a policy core, run a workload ...
/// for ev in tracer.events() {
///     println!("{:>6}  {:?}", ev.seq, ev.event);
/// }
/// ```
pub struct EventTracer {
    state: Mutex<TracerState>,
    capacity: usize,
}

impl EventTracer {
    /// A tracer retaining the last `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "tracer capacity must be positive");
        EventTracer {
            state: Mutex::new(TracerState {
                buf: VecDeque::with_capacity(capacity),
                next_seq: 0,
                dropped: 0,
            }),
            capacity,
        }
    }

    fn push(&self, event: DecisionEvent) {
        let mut st = self.state.lock().expect("tracer lock poisoned");
        if st.buf.len() == self.capacity {
            st.buf.pop_front();
            st.dropped += 1;
        }
        let seq = st.next_seq;
        st.next_seq += 1;
        st.buf.push_back(TracedEvent { seq, event });
    }

    /// The retained events, oldest first.
    #[must_use]
    pub fn events(&self) -> Vec<TracedEvent> {
        self.state
            .lock()
            .expect("tracer lock poisoned")
            .buf
            .iter()
            .copied()
            .collect()
    }

    /// Total events observed (retained + dropped).
    #[must_use]
    pub fn total(&self) -> u64 {
        self.state.lock().expect("tracer lock poisoned").next_seq
    }

    /// Events evicted from the ring to make room.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.state.lock().expect("tracer lock poisoned").dropped
    }

    /// Maximum retained events.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

impl Observer for EventTracer {
    fn on_hit(&self, block: BlockAddr, cost: Cost) {
        self.push(DecisionEvent::Hit { block, cost });
    }
    fn on_miss(&self, block: BlockAddr) {
        self.push(DecisionEvent::Miss { block });
    }
    fn on_evict(&self, block: BlockAddr, cost: Cost) {
        self.push(DecisionEvent::Evict { block, cost });
    }
    fn on_reserve(&self, reserved: BlockAddr, victim: BlockAddr, victim_cost: Cost) {
        self.push(DecisionEvent::Reserve {
            reserved,
            victim,
            victim_cost,
        });
    }
    fn on_depreciate(&self, amount: u64, remaining: u64) {
        self.push(DecisionEvent::Depreciate { amount, remaining });
    }
    fn on_etd_hit(&self, block: BlockAddr, cost: Cost) {
        self.push(DecisionEvent::EtdHit { block, cost });
    }
    fn on_automaton_flip(&self, enabled: bool) {
        self.push(DecisionEvent::AutomatonFlip { enabled });
    }
}

/// Plain per-kind event totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventCounts {
    /// `on_hit` deliveries.
    pub hits: u64,
    /// `on_miss` deliveries.
    pub misses: u64,
    /// `on_evict` deliveries.
    pub evictions: u64,
    /// `on_reserve` deliveries.
    pub reservations: u64,
    /// `on_depreciate` deliveries.
    pub depreciations: u64,
    /// `on_etd_hit` deliveries.
    pub etd_hits: u64,
    /// `on_automaton_flip` deliveries.
    pub automaton_flips: u64,
}

/// An [`Observer`] that only counts events, per kind — the cheapest way to
/// check a run's decision profile (and what the equivalence tests compare
/// against the driving cache's statistics).
#[derive(Debug, Default)]
pub struct CountingObserver {
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    reservations: AtomicU64,
    depreciations: AtomicU64,
    etd_hits: AtomicU64,
    automaton_flips: AtomicU64,
}

impl CountingObserver {
    /// Creates a counting observer at zero.
    #[must_use]
    pub fn new() -> Self {
        CountingObserver::default()
    }

    /// The current totals.
    #[must_use]
    pub fn counts(&self) -> EventCounts {
        EventCounts {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            reservations: self.reservations.load(Ordering::Relaxed),
            depreciations: self.depreciations.load(Ordering::Relaxed),
            etd_hits: self.etd_hits.load(Ordering::Relaxed),
            automaton_flips: self.automaton_flips.load(Ordering::Relaxed),
        }
    }
}

impl Observer for CountingObserver {
    fn on_hit(&self, _block: BlockAddr, _cost: Cost) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }
    fn on_miss(&self, _block: BlockAddr) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }
    fn on_evict(&self, _block: BlockAddr, _cost: Cost) {
        self.evictions.fetch_add(1, Ordering::Relaxed);
    }
    fn on_reserve(&self, _reserved: BlockAddr, _victim: BlockAddr, _victim_cost: Cost) {
        self.reservations.fetch_add(1, Ordering::Relaxed);
    }
    fn on_depreciate(&self, _amount: u64, _remaining: u64) {
        self.depreciations.fetch_add(1, Ordering::Relaxed);
    }
    fn on_etd_hit(&self, _block: BlockAddr, _cost: Cost) {
        self.etd_hits.fetch_add(1, Ordering::Relaxed);
    }
    fn on_automaton_flip(&self, _enabled: bool) {
        self.automaton_flips.fetch_add(1, Ordering::Relaxed);
    }
}

/// An [`Observer`] that feeds a [`Registry`]: one
/// `csr_policy_events_total{policy=..., event=...}` counter per event kind.
pub struct MetricsObserver {
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    evictions: Arc<Counter>,
    reservations: Arc<Counter>,
    depreciations: Arc<Counter>,
    etd_hits: Arc<Counter>,
    automaton_flips: Arc<Counter>,
}

impl MetricsObserver {
    /// The family name registered by [`MetricsObserver::new`].
    pub const FAMILY: &'static str = "csr_policy_events_total";

    /// Registers the event counters for `policy` (the label value) in
    /// `registry`.
    #[must_use]
    pub fn new(registry: &Registry, policy: &str) -> Self {
        let help = "Replacement-policy decision events by kind";
        let c = |event: &str| {
            registry.counter(Self::FAMILY, help, &[("policy", policy), ("event", event)])
        };
        MetricsObserver {
            hits: c("hit"),
            misses: c("miss"),
            evictions: c("evict"),
            reservations: c("reserve"),
            depreciations: c("depreciate"),
            etd_hits: c("etd_hit"),
            automaton_flips: c("automaton_flip"),
        }
    }
}

impl Observer for MetricsObserver {
    fn on_hit(&self, _block: BlockAddr, _cost: Cost) {
        self.hits.inc();
    }
    fn on_miss(&self, _block: BlockAddr) {
        self.misses.inc();
    }
    fn on_evict(&self, _block: BlockAddr, _cost: Cost) {
        self.evictions.inc();
    }
    fn on_reserve(&self, _reserved: BlockAddr, _victim: BlockAddr, _victim_cost: Cost) {
        self.reservations.inc();
    }
    fn on_depreciate(&self, _amount: u64, _remaining: u64) {
        self.depreciations.inc();
    }
    fn on_etd_hit(&self, _block: BlockAddr, _cost: Cost) {
        self.etd_hits.inc();
    }
    fn on_automaton_flip(&self, _enabled: bool) {
        self.automaton_flips.inc();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(n: u64) -> BlockAddr {
        BlockAddr(n)
    }

    #[test]
    fn nop_observer_does_nothing() {
        let o = NopObserver;
        o.on_hit(b(1), Cost(2));
        o.on_miss(b(1));
        o.on_evict(b(1), Cost(2));
        o.on_reserve(b(1), b(2), Cost(3));
        o.on_depreciate(4, 2);
        o.on_etd_hit(b(1), Cost(2));
        o.on_automaton_flip(true);
    }

    #[test]
    fn tracer_keeps_recent_events_with_dense_seq() {
        let t = EventTracer::new(3);
        for i in 0..5u64 {
            t.on_miss(b(i));
        }
        let evs = t.events();
        assert_eq!(evs.len(), 3);
        assert_eq!(t.total(), 5);
        assert_eq!(t.dropped(), 2);
        assert_eq!(t.capacity(), 3);
        let seqs: Vec<u64> = evs.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, [2, 3, 4]);
        assert_eq!(evs[0].event, DecisionEvent::Miss { block: b(2) });
    }

    #[test]
    fn event_kinds_are_distinct() {
        let t = EventTracer::new(16);
        t.on_hit(b(1), Cost(2));
        t.on_miss(b(1));
        t.on_evict(b(1), Cost(2));
        t.on_reserve(b(1), b(2), Cost(3));
        t.on_depreciate(4, 2);
        t.on_etd_hit(b(1), Cost(2));
        t.on_automaton_flip(true);
        let kinds: Vec<&str> = t.events().iter().map(|e| e.event.kind()).collect();
        assert_eq!(
            kinds,
            [
                "hit",
                "miss",
                "evict",
                "reserve",
                "depreciate",
                "etd_hit",
                "automaton_flip"
            ]
        );
    }

    #[test]
    fn counting_observer_counts_and_arc_delegates() {
        let c = Arc::new(CountingObserver::new());
        let via_arc: &dyn Observer = &c;
        via_arc.on_hit(b(1), Cost(1));
        via_arc.on_miss(b(2));
        via_arc.on_miss(b(3));
        via_arc.on_evict(b(2), Cost(1));
        via_arc.on_reserve(b(1), b(2), Cost(1));
        via_arc.on_depreciate(2, 0);
        via_arc.on_etd_hit(b(2), Cost(1));
        via_arc.on_automaton_flip(false);
        let counts = c.counts();
        assert_eq!(counts.hits, 1);
        assert_eq!(counts.misses, 2);
        assert_eq!(counts.evictions, 1);
        assert_eq!(counts.reservations, 1);
        assert_eq!(counts.depreciations, 1);
        assert_eq!(counts.etd_hits, 1);
        assert_eq!(counts.automaton_flips, 1);
    }

    #[test]
    fn pair_observer_fans_out() {
        let a = Arc::new(CountingObserver::new());
        let t = Arc::new(EventTracer::new(8));
        let pair = (Arc::clone(&a), Arc::clone(&t));
        pair.on_hit(b(1), Cost(5));
        pair.on_reserve(b(1), b(2), Cost(1));
        pair.on_miss(b(9));
        pair.on_evict(b(3), Cost(1));
        pair.on_depreciate(1, 0);
        pair.on_etd_hit(b(4), Cost(2));
        pair.on_automaton_flip(true);
        assert_eq!(a.counts().hits, 1);
        assert_eq!(a.counts().reservations, 1);
        assert_eq!(t.total(), 7);
    }

    #[test]
    fn metrics_observer_feeds_registry() {
        let r = Registry::new();
        let m = MetricsObserver::new(&r, "DCL");
        m.on_hit(b(1), Cost(1));
        m.on_miss(b(1));
        m.on_evict(b(1), Cost(1));
        m.on_reserve(b(1), b(2), Cost(1));
        m.on_reserve(b(1), b(3), Cost(1));
        m.on_depreciate(1, 1);
        m.on_etd_hit(b(1), Cost(1));
        m.on_automaton_flip(true);
        let snap = r.snapshot();
        let fam = snap.family(MetricsObserver::FAMILY).unwrap();
        let count_of = |event: &str| {
            fam.sample_with(&[("policy", "DCL"), ("event", event)])
                .and_then(|s| s.value.as_counter())
                .unwrap()
        };
        assert_eq!(count_of("hit"), 1);
        assert_eq!(count_of("reserve"), 2);
        assert_eq!(count_of("automaton_flip"), 1);
    }
}
