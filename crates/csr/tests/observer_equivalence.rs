//! The decision-event stream is the cores' only accounting channel, so it
//! must agree exactly with what the driver saw: for every observed core,
//! `hit`/`miss`/`evict`/`reserve` events mirror the simulator's
//! [`cache_sim::CacheStats`] `hits`/`misses`/`evictions`/`non_lru_evictions`,
//! and `etd_hit`/`depreciate`/`automaton_flip` events mirror the ETD's own
//! structure counters.

use cache_sim::{AccessType, BlockAddr, Cache, Cost, EvictionPolicy, Geometry, SetIndex};
use csr::{AclCore, BclCore, CampCore, DclCore, EtdSet, EtdStats, GdCore, GdsfCore, S3FifoCore};
use csr_obs::{CountingObserver, DecisionEvent, EventCounts, EventTracer};
use std::sync::Arc;

/// A deterministic access stream mixing high- and low-cost blocks with
/// enough re-use to exercise reservations, ETD hits and ACL triggers.
fn reference_stream() -> Vec<(BlockAddr, Cost)> {
    let mut state: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut step = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    let mut out = Vec::with_capacity(20_000);
    for _ in 0..20_000 {
        let r = step();
        // 160 distinct blocks over 16 sets x 4 ways: heavy conflict with
        // frequent re-use.
        let block = BlockAddr(r % 160);
        // Every sixth block is expensive, as in the paper's bimodal setups.
        let cost = if block.0.is_multiple_of(6) {
            Cost(8)
        } else {
            Cost(1)
        };
        out.push((block, cost));
    }
    out
}

fn geom() -> Geometry {
    // 16 sets x 4 ways of 64-byte blocks.
    Geometry::new(4 * 1024, 64, 4)
}

/// Runs a cache of `core`s (observed by `obs`) over the reference stream
/// and checks the hit/miss/evict event totals against the simulator's stats.
fn run<C: EvictionPolicy>(
    core: impl FnMut() -> C,
    obs: &CountingObserver,
) -> (EventCounts, Cache<C>) {
    let mut cache = Cache::new(geom(), core);
    for &(block, cost) in &reference_stream() {
        cache.access(block, AccessType::Read, cost);
    }
    let counts = obs.counts();
    let sim = cache.stats();
    let name = cache.core(SetIndex(0)).name();
    assert_eq!(counts.hits, sim.hits, "{name}: hit events");
    assert_eq!(counts.misses, sim.misses, "{name}: miss events");
    assert_eq!(counts.evictions, sim.evictions, "{name}: evict events");
    (counts, cache)
}

/// The ETD statistics of every set, folded.
fn etd_stats<C: EvictionPolicy>(cache: &Cache<C>, etd: impl Fn(&C) -> &EtdSet) -> EtdStats {
    let mut total = EtdStats::default();
    for core in cache.cores() {
        total.merge(etd(core).stats());
    }
    total
}

/// A core that ranks blocks (or queues them) and has neither `Acost` nor an
/// ETD: every non-LRU pick is reported as a reservation, nothing else fires.
fn check_rank_core<C: EvictionPolicy>(observed: impl Fn(Arc<CountingObserver>) -> C) {
    let obs = Arc::new(CountingObserver::new());
    let (counts, cache) = run(|| observed(Arc::clone(&obs)), &obs);
    let name = cache.core(SetIndex(0)).name();
    assert_eq!(
        counts.reservations,
        cache.stats().non_lru_evictions,
        "{name}: reserve events == non-LRU evictions"
    );
    assert!(counts.reservations > 0, "{name}: no non-LRU pick exercised");
    assert_eq!(counts.depreciations, 0, "{name} never depreciates");
    assert_eq!(counts.etd_hits, 0, "{name} has no ETD");
    assert_eq!(counts.automaton_flips, 0, "{name} has no automaton");
}

#[test]
fn rank_and_queue_core_events_match_the_simulator() {
    let ways = geom().assoc();
    check_rank_core(|o| GdCore::new(ways).with_observer(o));
    check_rank_core(|o| S3FifoCore::new(ways).with_observer(o));
    check_rank_core(|o| GdsfCore::new(ways).with_observer(o));
    check_rank_core(|o| CampCore::new(ways).with_observer(o));
}

#[test]
fn bcl_events_match_the_simulator() {
    let obs = Arc::new(CountingObserver::new());
    let (counts, cache) = run(|| BclCore::new().with_observer(Arc::clone(&obs)), &obs);
    assert_eq!(counts.reservations, cache.stats().non_lru_evictions);
    assert_eq!(
        counts.depreciations, counts.reservations,
        "BCL depreciates immediately on every reservation"
    );
    assert!(counts.reservations > 0, "stream must exercise reservations");
    assert_eq!(counts.etd_hits, 0, "BCL has no ETD");
}

#[test]
fn dcl_events_match_the_simulator() {
    let obs = Arc::new(CountingObserver::new());
    let core = || DclCore::for_geometry(&geom()).with_observer(Arc::clone(&obs));
    let (counts, cache) = run(core, &obs);
    assert_eq!(counts.reservations, cache.stats().non_lru_evictions);
    assert_eq!(counts.etd_hits, etd_stats(&cache, DclCore::etd).hits);
    assert_eq!(
        counts.depreciations, counts.etd_hits,
        "DCL depreciates on every ETD hit and only then"
    );
    assert!(counts.reservations > 0, "stream must exercise reservations");
    assert!(counts.etd_hits > 0, "stream must exercise ETD hits");
    assert_eq!(counts.automaton_flips, 0, "DCL has no automaton");
}

#[test]
fn acl_events_match_the_simulator() {
    // ACL needs the tracer too: which way the automaton flipped is what
    // separates a watch-mode trigger from a depreciating ETD hit, and a flat
    // flip count cannot show it.
    let counting = Arc::new(CountingObserver::new());
    let tracer = Arc::new(EventTracer::new(1 << 20));
    let obs = (Arc::clone(&counting), Arc::clone(&tracer));
    let core = || AclCore::for_geometry(&geom()).with_observer(obs.clone());
    let (counts, cache) = run(core, &counting);
    assert_eq!(counts.etd_hits, etd_stats(&cache, AclCore::etd).hits);
    assert_eq!(tracer.dropped(), 0, "trace capacity must hold the full run");

    // ACL reports a reservation once, when it starts; the non-LRU evictions
    // that extend it are plain evictions. So its `reserve` count is the
    // number of reservation streaks: each opens with the eviction of its
    // cheaper victim, stays open until the reserved block hits or is
    // evicted, and the other evictions inside streaks are exactly the
    // simulator's non-LRU evictions.
    let g = geom();
    let mut open: Vec<Option<BlockAddr>> = vec![None; g.num_sets()];
    let mut opening_victim = None;
    let mut streaks = 0;
    let mut evictions_in_streaks = 0;
    let mut enabled_flips = 0;
    let mut disabled_flips = 0;
    for t in tracer.events() {
        if let Some(victim) = opening_victim.take() {
            assert!(
                matches!(t.event, DecisionEvent::Evict { block, .. } if block == victim),
                "a reservation opens with its victim's eviction, got {:?}",
                t.event
            );
        }
        match t.event {
            DecisionEvent::Reserve {
                reserved, victim, ..
            } => {
                let slot = &mut open[g.set_of(reserved).0];
                assert_eq!(*slot, None, "one reserve event per streak");
                assert_ne!(reserved, victim);
                *slot = Some(reserved);
                opening_victim = Some(victim);
                streaks += 1;
            }
            DecisionEvent::Hit { block, .. } => {
                let slot = &mut open[g.set_of(block).0];
                if *slot == Some(block) {
                    *slot = None; // success
                }
            }
            DecisionEvent::Evict { block, .. } => {
                let slot = &mut open[g.set_of(block).0];
                if *slot == Some(block) {
                    *slot = None; // failure
                } else if slot.is_some() {
                    evictions_in_streaks += 1;
                }
            }
            DecisionEvent::AutomatonFlip { enabled: true } => enabled_flips += 1,
            DecisionEvent::AutomatonFlip { enabled: false } => disabled_flips += 1,
            _ => {}
        }
    }
    assert!(streaks > 1, "stream must exercise reservations");
    assert_eq!(counts.reservations, streaks);
    assert_eq!(
        evictions_in_streaks,
        cache.stats().non_lru_evictions,
        "every non-LRU eviction lies inside a reported streak"
    );
    assert!(
        streaks < evictions_in_streaks,
        "stream must exercise a reservation that outlasts one eviction"
    );

    assert!(
        enabled_flips > 0,
        "stream must exercise watch-mode triggers"
    );
    assert_eq!(
        counts.etd_hits,
        counts.depreciations + enabled_flips,
        "enabled ETD hits depreciate; watch-mode ETD hits trigger"
    );
    assert_eq!(
        enabled_flips + disabled_flips,
        counts.automaton_flips,
        "the tracer and counter see the same flip stream"
    );
}

#[test]
fn traced_events_are_densely_numbered() {
    let tracer = Arc::new(EventTracer::new(256));
    let geom = geom();
    let mut cache = Cache::new(geom, || {
        DclCore::for_geometry(&geom).with_observer(Arc::clone(&tracer))
    });
    for &(block, cost) in reference_stream().iter().take(2_000) {
        cache.access(block, AccessType::Read, cost);
    }
    let events = tracer.events();
    assert_eq!(events.len() as u64 + tracer.dropped(), tracer.total());
    for pair in events.windows(2) {
        assert_eq!(pair[1].seq, pair[0].seq + 1, "seq numbers stay dense");
    }
}
