//! Decision-event traces must agree exactly with the policies' own
//! statistics counters: every `reserve`/`depreciate`/`etd_hit` event
//! corresponds one-to-one to a counter increment, and hit/miss/evict
//! events mirror the simulator's [`cache_sim::CacheStats`].

use cache_sim::{AccessType, BlockAddr, Cache, Cost, Geometry};
use csr::{Acl, Bcl, Dcl, GreedyDual};
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

/// Runs `cache` over the reference stream and checks the observer's
/// hit/miss/evict totals against the simulator's stats.
fn run_and_check_sim_counts<P: cache_sim::ReplacementPolicy>(
    cache: &mut Cache<P>,
    obs: &CountingObserver,
) -> EventCounts {
    for &(block, cost) in &reference_stream() {
        cache.access(block, AccessType::Read, cost);
    }
    let counts = obs.counts();
    let sim = cache.stats();
    assert_eq!(counts.hits, sim.hits, "hit events == simulator hits");
    assert_eq!(counts.misses, sim.misses, "miss events == simulator misses");
    assert_eq!(
        counts.evictions, sim.evictions,
        "evict events == simulator evictions"
    );
    counts
}

#[test]
fn gd_events_match_stats() {
    let obs = Arc::new(CountingObserver::new());
    let geom = geom();
    let mut cache = Cache::new(geom, GreedyDual::new(&geom).with_observer(Arc::clone(&obs)));
    let counts = run_and_check_sim_counts(&mut cache, &obs);
    let stats = cache.policy().stats();
    assert_eq!(counts.evictions, stats.victims);
    assert_eq!(counts.reservations, stats.non_lru_victims);
    assert_eq!(counts.reservations, cache.stats().non_lru_evictions);
    assert!(
        counts.reservations > 0,
        "stream must exercise non-LRU picks"
    );
    assert_eq!(counts.depreciations, 0, "GD never depreciates");
    assert_eq!(counts.etd_hits, 0, "GD has no ETD");
}

#[test]
fn bcl_events_match_stats() {
    let obs = Arc::new(CountingObserver::new());
    let geom = geom();
    let mut cache = Cache::new(geom, Bcl::new(&geom).with_observer(Arc::clone(&obs)));
    let counts = run_and_check_sim_counts(&mut cache, &obs);
    let stats = cache.policy().stats();
    assert_eq!(counts.reservations, stats.reservations);
    assert_eq!(
        counts.depreciations, stats.reservations,
        "BCL depreciates immediately on every reservation"
    );
    assert_eq!(
        counts.evictions,
        stats.reservations + stats.lru_evictions,
        "every victim() call is either a reservation or an LRU eviction"
    );
    assert!(counts.reservations > 0, "stream must exercise reservations");
    assert_eq!(counts.etd_hits, 0, "BCL has no ETD");
}

#[test]
fn dcl_events_match_stats() {
    let obs = Arc::new(CountingObserver::new());
    let geom = geom();
    let mut cache = Cache::new(geom, Dcl::new(&geom).with_observer(Arc::clone(&obs)));
    let counts = run_and_check_sim_counts(&mut cache, &obs);
    let stats = cache.policy().stats();
    assert_eq!(counts.reservations, stats.reservations);
    assert_eq!(counts.etd_hits, stats.depreciations);
    assert_eq!(counts.depreciations, stats.depreciations);
    assert_eq!(counts.evictions, stats.reservations + stats.lru_evictions);
    assert!(counts.reservations > 0, "stream must exercise reservations");
    assert!(counts.etd_hits > 0, "stream must exercise ETD hits");
    assert_eq!(counts.automaton_flips, 0, "DCL has no automaton");
}

#[test]
fn acl_events_match_stats() {
    // ACL needs the tracer too: `AutomatonFlip { enabled: true }` events
    // must equal the trigger counter, which a flat flip count cannot show.
    let counting = Arc::new(CountingObserver::new());
    let tracer = Arc::new(EventTracer::new(1 << 20));
    let obs = (Arc::clone(&counting), Arc::clone(&tracer));
    let geom = geom();
    let mut cache = Cache::new(geom, Acl::new(&geom).with_observer(obs));
    let counts = run_and_check_sim_counts(&mut cache, &counting);
    let stats = cache.policy().stats();
    assert_eq!(counts.reservations, stats.reservations);
    assert_eq!(counts.depreciations, stats.depreciations);
    assert_eq!(
        counts.etd_hits,
        stats.depreciations + stats.triggers,
        "enabled ETD hits depreciate; watch-mode ETD hits trigger"
    );
    assert!(counts.reservations > 0, "stream must exercise reservations");
    assert!(
        stats.triggers > 0,
        "stream must exercise watch-mode triggers"
    );

    assert_eq!(tracer.dropped(), 0, "trace capacity must hold the full run");
    let mut enabled_flips = 0;
    let mut disabled_flips = 0;
    for t in tracer.events() {
        if let DecisionEvent::AutomatonFlip { enabled } = t.event {
            if enabled {
                enabled_flips += 1;
            } else {
                disabled_flips += 1;
            }
        }
    }
    assert_eq!(
        enabled_flips, stats.triggers,
        "one enabled flip per trigger"
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
    let mut cache = Cache::new(geom, Dcl::new(&geom).with_observer(Arc::clone(&tracer)));
    for &(block, cost) in reference_stream().iter().take(2_000) {
        cache.access(block, AccessType::Read, cost);
    }
    let events = tracer.events();
    assert_eq!(events.len() as u64 + tracer.dropped(), tracer.total());
    for pair in events.windows(2) {
        assert_eq!(pair[1].seq, pair[0].seq + 1, "seq numbers stay dense");
    }
}
