//! Edge cases of ACL's 2-bit automaton and the Extended Tag Directory:
//!
//! * the re-enable path: a set whose automaton has decayed to *disabled*
//!   must come back through watch mode — and only through a genuine watch
//!   hit, never through stale entries left by the failed reservations;
//! * ETD capacity is `s - 1`: the oldest record is dropped on overflow and
//!   a zero-entry directory degenerates to a no-op;
//! * depreciation fires only on an *actual* re-reference of a displaced
//!   block, not on arbitrary misses.

use cache_sim::{AccessType, BlockAddr, Cache, Cost, Geometry, SetIndex};
use csr::etd::{EtdConfig, EtdSet};
use csr::{AclCore, DclCore};

const S0: SetIndex = SetIndex(0);

/// One 2-way set driven by ACL.
fn acl_cache() -> Cache<AclCore> {
    let geom = Geometry::new(128, 64, 2);
    Cache::new(geom, || AclCore::for_geometry(&geom))
}

/// Enables reservations via a watch hit: high-cost block 0 is evicted by
/// plain LRU, watched, then re-referenced. Leaves the set as [0 (MRU), x].
fn enable_via_watch_hit(c: &mut Cache<AclCore>) {
    c.access(BlockAddr(0), AccessType::Read, Cost(8));
    c.access(BlockAddr(1), AccessType::Read, Cost(1));
    c.access(BlockAddr(2), AccessType::Read, Cost(1)); // LRU 0 evicted, watched
    c.access(BlockAddr(0), AccessType::Read, Cost(8)); // watch hit: counter = 2
    assert!(c.core(S0).enabled());
}

/// Runs one full failed reservation of block 0 (cost 8): moves 0 to the
/// LRU position, reserves it, exhausts its Acost through detected
/// re-references of the displaced cheap blocks, and finally evicts it.
fn fail_one_reservation(c: &mut Cache<AclCore>, mut fresh: u64) {
    let others: Vec<u64> = c
        .recency_of(S0)
        .iter()
        .map(|b| b.0)
        .filter(|&b| b != 0)
        .collect();
    c.access(BlockAddr(others[0]), AccessType::Read, Cost(1)); // 0 to LRU
    for _ in 0..4 {
        c.access(BlockAddr(fresh), AccessType::Read, Cost(1)); // displace cheap
        let displaced: Vec<u64> = c.core(S0).etd().blocks().iter().map(|b| b.0).collect();
        c.access(BlockAddr(displaced[0]), AccessType::Read, Cost(1)); // detected re-ref
        fresh += 1;
    }
    c.access(BlockAddr(fresh + 1), AccessType::Read, Cost(1)); // evicts reserved 0
    assert!(!c.contains(BlockAddr(0)));
    c.access(BlockAddr(0), AccessType::Read, Cost(8)); // bring 0 back
}

#[test]
fn disabled_set_reenables_only_through_a_watch_hit() {
    let mut c = acl_cache();
    enable_via_watch_hit(&mut c);
    fail_one_reservation(&mut c, 100);
    fail_one_reservation(&mut c, 200);
    assert!(!c.core(S0).enabled(), "two failures must disable the set");
    assert_eq!(c.core(S0).counter(), 0);

    // The transition into watch mode cleared the directory: entries from
    // the failed reservation are evidence reservations *hurt* and must not
    // masquerade as watch hits.
    assert!(
        c.core(S0).etd().is_empty(),
        "ETD must be flushed on disable"
    );

    // While disabled the set behaves like LRU: the expensive block is NOT
    // reserved, even though a cheaper block sits above it.
    let cheap: Vec<u64> = c
        .recency_of(S0)
        .iter()
        .map(|b| b.0)
        .filter(|&b| b != 0)
        .collect();
    c.access(BlockAddr(cheap[0]), AccessType::Read, Cost(1)); // 0 to LRU
    c.access(BlockAddr(300), AccessType::Read, Cost(1));
    assert!(
        !c.contains(BlockAddr(0)),
        "disabled ACL must evict the LRU block"
    );
    assert_eq!(
        c.core(S0).etd().blocks(),
        vec![BlockAddr(0)],
        "the evicted LRU block is watched"
    );

    // The genuine watch hit — re-referencing the block LRU just threw away
    // — re-enables reservations at the trigger value.
    let watch_hits_before = c.core(S0).etd().stats().hits;
    c.access(BlockAddr(0), AccessType::Read, Cost(8));
    assert!(
        c.core(S0).enabled(),
        "watch hit must re-enable reservations"
    );
    assert_eq!(c.core(S0).counter(), 2);
    assert_eq!(c.core(S0).etd().stats().hits, watch_hits_before + 1);
}

#[test]
fn watch_mode_ignores_misses_on_unwatched_blocks() {
    let mut c = acl_cache();
    // Disabled from the start. Evict expensive block 0 into the watch ETD.
    c.access(BlockAddr(0), AccessType::Read, Cost(8));
    c.access(BlockAddr(1), AccessType::Read, Cost(1));
    c.access(BlockAddr(2), AccessType::Read, Cost(1));
    assert_eq!(c.core(S0).etd().stats().allocations, 1, "one watch insert");
    // Misses on blocks that were never displaced must not trigger.
    c.access(BlockAddr(7), AccessType::Read, Cost(1));
    c.access(BlockAddr(8), AccessType::Read, Cost(1));
    assert!(!c.core(S0).enabled());
    assert_eq!(c.core(S0).etd().stats().hits, 0, "no watch hit");
}

#[test]
fn etd_capacity_drops_oldest_entry() {
    // The paper's sizing: s - 1 = 3 entries for a 4-way set.
    let mut etd = EtdSet::new(EtdConfig::for_assoc(4));
    assert_eq!(etd.config().entries_per_set, 3);
    for b in 0..4u64 {
        etd.insert(BlockAddr(b), Cost(b + 1));
    }
    assert_eq!(etd.len(), 3, "directory must clamp at s - 1 entries");
    assert_eq!(etd.stats().capacity_evictions, 1);
    // The oldest record (block 0) was dropped; the three youngest survive.
    assert_eq!(etd.probe_and_take(BlockAddr(0)), None);
    assert_eq!(etd.probe_and_take(BlockAddr(1)), Some(Cost(2)));
    assert_eq!(etd.probe_and_take(BlockAddr(2)), Some(Cost(3)));
    assert_eq!(etd.probe_and_take(BlockAddr(3)), Some(Cost(4)));
    assert!(etd.is_empty());
}

#[test]
fn zero_entry_etd_is_inert() {
    // A 1-way region gets an s - 1 = 0-entry directory: inserts are no-ops.
    let mut etd = EtdSet::new(EtdConfig::for_assoc(1));
    assert_eq!(etd.config().entries_per_set, 0);
    etd.insert(BlockAddr(1), Cost(5));
    assert!(etd.is_empty());
    assert_eq!(etd.probe_and_take(BlockAddr(1)), None);
    assert_eq!(etd.stats().allocations, 0);
}

#[test]
fn dcl_depreciates_only_on_actual_rereference() {
    let geom = Geometry::new(128, 64, 2);
    let mut c = Cache::new(geom, || DclCore::for_geometry(&geom));
    c.access(BlockAddr(0), AccessType::Read, Cost(8)); // expensive
    c.access(BlockAddr(1), AccessType::Read, Cost(1)); // cheap
    c.access(BlockAddr(2), AccessType::Read, Cost(1)); // reserves 0, displaces 1
    assert!(c.contains(BlockAddr(0)));
    assert_eq!(c.core(S0).acost(), 8);

    // Misses on blocks that were never displaced: no detected re-reference,
    // so the reservation keeps its full remaining cost. (Each fill evicts
    // the cheap non-LRU block again, extending the same reservation.)
    for b in [10u64, 11, 12] {
        c.access(BlockAddr(b), AccessType::Read, Cost(1));
        assert!(c.contains(BlockAddr(0)));
        assert_eq!(
            c.core(S0).acost(),
            8,
            "miss on never-displaced block {b} must not depreciate",
        );
    }

    // A miss on a block the ETD recorded as displaced IS a detected
    // re-reference: acost drops by twice the displaced block's cost.
    let displaced: Vec<u64> = c.core(S0).etd().blocks().iter().map(|b| b.0).collect();
    c.access(BlockAddr(displaced[0]), AccessType::Read, Cost(1));
    assert_eq!(
        c.core(S0).acost(),
        6,
        "detected re-reference must depreciate by 2x cost"
    );
}
