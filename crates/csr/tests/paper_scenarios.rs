//! The paper's own worked narratives, encoded as executable scenarios.
//! Each test cites the section whose prose it animates.

use cache_sim::{AccessType, BlockAddr, Cache, Cost, Geometry, SetIndex};
use csr::{AclCore, BclCore, DclCore, GdCore};

fn one_set(assoc: usize) -> Geometry {
    Geometry::new(64 * assoc as u64, 64, assoc)
}

/// Section 2.1: "GD replaces the block with the least cost, regardless of
/// its locality... when a block is victimized, the costs of all blocks
/// remaining in the set are reduced by its cost. Whenever a block is
/// accessed, its original cost is restored."
#[test]
fn gd_narrative() {
    let geom = one_set(4);
    let mut c = Cache::new(geom, || GdCore::new(geom.assoc()));
    // Fill with mixed costs; MRU order ends d, c, b, a.
    c.access(BlockAddr(0), AccessType::Read, Cost(7)); // a
    c.access(BlockAddr(1), AccessType::Read, Cost(3)); // b
    c.access(BlockAddr(2), AccessType::Read, Cost(5)); // c
    c.access(BlockAddr(3), AccessType::Read, Cost(2)); // d (MRU, least cost)
                                                       // GD evicts d despite it being MRU: cost dominates locality.
    c.access(BlockAddr(4), AccessType::Read, Cost(1));
    assert!(!c.contains(BlockAddr(3)));
    assert!(c.contains(BlockAddr(0)), "the costly LRU block survives");
}

/// Section 2.2: "if the next miss cost of the LRU block is greater than the
/// next miss cost of one of the non-LRU blocks in the same set, we may save
/// some cost by keeping the LRU block... while we keep a high-cost block in
/// the LRU position, we say that the block or blockframe is reserved."
#[test]
fn reservation_narrative() {
    let geom = one_set(4);
    let mut bcl = Cache::new(geom, BclCore::new);
    let mut dcl = Cache::new(geom, || DclCore::for_geometry(&geom));
    for b in [(0u64, 8u64), (1, 1), (2, 1), (3, 1), (4, 1)] {
        bcl.access(BlockAddr(b.0), AccessType::Read, Cost(b.1));
        dcl.access(BlockAddr(b.0), AccessType::Read, Cost(b.1));
    }
    assert!(
        bcl.contains(BlockAddr(0)),
        "BCL: the high-cost LRU block must be reserved"
    );
    assert!(
        dcl.contains(BlockAddr(0)),
        "DCL: the high-cost LRU block must be reserved"
    );
}

/// Figure 1 scans down to i = 1, so the MRU block *can* be the victim when
/// it alone is cheaper than the reserved block (Section 2.2's "not subject
/// to reservation" is about reserving, not victimizing — reservation of
/// the MRU is structurally impossible since the scan never leaves a block
/// below it).
#[test]
fn mru_can_be_victimized_but_not_reserved() {
    let geom = one_set(3);
    let mut c = Cache::new(geom, BclCore::new);
    c.access(BlockAddr(0), AccessType::Read, Cost(9)); // LRU, expensive
    c.access(BlockAddr(1), AccessType::Read, Cost(9)); // middle, expensive
    c.access(BlockAddr(2), AccessType::Read, Cost(1)); // MRU, cheap
                                                       // Scan from second-LRU (1, cost 9 >= Acost 9) to MRU (2, cost 1 < 9).
    c.access(BlockAddr(3), AccessType::Read, Cost(1));
    assert!(c.contains(BlockAddr(0)));
    assert!(c.contains(BlockAddr(1)), "both expensive blocks reserved");
    assert!(
        !c.contains(BlockAddr(2)),
        "the cheap MRU block is the victim"
    );
}

/// Section 2.3: "Acost is reduced by twice the amount of the miss cost of
/// the block being replaced... When Acost reaches zero the reserved LRU
/// block becomes the prime replacement candidate."
#[test]
fn bcl_depreciation_schedule() {
    let geom = one_set(2);
    let mut c = Cache::new(geom, BclCore::new);
    c.access(BlockAddr(0), AccessType::Read, Cost(6));
    c.access(BlockAddr(1), AccessType::Read, Cost(1));
    // Three cheap victimizations: Acost 6 -> 4 -> 2 -> 0.
    for b in [2u64, 3, 4] {
        c.access(BlockAddr(b), AccessType::Read, Cost(1));
        assert!(c.contains(BlockAddr(0)));
    }
    assert_eq!(c.core(SetIndex(0)).acost(), 0);
    // Prime replacement candidate: the next fill takes it.
    c.access(BlockAddr(5), AccessType::Read, Cost(1));
    assert!(!c.contains(BlockAddr(0)));
}

/// Section 2.4: "In DCL, the cost of the reserved LRU block is depreciated
/// only when the non-LRU blocks victimized in its place are actually
/// accessed before the LRU block."
#[test]
fn dcl_depreciates_only_on_actual_rereference() {
    let geom = one_set(2);
    let mut bcl_cache = Cache::new(geom, BclCore::new);
    let mut dcl_cache = Cache::new(geom, || DclCore::for_geometry(&geom));
    let stream: Vec<(u64, u64)> = vec![(0, 6), (1, 1), (2, 1), (3, 1), (4, 1)];
    for &(b, cost) in &stream {
        bcl_cache.access(BlockAddr(b), AccessType::Read, Cost(cost));
        dcl_cache.access(BlockAddr(b), AccessType::Read, Cost(cost));
    }
    // BCL pessimistically depreciated 3 times (6 -> 0); DCL not at all
    // (none of the victims ever returned).
    assert_eq!(bcl_cache.core(SetIndex(0)).acost(), 0);
    assert_eq!(dcl_cache.core(SetIndex(0)).acost(), 6);
    // The reserved block's fate then differs on the next fill.
    bcl_cache.access(BlockAddr(5), AccessType::Read, Cost(1));
    dcl_cache.access(BlockAddr(5), AccessType::Read, Cost(1));
    assert!(
        !bcl_cache.contains(BlockAddr(0)),
        "BCL squandered the reservation"
    );
    assert!(dcl_cache.contains(BlockAddr(0)), "DCL kept it");
}

/// Section 2.4: "when an invalidation is received for a block present in
/// the ETD (as may happen in multiprocessors), the ETD entry is
/// invalidated."
#[test]
fn etd_entries_die_with_coherence_invalidations() {
    let geom = one_set(2);
    let mut c = Cache::new(geom, || DclCore::for_geometry(&geom));
    c.access(BlockAddr(0), AccessType::Read, Cost(6));
    c.access(BlockAddr(1), AccessType::Read, Cost(1));
    c.access(BlockAddr(2), AccessType::Read, Cost(1)); // 1 displaced -> ETD
    assert_eq!(c.core(SetIndex(0)).etd().len(), 1);
    c.invalidate(BlockAddr(1)); // remote write
    assert!(c.core(SetIndex(0)).etd().is_empty());
    // Its return must now NOT depreciate the reservation.
    c.access(BlockAddr(1), AccessType::Read, Cost(1));
    assert_eq!(c.core(SetIndex(0)).acost(), 6);
}

/// Section 2.5: "Initially the counter is set to zero, disabling all
/// reservations... upon a hit in ETD, all ETD entries are invalidated, and
/// reservations are enabled by setting the counter value to two."
#[test]
fn acl_trigger_narrative() {
    let geom = one_set(2);
    let mut c = Cache::new(geom, || AclCore::for_geometry(&geom));
    assert!(!c.core(SetIndex(0)).enabled());
    // Watch mode: LRU-evict an expensive block while a cheap one exists.
    c.access(BlockAddr(0), AccessType::Read, Cost(8));
    c.access(BlockAddr(1), AccessType::Read, Cost(1));
    c.access(BlockAddr(2), AccessType::Read, Cost(1)); // 0 evicted into watch ETD
    assert_eq!(c.core(SetIndex(0)).counter(), 0);
    c.access(BlockAddr(0), AccessType::Read, Cost(8)); // watch hit
    assert_eq!(c.core(SetIndex(0)).counter(), 2);
    assert!(
        c.core(SetIndex(0)).etd().is_empty(),
        "all entries invalidated"
    );
}

/// Section 3.1's infinite cost ratio: low = 0, high = 1; "the cost
/// depreciations of reserved blocks have no effect", so the policies
/// "systematically replace low-cost blocks instead of high-cost blocks
/// whenever low-cost blocks exist in the cache".
#[test]
fn infinite_ratio_reserves_forever() {
    let geom = one_set(4);
    let mut bcl = Cache::new(geom, BclCore::new);
    let mut dcl = Cache::new(geom, || DclCore::for_geometry(&geom));
    bcl.access(BlockAddr(0), AccessType::Read, Cost(1)); // "high" = 1
    dcl.access(BlockAddr(0), AccessType::Read, Cost(1));
    for b in 1..60u64 {
        bcl.access(BlockAddr(b), AccessType::Read, Cost(0)); // "low" = 0
        dcl.access(BlockAddr(b), AccessType::Read, Cost(0));
    }
    assert!(
        bcl.contains(BlockAddr(0)),
        "BCL: high-cost block kept at r = infinity"
    );
    assert!(
        dcl.contains(BlockAddr(0)),
        "DCL: high-cost block kept at r = infinity"
    );
}

/// Section 2.3: multiple simultaneous reservations — all s-1 = 3 blocks
/// above the victim survive a fill when each is costlier than the
/// depreciating Acost (this exercises multi-reservation survival, not an
/// explicit cap, which is structural: a victim always exists).
#[test]
fn at_most_s_minus_one_reservations() {
    let geom = one_set(4);
    let mut c = Cache::new(geom, BclCore::new);
    // Three expensive blocks + one cheap MRU.
    c.access(BlockAddr(0), AccessType::Read, Cost(9));
    c.access(BlockAddr(1), AccessType::Read, Cost(9));
    c.access(BlockAddr(2), AccessType::Read, Cost(9));
    c.access(BlockAddr(3), AccessType::Read, Cost(1));
    c.access(BlockAddr(4), AccessType::Read, Cost(1));
    // All three expensive blocks (s-1 = 3) survived; the cheap one went.
    for b in [0u64, 1, 2] {
        assert!(c.contains(BlockAddr(b)), "block {b}");
    }
    assert!(!c.contains(BlockAddr(3)));
}
