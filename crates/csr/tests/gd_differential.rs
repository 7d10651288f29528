//! GreedyDual in inflation-offset form (`csr::GdCore`, `prio = L + cost`)
//! against the paper's Section 2.1 wording kept here as the reference: evict
//! the least `H`, deduct it from every survivor, restore `H` on a hit. The
//! two must pick the identical victim on every replacement of every seeded
//! random trace — associativity 1 to 16, costs including 0 and the `r=inf`
//! pair (0, 1), hits, invalidations, and refills at a changed cost.

use cache_sim::{
    AccessType, BlockAddr, Cache, Cost, Geometry, InvalidateKind, ReplacementPolicy, SetIndex,
    SetView, Way,
};
use csr::GreedyDual;

/// Textbook deduct-from-all GreedyDual for a single-set cache.
struct ReferenceGd {
    h: Vec<u64>,
}

impl ReplacementPolicy for ReferenceGd {
    fn name(&self) -> &'static str {
        "GD (deduct-from-all)"
    }

    fn victim(&mut self, _set: SetIndex, view: &SetView<'_>) -> Way {
        // Least H; among equals the one nearest the LRU end.
        let mut victim = view.lru().way;
        for e in view.iter().rev() {
            if self.h[e.way.0] < self.h[victim.0] {
                victim = e.way;
            }
        }
        let hmin = self.h[victim.0];
        for e in view.iter() {
            if e.way != victim {
                self.h[e.way.0] -= hmin;
            }
        }
        victim
    }

    fn on_hit(&mut self, _set: SetIndex, _block: BlockAddr, way: Way, cost: Cost, _is_lru: bool) {
        self.h[way.0] = cost.0;
    }

    fn on_fill(&mut self, _set: SetIndex, _block: BlockAddr, way: Way, cost: Cost) {
        self.h[way.0] = cost.0;
    }
}

/// SplitMix64, inline so the crate's tests stay dependency-free.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % n
    }
}

/// Per-access miss costs: zero, the `r=inf` pair, the paper's small ratios,
/// and the largest cost the server ever measures (60 s in µs).
const COSTS: [u64; 8] = [0, 0, 1, 1, 2, 8, 9, 60_000_000];

#[test]
fn offset_form_picks_the_reference_victim_on_every_replacement() {
    let mut replacements = 0u64;
    for assoc in 1..=16usize {
        for seed in 0..8u64 {
            let mut rng = Rng(0x6D_D1FF ^ (assoc as u64) << 32 ^ seed);
            let geom = Geometry::new(64 * assoc as u64, 64, assoc); // one set
            let mut reference = Cache::new(geom, ReferenceGd { h: vec![0; assoc] });
            let mut offset = Cache::new(geom, GreedyDual::new(&geom));
            // Enough blocks to keep the set full and missing, few enough
            // that hits and refills of evicted blocks are common.
            let blocks = 2 * assoc as u64 + 3;
            for step in 0..2_000 {
                let block = BlockAddr(rng.below(blocks));
                if rng.below(8) == 0 {
                    let a = reference.invalidate(block, InvalidateKind::Coherence);
                    let b = offset.invalidate(block, InvalidateKind::Coherence);
                    assert_eq!(a.is_some(), b.is_some());
                    continue;
                }
                // The cost is drawn per access, so a block evicted or
                // invalidated earlier comes back at a different cost.
                let cost = Cost(COSTS[rng.below(COSTS.len() as u64) as usize]);
                let a = reference.access(block, AccessType::Read, cost);
                let b = offset.access(block, AccessType::Read, cost);
                assert_eq!(
                    (a.hit, a.way, a.evicted.map(|e| e.block)),
                    (b.hit, b.way, b.evicted.map(|e| e.block)),
                    "assoc {assoc} seed {seed} step {step}: access to {block} at cost {cost:?}"
                );
                replacements += u64::from(a.evicted.is_some());
            }
            assert_eq!(
                reference.stats().non_lru_evictions,
                offset.stats().non_lru_evictions
            );
        }
    }
    assert!(replacements > 50_000, "only {replacements} replacements");
}
