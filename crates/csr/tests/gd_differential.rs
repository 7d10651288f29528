//! GreedyDual in inflation-offset form (`csr::GdCore`, `prio = L + cost`)
//! against the paper's Section 2.1 wording kept here as the reference: evict
//! the least `H`, deduct it from every survivor, restore `H` on a hit. The
//! two must pick the identical victim on every replacement of every seeded
//! random trace — associativity 1 to 16, costs including 0 and the `r=inf`
//! pair (0, 1), hits, invalidations, and refills at a changed cost.

use cache_sim::{AccessType, BlockAddr, Cache, Cost, EvictionPolicy, Geometry, Residents, Way};
use csr::GdCore;

/// Textbook deduct-from-all GreedyDual for a single-set cache. It keeps the
/// recency order itself, as the callbacks report it, so that it can walk
/// every resident.
struct ReferenceGd {
    h: Vec<u64>,
    /// The resident ways, MRU first.
    order: Vec<Way>,
}

impl ReferenceGd {
    fn promote(&mut self, way: Way) {
        self.order.retain(|&w| w != way);
        self.order.insert(0, way);
    }
}

impl EvictionPolicy for ReferenceGd {
    fn name(&self) -> &'static str {
        "GD (deduct-from-all)"
    }

    fn victim(&mut self, residents: &dyn Residents) -> Way {
        assert_eq!(self.order.last(), Some(&residents.lru().way));
        // Least H; among equals the one nearest the LRU end.
        let mut victim = residents.lru().way;
        for &w in self.order.iter().rev() {
            if self.h[w.0] < self.h[victim.0] {
                victim = w;
            }
        }
        let hmin = self.h[victim.0];
        for &w in &self.order {
            if w != victim {
                self.h[w.0] -= hmin;
            }
        }
        victim
    }

    fn on_hit(&mut self, _block: BlockAddr, way: Way, cost: Cost, _is_lru: bool) {
        self.h[way.0] = cost.0;
        self.promote(way);
    }

    fn on_fill(&mut self, _block: BlockAddr, way: Way, cost: Cost) {
        self.h[way.0] = cost.0;
        self.promote(way);
    }

    fn on_remove(&mut self, _block: BlockAddr, way: Option<Way>) {
        self.order.retain(|&w| Some(w) != way);
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
            let mut reference = Cache::new(geom, || ReferenceGd {
                h: vec![0; assoc],
                order: Vec::new(),
            });
            let mut offset = Cache::new(geom, || GdCore::new(assoc));
            // Enough blocks to keep the set full and missing, few enough
            // that hits and refills of evicted blocks are common.
            let blocks = 2 * assoc as u64 + 3;
            for step in 0..2_000 {
                let block = BlockAddr(rng.below(blocks));
                if rng.below(8) == 0 {
                    let a = reference.invalidate(block);
                    let b = offset.invalidate(block);
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
