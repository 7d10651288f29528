//! The queue cores (`S3FifoCore`, `CampCore`) against their
//! textbook models, kept here as the reference: each algorithm written from
//! its module docs over plain `Vec`s searched by block, with no ways, no
//! links and nothing to go stale. A core and its model are driven in lockstep
//! through one region — hits, misses that evict, overwrites at a changed
//! cost, invalidations of resident and absent blocks, `clear`, and a cold or
//! a warmed core attached to a full region — and must name the same victim
//! on every replacement: regions of 4, 8, 64 and 513 ways, a two-cost and a
//! 97-cost stream, more than a third of a million evictions.

use cache_sim::{BlockAddr, Cost, SetView, Way, WayView};
use csr::{CampCore, EvictionPolicy, S3FifoCore};

/// A replacement algorithm that knows blocks only.
trait Model {
    fn new(ways: usize) -> Self;
    /// An access hit `block`, resident at `cost`.
    fn hit(&mut self, block: u64, cost: u64);
    /// `block` was filled (or, when already tracked, overwritten) at `cost`.
    fn fill(&mut self, block: u64, cost: u64);
    /// `block` left without being chosen by `victim`.
    fn remove(&mut self, block: u64);
    /// The block to evict; `None` when no block is tracked (the LRU one goes).
    fn victim(&mut self) -> Option<u64>;
}

/// Removes `block` from `queue`, saying whether it was there.
fn take<T>(queue: &mut Vec<(u64, T)>, block: u64) -> Option<T> {
    let at = queue.iter().position(|e| e.0 == block)?;
    Some(queue.remove(at).1)
}

/// Small and main FIFOs of `(block, frequency)` and the ghost FIFO of keys,
/// oldest first.
struct S3Fifo {
    small: Vec<(u64, u8)>,
    main: Vec<(u64, u8)>,
    ghost: Vec<u64>,
    small_target: usize,
    ghost_cap: usize,
}

impl Model for S3Fifo {
    fn new(ways: usize) -> Self {
        S3Fifo {
            small: Vec::new(),
            main: Vec::new(),
            ghost: Vec::new(),
            small_target: (ways / 10).max(1),
            ghost_cap: ways.max(1),
        }
    }

    fn hit(&mut self, block: u64, _cost: u64) {
        let entries = self.small.iter_mut().chain(self.main.iter_mut());
        if let Some(e) = entries.into_iter().find(|e| e.0 == block) {
            e.1 = (e.1 + 1).min(3);
        }
    }

    fn fill(&mut self, block: u64, _cost: u64) {
        if self.small.iter().chain(&self.main).any(|e| e.0 == block) {
            return;
        }
        match self.ghost.iter().position(|&g| g == block) {
            Some(at) => {
                self.ghost.remove(at);
                self.main.push((block, 0));
            }
            None => self.small.push((block, 0)),
        }
    }

    fn remove(&mut self, block: u64) {
        let _ = take(&mut self.small, block).or_else(|| take(&mut self.main, block));
    }

    fn victim(&mut self) -> Option<u64> {
        loop {
            if self.small.len() > self.small_target || self.main.is_empty() {
                if self.small.is_empty() {
                    return None;
                }
                let (block, freq) = self.small.remove(0);
                if freq > 0 {
                    self.main.push((block, freq));
                    continue;
                }
                self.ghost.push(block);
                if self.ghost.len() > self.ghost_cap {
                    self.ghost.remove(0);
                }
                return Some(block);
            }
            let (block, freq) = self.main.remove(0);
            if freq == 0 {
                return Some(block);
            }
            self.main.push((block, freq - 1));
        }
    }
}

/// One FIFO of `(block, key)` per power-of-two cost class, and the age `L`.
struct Camp {
    buckets: Vec<Vec<(u64, u64)>>,
    age: u64,
}

impl Camp {
    fn enqueue(&mut self, block: u64, cost: u64) {
        let class = cost.max(1).ilog2() as usize;
        let key = self.age.saturating_add(1 << class);
        self.buckets[class].push((block, key));
    }

    fn dequeue(&mut self, block: u64) -> bool {
        self.buckets.iter_mut().any(|q| take(q, block).is_some())
    }
}

impl Model for Camp {
    fn new(_ways: usize) -> Self {
        Camp {
            buckets: vec![Vec::new(); 64],
            age: 0,
        }
    }

    fn hit(&mut self, block: u64, cost: u64) {
        if self.dequeue(block) {
            self.enqueue(block, cost);
        }
    }

    fn fill(&mut self, block: u64, cost: u64) {
        // An overwrite is the hit that preceded it: no second re-enqueue.
        if !self.buckets.iter().flatten().any(|e| e.0 == block) {
            self.enqueue(block, cost);
        }
    }

    fn remove(&mut self, block: u64) {
        self.dequeue(block);
    }

    fn victim(&mut self) -> Option<u64> {
        // The least key among the heads; of equal keys, the cheaper class.
        let heads = self.buckets.iter().enumerate();
        let (class, _) = heads
            .filter_map(|(class, q)| Some((class, q.first()?.1)))
            .min_by_key(|&(_, key)| key)?;
        let (block, key) = self.buckets[class].remove(0);
        self.age = self.age.max(key);
        Some(block)
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

/// The region both sides decide for: what a driver keeps, in the open.
struct Region {
    /// The residents, MRU → LRU: what `SetView` wraps.
    order: Vec<WayView>,
    vacant: Vec<Way>,
}

impl Region {
    fn position(&self, block: u64) -> Option<usize> {
        self.order.iter().position(|e| e.block.0 == block)
    }

    fn lru(&self) -> Option<(BlockAddr, Cost)> {
        self.order.last().map(|e| (e.block, e.cost))
    }
}

/// Drives `core` and a `M` over one seeded stream; returns the evictions
/// compared.
fn lockstep<C: EvictionPolicy, M: Model>(
    ways: usize,
    steps: u64,
    costs: &[u64],
    new_core: impl Fn(usize) -> C,
) -> u64 {
    let mut rng = Rng(0xD1FF ^ (ways as u64) << 32 ^ costs.len() as u64);
    let (mut core, mut model) = (new_core(ways), M::new(ways));
    let mut region = Region {
        order: Vec::new(),
        vacant: (0..ways).rev().map(Way).collect(),
    };
    // Enough blocks to keep the region full and missing, few enough that
    // hits and refills of evicted (and ghosted) blocks are common.
    let blocks = 2 * ways as u64 + 3;
    let mut evictions = 0;
    for step in 0..steps {
        let block = rng.below(blocks);
        let cost = costs[rng.below(costs.len() as u64) as usize];
        let at = region.position(block);
        match (rng.below(1000), at) {
            // Invalidation, of an absent block too.
            (0..40, _) => {
                let way = at.map(|at| region.order.remove(at).way);
                region.vacant.extend(way);
                core.on_remove(BlockAddr(block), way);
                model.remove(block);
            }
            // Overwrite at a (usually) changed cost: a hit, then the fill.
            (40..100, Some(at)) => {
                let mut e = region.order.remove(at);
                core.on_hit(e.block, e.way, e.cost, at == region.order.len());
                model.hit(block, e.cost.0);
                e.cost = Cost(cost);
                region.order.insert(0, e);
                core.on_fill(e.block, e.way, e.cost);
                model.fill(block, cost);
            }
            // A new core takes over the region as it stands: cold, or
            // warmed by the residents replayed as fills, LRU first.
            (100..102, _) => {
                (core, model) = (new_core(ways), M::new(ways));
                if rng.below(2) == 0 {
                    for e in region.order.iter().rev() {
                        core.on_fill(e.block, e.way, e.cost);
                        model.fill(e.block.0, e.cost.0);
                    }
                }
            }
            // Clear: every resident leaves, MRU first.
            (102, _) => {
                for e in region.order.drain(..) {
                    core.on_remove(e.block, Some(e.way));
                    model.remove(e.block.0);
                    region.vacant.push(e.way);
                }
            }
            (_, Some(at)) => {
                let e = region.order.remove(at);
                core.on_hit(e.block, e.way, e.cost, at == region.order.len());
                model.hit(block, e.cost.0);
                region.order.insert(0, e);
            }
            (_, None) => {
                core.on_miss(BlockAddr(block), region.lru());
                if region.vacant.is_empty() {
                    let way = core.victim(&SetView::new(&region.order));
                    let lru = region.order[ways - 1].block.0;
                    let at = region.order.iter().position(|e| e.way == way);
                    let chosen = region
                        .order
                        .remove(at.expect("the victim is a resident way"));
                    assert_eq!(
                        chosen.block.0,
                        model.victim().unwrap_or(lru),
                        "{}, {ways} ways, {} costs, step {step}: miss of {block}",
                        core.name(),
                        costs.len()
                    );
                    region.vacant.push(way);
                    evictions += 1;
                }
                let way = region.vacant.pop().expect("a way was just vacated");
                let filled = WayView {
                    way,
                    block: BlockAddr(block),
                    cost: Cost(cost),
                };
                region.order.insert(0, filled);
                core.on_fill(filled.block, way, filled.cost);
                model.fill(block, cost);
            }
        }
    }
    evictions
}

/// Every region size under the benchmark's two costs and under 97 of them
/// (which reach 7 of CAMP's 64 classes).
fn all_regions<C: EvictionPolicy, M: Model>(new_core: impl Fn(usize) -> C + Copy) {
    let two = [1, 32];
    let many: Vec<u64> = (1..=97).collect();
    let mut evictions = 0;
    for (ways, steps) in [(4, 90_000), (8, 90_000), (64, 60_000), (513, 25_000)] {
        evictions += lockstep::<C, M>(ways, steps, &two, new_core);
        evictions += lockstep::<C, M>(ways, steps, &many, new_core);
    }
    // Two cores: more than a third of a million between them.
    assert!(evictions > 170_000, "only {evictions} evictions compared");
}

#[test]
fn s3fifo_picks_the_models_victim_on_every_replacement() {
    all_regions::<_, S3Fifo>(S3FifoCore::new);
}

#[test]
fn camp_picks_the_models_victim_on_every_replacement() {
    all_regions::<_, Camp>(CampCore::new);
}
