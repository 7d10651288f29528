//! The shipped `Region` (one recency list per cost, answers a core's
//! questions in place) against the region it replaced, kept in
//! `reference/region.rs` (materializes the recency order into a `SetView` on
//! every eviction). Both drive the same cores over the same seeded streams,
//! in lockstep; the slot filled, the entry evicted and its `reserved` flag
//! must agree on every step, and the whole recency order at intervals. A
//! get's miss and its fill are separate steps, often with other keys'
//! events between them: the shipped region delivers `on_miss` once per
//! missing access where the reference delivers it again on every insert,
//! so agreement shows that the skipped delivery never decided anything. An
//! eleventh core, [`Probe`], asks the three `Residents` questions with
//! arguments no shipped core uses (bounds above the LRU entry's cost, ways
//! it did not fill, ways past the region) and evicts by the answers.
//!
//! Both files are compiled into this test crate by path: `Region` is
//! crate-private, and the reference must not ship.

#[allow(dead_code)]
#[path = "reference/region.rs"]
mod reference;
#[allow(dead_code)]
#[path = "../src/region.rs"]
mod region;

use cache_sim::{BlockAddr, BoxedPolicy, Way};
use csr::{EvictionPolicy, Residents};
use csr_cache::Policy;
use std::collections::HashMap;

/// Builds the core for a region of the given capacity.
type Factory<'a> = &'a dyn Fn(usize) -> BoxedPolicy;
type BoxedFactory = Box<dyn Fn(usize) -> BoxedPolicy>;

/// A core that turns every answer it is given into its decision, so two
/// drivers that answer differently evict differently.
struct Probe(Rng);

impl EvictionPolicy for Probe {
    fn name(&self) -> &'static str {
        "probe"
    }

    fn victim(&mut self, residents: &dyn Residents) -> Way {
        let lru = residents.lru();
        // Any way up to a little past the largest region.
        let anywhere = residents.at_way(Way(self.0.below(600) as usize));
        let bound = match self.0.below(4) {
            0 => u64::MAX,
            1 => lru.cost.0 + 1,
            _ => self.0.below(100),
        };
        match (anywhere, residents.lru_most_cheaper_than(bound)) {
            (Some(e), _) if e.cost.0 % 2 == 1 => e.way,
            (_, Some(cheaper)) => cheaper.way,
            _ => lru.way,
        }
    }
}

/// What the two regions have in common, as far as the lockstep needs it.
trait Driver {
    fn new(capacity: usize, core: BoxedPolicy) -> Self;
    fn touch(&mut self, i: u32);
    fn miss(&mut self, id: BlockAddr);
    fn refresh(&mut self, i: u32, cost: u64);
    /// The slot filled, and the evicted `(id, reserved)` if any.
    fn insert(&mut self, id: BlockAddr, cost: u64) -> (u32, Option<(BlockAddr, bool)>);
    fn remove(&mut self, i: u32) -> BlockAddr;
    /// How many entries were dropped.
    fn clear(&mut self) -> u64;
    /// `(slot, id, cost)` of every resident, LRU first.
    fn order(&self) -> Vec<(u32, BlockAddr, u64)>;
}

macro_rules! impl_driver {
    ($region:ty, $cost:expr, $clear:expr) => {
        impl Driver for $region {
            fn new(capacity: usize, core: BoxedPolicy) -> Self {
                <$region>::new(capacity, core)
            }
            fn touch(&mut self, i: u32) {
                <$region>::touch(self, i);
            }
            fn miss(&mut self, id: BlockAddr) {
                <$region>::miss(self, id);
            }
            fn refresh(&mut self, i: u32, cost: u64) {
                <$region>::refresh(self, i, cost);
            }
            fn insert(&mut self, id: BlockAddr, cost: u64) -> (u32, Option<(BlockAddr, bool)>) {
                let (i, evicted) = <$region>::insert(self, id, cost, ());
                (i, evicted.map(|e| (e.slot.id, e.reserved)))
            }
            fn remove(&mut self, i: u32) -> BlockAddr {
                <$region>::remove(self, i).id
            }
            fn clear(&mut self) -> u64 {
                $clear(self)
            }
            fn order(&self) -> Vec<(u32, BlockAddr, u64)> {
                self.lru_to_mru()
                    .map(|(i, s)| (i, s.id, $cost(self, i, s)))
                    .collect()
            }
        }
    };
}

impl_driver!(
    region::Region<()>,
    |r: &Self, i, _| r.cost(i),
    region::Region::clear
);
impl_driver!(
    reference::Region<()>,
    |_, _, s: &reference::Slot<()>| s.cost,
    |r: &mut Self| reference::Region::clear(r, |_| {})
);

/// What one step did, as far as an owner can tell.
#[derive(Debug, PartialEq)]
enum Outcome {
    Hit(u32),
    Missed,
    Filled(u32, Option<(BlockAddr, bool)>),
    Removed(Option<BlockAddr>),
    Cleared(u64),
}

#[derive(Clone, Copy, Debug)]
enum Op {
    /// A lookup: a hit, or a miss the stream may fill later.
    Get(u64),
    /// Insert or overwrite at this cost: a set, or the fill of a get's
    /// miss (the look-aside flow), right after it or steps later.
    Set(u64, u64),
    Remove(u64),
    Clear,
}

/// A region with the key → slot index its owner keeps.
struct Keyed<D> {
    region: D,
    index: HashMap<u64, u32>,
}

impl<D: Driver> Keyed<D> {
    fn new(capacity: usize, core: Factory<'_>) -> Self {
        Keyed {
            region: D::new(capacity, core(capacity)),
            index: HashMap::new(),
        }
    }

    fn fill(&mut self, key: u64, cost: u64) -> Outcome {
        let (i, evicted) = self.region.insert(BlockAddr(key), cost);
        if let Some((id, _)) = evicted {
            self.index.remove(&id.0);
        }
        self.index.insert(key, i);
        Outcome::Filled(i, evicted)
    }

    fn apply(&mut self, op: Op) -> Outcome {
        match op {
            Op::Get(key) => match self.index.get(&key) {
                Some(&i) => {
                    self.region.touch(i);
                    Outcome::Hit(i)
                }
                None => {
                    self.region.miss(BlockAddr(key));
                    Outcome::Missed
                }
            },
            Op::Set(key, cost) => match self.index.get(&key) {
                Some(&i) => {
                    self.region.refresh(i, cost);
                    Outcome::Hit(i)
                }
                None => self.fill(key, cost),
            },
            Op::Remove(key) => {
                Outcome::Removed(self.index.remove(&key).map(|i| self.region.remove(i)))
            }
            Op::Clear => {
                self.index.clear();
                let dropped = self.region.clear();
                assert!(self.region.order().is_empty(), "entries survive a clear");
                Outcome::Cleared(dropped)
            }
        }
    }
}

/// SplitMix64, inline so the crate's tests stay dependency-free.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// How a stream prices its keys.
#[derive(Clone, Copy, Debug)]
enum Costs {
    /// The benchmark's mix: one key in 16 costs 32, the rest 1.
    Two,
    /// 97 distinct costs, zero included, so the class scan has work to do.
    Many,
}

impl Costs {
    fn draw(self, rng: &mut Rng) -> u64 {
        match self {
            Costs::Two => {
                if rng.below(16) == 0 {
                    32
                } else {
                    1
                }
            }
            Costs::Many => rng.below(97),
        }
    }
}

/// Every small capacity, then each side of the powers of two up to 513.
fn capacities() -> impl Iterator<Item = usize> {
    (1..=17).chain([
        31, 32, 33, 63, 64, 65, 127, 128, 129, 255, 256, 257, 511, 512, 513,
    ])
}

/// One stream: the core from an empty region. Returns the evictions seen.
fn lockstep(policy: &str, core: Factory<'_>, capacity: usize, costs: Costs, seed: u64) -> u64 {
    let mut rng = Rng(seed ^ (capacity as u64) << 20 ^ (costs as u64) << 40);
    let mut shipped = Keyed::<region::Region<()>>::new(capacity, core);
    let mut frozen = Keyed::<reference::Region<()>>::new(capacity, core);
    // Enough keys to keep the region full and missing, few enough that hits,
    // overwrites and refills of evicted keys are all common.
    let keys = 2 * capacity as u64 + 3;
    let steps = 1_500 + 6 * capacity;
    let mut evictions = 0;
    // Keys whose get missed and that are not filled yet.
    let mut unfilled: Vec<u64> = Vec::new();
    for step in 0..steps {
        let key = rng.below(keys);
        let op = if !unfilled.is_empty() && rng.below(2) == 0 {
            // Usually the latest miss, on the next step or after other
            // keys' events; sometimes an older one. A fill may find its
            // key resident again (a racing fill) or never come at all.
            let at = match rng.below(4) {
                0 => rng.below(unfilled.len() as u64) as usize,
                _ => unfilled.len() - 1,
            };
            Op::Set(unfilled.remove(at), costs.draw(&mut rng))
        } else {
            match rng.below(64) {
                0 if rng.below(8) == 0 => Op::Clear,
                0..=5 => Op::Remove(key),
                // A `Set` of a resident key is a `refresh`, usually at a
                // cost other than the one it was filled at.
                6..=13 => Op::Set(key, costs.draw(&mut rng)),
                _ => Op::Get(key),
            }
        };
        let (a, b) = (frozen.apply(op), shipped.apply(op));
        if a == Outcome::Missed {
            unfilled.push(key);
        }
        assert_eq!(
            a, b,
            "{policy} capacity {capacity} {costs:?} seed {seed}: step {step}, {op:?}"
        );
        evictions += u64::from(matches!(a, Outcome::Filled(_, Some(_))));
        if step % 64 == 0 || step + 1 == steps {
            assert_eq!(
                frozen.region.order(),
                shipped.region.order(),
                "{policy} capacity {capacity} {costs:?} seed {seed}: recency order after step {step}"
            );
        }
    }
    evictions
}

#[test]
fn shipped_region_matches_the_materializing_reference_step_for_step() {
    // Every shipped core, and the probe under two seeds.
    let mut cores: Vec<(&str, BoxedFactory)> = Policy::ALL
        .into_iter()
        .map(|p| {
            (
                p.name(),
                Box::new(move |ways| p.cores(ways, 0, None)()) as _,
            )
        })
        .collect();
    cores.push(("probe", Box::new(|ways| Box::new(Probe(Rng(ways as u64))))));
    cores.push(("probe", Box::new(|ways| Box::new(Probe(Rng(!ways as u64))))));
    let mut evictions = 0;
    for (name, core) in &cores {
        for capacity in capacities() {
            for costs in [Costs::Two, Costs::Many] {
                for seed in 0..2 {
                    evictions += lockstep(name, &**core, capacity, costs, seed);
                }
            }
        }
    }
    assert!(evictions > 500_000, "only {evictions} evictions compared");
}
