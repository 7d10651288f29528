//! The shipped `Cache` (every set one row of entries in recency order, one
//! core per set, its `victim` answered in place from the set's row)
//! against the per-set cache of two drivers ago, kept verbatim in
//! `reference/cache.rs` (a `Vec<Frame>` and a
//! `Vec<Way>` per set, promote by `retain` + `insert(0)`, each victim choice
//! put to a `SetView` copy of the set) with the set-indexed policy trait it
//! drove, kept verbatim in `reference/policy.rs`. [`PerSet`] adapts the
//! cores to that trait and answers them through `cache_sim::SetView`, the
//! reference `Residents`.
//!
//! Both run the same seeded stream of `access`, `invalidate`, `writeback`
//! and `update_cost` calls in lockstep, at associativities 1–16 with one or
//! 64 sets, under `Lru`, `Fifo`, `RandomEvict` and a [`Probe`] core that
//! records every callback and, at every `victim`, the answers to all three
//! questions — `lru()`, `at_way` for every way, `lru_most_cheaper_than` at
//! each resident cost and one above it — then evicts a seeded random way.
//! Outcomes, evictions, statistics, recency stacks, resident blocks and the
//! logs must agree on every step.

// The frozen files name their siblings through `crate::`: these are them.
mod addr {
    pub use cache_sim::addr::*;
}
mod cost {
    pub use cache_sim::cost::*;
}
mod stats {
    pub use cache_sim::stats::*;
}
/// The LRU the reference cache's own unit tests drive.
mod lru {
    use super::policy::{ReplacementPolicy, SetView};
    use cache_sim::{SetIndex, Way};

    #[derive(Default)]
    pub struct Lru;

    impl Lru {
        pub fn new() -> Self {
            Lru
        }
    }

    impl ReplacementPolicy for Lru {
        fn name(&self) -> &'static str {
            "LRU"
        }
        fn victim(&mut self, _set: SetIndex, view: &SetView<'_>) -> Way {
            view.lru().way
        }
    }
}

#[allow(dead_code)]
#[path = "reference/policy.rs"]
mod policy;

#[allow(dead_code)]
#[path = "reference/cache.rs"]
mod reference;

use cache_sim::{
    AccessOutcome, AccessType, BlockAddr, Cache, Cost, Evicted, EvictionPolicy, Fifo, Geometry,
    Lru, RandomEvict, Residents, SetIndex, SetView, Way, WayView,
};
use std::cell::RefCell;
use std::rc::Rc;

/// xorshift64*: seeded, dependency-free.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) % n
    }
}

/// One core callback, as delivered to the core of a set.
#[derive(Debug, Clone, PartialEq)]
enum Call {
    Hit(SetIndex, BlockAddr, Way, Cost, bool),
    Miss(SetIndex, BlockAddr, Option<(BlockAddr, Cost)>),
    Fill(SetIndex, BlockAddr, Way, Cost),
    Remove(SetIndex, BlockAddr, Option<Way>),
    /// The answers `victim` got — `lru()`, `at_way` for ways `0..=assoc`,
    /// `(bound, lru_most_cheaper_than(bound))` — and the way it chose.
    Victim(
        SetIndex,
        WayView,
        Vec<Option<WayView>>,
        Vec<(u64, Option<WayView>)>,
        Way,
    ),
}

type Log = Rc<RefCell<Vec<Call>>>;

/// Records every callback and every answer, and evicts a seeded random way.
struct Probe {
    set: SetIndex,
    ways: usize,
    rng: Rng,
    log: Log,
}

impl EvictionPolicy for Probe {
    fn name(&self) -> &'static str {
        "probe"
    }
    fn victim(&mut self, residents: &dyn Residents) -> Way {
        // One way past the last, too: both drivers must answer `None`.
        let at_way: Vec<_> = (0..=self.ways).map(|w| residents.at_way(Way(w))).collect();
        let mut costs: Vec<u64> = at_way.iter().flatten().map(|e| e.cost.0).collect();
        costs.sort_unstable();
        costs.dedup();
        let cheaper = costs
            .iter()
            .flat_map(|&c| [c, c + 1])
            .map(|bound| (bound, residents.lru_most_cheaper_than(bound)))
            .collect();
        let way = Way(self.rng.below(self.ways as u64) as usize);
        let call = Call::Victim(self.set, residents.lru(), at_way, cheaper, way);
        self.log.borrow_mut().push(call);
        way
    }
    fn on_hit(&mut self, block: BlockAddr, way: Way, cost: Cost, is_lru: bool) {
        let call = Call::Hit(self.set, block, way, cost, is_lru);
        self.log.borrow_mut().push(call);
    }
    fn on_miss(&mut self, block: BlockAddr, lru: Option<(BlockAddr, Cost)>) {
        self.log.borrow_mut().push(Call::Miss(self.set, block, lru));
    }
    fn on_fill(&mut self, block: BlockAddr, way: Way, cost: Cost) {
        let call = Call::Fill(self.set, block, way, cost);
        self.log.borrow_mut().push(call);
    }
    fn on_remove(&mut self, block: BlockAddr, way: Option<Way>) {
        self.log
            .borrow_mut()
            .push(Call::Remove(self.set, block, way));
    }
}

type Core = Box<dyn EvictionPolicy>;

/// A factory of `name` cores for the sets of an `assoc`-way cache, set 0
/// first; the probes record to `log`.
fn cores(name: &'static str, assoc: usize, seed: u64, log: &Log) -> impl FnMut() -> Core {
    let log = log.clone();
    let mut random = RandomEvict::per_set(assoc, seed);
    let mut set = 0;
    move || {
        set += 1;
        match name {
            "lru" => Box::new(Lru::new()),
            "fifo" => Box::new(Fifo::new()),
            "random" => Box::new(random()),
            "probe" => Box::new(Probe {
                set: SetIndex(set - 1),
                ways: assoc,
                rng: Rng(seed.wrapping_add(set as u64) | 1),
                log: log.clone(),
            }),
            other => panic!("no core {other}"),
        }
    }
}

/// The reference side's driver: one core per set behind the frozen
/// set-indexed trait, each `victim` answered by a [`SetView`] of the copy
/// the frozen cache makes.
struct PerSet<C> {
    cores: Vec<C>,
}

impl<C> PerSet<C> {
    fn new(geom: &Geometry, core: impl FnMut() -> C) -> Self {
        PerSet {
            cores: std::iter::repeat_with(core).take(geom.num_sets()).collect(),
        }
    }
}

impl<C: EvictionPolicy> policy::ReplacementPolicy for PerSet<C> {
    fn name(&self) -> &'static str {
        self.cores[0].name()
    }
    fn victim(&mut self, set: SetIndex, view: &policy::SetView<'_>) -> Way {
        let entries: Vec<WayView> = view
            .iter()
            .map(|e| WayView {
                way: e.way,
                block: e.block,
                cost: e.cost,
            })
            .collect();
        self.cores[set.0].victim(&SetView::new(&entries))
    }
    fn on_hit(&mut self, set: SetIndex, block: BlockAddr, way: Way, cost: Cost, is_lru: bool) {
        self.cores[set.0].on_hit(block, way, cost, is_lru);
    }
    fn on_miss(&mut self, set: SetIndex, block: BlockAddr, lru: Option<(BlockAddr, Cost)>) {
        self.cores[set.0].on_miss(block, lru);
    }
    fn on_fill(&mut self, set: SetIndex, block: BlockAddr, way: Way, cost: Cost) {
        self.cores[set.0].on_fill(block, way, cost);
    }
    fn on_invalidate(
        &mut self,
        set: SetIndex,
        block: BlockAddr,
        resident: Option<(Way, usize)>,
        _kind: policy::InvalidateKind,
    ) {
        self.cores[set.0].on_remove(block, resident.map(|(way, _)| way));
    }
}

fn old_op(op: AccessType) -> reference::AccessType {
    match op {
        AccessType::Read => reference::AccessType::Read,
        AccessType::Write => reference::AccessType::Write,
    }
}

fn old_evicted(e: reference::Evicted) -> Evicted {
    Evicted {
        block: e.block,
        dirty: e.dirty,
        cost: e.cost,
        was_lru: e.was_lru,
    }
}

fn old_outcome(o: reference::AccessOutcome) -> AccessOutcome {
    AccessOutcome {
        hit: o.hit,
        way: o.way,
        cost_charged: o.cost_charged,
        evicted: o.evicted.map(old_evicted),
    }
}

/// Runs `steps` seeded operations on both caches; returns how many
/// evictions they made.
fn lockstep(name: &'static str, assoc: usize, sets: usize, seed: u64, steps: usize) -> u64 {
    let geom = Geometry::new(64 * (assoc * sets) as u64, 64, assoc);
    let (new_log, old_log) = (Log::default(), Log::default());
    let mut new = Cache::new(geom, cores(name, assoc, seed, &new_log));
    let old_cores = PerSet::new(&geom, cores(name, assoc, seed, &old_log));
    let mut old = reference::Cache::new(geom, old_cores);
    let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
    // Twice the capacity: about half the accesses hit.
    let universe = 2 * (assoc * sets) as u64 + 1;
    let at = |step: usize| format!("{name} assoc {assoc} sets {sets} seed {seed} step {step}");
    for step in 0..steps {
        let block = BlockAddr(rng.below(universe));
        let cost = Cost(rng.below(17));
        match rng.below(100) {
            0..=79 => {
                let op = if rng.below(3) == 0 {
                    AccessType::Write
                } else {
                    AccessType::Read
                };
                let got = new.access(block, op, cost);
                let want = old_outcome(old.access(block, old_op(op), cost));
                assert_eq!(got, want, "access at {}", at(step));
            }
            80..=89 => {
                let got = new.invalidate(block);
                let want = old
                    .invalidate(block, policy::InvalidateKind::Coherence)
                    .map(old_evicted);
                assert_eq!(got, want, "invalidate at {}", at(step));
            }
            90..=94 => assert_eq!(
                new.writeback(block),
                old.writeback(block),
                "writeback at {}",
                at(step)
            ),
            _ => assert_eq!(
                new.update_cost(block, cost),
                old.update_cost(block, cost),
                "update_cost at {}",
                at(step)
            ),
        }
        assert_eq!(
            new_log.borrow().as_slice(),
            old_log.borrow().as_slice(),
            "callbacks at {}",
            at(step)
        );
        new_log.borrow_mut().clear();
        old_log.borrow_mut().clear();
        assert_eq!(new.contains(block), old.contains(block), "{}", at(step));
        assert_eq!(new.cost_of(block), old.cost_of(block), "{}", at(step));
        let set = geom.set_of(block);
        assert_eq!(new.recency_of(set), old.recency_of(set), "{}", at(step));
        if step % 512 == 0 {
            assert_eq!(new.stats(), old.stats(), "stats at {}", at(step));
            assert!(
                new.resident_blocks().eq(old.resident_blocks()),
                "resident blocks at {}",
                at(step)
            );
        }
    }
    assert_eq!(new.stats(), old.stats(), "final stats, {}", at(steps));
    assert!(new.resident_blocks().eq(old.resident_blocks()));
    new.stats().evictions
}

#[test]
fn flat_cache_matches_the_per_set_reference_step_for_step() {
    const STEPS: usize = 21_000;
    let mut steps = 0;
    let mut evictions = 0;
    for (i, &assoc) in [1usize, 2, 3, 4, 8, 16].iter().enumerate() {
        for sets in [1usize, 64] {
            for name in ["lru", "fifo", "random", "probe"] {
                evictions += lockstep(name, assoc, sets, 0xCAC4E + i as u64, STEPS);
                steps += STEPS;
            }
        }
    }
    assert!(steps >= 1_000_000, "{steps} steps");
    assert!(evictions > 100_000, "the streams must evict: {evictions}");
}

#[test]
fn a_victim_off_the_stack_is_refused_by_both() {
    struct Bad;
    impl EvictionPolicy for Bad {
        fn name(&self) -> &'static str {
            "bad"
        }
        fn victim(&mut self, _residents: &dyn Residents) -> Way {
            Way(9)
        }
    }
    for shipped in [true, false] {
        let r = std::panic::catch_unwind(|| {
            let geom = Geometry::new(64 * 2, 64, 2);
            if shipped {
                let mut c = Cache::new(geom, || Bad);
                for b in 0..3 {
                    c.access(BlockAddr(b), AccessType::Read, Cost(1));
                }
            } else {
                let mut c = reference::Cache::new(geom, PerSet::new(&geom, || Bad));
                for b in 0..3 {
                    c.access(BlockAddr(b), reference::AccessType::Read, Cost(1));
                }
            }
        });
        assert!(
            r.is_err(),
            "shipped={shipped}: an invalid victim must panic"
        );
    }
}
