//! The shipped `Cache` (every set in two flat arrays, promote and remove
//! one `copy_within`) against the cache it replaced, kept verbatim in
//! `reference/cache.rs` (a `Vec<Frame>` and a `Vec<Way>` per set, promote
//! by `retain` + `insert(0)`). Both run the same seeded stream of
//! `access`, `invalidate` (all three kinds), `writeback` and `update_cost`
//! calls in lockstep, at associativities 1–16 with one or 64 sets, under
//! `Lru`, `Fifo`, `RandomEvict` and a [`Probe`] that records every
//! callback — `SetView` contents included — and evicts a seeded random
//! position, so a driver that orders a stack differently evicts
//! differently. Outcomes, evictions, statistics, recency stacks, resident
//! blocks and the callback logs must agree on every step.

// The frozen file names its siblings through `crate::`: these are them.
mod addr {
    pub use cache_sim::addr::*;
}
mod cost {
    pub use cache_sim::cost::*;
}
mod lru {
    pub use cache_sim::lru::*;
}
mod policy {
    pub use cache_sim::policy::*;
}
mod stats {
    pub use cache_sim::stats::*;
}

#[allow(dead_code)]
#[path = "reference/cache.rs"]
mod reference;

use cache_sim::{
    AccessOutcome, AccessType, BlockAddr, Cache, Cost, Evicted, Fifo, Geometry, InvalidateKind,
    Lru, RandomEvict, ReplacementPolicy, SetIndex, SetView, Way, WayView,
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

/// One policy callback, as delivered.
#[derive(Debug, Clone, PartialEq)]
enum Call {
    Hit(SetIndex, BlockAddr, Way, Cost, bool),
    Miss(SetIndex, BlockAddr, Option<(BlockAddr, Cost)>),
    Fill(SetIndex, BlockAddr, Way, Cost),
    Invalidate(SetIndex, BlockAddr, Option<(Way, usize)>, InvalidateKind),
    Victim(SetIndex, Vec<WayView>, Way),
}

/// Records every callback and evicts a seeded random stack position.
struct Probe {
    rng: Rng,
    log: Rc<RefCell<Vec<Call>>>,
}

impl ReplacementPolicy for Probe {
    fn name(&self) -> &'static str {
        "probe"
    }
    fn victim(&mut self, set: SetIndex, view: &SetView<'_>) -> Way {
        let way = view.at(self.rng.below(view.len() as u64) as usize).way;
        let entries = view.iter().copied().collect();
        self.log.borrow_mut().push(Call::Victim(set, entries, way));
        way
    }
    fn on_hit(&mut self, set: SetIndex, block: BlockAddr, way: Way, cost: Cost, is_lru: bool) {
        let call = Call::Hit(set, block, way, cost, is_lru);
        self.log.borrow_mut().push(call);
    }
    fn on_miss(&mut self, set: SetIndex, block: BlockAddr, lru: Option<(BlockAddr, Cost)>) {
        self.log.borrow_mut().push(Call::Miss(set, block, lru));
    }
    fn on_fill(&mut self, set: SetIndex, block: BlockAddr, way: Way, cost: Cost) {
        self.log
            .borrow_mut()
            .push(Call::Fill(set, block, way, cost));
    }
    fn on_invalidate(
        &mut self,
        set: SetIndex,
        block: BlockAddr,
        resident: Option<(Way, usize)>,
        kind: InvalidateKind,
    ) {
        let call = Call::Invalidate(set, block, resident, kind);
        self.log.borrow_mut().push(call);
    }
}

type Boxed = Box<dyn ReplacementPolicy>;

/// A fresh policy of kind `name` for `geom`, and the log it records to
/// (empty for the cache-sim baselines).
fn policy(name: &str, geom: &Geometry, seed: u64) -> (Boxed, Rc<RefCell<Vec<Call>>>) {
    let log = Rc::new(RefCell::new(Vec::new()));
    let p: Boxed = match name {
        "lru" => Box::new(Lru::new()),
        "fifo" => Box::new(Fifo::new(geom.num_sets())),
        "random" => Box::new(RandomEvict::new(seed)),
        "probe" => Box::new(Probe {
            rng: Rng(seed | 1),
            log: log.clone(),
        }),
        other => panic!("no policy {other}"),
    };
    (p, log)
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
fn lockstep(name: &str, assoc: usize, sets: usize, seed: u64, steps: usize) -> u64 {
    let geom = Geometry::new(64 * (assoc * sets) as u64, 64, assoc);
    let (new_policy, new_log) = policy(name, &geom, seed);
    let (old_policy, old_log) = policy(name, &geom, seed);
    let mut new = Cache::new(geom, new_policy);
    let mut old = reference::Cache::new(geom, old_policy);
    let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
    // Twice the capacity: about half the accesses hit.
    let universe = 2 * (assoc * sets) as u64 + 1;
    let kinds = [
        InvalidateKind::Coherence,
        InvalidateKind::Inclusion,
        InvalidateKind::Flush,
    ];
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
                let kind = kinds[rng.below(3) as usize];
                let got = new.invalidate(block, kind);
                let want = old.invalidate(block, kind).map(old_evicted);
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
    impl ReplacementPolicy for Bad {
        fn name(&self) -> &'static str {
            "bad"
        }
        fn victim(&mut self, _set: SetIndex, _view: &SetView<'_>) -> Way {
            Way(9)
        }
    }
    for shipped in [true, false] {
        let r = std::panic::catch_unwind(|| {
            let geom = Geometry::new(64 * 2, 64, 2);
            if shipped {
                let mut c = Cache::new(geom, Bad);
                for b in 0..3 {
                    c.access(BlockAddr(b), AccessType::Read, Cost(1));
                }
            } else {
                let mut c = reference::Cache::new(geom, Bad);
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
