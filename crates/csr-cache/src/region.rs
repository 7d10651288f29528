//! The key-value driver of a policy core: one replacement region.
//!
//! A [`Region`] is a slab of entries threaded on intrusive doubly linked
//! lists, plus the boxed `EvictionPolicy` core that decides its evictions.
//! It is the only code in this crate that speaks the core protocol, and it
//! enforces the same contract the simulator's `cache_sim::Cache` does for
//! cache sets:
//!
//! * `on_hit` is delivered before the entry is promoted to MRU;
//! * `on_miss` carries the current LRU `(id, cost)` pair and precedes
//!   victim selection; it is delivered once per missing access, so an
//!   insert right after its own get's miss does not deliver it again;
//! * `victim` runs exactly once per replacement, only on a full region, and
//!   is handed the slab as [`Residents`] — nothing is copied or built for it;
//! * `on_fill` follows linking the new entry at MRU;
//! * `on_remove(id, slot)` reports every departure `victim` did not choose,
//!   with the slot it vacated.
//!
//! The recency order is kept **partitioned by cost**: an entry sits on one
//! list, that of its cost class — the entries of exactly that cost, no
//! rounding — and carries a stamp from the region's clock, renewed whenever
//! it moves to MRU. Each list is in recency order, the stamps order entries
//! of different classes, and the region remembers which entry holds the
//! least stamp. A hit therefore rewires one list, as it did when the region
//! kept a single one, and an entry is 8 bytes smaller than it was then (the
//! class holds the cost, the stamp's niche marks a vacant slot). A core's
//! three questions are answered without walking anything but the classes:
//!
//! | question | answer | cost |
//! |---|---|---|
//! | `lru()` | the remembered entry | O(1) |
//! | `at_way(slot)` | the slab slot | O(1) |
//! | `lru_most_cheaper_than(bound)` | least stamp among the tails of the classes below `bound` | O(distinct costs below `bound`) |
//!
//! What the partition costs is paid when the LRU entry is promoted, evicted
//! or removed: its successor is the oldest of the class tails, O(distinct
//! costs) to find. The whole order (a snapshot) is the entries sorted by
//! stamp. The benchmark's two costs make all of that two steps; a
//! server charging measured latencies has as many classes as distinct
//! latencies resident, and if that count ever matters the lever is rounding
//! costs into classes CAMP-style — deliberately not pulled here, because it
//! changes decisions. A class that empties keeps its slot (a steady state
//! that drains and refills one allocates nothing); the empties are dropped
//! together once they outnumber the classes in use.
//!
//! The region is addressed by slab slot (the policy's "way") and knows
//! nothing about keys: the owner keeps the key → slot index and stores
//! whatever it needs per entry as the payload `T` — `(K, V)` for a shard.

use cache_sim::{BlockAddr, BoxedPolicy, Cost, Residents, Way, WayView};
use csr::eviction::overgrown;
use std::collections::BTreeMap;
use std::num::NonZeroU32;

/// Sentinel slot index for list ends.
const NIL: u32 = u32::MAX;

/// One slab entry: the owner's payload plus what the policy sees of it.
/// The miss cost it was priced at on fill is its class's: [`Region::cost`].
pub(crate) struct Slot<T> {
    pub(crate) payload: T,
    /// Stable policy-visible identity (the 64-bit hash of the key).
    pub(crate) id: BlockAddr,
    /// Neighbours on the class's list: `prev` toward MRU, `next` toward LRU.
    prev: u32,
    next: u32,
    /// The region clock when the entry last moved to MRU. Never zero, so a
    /// vacant slab slot needs no tag of its own.
    stamp: NonZeroU32,
    /// Index of the entry's cost class in [`Slab::classes`].
    class: u32,
}

/// The entry a full region gave up to make room.
pub(crate) struct Evicted<T> {
    pub(crate) slot: Slot<T>,
    /// The core spared the LRU entry and chose this one instead.
    pub(crate) reserved: bool,
}

/// The entries and the order threaded through them: everything a core may
/// ask about, apart from the core itself.
struct Slab<T> {
    slots: Vec<Option<Slot<T>>>,
    free: Vec<u32>,
    /// One recency list per distinct cost, indexed by [`Slot::class`].
    classes: Vec<Class>,
    /// Cost → class, for the classes in use and those emptied since the
    /// last pruning.
    by_cost: BTreeMap<u64, u32>,
    /// How many classes of `by_cost` hold no entry.
    empty_classes: usize,
    /// Pruned indices of `classes`, for reuse.
    free_classes: Vec<u32>,
    /// The latest stamp handed out.
    clock: u32,
    /// The resident of least stamp, `NIL` in an empty region. It is the
    /// tail of its class, and stays the LRU entry until it is promoted or
    /// leaves: only then are the class tails compared again.
    lru: u32,
}

/// The entries of one cost, most recently used first: `head` is the list's
/// MRU end, `tail` its LRU end.
struct Class {
    head: u32,
    tail: u32,
    cost: u64,
}

impl<T> Slab<T> {
    fn slot(&self, i: u32) -> &Slot<T> {
        self.slots[i as usize]
            .as_ref()
            .expect("linked slot must be occupied")
    }

    fn slot_mut(&mut self, i: u32) -> &mut Slot<T> {
        self.slots[i as usize]
            .as_mut()
            .expect("linked slot must be occupied")
    }

    /// The residents' slots in recency order, LRU first.
    fn lru_to_mru(&self) -> impl DoubleEndedIterator<Item = u32> {
        let stamped = |(i, s): (usize, &Option<Slot<T>>)| Some((s.as_ref()?.stamp, i as u32));
        let mut order: Vec<_> = self.slots.iter().enumerate().filter_map(stamped).collect();
        order.sort_unstable();
        order.into_iter().map(|(_, i)| i)
    }

    /// The next stamp. Stamps only order the residents, so when the clock
    /// runs out they are dealt again from 1 in recency order.
    fn tick(&mut self) -> NonZeroU32 {
        if self.clock == u32::MAX {
            self.clock = 0;
            for i in self.lru_to_mru() {
                self.slot_mut(i).stamp = self.tick();
            }
        }
        self.clock += 1;
        NonZeroU32::new(self.clock).expect("the clock was just bumped")
    }

    /// The resident of least stamp: the oldest of the class tails.
    fn oldest(&self) -> u32 {
        let tails = self.classes.iter().map(|c| c.tail).filter(|&t| t != NIL);
        tails.min_by_key(|&t| self.slot(t).stamp).unwrap_or(NIL)
    }

    /// Moves the resident entry in slot `i` to MRU. This is the hit path:
    /// the entry is read once and its list rewired in one go.
    fn promote(&mut self, i: u32) {
        let s = self.slot(i);
        if s.stamp.get() == self.clock {
            return; // the MRU entry already
        }
        let (prev, next, class) = (s.prev, s.next, s.class as usize);
        let stamp = self.tick();
        if prev != NIL {
            // Not its class's head: unlink it and put it there.
            self.slot_mut(prev).next = next;
            let class = &mut self.classes[class];
            let old_head = std::mem::replace(&mut class.head, i);
            if next == NIL {
                class.tail = prev;
            } else {
                self.slot_mut(next).prev = prev;
            }
            self.slot_mut(old_head).prev = i;
            let s = self.slot_mut(i);
            (s.prev, s.next) = (NIL, old_head);
        }
        self.slot_mut(i).stamp = stamp;
        if self.lru == i {
            self.lru = self.oldest();
        }
    }

    /// The class of `cost`, created if no entry of that cost was seen since
    /// the last pruning.
    fn class_of(&mut self, cost: u64) -> u32 {
        if let Some(&class) = self.by_cost.get(&cost) {
            return class;
        }
        let in_use = self.by_cost.len() - self.empty_classes;
        if overgrown(self.by_cost.len(), in_use) {
            let (classes, spare) = (&self.classes, &mut self.free_classes);
            self.by_cost.retain(|_, &mut class| {
                let keep = classes[class as usize].head != NIL;
                if !keep {
                    spare.push(class);
                }
                keep
            });
            self.empty_classes = 0;
        }
        let fresh = Class {
            head: NIL,
            tail: NIL,
            cost,
        };
        let class = match self.free_classes.pop() {
            Some(class) => {
                self.classes[class as usize] = fresh;
                class
            }
            None => {
                self.classes.push(fresh);
                (self.classes.len() - 1) as u32
            }
        };
        self.by_cost.insert(cost, class);
        self.empty_classes += 1;
        class
    }

    /// Puts the entry in slot `i`, which holds the latest stamp, at the MRU
    /// end of its class's list.
    fn enter_class(&mut self, i: u32) {
        let class = self.slot(i).class as usize;
        let class = &mut self.classes[class];
        let old_head = std::mem::replace(&mut class.head, i);
        if old_head == NIL {
            class.tail = i;
            self.empty_classes -= 1;
        } else {
            self.slot_mut(old_head).prev = i;
        }
        let s = self.slot_mut(i);
        (s.prev, s.next) = (NIL, old_head);
    }

    /// Takes the entry in slot `i` off its class's list.
    fn leave_class(&mut self, i: u32) {
        let s = self.slot(i);
        let (prev, next, class) = (s.prev, s.next, s.class as usize);
        if next == NIL {
            self.classes[class].tail = prev;
        } else {
            self.slot_mut(next).prev = prev;
        }
        if prev != NIL {
            self.slot_mut(prev).next = next;
        } else {
            self.classes[class].head = next;
            if next == NIL {
                self.empty_classes += 1;
            }
        }
    }

    fn cost(&self, i: u32) -> u64 {
        self.classes[self.slot(i).class as usize].cost
    }

    /// What a core sees of the entry in slot `i`.
    fn view(&self, i: u32) -> WayView {
        WayView {
            way: Way(i as usize),
            block: self.slot(i).id,
            cost: Cost(self.cost(i)),
        }
    }
}

impl<T> Residents for Slab<T> {
    fn lru(&self) -> WayView {
        self.view(self.lru)
    }

    fn at_way(&self, way: Way) -> Option<WayView> {
        let occupied = self.slots.get(way.0)?.is_some();
        occupied.then(|| self.view(way.0 as u32))
    }

    fn lru_most_cheaper_than(&self, bound: u64) -> Option<WayView> {
        self.by_cost
            .range(..bound)
            .filter_map(|(_, &class)| {
                // The class's oldest entry other than the region's LRU one.
                let tail = self.classes[class as usize].tail;
                let oldest = if tail == self.lru {
                    self.slot(tail).prev
                } else {
                    tail
                };
                (oldest != NIL).then(|| (self.slot(oldest).stamp, oldest))
            })
            .min()
            .map(|(_, i)| self.view(i))
    }
}

pub(crate) struct Region<T> {
    slab: Slab<T>,
    capacity: usize,
    core: BoxedPolicy,
    /// The id of the last [`Region::miss`], while no other event has
    /// reached the core since: an insert of that id then skips its own
    /// `on_miss`, which would find the core exactly as the first left it.
    probed: Option<BlockAddr>,
}

impl<T> Region<T> {
    pub(crate) fn new(capacity: usize, core: BoxedPolicy) -> Self {
        assert!(
            capacity < NIL as usize,
            "shard capacity must fit in a u32 slot index"
        );
        Region {
            slab: Slab {
                slots: Vec::with_capacity(capacity),
                free: Vec::new(),
                classes: Vec::new(),
                by_cost: BTreeMap::new(),
                empty_classes: 0,
                free_classes: Vec::new(),
                clock: 0,
                lru: NIL,
            },
            capacity,
            core,
            probed: None,
        }
    }

    fn len(&self) -> usize {
        self.slab.slots.len() - self.slab.free.len()
    }

    pub(crate) fn slot(&self, i: u32) -> &Slot<T> {
        self.slab.slot(i)
    }

    /// The miss cost the entry in slot `i` was priced at on fill.
    pub(crate) fn cost(&self, i: u32) -> u64 {
        self.slab.cost(i)
    }

    /// Unlinks and vacates slot `i`.
    fn take(&mut self, i: u32) -> Slot<T> {
        let slab = &mut self.slab;
        slab.leave_class(i);
        let slot = slab.slots[i as usize]
            .take()
            .expect("slot must be occupied");
        slab.free.push(i);
        if slab.lru == i {
            slab.lru = slab.oldest();
        }
        slot
    }

    /// An access hit the entry in slot `i`: notifies the core, then
    /// promotes the entry to MRU.
    pub(crate) fn touch(&mut self, i: u32) -> &Slot<T> {
        // Read before writing: a hit stream then never dirties the cache
        // line the record shares (an unconditional store took 7-14% off
        // `kv-hit`'s ops per second on a 2-vCPU host).
        if self.probed.is_some() {
            self.probed = None;
        }
        let is_lru = self.slab.lru == i;
        let (id, cost) = (self.slab.slot(i).id, Cost(self.slab.cost(i)));
        self.core.on_hit(id, Way(i as usize), cost, is_lru);
        self.slab.promote(i);
        self.slab.slot(i)
    }

    /// An access to the absent `id` missed.
    pub(crate) fn miss(&mut self, id: BlockAddr) {
        self.deliver_miss(id);
        self.probed = Some(id);
    }

    fn deliver_miss(&mut self, id: BlockAddr) {
        let lru = self.slab.lru;
        let lru = (lru != NIL).then(|| (self.slab.slot(lru).id, Cost(self.slab.cost(lru))));
        self.core.on_miss(id, lru);
    }

    /// Overwrites the resident entry in slot `i`: an access (notify +
    /// promote), then a refill at the new `cost` for cost-dependent cores.
    /// Returns the payload for the owner to replace.
    pub(crate) fn refresh(&mut self, i: u32, cost: u64) -> &mut T {
        let id = self.touch(i).id;
        self.core.on_fill(id, Way(i as usize), Cost(cost));
        if self.slab.cost(i) != cost {
            // The entry is at MRU, so it enters its new class at MRU too.
            self.slab.leave_class(i);
            self.slab.slot_mut(i).class = self.slab.class_of(cost);
            self.slab.enter_class(i);
        }
        &mut self.slab.slot_mut(i).payload
    }

    /// Inserts the absent `id`: a missing access, an eviction per the core
    /// if the region is full, then the fill at MRU. Returns the new slot
    /// and whatever was evicted to make room.
    ///
    /// In a get-then-insert flow the get's [`miss`](Self::miss) was that
    /// access, and `on_miss` is not delivered again when nothing reached
    /// the core in between: the core is as the first delivery left it (any
    /// matching ETD entry already taken), so a second one would decide
    /// nothing. Any other event since — another key's miss included —
    /// and the insert delivers its own, as the `EvictionPolicy` contract
    /// allows.
    pub(crate) fn insert(
        &mut self,
        id: BlockAddr,
        cost: u64,
        payload: T,
    ) -> (u32, Option<Evicted<T>>) {
        if self.probed.take() != Some(id) {
            self.deliver_miss(id);
        }
        let evicted = (self.len() == self.capacity).then(|| self.evict());
        let slab = &mut self.slab;
        let i = match slab.free.pop() {
            Some(i) => i,
            None => {
                slab.slots.push(None);
                (slab.slots.len() - 1) as u32
            }
        };
        let slot = Slot {
            payload,
            id,
            prev: NIL,
            next: NIL,
            stamp: slab.tick(),
            class: slab.class_of(cost),
        };
        slab.slots[i as usize] = Some(slot);
        slab.enter_class(i);
        if slab.lru == NIL {
            slab.lru = i;
        }
        self.core.on_fill(id, Way(i as usize), Cost(cost));
        (i, evicted)
    }

    /// Evicts the core's choice (once per replacement).
    fn evict(&mut self) -> Evicted<T> {
        let victim = self.core.victim(&self.slab).0 as u32;
        Evicted {
            reserved: self.slab.lru != victim,
            slot: self.take(victim),
        }
    }

    /// Removes the entry in slot `i` on the owner's initiative.
    pub(crate) fn remove(&mut self, i: u32) -> Slot<T> {
        self.probed = None;
        let slot = self.take(i);
        self.core.on_remove(slot.id, Some(Way(i as usize)));
        slot
    }

    /// Removes every entry, MRU first, reporting each identity to the core.
    /// Returns how many were dropped.
    pub(crate) fn clear(&mut self) -> u64 {
        self.probed = None;
        let mut dropped = 0;
        for i in self.slab.lru_to_mru().rev() {
            self.remove(i);
            dropped += 1;
        }
        let slab = &mut self.slab;
        slab.free.clear();
        slab.slots.clear();
        slab.classes.clear();
        slab.by_cost.clear();
        slab.empty_classes = 0;
        slab.free_classes.clear();
        dropped
    }

    /// The resident entries with their slots, LRU first.
    pub(crate) fn lru_to_mru(&self) -> impl Iterator<Item = (u32, &Slot<T>)> {
        self.slab.lru_to_mru().map(|i| (i, self.slab.slot(i)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csr::Policy;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    /// A stream with reservations (one key in five is expensive), hits and
    /// refreshes at a changed cost; returns every eviction.
    fn run(region: &mut Region<()>) -> Vec<(BlockAddr, bool)> {
        let mut slots = std::collections::HashMap::new();
        let mut evictions = Vec::new();
        let mut state = 7u64;
        for step in 0..600u64 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let key = (state >> 33) % 24;
            let cost = if key.is_multiple_of(5) {
                40
            } else {
                1 + step % 3
            };
            match slots.get(&key) {
                Some(&i) if step.is_multiple_of(7) => drop(region.refresh(i, cost)),
                Some(&i) => drop(region.touch(i)),
                None => {
                    let (i, evicted) = region.insert(BlockAddr(key), cost, ());
                    if let Some(e) = evicted {
                        slots.remove(&e.slot.id.0);
                        evictions.push((e.slot.id, e.reserved));
                    }
                    slots.insert(key, i);
                }
            }
        }
        evictions
    }

    #[test]
    fn an_entry_is_smaller_than_on_the_single_list() {
        // 48 and 32 then: payload, id, cost, prev/next and a vacancy tag.
        assert_eq!(std::mem::size_of::<Option<Slot<(u64, u64)>>>(), 40);
        assert_eq!(std::mem::size_of::<Option<Slot<()>>>(), 24);
    }

    /// An LRU core that counts the `on_miss` deliveries it gets.
    struct MissCounter(Arc<AtomicU64>);

    impl cache_sim::EvictionPolicy for MissCounter {
        fn name(&self) -> &'static str {
            "miss-counter"
        }
        fn victim(&mut self, residents: &dyn Residents) -> Way {
            residents.lru().way
        }
        fn on_miss(&mut self, _block: BlockAddr, _lru: Option<(BlockAddr, Cost)>) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// `on_miss` deliveries of `steps` run on a region holding `x` in slot 0.
    fn misses_delivered(steps: impl FnOnce(&mut Region<()>)) -> u64 {
        let count = Arc::new(AtomicU64::new(0));
        let mut region = Region::new(4, Box::new(MissCounter(count.clone())));
        assert_eq!(region.insert(BlockAddr(99), 1, ()).0, 0);
        let before = count.load(Ordering::Relaxed);
        steps(&mut region);
        count.load(Ordering::Relaxed) - before
    }

    #[test]
    fn an_insert_after_its_own_miss_delivers_no_second_miss() {
        let (a, b) = (BlockAddr(1), BlockAddr(2));
        let insert = |r: &mut Region<()>, id| {
            r.insert(id, 1, ());
        };
        assert_eq!(
            misses_delivered(|r| {
                r.miss(a);
                insert(r, a);
            }),
            1
        );
        // Another key's miss in between: the insert delivers its own.
        assert_eq!(
            misses_delivered(|r| {
                r.miss(a);
                r.miss(b);
                insert(r, a);
            }),
            3
        );
        // So does any other event, a hit on the resident `x` here.
        assert_eq!(
            misses_delivered(|r| {
                r.miss(a);
                r.touch(0);
                insert(r, a);
            }),
            2
        );
        // And an insert without a preceding miss is a missing access too,
        // even of the id the last miss named once that miss was filled.
        assert_eq!(misses_delivered(|r| insert(r, a)), 1);
        assert_eq!(
            misses_delivered(|r| {
                r.miss(a);
                insert(r, a);
                // Four more fills evict `x`, then `a`.
                (3..7).for_each(|k| insert(r, BlockAddr(k)));
                insert(r, a);
            }),
            6
        );
    }

    #[test]
    fn decisions_survive_the_clock_running_out() {
        let mut dcl = Policy::Dcl.cores(8, 0, None);
        let mut fresh = Region::new(8, dcl());
        let mut wrapping = Region::new(8, dcl());
        // Runs out, and the stamps are dealt again, a few dozen touches in.
        wrapping.slab.clock = u32::MAX - 40;
        let evictions = run(&mut fresh);
        assert!(evictions.iter().any(|&(_, reserved)| reserved));
        assert_eq!(run(&mut wrapping), evictions);
        assert!(wrapping.slab.clock < 1_000, "the clock restarted");
    }
}
