//! TEST-ONLY REFERENCE DRIVER. This is `src/region.rs` as it stood before
//! eviction stopped materializing the shard: `evict` copies the recency list
//! MRU → LRU into a `Vec<WayView>` and asks the core through `SetView`, the
//! reference answers to `csr::Residents`. `tests/region_differential.rs`
//! runs it in lockstep with the shipped region. Below this paragraph the file
//! is verbatim; do not "fix" or modernize it — its O(capacity) eviction is
//! the point.
//!
//! The key-value driver of a policy core: one replacement region.
//!
//! A [`Region`] is a slab of entries threaded on an intrusive doubly linked
//! recency list, plus the boxed [`EvictionPolicy`] core that decides its
//! evictions. It is the only code in this crate that speaks the core
//! protocol, and it enforces the same contract the simulator's
//! `csr::PerSet` does for cache sets:
//!
//! * `on_hit` is delivered before the entry is promoted to MRU;
//! * `on_miss` carries the current LRU `(id, cost)` pair and precedes
//!   victim selection;
//! * `victim` runs exactly once per replacement, only on a full region,
//!   over the recency order materialized MRU → LRU (the single
//!   O(capacity) step, built at one site: [`Region::evict`]);
//! * `on_fill` follows linking the new entry at MRU;
//! * `on_remove` reports every departure `victim` did not choose.
//!
//! The region is addressed by slab slot (the policy's "way") and knows
//! nothing about keys: the owner keeps the key → slot index and stores
//! whatever it needs per entry as the payload `T` — `(K, V)` for a shard,
//! `()` for the adaptive selector's key-only ghosts.

use cache_sim::{BlockAddr, Cost, SetView, Way, WayView};
use csr::EvictionPolicy;

/// Sentinel slot index for list ends.
const NIL: u32 = u32::MAX;

/// The policy core a region owns.
pub(crate) type BoxedCore = Box<dyn EvictionPolicy + Send>;

/// One slab entry: the owner's payload plus what the policy sees of it.
pub(crate) struct Slot<T> {
    pub(crate) payload: T,
    /// Miss cost as priced at fill time.
    pub(crate) cost: u64,
    /// Stable policy-visible identity (the 64-bit hash of the key).
    pub(crate) id: BlockAddr,
    prev: u32,
    next: u32,
}

/// The entry a full region gave up to make room.
pub(crate) struct Evicted<T> {
    pub(crate) slot: Slot<T>,
    /// The core spared the LRU entry and chose this one instead.
    pub(crate) reserved: bool,
}

pub(crate) struct Region<T> {
    slots: Vec<Option<Slot<T>>>,
    free: Vec<u32>,
    /// MRU end of the recency list.
    head: u32,
    /// LRU end of the recency list.
    tail: u32,
    capacity: usize,
    core: BoxedCore,
}

impl<T> Region<T> {
    pub(crate) fn new(capacity: usize, core: BoxedCore) -> Self {
        assert!(
            capacity < NIL as usize,
            "shard capacity must fit in a u32 slot index"
        );
        Region {
            slots: Vec::with_capacity(capacity),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
            core,
        }
    }

    fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    pub(crate) fn slot(&self, i: u32) -> &Slot<T> {
        self.slots[i as usize]
            .as_ref()
            .expect("linked slot must be occupied")
    }

    fn slot_mut(&mut self, i: u32) -> &mut Slot<T> {
        self.slots[i as usize]
            .as_mut()
            .expect("linked slot must be occupied")
    }

    fn unlink(&mut self, i: u32) {
        let (prev, next) = {
            let s = self.slot(i);
            (s.prev, s.next)
        };
        if prev == NIL {
            self.head = next;
        } else {
            self.slot_mut(prev).next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.slot_mut(next).prev = prev;
        }
    }

    fn push_front(&mut self, i: u32) {
        let old_head = self.head;
        {
            let s = self.slot_mut(i);
            s.prev = NIL;
            s.next = old_head;
        }
        if old_head != NIL {
            self.slot_mut(old_head).prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    /// Unlinks and vacates slot `i`.
    fn take(&mut self, i: u32) -> Slot<T> {
        self.unlink(i);
        let slot = self.slots[i as usize]
            .take()
            .expect("slot must be occupied");
        self.free.push(i);
        slot
    }

    /// An access hit the entry in slot `i`: notifies the core, then
    /// promotes the entry to MRU.
    pub(crate) fn touch(&mut self, i: u32) -> &Slot<T> {
        let is_lru = self.tail == i;
        let (id, cost) = {
            let s = self.slot(i);
            (s.id, Cost(s.cost))
        };
        self.core.on_hit(id, Way(i as usize), cost, is_lru);
        if self.head != i {
            self.unlink(i);
            self.push_front(i);
        }
        self.slot(i)
    }

    /// An access to the absent `id` missed.
    pub(crate) fn miss(&mut self, id: BlockAddr) {
        let lru = (self.tail != NIL).then(|| {
            let s = self.slot(self.tail);
            (s.id, Cost(s.cost))
        });
        self.core.on_miss(id, lru);
    }

    /// Overwrites the resident entry in slot `i`: an access (notify +
    /// promote), then a refill at the new `cost` for cost-dependent cores.
    /// Returns the payload for the owner to replace.
    pub(crate) fn refresh(&mut self, i: u32, cost: u64) -> &mut T {
        let id = self.touch(i).id;
        self.core.on_fill(id, Way(i as usize), Cost(cost));
        let s = self.slot_mut(i);
        s.cost = cost;
        &mut s.payload
    }

    /// Inserts the absent `id`: a missing access, an eviction per the core
    /// if the region is full, then the fill at MRU. Returns the new slot
    /// and whatever was evicted to make room.
    ///
    /// In a get-then-insert flow this is the second `on_miss` for the same
    /// miss — harmless by the `EvictionPolicy` contract (the first call
    /// consumed any matching ETD entry).
    pub(crate) fn insert(
        &mut self,
        id: BlockAddr,
        cost: u64,
        payload: T,
    ) -> (u32, Option<Evicted<T>>) {
        self.miss(id);
        let evicted = (self.len() == self.capacity).then(|| self.evict());
        let i = match self.free.pop() {
            Some(i) => i,
            None => {
                self.slots.push(None);
                (self.slots.len() - 1) as u32
            }
        };
        self.slots[i as usize] = Some(Slot {
            payload,
            cost,
            id,
            prev: NIL,
            next: NIL,
        });
        self.push_front(i);
        self.core.on_fill(id, Way(i as usize), Cost(cost));
        (i, evicted)
    }

    /// Materializes the recency stack MRU → LRU and evicts the core's
    /// choice (the only O(capacity) step; runs once per replacement).
    fn evict(&mut self) -> Evicted<T> {
        let mut entries = Vec::with_capacity(self.len());
        let mut cur = self.head;
        while cur != NIL {
            let s = self.slot(cur);
            entries.push(WayView {
                way: Way(cur as usize),
                block: s.id,
                cost: Cost(s.cost),
            });
            cur = s.next;
        }
        let victim = self.core.victim(&SetView::new(&entries)).0 as u32;
        Evicted {
            reserved: self.tail != victim,
            slot: self.take(victim),
        }
    }

    /// Removes the entry in slot `i` on the owner's initiative.
    pub(crate) fn remove(&mut self, i: u32) -> Slot<T> {
        let slot = self.take(i);
        self.core.on_remove(slot.id, Some(Way(i as usize)));
        slot
    }

    /// Removes every entry, MRU first, reporting each identity to the core
    /// and to `each`. Returns how many were dropped.
    pub(crate) fn clear(&mut self, mut each: impl FnMut(BlockAddr)) -> u64 {
        let mut dropped = 0;
        while self.head != NIL {
            let id = self.remove(self.head).id;
            each(id);
            dropped += 1;
        }
        self.free.clear();
        self.slots.clear();
        dropped
    }

    /// The resident entries with their slots, LRU first.
    pub(crate) fn lru_to_mru(&self) -> impl Iterator<Item = (u32, &Slot<T>)> {
        let at = |i: u32| (i != NIL).then(|| (i, self.slot(i)));
        std::iter::successors(at(self.tail), move |(_, s)| at(s.prev))
    }

    /// Hot-swaps the core: the incoming one is warmed by replaying the
    /// resident entries as fills, LRU first, so its view of the recency
    /// order matches the region's — then it simply takes over.
    pub(crate) fn swap_core(&mut self, mut core: BoxedCore) {
        for (i, s) in self.lru_to_mru() {
            core.on_fill(s.id, Way(i as usize), Cost(s.cost));
        }
        self.core = core;
    }
}
