//! FIFO lists threaded through a region's ways.
//!
//! The queue cores (S3-FIFO, CAMP) each order the resident blocks on
//! a few FIFO lists. A block occupies exactly one way for as long as it is
//! resident, so the lists live where the paper keeps all replacement state —
//! in the blockframes: one link per way (the block there, its neighbours,
//! the list it is on) and a pair of ends per list. Everything is O(1), the
//! storage is sized once from the number of ways, and an entry that leaves
//! is unlinked on the spot: there is nothing to skip, count or compact.

use cache_sim::{BlockAddr, Way};

/// "No way" in a link, "no list" in [`Link::list`].
const NIL: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Link {
    block: BlockAddr,
    /// Neighbours on the list: `prev` toward the front, `next` toward the back.
    prev: u32,
    next: u32,
    /// The list the way is on; [`NIL`] while it is on none.
    list: u32,
}

#[derive(Debug, Clone, Copy)]
struct Ends {
    front: u32,
    back: u32,
    len: usize,
}

/// `lists` FIFO lists over the ways of one region, each way on at most one.
#[derive(Debug, Clone)]
pub(crate) struct WayLists {
    links: Vec<Link>,
    ends: Vec<Ends>,
}

impl WayLists {
    pub(crate) fn new(ways: usize, lists: usize) -> Self {
        assert!(ways < NIL as usize, "ways must fit in a u32 link");
        let unlinked = Link {
            block: BlockAddr(0),
            prev: NIL,
            next: NIL,
            list: NIL,
        };
        let empty = Ends {
            front: NIL,
            back: NIL,
            len: 0,
        };
        WayLists {
            links: vec![unlinked; ways],
            ends: vec![empty; lists],
        }
    }

    /// The list `way` is on, provided it is there as `block` (a core attached
    /// to a warm region is told of blocks it never linked).
    pub(crate) fn list_of(&self, way: Way, block: BlockAddr) -> Option<usize> {
        let link = self.links.get(way.0)?;
        (link.list != NIL && link.block == block).then_some(link.list as usize)
    }

    pub(crate) fn len(&self, list: usize) -> usize {
        self.ends[list].len
    }

    /// The oldest entry of `list`.
    pub(crate) fn front(&self, list: usize) -> Option<(Way, BlockAddr)> {
        let front = self.ends[list].front;
        (front != NIL).then(|| (Way(front as usize), self.links[front as usize].block))
    }

    /// Puts `block`, resident in `way`, at the back of `list`, taking the
    /// way off whatever list it was on.
    pub(crate) fn push_back(&mut self, list: usize, way: Way, block: BlockAddr) {
        self.detach(way.0);
        let ends = &mut self.ends[list];
        let old_back = std::mem::replace(&mut ends.back, way.0 as u32);
        ends.len += 1;
        if old_back == NIL {
            ends.front = way.0 as u32;
        } else {
            self.links[old_back as usize].next = way.0 as u32;
        }
        self.links[way.0] = Link {
            block,
            prev: old_back,
            next: NIL,
            list: list as u32,
        };
    }

    /// Removes and returns the oldest entry of `list`.
    pub(crate) fn pop_front(&mut self, list: usize) -> Option<(Way, BlockAddr)> {
        let (way, block) = self.front(list)?;
        self.detach(way.0);
        Some((way, block))
    }

    /// Takes `way` off its list if it is on one as `block`.
    pub(crate) fn unlink(&mut self, way: Way, block: BlockAddr) {
        if self.list_of(way, block).is_some() {
            self.detach(way.0);
        }
    }

    fn detach(&mut self, way: usize) {
        let Link {
            prev, next, list, ..
        } = self.links[way];
        if list == NIL {
            return;
        }
        let ends = &mut self.ends[list as usize];
        ends.len -= 1;
        match prev {
            NIL => ends.front = next,
            _ => self.links[prev as usize].next = next,
        }
        match next {
            NIL => self.ends[list as usize].back = prev,
            _ => self.links[next as usize].prev = prev,
        }
        self.links[way].list = NIL;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(lists: &mut WayLists, list: usize) -> Vec<(usize, u64)> {
        std::iter::from_fn(|| lists.pop_front(list))
            .map(|(way, block)| (way.0, block.0))
            .collect()
    }

    #[test]
    fn lists_are_fifo_and_unlink_from_anywhere() {
        let mut l = WayLists::new(5, 2);
        for way in 0..5 {
            l.push_back(0, Way(way), BlockAddr(10 + way as u64));
        }
        l.unlink(Way(0), BlockAddr(10)); // front
        l.unlink(Way(2), BlockAddr(12)); // middle
        l.unlink(Way(4), BlockAddr(14)); // back
        assert_eq!((l.len(0), l.len(1)), (2, 0));
        assert_eq!(l.front(0), Some((Way(1), BlockAddr(11))));
        assert_eq!(drain(&mut l, 0), [(1, 11), (3, 13)]);
        assert_eq!(l.front(0), None);
        // An emptied list takes entries again.
        l.push_back(0, Way(2), BlockAddr(7));
        assert_eq!(drain(&mut l, 0), [(2, 7)]);
    }

    #[test]
    fn a_way_is_on_one_list_as_one_block() {
        let mut l = WayLists::new(3, 2);
        l.push_back(0, Way(0), BlockAddr(1));
        l.push_back(0, Way(1), BlockAddr(2));
        // Pushing a linked way moves it: to the back, or to another list.
        l.push_back(0, Way(0), BlockAddr(1));
        assert_eq!(l.front(0), Some((Way(1), BlockAddr(2))));
        l.push_back(1, Way(1), BlockAddr(2));
        assert_eq!((l.len(0), l.len(1)), (1, 1));
        assert_eq!(l.list_of(Way(1), BlockAddr(2)), Some(1));
        // Another block's name for the way, an unlinked way and a way past
        // the region all name nothing, and unlinking them does nothing.
        assert_eq!(l.list_of(Way(1), BlockAddr(9)), None);
        assert_eq!(l.list_of(Way(2), BlockAddr(0)), None);
        assert_eq!(l.list_of(Way(3), BlockAddr(0)), None);
        l.unlink(Way(1), BlockAddr(9));
        l.unlink(Way(2), BlockAddr(0));
        l.unlink(Way(3), BlockAddr(0));
        assert_eq!((l.len(0), l.len(1)), (1, 1));
        // A refill of a linked way under a new block leaves no trace of the old.
        l.push_back(0, Way(0), BlockAddr(5));
        assert_eq!(drain(&mut l, 0), [(0, 5)]);
    }
}
