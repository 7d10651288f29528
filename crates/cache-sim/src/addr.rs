//! Address arithmetic: byte addresses, block addresses, and cache geometry.
//!
//! The simulator works internally on [`BlockAddr`]s (byte address divided by
//! the block size). [`Geometry`] owns the size/associativity/block-size
//! parameters and maps block addresses to set indices and tags.

use std::fmt;

/// A byte address in the simulated physical address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Addr(pub u64);

impl Addr {
    /// Returns the block address containing this byte address for blocks of
    /// `block_bytes` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `block_bytes` is not a power of two.
    #[must_use]
    pub fn block(self, block_bytes: u64) -> BlockAddr {
        assert!(
            block_bytes.is_power_of_two(),
            "block size must be a power of two"
        );
        BlockAddr(self.0 >> block_bytes.trailing_zeros())
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl From<u64> for Addr {
    fn from(v: u64) -> Self {
        Addr(v)
    }
}

/// A block (cache-line) address: the byte address shifted right by the block
/// offset bits. Two byte addresses within the same cache line map to the same
/// `BlockAddr`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct BlockAddr(pub u64);

impl BlockAddr {
    /// The first byte address of this block for blocks of `block_bytes` bytes.
    #[must_use]
    pub fn base_addr(self, block_bytes: u64) -> Addr {
        Addr(self.0 << block_bytes.trailing_zeros())
    }
}

impl fmt::Display for BlockAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "blk{:#x}", self.0)
    }
}

impl From<u64> for BlockAddr {
    fn from(v: u64) -> Self {
        BlockAddr(v)
    }
}

/// Index of a set within a cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SetIndex(pub usize);

impl fmt::Display for SetIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "set{}", self.0)
    }
}

/// Index of a way (blockframe) within a set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Way(pub usize);

impl fmt::Display for Way {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "way{}", self.0)
    }
}

/// The shape of a cache: total size, block size and associativity.
///
/// # Examples
///
/// The paper's basic L2 cache (16 KB, 4-way, 64-byte blocks) has 64 sets:
///
/// ```
/// use cache_sim::Geometry;
/// let g = Geometry::new(16 * 1024, 64, 4);
/// assert_eq!(g.num_sets(), 64);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Geometry {
    size_bytes: u64,
    block_bytes: u64,
    assoc: usize,
    num_sets: usize,
}

impl Geometry {
    /// Creates a new geometry.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero, if `block_bytes` is not a power of
    /// two, if `size_bytes` is not a whole number of sets, or if the
    /// derived set count is not a power of two (set indexing uses low
    /// address bits). Associativity itself need not be a power of two — a
    /// 192-byte, 3-way, single-set cache is valid.
    #[must_use]
    pub fn new(size_bytes: u64, block_bytes: u64, assoc: usize) -> Self {
        assert!(
            size_bytes > 0 && block_bytes > 0 && assoc > 0,
            "geometry parameters must be nonzero"
        );
        assert!(
            block_bytes.is_power_of_two(),
            "block size must be a power of two"
        );
        assert!(
            size_bytes >= block_bytes * assoc as u64,
            "cache of {size_bytes} bytes cannot hold one set of {assoc} x {block_bytes}-byte blocks"
        );
        assert!(
            size_bytes.is_multiple_of(block_bytes * assoc as u64),
            "cache size must be a whole number of sets"
        );
        let num_sets = (size_bytes / (block_bytes * assoc as u64)) as usize;
        assert!(
            num_sets.is_power_of_two(),
            "derived set count must be a power of two"
        );
        Geometry {
            size_bytes,
            block_bytes,
            assoc,
            num_sets,
        }
    }

    /// A direct-mapped geometry (associativity 1).
    #[must_use]
    pub fn direct_mapped(size_bytes: u64, block_bytes: u64) -> Self {
        Geometry::new(size_bytes, block_bytes, 1)
    }

    /// Total capacity in bytes.
    #[must_use]
    pub fn size_bytes(&self) -> u64 {
        self.size_bytes
    }

    /// Block (line) size in bytes.
    #[must_use]
    pub fn block_bytes(&self) -> u64 {
        self.block_bytes
    }

    /// Number of ways per set.
    #[must_use]
    pub fn assoc(&self) -> usize {
        self.assoc
    }

    /// Number of sets.
    #[must_use]
    pub fn num_sets(&self) -> usize {
        self.num_sets
    }

    /// Maps a block address to its set.
    #[must_use]
    pub fn set_of(&self, block: BlockAddr) -> SetIndex {
        SetIndex((block.0 as usize) & (self.num_sets - 1))
    }

    /// The tag of a block: the block address with the set-index bits removed.
    #[must_use]
    pub fn tag_of(&self, block: BlockAddr) -> u64 {
        block.0 >> self.num_sets.trailing_zeros()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_of_addr() {
        let a = Addr(0x1234);
        assert_eq!(a.block(64), BlockAddr(0x48));
        assert_eq!(BlockAddr(0x48).base_addr(64), Addr(0x1200));
    }

    #[test]
    fn paper_l2_geometry() {
        // 16 KB, 4-way, 64 B blocks => 64 sets (Section 3.1).
        let g = Geometry::new(16 * 1024, 64, 4);
        assert_eq!(g.num_sets(), 64);
        assert_eq!(g.assoc(), 4);
        assert_eq!(g.block_bytes(), 64);
    }

    #[test]
    fn paper_l1_geometry() {
        // 4 KB direct-mapped, 64 B blocks => 64 sets.
        let g = Geometry::direct_mapped(4 * 1024, 64);
        assert_eq!(g.num_sets(), 64);
        assert_eq!(g.assoc(), 1);
    }

    #[test]
    fn set_mapping_wraps() {
        let g = Geometry::new(16 * 1024, 64, 4);
        assert_eq!(g.set_of(BlockAddr(0)), SetIndex(0));
        assert_eq!(g.set_of(BlockAddr(63)), SetIndex(63));
        assert_eq!(g.set_of(BlockAddr(64)), SetIndex(0));
        assert_eq!(g.set_of(BlockAddr(65)), SetIndex(1));
    }

    #[test]
    fn tags_distinguish_conflicting_blocks() {
        let g = Geometry::new(16 * 1024, 64, 4);
        let b1 = BlockAddr(5);
        let b2 = BlockAddr(5 + 64);
        assert_eq!(g.set_of(b1), g.set_of(b2));
        assert_ne!(g.tag_of(b1), g.tag_of(b2));
    }

    #[test]
    #[should_panic(expected = "whole number of sets")]
    fn rejects_ragged_size() {
        let _ = Geometry::new(3000, 64, 4);
    }

    #[test]
    fn non_pow2_associativity_is_fine() {
        let g = Geometry::new(192, 64, 3);
        assert_eq!(g.num_sets(), 1);
        assert_eq!(g.assoc(), 3);
        let g = Geometry::new(6 * 1024, 64, 3); // 32 sets x 3 ways
        assert_eq!(g.num_sets(), 32);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_pow2_set_count() {
        let _ = Geometry::new(192 * 3, 64, 3); // 3 sets
    }

    #[test]
    #[should_panic(expected = "cannot hold")]
    fn rejects_too_small_cache() {
        let _ = Geometry::new(64, 64, 4);
    }

    #[test]
    fn display_impls_nonempty() {
        assert_eq!(Addr(0x40).to_string(), "0x40");
        assert_eq!(BlockAddr(1).to_string(), "blk0x1");
        assert_eq!(SetIndex(3).to_string(), "set3");
        assert_eq!(Way(2).to_string(), "way2");
    }
}
