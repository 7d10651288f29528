//! The Extended Tag Directory (ETD) of Section 2.4.
//!
//! The ETD remembers, per set, the most recently displaced blocks that were
//! victimized *instead of* the reserved LRU block (at most `s-1` of them —
//! older displacements would miss even under pure LRU, as the paper proves).
//! A later access that misses in the cache but hits in the ETD is evidence
//! the reservation caused a miss, and triggers depreciation of the reserved
//! block's cost.
//!
//! To cut hardware cost, entries may store only the low `k` bits of the tag
//! (`tag aliasing`, Section 2.4/4.3): aliasing can cause *false matches*,
//! which depreciate reservations more aggressively but never affect
//! correctness. [`EtdStats::false_matches`] measures how often that happens,
//! mirroring the false-match ratios the paper reports in Section 4.3.
//!
//! The directory of a single replacement region is an [`EtdSet`]; every
//! DCL/ACL core embeds one, whether the region is a cache set of the
//! simulator or a shard of `csr-cache`.

use cache_sim::{BlockAddr, Cost};

/// Configuration of an [`EtdSet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EtdConfig {
    /// Valid entries kept per set; the paper uses `assoc - 1`.
    pub entries_per_set: usize,
    /// Number of low tag bits stored and compared; `None` stores the full
    /// tag (no aliasing). The paper's aliased configuration uses 4 bits.
    pub tag_bits: Option<u32>,
}

impl EtdConfig {
    /// Full-tag ETD with `assoc - 1` entries per set (the paper's DCL/ACL
    /// configuration).
    ///
    /// # Panics
    ///
    /// Panics if `assoc` is zero.
    #[must_use]
    pub fn for_assoc(assoc: usize) -> Self {
        assert!(assoc > 0, "associativity must be nonzero");
        EtdConfig {
            entries_per_set: assoc.saturating_sub(1),
            tag_bits: None,
        }
    }

    /// Same, but storing only the low `bits` bits of the tag (Section 4.3
    /// uses 4 bits).
    #[must_use]
    pub fn for_assoc_aliased(assoc: usize, bits: u32) -> Self {
        assert!(assoc > 0, "associativity must be nonzero");
        assert!(
            (1..=63).contains(&bits),
            "alias tag width must be 1..=63 bits"
        );
        EtdConfig {
            entries_per_set: assoc.saturating_sub(1),
            tag_bits: Some(bits),
        }
    }
}

/// Counters accumulated by an [`EtdSet`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EtdStats {
    /// Entries allocated.
    pub allocations: u64,
    /// Allocations that displaced a younger valid entry (directory full).
    pub capacity_evictions: u64,
    /// Probe hits (including false matches under tag aliasing).
    pub hits: u64,
    /// Probe hits whose full block address did not actually match — only
    /// possible with tag aliasing.
    pub false_matches: u64,
    /// Entries dropped by coherence invalidations.
    pub invalidated: u64,
    /// Whole-set flushes (on a hit to the in-cache LRU block).
    pub set_clears: u64,
}

impl EtdStats {
    /// Fraction of probe hits that were aliasing artifacts, in `[0, 1]`.
    #[must_use]
    pub fn false_match_rate(&self) -> f64 {
        if self.hits == 0 {
            0.0
        } else {
            self.false_matches as f64 / self.hits as f64
        }
    }

    /// Accumulates `other` into `self` (counter-wise sum), for rolling the
    /// per-region directories of a sharded or set-indexed structure into one
    /// aggregate.
    pub fn merge(&mut self, other: &EtdStats) {
        self.allocations += other.allocations;
        self.capacity_evictions += other.capacity_evictions;
        self.hits += other.hits;
        self.false_matches += other.false_matches;
        self.invalidated += other.invalidated;
        self.set_clears += other.set_clears;
    }
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    /// The stored (possibly truncated) tag that hardware would compare.
    stored_tag: u64,
    /// The full block address, kept only to *measure* false matches.
    full_block: BlockAddr,
    cost: Cost,
}

/// The Extended Tag Directory of a **single replacement region** (one cache
/// set in the simulator, one shard in `csr-cache`): shadow records of the
/// blocks most recently displaced instead of the reserved LRU block.
#[derive(Debug, Clone)]
pub struct EtdSet {
    cfg: EtdConfig,
    /// Low bits of the block address that form the set index; identical for
    /// every block mapping to this region and stripped before the (possibly
    /// truncated) tag comparison, as hardware would. Zero when the region
    /// is not set-indexed (a shard keyed by full block identity).
    stripped_bits: u32,
    /// Valid entries, oldest allocation first.
    entries: Vec<Entry>,
    stats: EtdStats,
}

impl EtdSet {
    /// Creates an empty directory whose tags are full block addresses (no
    /// set-index bits to strip) — the configuration a non-set-indexed
    /// consumer such as a cache shard wants.
    #[must_use]
    pub fn new(cfg: EtdConfig) -> Self {
        EtdSet::with_stripped_bits(cfg, 0)
    }

    /// Creates an empty directory that strips the low `bits` bits (the set
    /// index, identical for all blocks of the region) before comparing tags.
    #[must_use]
    pub fn with_stripped_bits(cfg: EtdConfig, bits: u32) -> Self {
        EtdSet {
            cfg,
            stripped_bits: bits,
            entries: Vec::new(),
            stats: EtdStats::default(),
        }
    }

    /// The configuration this directory was built with.
    #[must_use]
    pub fn config(&self) -> EtdConfig {
        self.cfg
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &EtdStats {
        &self.stats
    }

    fn stored_tag_of(&self, block: BlockAddr) -> u64 {
        let tag = block.0 >> self.stripped_bits;
        match self.cfg.tag_bits {
            Some(bits) => tag & ((1u64 << bits) - 1),
            None => tag,
        }
    }

    /// Records that `block` (with miss cost `cost`) was displaced. Oldest
    /// entry is dropped if the directory is full.
    pub fn insert(&mut self, block: BlockAddr, cost: Cost) {
        if self.cfg.entries_per_set == 0 {
            return;
        }
        let tag = self.stored_tag_of(block);
        if self.entries.len() >= self.cfg.entries_per_set {
            self.entries.remove(0);
            self.stats.capacity_evictions += 1;
        }
        self.entries.push(Entry {
            stored_tag: tag,
            full_block: block,
            cost,
        });
        self.stats.allocations += 1;
    }

    /// Probes for `block` on a cache miss. A (possibly aliased) tag match
    /// invalidates the entry and returns its stored cost.
    ///
    /// Under tag aliasing the comparison is exactly what the narrow
    /// hardware comparator would do: the *first* entry whose stored bits
    /// match is consumed, even if a different entry was allocated for this
    /// very block — another face of the false-match behaviour Section 4.3
    /// quantifies.
    pub fn probe_and_take(&mut self, block: BlockAddr) -> Option<Cost> {
        let tag = self.stored_tag_of(block);
        let pos = self.entries.iter().position(|e| e.stored_tag == tag)?;
        let entry = self.entries.remove(pos);
        self.stats.hits += 1;
        if entry.full_block != block {
            self.stats.false_matches += 1;
        }
        Some(entry.cost)
    }

    /// Drops any entry matching `block` (coherence invalidation). Uses the
    /// same (possibly aliased) comparison the hardware would.
    pub fn invalidate(&mut self, block: BlockAddr) {
        let tag = self.stored_tag_of(block);
        let before = self.entries.len();
        self.entries.retain(|e| e.stored_tag != tag);
        self.stats.invalidated += (before - self.entries.len()) as u64;
    }

    /// Invalidates every entry (on a hit to the in-cache LRU block).
    pub fn clear(&mut self) {
        if !self.entries.is_empty() {
            self.entries.clear();
            self.stats.set_clears += 1;
        }
    }

    /// Number of valid entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the directory holds no valid entry.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether `block` would (alias-)match an entry, without side effects.
    #[must_use]
    pub fn would_hit(&self, block: BlockAddr) -> bool {
        let tag = self.stored_tag_of(block);
        self.entries.iter().any(|e| e.stored_tag == tag)
    }

    /// The full block addresses currently recorded (tests).
    #[must_use]
    pub fn blocks(&self) -> Vec<BlockAddr> {
        self.entries.iter().map(|e| e.full_block).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_probe_take_roundtrip() {
        let mut etd = EtdSet::new(EtdConfig::for_assoc(4));
        etd.insert(BlockAddr(10), Cost(3));
        assert!(etd.would_hit(BlockAddr(10)));
        assert_eq!(etd.probe_and_take(BlockAddr(10)), Some(Cost(3)));
        // Entry is consumed by the hit.
        assert_eq!(etd.probe_and_take(BlockAddr(10)), None);
        assert_eq!(etd.stats().hits, 1);
        assert_eq!(etd.stats().false_matches, 0);
    }

    #[test]
    fn capacity_is_assoc_minus_one_oldest_evicted() {
        let mut etd = EtdSet::new(EtdConfig::for_assoc(4));
        for b in 0..5u64 {
            etd.insert(BlockAddr(b), Cost(1));
        }
        assert_eq!(etd.len(), 3);
        // Blocks 0 and 1 (oldest) were displaced.
        assert_eq!(etd.probe_and_take(BlockAddr(0)), None);
        assert_eq!(etd.probe_and_take(BlockAddr(1)), None);
        assert!(etd.probe_and_take(BlockAddr(2)).is_some());
        assert_eq!(etd.stats().capacity_evictions, 2);
    }

    #[test]
    fn aliasing_causes_false_matches() {
        // 4-bit tags: blocks 0x5 and 0x15 alias.
        let mut etd = EtdSet::new(EtdConfig::for_assoc_aliased(4, 4));
        etd.insert(BlockAddr(0x5), Cost(7));
        let got = etd.probe_and_take(BlockAddr(0x15));
        assert_eq!(got, Some(Cost(7)));
        assert_eq!(etd.stats().hits, 1);
        assert_eq!(etd.stats().false_matches, 1);
        assert!((etd.stats().false_match_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn full_tags_never_false_match() {
        let mut etd = EtdSet::new(EtdConfig::for_assoc(4));
        etd.insert(BlockAddr(0x5), Cost(7));
        assert_eq!(etd.probe_and_take(BlockAddr(0x15)), None);
        assert_eq!(etd.stats().false_matches, 0);
    }

    #[test]
    fn invalidate_and_clear() {
        let mut etd = EtdSet::new(EtdConfig::for_assoc(4));
        etd.insert(BlockAddr(1), Cost(1));
        etd.insert(BlockAddr(2), Cost(1));
        etd.invalidate(BlockAddr(1));
        assert_eq!(etd.len(), 1);
        etd.clear();
        assert!(etd.is_empty());
        assert_eq!(etd.stats().invalidated, 1);
        assert_eq!(etd.stats().set_clears, 1);
        // Clearing an empty directory is not counted.
        etd.clear();
        assert_eq!(etd.stats().set_clears, 1);
    }

    #[test]
    fn direct_mapped_etd_is_inert() {
        let mut etd = EtdSet::new(EtdConfig::for_assoc(1));
        etd.insert(BlockAddr(1), Cost(1));
        assert!(etd.is_empty());
        assert_eq!(etd.probe_and_take(BlockAddr(1)), None);
    }

    #[test]
    fn directories_are_independent() {
        // The per-set directories of a two-set cache (one set-index bit).
        let cfg = EtdConfig::for_assoc(4);
        let mut set0 = EtdSet::with_stripped_bits(cfg, 1);
        let mut set1 = EtdSet::with_stripped_bits(cfg, 1);
        set0.insert(BlockAddr(0b10), Cost(1));
        assert!(set1.is_empty());
        // 0b11 has the same stored tag but belongs to set 1.
        assert_eq!(set1.probe_and_take(BlockAddr(0b11)), None);
        assert_eq!(set0.len(), 1);
    }

    #[test]
    fn set_index_bits_are_stripped_before_comparison() {
        // Two sets => 1 set bit. Blocks 0b10 and 0b11 differ only in that
        // bit; after stripping, their stored tags are identical — but they
        // live in different sets, so no confusion arises in a real cache.
        let mut etd = EtdSet::with_stripped_bits(EtdConfig::for_assoc(4), 1);
        assert_eq!(etd.stored_tag_of(BlockAddr(0b10)), 1);
        assert_eq!(etd.stored_tag_of(BlockAddr(0b11)), 1);
        etd.insert(BlockAddr(0b10), Cost(2));
        assert!(etd.would_hit(BlockAddr(0b11)));
    }

    #[test]
    fn standalone_set_uses_full_address_as_tag() {
        let mut set = EtdSet::new(EtdConfig::for_assoc(4));
        set.insert(BlockAddr(0b10), Cost(2));
        // No bits stripped: block 0b11 does not match.
        assert!(!set.would_hit(BlockAddr(0b11)));
        assert_eq!(set.probe_and_take(BlockAddr(0b10)), Some(Cost(2)));
        assert_eq!(set.blocks(), Vec::<BlockAddr>::new());
    }

    #[test]
    fn stats_merge_sums_counters() {
        let mut a = EtdStats {
            allocations: 1,
            hits: 2,
            ..EtdStats::default()
        };
        let b = EtdStats {
            allocations: 3,
            false_matches: 1,
            ..EtdStats::default()
        };
        a.merge(&b);
        assert_eq!(a.allocations, 4);
        assert_eq!(a.hits, 2);
        assert_eq!(a.false_matches, 1);
    }
}
