//! The sample-trace filter as it stood before it became one pass, frozen as
//! the oracle of `tests/filter_differential.rs`: the L1 filter loop and then
//! `mark_dead`'s second walk over the whole stream with a hash set. Never
//! edit the copied items; the one block below them is what the test reads.

use cache_sim::{AccessType, BlockAddr, Cache, CacheStats, Cost, Lru};
use csr_harness::TraceSimConfig;
use mem_trace::sampled::{SampledKind, SampledTrace};
use mem_trace::UnitHasher;
use std::collections::HashSet;
use std::hash::BuildHasherDefault;

/// The kinds of a [`FilteredTrace`] event, its low [`KIND_BITS`] bits.
const READ: u64 = 0;
const WRITE: u64 = 1;
/// A dirty block the L1 displaced, written back into the L2.
const WRITEBACK: u64 = 2;
/// A foreign write's coherence invalidation.
const INVALIDATE: u64 = 3;
/// An invalidation of a block the stream has not accessed since the
/// block's previous invalidation (or since the start): a *dead* one.
const DEAD: u64 = 4;
const KIND_BITS: u32 = 3;
const KIND: u64 = (1 << KIND_BITS) - 1;

/// A sample trace reduced, for one cache geometry, to what the level under
/// the processor's L1 receives; it does not depend on any cost map.
///
/// When the geometry [nests](TraceSimConfig::nests), the L1 runs once
/// here and the stream holds what the L2 sees: the L1's misses, its dirty
/// writebacks and the coherence invalidations. Every run then simulates the
/// L2 alone. Otherwise the stream is the processor's events unfiltered, and
/// every run simulates both levels. Either way the invalidations that are
/// dead (DESIGN.md invariant 10) are marked, and the trace also keeps the
/// stream without them, for the runs that may skip them.
#[derive(Debug, Clone)]
pub struct FilteredTrace {
    cfg: TraceSimConfig,
    /// One event per word: `block << KIND_BITS | kind`.
    stream: Vec<u64>,
    /// `stream` without its [`DEAD`] words.
    live: Vec<u64>,
    /// The L1's statistics over the filter pass; `None` when the geometry
    /// does not nest and each run simulates its own L1.
    l1: Option<CacheStats>,
}

impl FilteredTrace {
    /// Filters `sampled` through `cfg`'s L1, if `cfg` nests.
    ///
    /// # Panics
    ///
    /// Panics if the two levels have different block sizes.
    #[must_use]
    pub fn new(sampled: &SampledTrace, cfg: TraceSimConfig) -> Self {
        assert_eq!(
            cfg.l1.block_bytes(),
            cfg.l2.block_bytes(),
            "L1 and L2 must share a block size"
        );
        let shift = cfg.l2.block_bytes().trailing_zeros();
        let kind = |op| match op {
            AccessType::Read => READ,
            AccessType::Write => WRITE,
        };
        let (mut stream, l1) = if cfg.nests() {
            // The same L1 traffic `TwoLevel::access` and `invalidate` make,
            // the inclusion probes aside: those never hit here.
            let mut l1 = Cache::new(cfg.l1, Lru::new);
            let mut stream = Vec::with_capacity(sampled.events().len());
            for ev in sampled.events() {
                let (addr, event) = ev.unpack();
                let block = BlockAddr(addr.0 >> shift);
                match event {
                    SampledKind::Own(op) => {
                        let out = l1.access(block, op, Cost::ZERO);
                        if out.hit {
                            continue;
                        }
                        if let Some(ev) = out.evicted.filter(|ev| ev.dirty) {
                            stream.push(ev.block.0 << KIND_BITS | WRITEBACK);
                        }
                        stream.push(block.0 << KIND_BITS | kind(op));
                    }
                    SampledKind::ForeignWrite => {
                        l1.invalidate(block);
                        stream.push(block.0 << KIND_BITS | INVALIDATE);
                    }
                }
            }
            (stream, Some(*l1.stats()))
        } else {
            let stream = sampled.events().iter().map(|ev| match ev.unpack() {
                (addr, SampledKind::Own(op)) => addr.0 >> shift << KIND_BITS | kind(op),
                (addr, SampledKind::ForeignWrite) => addr.0 >> shift << KIND_BITS | INVALIDATE,
            });
            (stream.collect(), None)
        };
        let live = mark_dead(&mut stream);
        FilteredTrace {
            cfg,
            stream,
            live,
            l1,
        }
    }

    /// How many of the stream's coherence invalidations are dead: they
    /// find nothing in any level a full-tag policy runs.
    #[must_use]
    pub fn dead_invalidations(&self) -> u64 {
        (self.stream.len() - self.live.len()) as u64
    }
}

/// Marks every dead invalidation of `stream` [`DEAD`] and returns the
/// stream without them, the *live* stream. A block becomes live when the
/// stream accesses it and dies at its next invalidation; an invalidation
/// of a block that is not live is dead. Only an access puts a block into a
/// level the stream feeds (a writeback finds its block or does nothing),
/// and an invalidation takes it out of all of them, so a dead invalidation
/// finds nothing (DESIGN.md invariant 10).
fn mark_dead(stream: &mut [u64]) -> Vec<u64> {
    let mut blocks: HashSet<u64, BuildHasherDefault<UnitHasher>> = HashSet::default();
    let mut live = Vec::new();
    for ev in stream {
        match *ev & KIND {
            READ | WRITE => {
                blocks.insert(*ev >> KIND_BITS);
            }
            INVALIDATE if !blocks.remove(&(*ev >> KIND_BITS)) => {
                *ev = *ev & !KIND | DEAD;
                continue;
            }
            _ => {}
        }
        live.push(*ev);
    }
    live
}

// Not part of the copy: the test reads the two streams and the L1's
// statistics through this.
impl FilteredTrace {
    /// The geometry, the full stream, the live stream and the filter
    /// pass's L1 statistics.
    pub fn parts(&self) -> (TraceSimConfig, &[u64], &[u64], Option<CacheStats>) {
        (self.cfg, &self.stream, &self.live, self.l1)
    }
}
