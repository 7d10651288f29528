//! Shard eviction-policy selection.

use csr::etd::{EtdConfig, EtdSet};
use csr::{
    AclCore, BclCore, CampCore, DclCore, EvictionPolicy, GdCore, GdsfCore, LfudaCore, LruCore,
    NopObserver, Observer, S3FifoCore, SlruCore,
};
use std::sync::Arc;

use crate::region::BoxedCore;

/// A decision observer shareable across shards and threads — what
/// [`CacheBuilder::observer`](crate::CacheBuilder::observer) accepts and
/// [`Policy::build_core_observed`] attaches to each shard's core.
pub type SharedObserver = Arc<dyn Observer + Send + Sync>;

/// Practical ceiling on a shard's Extended Tag Directory. The paper sizes
/// the ETD at `s - 1` for an `s`-way set; a shard plays the role of a set
/// with thousands of ways, where a full-size directory would cost O(s)
/// per probe for marginal extra detection. Entries beyond the ceiling
/// would also be the *oldest* displacements — the least likely to be
/// re-referenced before the reserved block.
const MAX_ETD_ENTRIES: usize = 1024;

fn shard_etd(ways: usize) -> EtdSet {
    EtdSet::new(EtdConfig {
        entries_per_set: ways.saturating_sub(1).min(MAX_ETD_ENTRIES),
        tag_bits: None,
    })
}

/// The replacement policy driving every shard of a
/// [`CsrCache`](crate::CsrCache).
///
/// Each variant instantiates the corresponding single-region core from the
/// `csr` crate — the very same code the set-associative simulator runs per
/// cache set. For arbitrary policies (custom ETD sizing, aliased tags, a
/// hand-rolled [`EvictionPolicy`]), use
/// [`CacheBuilder::policy_with`](crate::CacheBuilder::policy_with).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// Cost-oblivious LRU — the baseline.
    Lru,
    /// GreedyDual: evict the minimum remaining value `H` (Section 2.1).
    Gd,
    /// Basic Cost-sensitive LRU: reservations with immediate pessimistic
    /// depreciation (Section 2.3).
    Bcl,
    /// Dynamic Cost-sensitive LRU: depreciation only on detected
    /// re-references via the ETD (Section 2.4).
    Dcl,
    /// Adaptive Cost-sensitive LRU: DCL gated by a 2-bit success/failure
    /// automaton per shard (Section 2.5).
    Acl,
    /// S3-FIFO: static small/main/ghost FIFO queues, scan-resistant
    /// (policy-zoo addition; cost-oblivious).
    S3Fifo,
    /// Segmented LRU: probationary + protected segments (policy zoo;
    /// cost-oblivious).
    Slru,
    /// LFU with Dynamic Aging (policy zoo; cost-oblivious).
    Lfuda,
    /// GreedyDual-Size-Frequency: cost · frequency priority with aging
    /// (policy zoo; cost-aware).
    Gdsf,
    /// CAMP-style cost-adaptive multi-queue: rounded-cost buckets scanned
    /// at their heads (policy zoo; cost-aware).
    Camp,
}

impl Policy {
    /// All variants, for sweeps. This array is the single source of truth
    /// for every policy accept-list in the workspace (the daemon's
    /// `--policy` flag, the bench matrices): a new variant added here is
    /// automatically parseable and sweepable everywhere.
    pub const ALL: [Policy; 10] = [
        Policy::Lru,
        Policy::Gd,
        Policy::Bcl,
        Policy::Dcl,
        Policy::Acl,
        Policy::S3Fifo,
        Policy::Slru,
        Policy::Lfuda,
        Policy::Gdsf,
        Policy::Camp,
    ];

    /// A short human-readable name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Policy::Lru => "LRU",
            Policy::Gd => "GD",
            Policy::Bcl => "BCL",
            Policy::Dcl => "DCL",
            Policy::Acl => "ACL",
            Policy::S3Fifo => "S3-FIFO",
            Policy::Slru => "SLRU",
            Policy::Lfuda => "LFUDA",
            Policy::Gdsf => "GDSF",
            Policy::Camp => "CAMP",
        }
    }

    /// Parses a policy name, case-insensitively; `-` and `_` are
    /// interchangeable (so `s3fifo`, `S3-FIFO` and `s3_fifo` all name
    /// [`Policy::S3Fifo`]). The accept-list is derived from
    /// [`Policy::ALL`], so it can never fall out of sync with the enum.
    #[must_use]
    pub fn parse(s: &str) -> Option<Policy> {
        let norm = |t: &str| {
            t.chars()
                .filter(|c| *c != '-' && *c != '_')
                .map(|c| c.to_ascii_lowercase())
                .collect::<String>()
        };
        let wanted = norm(s);
        Policy::ALL.into_iter().find(|p| norm(p.name()) == wanted)
    }

    /// The policy → core mapping, written once: the core for one region of
    /// `ways` entries, reporting its decisions to `obs`.
    fn build_core_with<O: Observer + Send + 'static>(self, ways: usize, obs: O) -> BoxedCore {
        match self {
            Policy::Lru => Box::new(LruCore::new().with_observer(obs)),
            Policy::Gd => Box::new(GdCore::new(ways).with_observer(obs)),
            Policy::Bcl => Box::new(BclCore::new().with_observer(obs)),
            Policy::Dcl => Box::new(DclCore::new(shard_etd(ways)).with_observer(obs)),
            Policy::Acl => Box::new(AclCore::new(shard_etd(ways)).with_observer(obs)),
            Policy::S3Fifo => Box::new(S3FifoCore::new(ways).with_observer(obs)),
            Policy::Slru => Box::new(SlruCore::new(ways).with_observer(obs)),
            Policy::Lfuda => Box::new(LfudaCore::new(ways).with_observer(obs)),
            Policy::Gdsf => Box::new(GdsfCore::new(ways).with_observer(obs)),
            Policy::Camp => Box::new(CampCore::new(ways).with_observer(obs)),
        }
    }

    /// Builds the policy core for one shard of `ways` entries.
    #[must_use]
    pub fn build_core(self, ways: usize) -> Box<dyn EvictionPolicy + Send> {
        self.build_core_with(ways, NopObserver)
    }

    /// Builds the policy core for one shard of `ways` entries with a
    /// decision observer attached: every hit, miss, eviction, reservation,
    /// depreciation, ETD hit and automaton flip the core decides is
    /// delivered to `obs`.
    #[must_use]
    pub fn build_core_observed(
        self,
        ways: usize,
        obs: SharedObserver,
    ) -> Box<dyn EvictionPolicy + Send> {
        self.build_core_with(ways, obs)
    }
}

impl std::fmt::Display for Policy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Sanity used by unit tests: the built core reports the matching name.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::Region;
    use cache_sim::BlockAddr;

    #[test]
    fn cores_report_matching_names() {
        for p in Policy::ALL {
            assert_eq!(p.build_core(8).name(), p.name());
            assert_eq!(format!("{p}"), p.name());
        }
    }

    #[test]
    fn parse_round_trips_every_variant() {
        for p in Policy::ALL {
            assert_eq!(Policy::parse(p.name()), Some(p));
            assert_eq!(Policy::parse(&p.name().to_ascii_lowercase()), Some(p));
        }
        assert_eq!(Policy::parse("s3fifo"), Some(Policy::S3Fifo));
        assert_eq!(Policy::parse("s3_fifo"), Some(Policy::S3Fifo));
        assert_eq!(Policy::parse("nope"), None);
    }

    #[test]
    fn etd_sizing_is_capped() {
        assert_eq!(shard_etd(4).config().entries_per_set, 3);
        assert_eq!(
            shard_etd(1_000_000).config().entries_per_set,
            MAX_ETD_ENTRIES
        );
        assert_eq!(shard_etd(1).config().entries_per_set, 0);
    }

    #[test]
    fn built_cores_pick_victims() {
        for p in Policy::ALL {
            let mut region = Region::new(4, p.build_core(4));
            for id in 0..4 {
                region.insert(BlockAddr(id), 1, ());
            }
            let (_, evicted) = region.insert(BlockAddr(4), 1, ());
            let evicted = evicted.expect("a full region evicts");
            // Uniform costs: every policy falls back to the LRU entry.
            assert_eq!(evicted.slot.id, BlockAddr(0), "{p}");
            assert!(!evicted.reserved, "{p}");
        }
    }
}
