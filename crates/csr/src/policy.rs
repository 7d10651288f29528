//! The one policy table: every core the workspace can run, named once.
//!
//! [`Policy`] names a core and [`Policy::cores`] builds it, for either
//! driver: the simulator's `cache_sim::Cache` asks for one core per set of
//! `assoc` ways, `csr_cache`'s `Region` for one per shard of `capacity`
//! slots. The two differ only in the region's size and in the set-index
//! bits a DCL/ACL directory strips from the tags it compares — a shard is
//! keyed by full identity, so it strips none.

use crate::etd::{EtdConfig, EtdSet};
use crate::{AclCore, BclCore, CampCore, DclCore, GdCore, GdsfCore, LruCore, S3FifoCore};
use cache_sim::{BoxedPolicy, EvictionPolicy, Fifo, RandomEvict};
use csr_obs::{NopObserver, Observer, SharedObserver};
use std::fmt;

/// Ceiling on a region's Extended Tag Directory. The paper sizes the ETD at
/// `s - 1` for an `s`-way set; a shard plays the role of a set with
/// thousands of ways, where a full-size directory costs O(s) per probe, and
/// the ceiling bounds that cost. It was not chosen for detection: on
/// `kv-quality`'s stream every entry costs DCL savings — 30.45% over LRU at
/// 32 entries, 27.09% at this 1,024, 24.59% uncapped (medians of five
/// seeds; ROADMAP item 20, "The KV cache's ETD, sized by measurement").
/// Changing it moves the KV goldens.
const MAX_ETD_ENTRIES: usize = 1024;

/// The seed of the first Random core a factory builds; the `k`-th is
/// seeded `RANDOM_SEED + k`, so no two sets draw the same stream.
const RANDOM_SEED: u64 = 0xC0FFEE;

/// A replacement policy: the paper's four, the LRU baseline, the policy
/// zoo, and four experiment variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Policy {
    /// Cost-oblivious LRU — the baseline.
    Lru,
    /// First-in first-out (experiment variant; no decision events).
    Fifo,
    /// Uniform random victim (experiment variant; no decision events).
    Random,
    /// GreedyDual: evict the minimum remaining value `H` (Section 2.1).
    Gd,
    /// Basic Cost-sensitive LRU: reservations with immediate pessimistic
    /// depreciation (Section 2.3).
    Bcl,
    /// Dynamic Cost-sensitive LRU: depreciation only on detected
    /// re-references via the ETD (Section 2.4).
    Dcl,
    /// DCL whose ETD stores 4-bit aliased tags (Section 4.3).
    DclAlias4,
    /// Adaptive Cost-sensitive LRU: DCL gated by a 2-bit success/failure
    /// automaton per region (Section 2.5).
    Acl,
    /// ACL whose ETD stores 4-bit aliased tags.
    AclAlias4,
    /// S3-FIFO: static small/main/ghost FIFO queues, scan-resistant
    /// (policy zoo; cost-oblivious).
    S3Fifo,
    /// GreedyDual-Size-Frequency: cost · frequency priority with aging
    /// (policy zoo; cost-aware).
    Gdsf,
    /// CAMP-style cost-adaptive multi-queue: rounded-cost buckets scanned
    /// at their heads (policy zoo; cost-aware).
    Camp,
}

impl Policy {
    /// The policies a user can name: LRU, the paper's four and the zoo.
    /// This array is the accept-list of [`parse`](Self::parse), and through
    /// it of the daemon's `--policy` flag and the bench matrices. FIFO,
    /// Random and the two alias4 variants are experiment variants, named
    /// only in code.
    pub const ALL: [Policy; 8] = [
        Policy::Lru,
        Policy::Gd,
        Policy::Bcl,
        Policy::Dcl,
        Policy::Acl,
        Policy::S3Fifo,
        Policy::Gdsf,
        Policy::Camp,
    ];

    /// The four cost-sensitive policies in the order the paper reports them.
    pub const PAPER_SET: [Policy; 4] = [Policy::Gd, Policy::Bcl, Policy::Dcl, Policy::Acl];

    /// The name tables and logs print ("DCL", "DCL alias4", "S3-FIFO", …).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Policy::Lru => "LRU",
            Policy::Fifo => "FIFO",
            Policy::Random => "Random",
            Policy::Gd => "GD",
            Policy::Bcl => "BCL",
            Policy::Dcl => "DCL",
            Policy::DclAlias4 => "DCL alias4",
            Policy::Acl => "ACL",
            Policy::AclAlias4 => "ACL alias4",
            Policy::S3Fifo => "S3-FIFO",
            Policy::Gdsf => "GDSF",
            Policy::Camp => "CAMP",
        }
    }

    /// Whether every core of this policy tells blocks apart by their full
    /// tags. Then a coherence invalidation of a block the region has not
    /// been asked for since that block's previous invalidation finds
    /// nothing and changes nothing, so a trace replay may skip it. An
    /// aliased directory (the two alias4 variants) is the exception: its
    /// invalidation drops any entry with the same stored bits, another
    /// block's included.
    #[must_use]
    pub fn compares_full_tags(self) -> bool {
        !matches!(self, Policy::DclAlias4 | Policy::AclAlias4)
    }

    /// The same string as [`name`](Self::name).
    #[must_use]
    pub fn label(self) -> &'static str {
        self.name()
    }

    /// Parses a member of [`ALL`](Self::ALL) by name, case-insensitively;
    /// `-` and `_` are interchangeable (so `s3fifo`, `S3-FIFO` and
    /// `s3_fifo` all name [`Policy::S3Fifo`]).
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

    /// A factory of cores for regions of `ways` entries, one per call: what
    /// `cache_sim::Cache::new` takes for the sets of a cache (`set_bits` =
    /// the set-index bits, stripped from the tags a DCL/ACL directory
    /// compares) and what `csr_cache` calls per shard (`set_bits` = 0).
    ///
    /// With `obs`, every core reports its decisions to it; without, the
    /// cores carry the [`NopObserver`], which compiles away. FIFO and
    /// Random are `cache-sim` baselines that emit no events either way.
    /// The cores are boxed: this is [`visit_cores`](Self::visit_cores) with
    /// a visitor that boxes each one.
    pub fn cores(
        self,
        ways: usize,
        set_bits: u32,
        obs: Option<SharedObserver>,
    ) -> impl FnMut() -> BoxedPolicy {
        self.visit_cores(ways, set_bits, obs, Boxed)
    }

    /// Hands `visitor` the factory [`cores`](Self::cores) would box, with
    /// the cores' own type, so a driver generic over it is monomorphized
    /// per policy.
    pub fn visit_cores<V: CoreVisitor>(
        self,
        ways: usize,
        set_bits: u32,
        obs: Option<SharedObserver>,
        visitor: V,
    ) -> V::Output {
        match obs {
            Some(obs) => self.visit(ways, set_bits, obs, visitor),
            None => self.visit(ways, set_bits, NopObserver, visitor),
        }
    }

    /// The policy → core mapping, written once.
    fn visit<O, V>(self, ways: usize, set_bits: u32, obs: O, v: V) -> V::Output
    where
        O: Observer + Clone + Send + 'static,
        V: CoreVisitor,
    {
        let etd = move |tag_bits| directory(ways, set_bits, tag_bits);
        let o = move || obs.clone();
        let mut seeds = RANDOM_SEED..;
        match self {
            Policy::Lru => v.visit(move || LruCore::new().with_observer(o())),
            Policy::Fifo => v.visit(Fifo::new),
            Policy::Random => {
                v.visit(move || RandomEvict::new(ways, seeds.next().expect("endless seeds")))
            }
            Policy::Gd => v.visit(move || GdCore::new(ways).with_observer(o())),
            Policy::Bcl => v.visit(move || BclCore::new().with_observer(o())),
            Policy::Dcl => v.visit(move || DclCore::new(etd(None)).with_observer(o())),
            Policy::DclAlias4 => v.visit(move || DclCore::new(etd(Some(4))).with_observer(o())),
            Policy::Acl => v.visit(move || AclCore::new(etd(None)).with_observer(o())),
            Policy::AclAlias4 => v.visit(move || AclCore::new(etd(Some(4))).with_observer(o())),
            Policy::S3Fifo => v.visit(move || S3FifoCore::new(ways).with_observer(o())),
            Policy::Gdsf => v.visit(move || GdsfCore::new(ways).with_observer(o())),
            Policy::Camp => v.visit(move || CampCore::new(ways).with_observer(o())),
        }
    }
}

/// A driver that takes a policy's cores with their own type
/// ([`Policy::visit_cores`]).
pub trait CoreVisitor {
    /// What the visit returns.
    type Output;

    /// Receives a factory of the policy's cores, one per call.
    fn visit<C: EvictionPolicy + Send + 'static>(
        self,
        cores: impl FnMut() -> C + Send + 'static,
    ) -> Self::Output;
}

/// The visitor behind [`Policy::cores`]: it boxes every core.
struct Boxed;

impl CoreVisitor for Boxed {
    type Output = Box<dyn FnMut() -> BoxedPolicy + Send>;

    fn visit<C: EvictionPolicy + Send + 'static>(
        self,
        mut cores: impl FnMut() -> C + Send + 'static,
    ) -> Self::Output {
        Box::new(move || -> BoxedPolicy { Box::new(cores()) })
    }
}

/// The directory of a DCL/ACL region of `ways` entries: the paper's
/// `ways - 1` entries up to [`MAX_ETD_ENTRIES`], comparing `tag_bits` low
/// bits (all, for `None`) of each address once `set_bits` are stripped.
fn directory(ways: usize, set_bits: u32, tag_bits: Option<u32>) -> EtdSet {
    let entries_per_set = ways.saturating_sub(1).min(MAX_ETD_ENTRIES);
    EtdSet::with_stripped_bits(
        EtdConfig {
            entries_per_set,
            tag_bits,
        },
        set_bits,
    )
}

impl fmt::Display for Policy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_sim::{AccessType, BlockAddr, Cache, Cost, Geometry, SetView, Way, WayView};
    use csr_obs::CountingObserver;
    use std::collections::HashSet;
    use std::sync::Arc;

    const EVERY: [Policy; 12] = [
        Policy::Lru,
        Policy::Fifo,
        Policy::Random,
        Policy::Gd,
        Policy::Bcl,
        Policy::Dcl,
        Policy::DclAlias4,
        Policy::Acl,
        Policy::AclAlias4,
        Policy::S3Fifo,
        Policy::Gdsf,
        Policy::Camp,
    ];

    /// 64 accesses at costs 1..=4 through a 16-set, 4-way cache of `p`'s
    /// cores, reporting to `obs`.
    fn run(p: Policy, obs: Option<SharedObserver>) -> Cache<BoxedPolicy> {
        let geom = Geometry::new(1024, 64, 4);
        let set_bits = geom.num_sets().trailing_zeros();
        let mut cache = Cache::new(geom, p.cores(geom.assoc(), set_bits, obs));
        for b in 0..64u64 {
            cache.access(BlockAddr(b), AccessType::Read, Cost(1 + b % 4));
        }
        cache
    }

    #[test]
    fn cores_report_matching_names() {
        for p in EVERY {
            let core = p.cores(8, 0, None)();
            // The alias4 variants run the DCL and ACL cores.
            assert!(p.name().starts_with(core.name()), "{p}");
            assert_eq!(format!("{p}"), p.name());
            assert_eq!(p.label(), p.name());
        }
    }

    #[test]
    fn names_are_unique() {
        let names: HashSet<&str> = EVERY.iter().map(|p| p.name()).collect();
        assert_eq!(names.len(), EVERY.len());
    }

    #[test]
    fn parse_round_trips_every_named_variant() {
        for p in Policy::ALL {
            assert_eq!(Policy::parse(p.name()), Some(p));
            assert_eq!(Policy::parse(&p.name().to_ascii_lowercase()), Some(p));
        }
        assert_eq!(Policy::parse("s3fifo"), Some(Policy::S3Fifo));
        assert_eq!(Policy::parse("s3_fifo"), Some(Policy::S3Fifo));
        assert_eq!(Policy::parse("nope"), None);
        // Removed from the zoo by its keep rule: named nowhere.
        assert_eq!(Policy::parse("slru"), None);
        assert_eq!(Policy::parse("lfuda"), None);
        // The experiment variants are named only in code.
        for p in EVERY.into_iter().filter(|p| !Policy::ALL.contains(p)) {
            assert_eq!(Policy::parse(p.name()), None, "{p}");
        }
    }

    #[test]
    fn every_variant_builds_and_runs() {
        for p in EVERY {
            assert_eq!(run(p, None).stats().accesses, 64, "{p}");
        }
    }

    #[test]
    fn built_cores_pick_victims() {
        let geom = Geometry::new(4 * 64, 64, 4); // one 4-way set
        for p in EVERY.into_iter().filter(|&p| p != Policy::Random) {
            let mut cache = Cache::new(geom, p.cores(4, 0, None));
            let evicted = (0..5u64)
                .filter_map(|b| {
                    cache
                        .access(BlockAddr(b), AccessType::Read, Cost(1))
                        .evicted
                })
                .map(|e| e.block)
                .collect::<Vec<_>>();
            // Uniform costs: every policy but Random falls back to the LRU
            // entry, which is also the first filled.
            assert_eq!(evicted, [BlockAddr(0)], "{p}");
            assert_eq!(cache.stats().non_lru_evictions, 0, "{p}");
        }
    }

    #[test]
    fn observed_cores_emit_unless_they_come_from_cache_sim() {
        for p in EVERY {
            let obs = Arc::new(CountingObserver::default());
            let cache = run(p, Some(obs.clone()));
            let counts = obs.counts();
            if matches!(p, Policy::Fifo | Policy::Random) {
                assert_eq!(counts.misses + counts.evictions, 0, "{p}");
            } else {
                assert_eq!(counts.misses, 64, "{p}");
                assert_eq!(counts.evictions, cache.stats().evictions, "{p}");
            }
        }
    }

    #[test]
    fn random_cores_are_seeded_one_apart() {
        let mut cores = Policy::Random.cores(4, 0, None);
        let e: Vec<WayView> = (0..4)
            .map(|i| WayView {
                way: Way(i),
                block: BlockAddr(i as u64),
                cost: Cost(1),
            })
            .collect();
        let view = SetView::new(&e);
        let draws = |mut c: BoxedPolicy| (0..32).map(|_| c.victim(&view)).collect::<Vec<_>>();
        for k in 0..3 {
            let want = draws(Box::new(RandomEvict::new(4, RANDOM_SEED + k)));
            assert_eq!(draws(cores()), want, "core {k}");
        }
    }

    #[test]
    fn etd_sizing_is_capped() {
        assert_eq!(directory(4, 0, None).config(), EtdConfig::for_assoc(4));
        assert_eq!(directory(1, 0, None).config().entries_per_set, 0);
        assert_eq!(
            directory(1_000_000, 0, None).config().entries_per_set,
            MAX_ETD_ENTRIES
        );
    }

    #[test]
    fn dcl_directory_strips_the_set_bits() {
        // A 2-way region: reserving the costly LRU block puts the cheap
        // MRU block (64) in the directory.
        let reserve = |core: &mut BoxedPolicy| {
            let set = [(0, 64, 1), (1, 7, 8)].map(|(w, b, c)| WayView {
                way: Way(w),
                block: BlockAddr(b),
                cost: Cost(c),
            });
            assert_eq!(core.victim(&SetView::new(&set)), Way(0));
        };
        let lru = Some((BlockAddr(7), Cost(8)));
        for (set_bits, block, hit) in [(6, 127, true), (6, 128, false), (0, 127, false)] {
            let obs = Arc::new(CountingObserver::default());
            let mut core = Policy::Dcl.cores(2, set_bits, Some(obs.clone()))();
            reserve(&mut core);
            // 127 differs from 64 only in its low 6 bits; 128 does not.
            core.on_miss(BlockAddr(block), lru);
            assert_eq!(obs.counts().etd_hits == 1, hit, "{set_bits} {block}");
        }
    }
}
