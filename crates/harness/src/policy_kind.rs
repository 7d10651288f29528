//! Uniform construction of replacement cores for experiment sweeps.

use cache_sim::{Fifo, Geometry, Lru, RandomEvict};
use csr::{
    AclCore, BclCore, CampCore, DclCore, GdCore, GdsfCore, LfudaCore, NopObserver, Observer,
    S3FifoCore, SlruCore,
};
use numa_sim::L2Policy;
use std::fmt;
use std::sync::Arc;

/// A decision observer shareable across a run's sets (and across runs) —
/// what [`PolicyKind::cores_observed`] attaches to the policy cores.
pub type TraceObserver = Arc<dyn Observer + Send + Sync>;

/// Every replacement policy the experiments can run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// Least recently used (the baseline).
    Lru,
    /// First-in first-out.
    Fifo,
    /// Uniform random victim.
    Random,
    /// GreedyDual (Section 2.1).
    Gd,
    /// Basic cost-sensitive LRU (Section 2.3).
    Bcl,
    /// Dynamic cost-sensitive LRU (Section 2.4).
    Dcl,
    /// DCL with `bits`-bit aliased ETD tags (Section 4.3 uses 4).
    DclAliased(u32),
    /// Adaptive cost-sensitive LRU (Section 2.5).
    Acl,
    /// ACL with `bits`-bit aliased ETD tags.
    AclAliased(u32),
    /// S3-FIFO (policy zoo: small/main/ghost FIFO queues).
    S3Fifo,
    /// Segmented LRU (policy zoo: probationary/protected segments).
    Slru,
    /// LFU with dynamic aging (policy zoo).
    Lfuda,
    /// GreedyDual-Size-Frequency (policy zoo, cost-aware).
    Gdsf,
    /// CAMP cost-adaptive multi-queue (policy zoo, cost-aware).
    Camp,
}

impl PolicyKind {
    /// The four cost-sensitive policies in the order the paper reports them.
    pub const PAPER_SET: [PolicyKind; 4] = [
        PolicyKind::Gd,
        PolicyKind::Bcl,
        PolicyKind::Dcl,
        PolicyKind::Acl,
    ];

    /// The policy-zoo additions: modern general-purpose policies run
    /// head-to-head against the paper's set.
    pub const ZOO_SET: [PolicyKind; 5] = [
        PolicyKind::S3Fifo,
        PolicyKind::Slru,
        PolicyKind::Lfuda,
        PolicyKind::Gdsf,
        PolicyKind::Camp,
    ];

    /// The kind → core mapping, written once: a factory of cores for the
    /// sets of a `geom` cache, one per call, each reporting to a clone of
    /// `obs` (the `cache-sim` baselines have no observer support and drop
    /// it). Random's cores each draw their own stream.
    fn cores_with<O: Observer + Clone + Send + 'static>(
        self,
        geom: &Geometry,
        obs: O,
    ) -> impl FnMut() -> L2Policy {
        let geom = *geom;
        let ways = geom.assoc();
        let mut random = RandomEvict::per_set(ways, 0xC0FFEE);
        move || -> L2Policy {
            let obs = obs.clone();
            match self {
                PolicyKind::Lru => Box::new(Lru::new()),
                PolicyKind::Fifo => Box::new(Fifo::new()),
                PolicyKind::Random => Box::new(random()),
                PolicyKind::Gd => Box::new(GdCore::new(ways).with_observer(obs)),
                PolicyKind::Bcl => Box::new(BclCore::new().with_observer(obs)),
                PolicyKind::Dcl => Box::new(DclCore::for_geometry(&geom).with_observer(obs)),
                PolicyKind::DclAliased(bits) => {
                    Box::new(DclCore::with_aliased_tags(&geom, bits).with_observer(obs))
                }
                PolicyKind::Acl => Box::new(AclCore::for_geometry(&geom).with_observer(obs)),
                PolicyKind::AclAliased(bits) => {
                    Box::new(AclCore::with_aliased_tags(&geom, bits).with_observer(obs))
                }
                PolicyKind::S3Fifo => Box::new(S3FifoCore::new(ways).with_observer(obs)),
                PolicyKind::Slru => Box::new(SlruCore::new(ways).with_observer(obs)),
                PolicyKind::Lfuda => Box::new(LfudaCore::new(ways).with_observer(obs)),
                PolicyKind::Gdsf => Box::new(GdsfCore::new(ways).with_observer(obs)),
                PolicyKind::Camp => Box::new(CampCore::new(ways).with_observer(obs)),
            }
        }
    }

    /// A factory of boxed cores for the sets of a `geom` cache, one per
    /// call: what `Cache::new` and `TwoLevel::new` take.
    pub fn cores(self, geom: &Geometry) -> impl FnMut() -> L2Policy {
        self.cores_with(geom, NopObserver)
    }

    /// [`cores`](Self::cores) with a decision [`Observer`] attached to each.
    ///
    /// The cost-sensitive cores (GD, BCL, DCL, ACL and their aliased
    /// variants) and the policy zoo emit hit/miss/evict/reserve/depreciate
    /// events to `obs`, giving every table and figure a replayable decision
    /// trace. The cost-oblivious baselines (LRU, FIFO, Random) come from
    /// `cache-sim` and have no observer support; for those `obs` sees no
    /// events.
    pub fn cores_observed(self, geom: &Geometry, obs: TraceObserver) -> impl FnMut() -> L2Policy {
        self.cores_with(geom, obs)
    }

    /// Whether [`cores_observed`](Self::cores_observed) actually emits
    /// decision events for this policy (false for the `cache-sim`
    /// baselines, which ignore the observer).
    #[must_use]
    pub fn emits_events(self) -> bool {
        !matches!(
            self,
            PolicyKind::Lru | PolicyKind::Fifo | PolicyKind::Random
        )
    }

    /// Short label used in tables ("DCL alias" style).
    #[must_use]
    pub fn label(self) -> String {
        match self {
            PolicyKind::Lru => "LRU".into(),
            PolicyKind::Fifo => "FIFO".into(),
            PolicyKind::Random => "Random".into(),
            PolicyKind::Gd => "GD".into(),
            PolicyKind::Bcl => "BCL".into(),
            PolicyKind::Dcl => "DCL".into(),
            PolicyKind::DclAliased(b) => format!("DCL alias{b}"),
            PolicyKind::Acl => "ACL".into(),
            PolicyKind::AclAliased(b) => format!("ACL alias{b}"),
            PolicyKind::S3Fifo => "S3-FIFO".into(),
            PolicyKind::Slru => "SLRU".into(),
            PolicyKind::Lfuda => "LFUDA".into(),
            PolicyKind::Gdsf => "GDSF".into(),
            PolicyKind::Camp => "CAMP".into(),
        }
    }
}

impl fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_sim::{AccessType, BlockAddr, Cache, Cost};

    #[test]
    fn all_kinds_build_and_run() {
        let geom = Geometry::new(1024, 64, 4);
        let kinds = [
            PolicyKind::Lru,
            PolicyKind::Fifo,
            PolicyKind::Random,
            PolicyKind::Gd,
            PolicyKind::Bcl,
            PolicyKind::Dcl,
            PolicyKind::DclAliased(4),
            PolicyKind::Acl,
            PolicyKind::AclAliased(4),
            PolicyKind::S3Fifo,
            PolicyKind::Slru,
            PolicyKind::Lfuda,
            PolicyKind::Gdsf,
            PolicyKind::Camp,
        ];
        for kind in kinds {
            let mut cache = Cache::new(geom, kind.cores(&geom));
            for b in 0..64u64 {
                cache.access(BlockAddr(b), AccessType::Read, Cost(1 + b % 4));
            }
            assert_eq!(cache.stats().accesses, 64, "{kind}");
        }
    }

    #[test]
    fn labels_are_unique() {
        let kinds = [
            PolicyKind::Lru,
            PolicyKind::Gd,
            PolicyKind::Bcl,
            PolicyKind::Dcl,
            PolicyKind::DclAliased(4),
            PolicyKind::Acl,
            PolicyKind::AclAliased(4),
            PolicyKind::S3Fifo,
            PolicyKind::Slru,
            PolicyKind::Lfuda,
            PolicyKind::Gdsf,
            PolicyKind::Camp,
        ];
        let labels: std::collections::HashSet<String> = kinds.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), kinds.len());
    }

    #[test]
    fn zoo_set_builds_observed_and_emits() {
        let geom = Geometry::new(1024, 64, 4);
        for kind in PolicyKind::ZOO_SET {
            assert!(kind.emits_events(), "{kind}");
            let obs = Arc::new(csr_obs::CountingObserver::default());
            let mut cache = Cache::new(geom, kind.cores_observed(&geom, obs.clone()));
            for b in 0..64u64 {
                cache.access(BlockAddr(b), AccessType::Read, Cost(1 + b % 4));
            }
            assert_eq!(obs.counts().misses, 64, "{kind}");
        }
    }
}
