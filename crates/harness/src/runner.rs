//! The trace-driven simulation loop of Section 3.1: an L1 filter in front
//! of the L2 under study, fed with one sample processor's references plus
//! foreign writes (invalidations), charging each L2 miss its mapped cost.
//!
//! Three facts let one sample trace serve every run. First, the L1 is the
//! same in every run, and when the geometry nests (DESIGN.md invariant 9)
//! nothing the L2 does reaches it: the trace is *filtered* once,
//! [`FilteredTrace`], into the stream the L2 receives. Second, a foreign
//! write to a block the processor has not referenced since the block's
//! previous foreign write finds it nowhere, under any policy whose cores
//! compare full tags (invariant 10): the filter pass marks those *dead*
//! invalidations once, and runs skip them. Third, every cost map gives a
//! block one of two static costs, and which one does not depend on the
//! cost ratio: that stream is *priced* once per map — one bit per event,
//! [`PricedTrace`] — and one loop replays those bits under any
//! [`CostPair`]. [`run_sampled`] is filtering and pricing followed by that
//! loop.

use cache_sim::{
    AccessType, BlockAddr, Cache, CacheStats, Cost, CostPair, EvictionPolicy, Geometry, Lru,
    TwoLevel,
};
use csr::Policy;
use csr_obs::SharedObserver;
use mem_trace::cost_map::{CostMap, UniformCostMap};
use mem_trace::sampled::{SampledEvent, SampledTrace};
use mem_trace::UnitHasher;
use std::collections::{HashMap, HashSet};
use std::hash::BuildHasherDefault;

/// Cache geometry of a trace-driven run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceSimConfig {
    /// L1 filter geometry.
    pub l1: Geometry,
    /// L2 geometry (the cache whose policy is under study).
    pub l2: Geometry,
}

impl TraceSimConfig {
    /// The paper's basic configuration (Section 3.1): 4 KB direct-mapped L1
    /// and 16 KB 4-way L2, 64-byte blocks.
    #[must_use]
    pub fn paper_basic() -> Self {
        TraceSimConfig {
            l1: Geometry::direct_mapped(4 * 1024, 64),
            l2: Geometry::new(16 * 1024, 64, 4),
        }
    }

    /// Same L1, but an L2 with the given size and associativity.
    #[must_use]
    pub fn with_l2(l2_bytes: u64, assoc: usize) -> Self {
        TraceSimConfig {
            l1: Geometry::direct_mapped(4 * 1024, 64),
            l2: Geometry::new(l2_bytes, 64, assoc),
        }
    }

    /// Whether the L1 is direct-mapped with no more sets than the L2. Set
    /// counts are powers of two, so the L1's sets then divide the L2's,
    /// every L2 victim maps to the L1 line its replacement was just filled
    /// into, and inclusion never takes a block from the L1 (DESIGN.md
    /// invariant 9).
    #[must_use]
    pub fn nests(&self) -> bool {
        self.l1.assoc() == 1 && self.l2.num_sets() >= self.l1.num_sets()
    }
}

impl Default for TraceSimConfig {
    fn default() -> Self {
        TraceSimConfig::paper_basic()
    }
}

/// The outcome of one trace-driven run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunResult {
    /// Which policy ran.
    pub policy: Policy,
    /// L1 statistics.
    pub l1: CacheStats,
    /// L2 statistics; `l2.aggregate_cost` is the paper's `C(X)`.
    pub l2: CacheStats,
}

impl RunResult {
    /// The aggregate cost of the run.
    #[must_use]
    pub fn aggregate_cost(&self) -> Cost {
        self.l2.aggregate_cost
    }
}

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
/// dead (DESIGN.md invariant 10) are marked, for runs to skip.
#[derive(Debug, Clone)]
pub struct FilteredTrace {
    cfg: TraceSimConfig,
    /// One event per word: `block << KIND_BITS | kind`.
    stream: Vec<u64>,
    /// The L1's statistics over the filter pass; `None` when the geometry
    /// does not nest and each run simulates its own L1.
    l1: Option<CacheStats>,
    /// How many of the stream's invalidations are [`DEAD`].
    dead: u64,
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
        if !cfg.nests() {
            let mut stream: Vec<u64> = sampled
                .events()
                .iter()
                .map(|ev| match *ev {
                    SampledEvent::Own { addr, op } => addr.0 >> shift << KIND_BITS | kind(op),
                    SampledEvent::ForeignWrite { addr } => {
                        addr.0 >> shift << KIND_BITS | INVALIDATE
                    }
                })
                .collect();
            let dead = mark_dead(&mut stream);
            return FilteredTrace {
                cfg,
                stream,
                l1: None,
                dead,
            };
        }
        // The same L1 traffic `TwoLevel::access` and `invalidate` make, the
        // inclusion probes aside: those never hit here.
        let mut l1 = Cache::new(cfg.l1, Lru::new);
        let mut stream = Vec::with_capacity(sampled.events().len());
        for ev in sampled.events() {
            match *ev {
                SampledEvent::Own { addr, op } => {
                    let block = BlockAddr(addr.0 >> shift);
                    let out = l1.access(block, op, Cost::ZERO);
                    if out.hit {
                        continue;
                    }
                    if let Some(ev) = out.evicted.filter(|ev| ev.dirty) {
                        stream.push(ev.block.0 << KIND_BITS | WRITEBACK);
                    }
                    stream.push(block.0 << KIND_BITS | kind(op));
                }
                SampledEvent::ForeignWrite { addr } => {
                    let block = BlockAddr(addr.0 >> shift);
                    l1.invalidate(block);
                    stream.push(block.0 << KIND_BITS | INVALIDATE);
                }
            }
        }
        let dead = mark_dead(&mut stream);
        FilteredTrace {
            cfg,
            stream,
            l1: Some(*l1.stats()),
            dead,
        }
    }

    /// How many of the stream's coherence invalidations are dead: they
    /// find nothing in any level a full-tag policy runs.
    #[must_use]
    pub fn dead_invalidations(&self) -> u64 {
        self.dead
    }
}

/// Marks every dead invalidation of `stream` [`DEAD`] and counts them. A
/// block becomes live when the stream accesses it and dies at its next
/// invalidation; an invalidation of a block that is not live is dead. Only
/// an access puts a block into a level the stream feeds (a writeback finds
/// its block or does nothing), and an invalidation takes it out of all of
/// them, so a dead invalidation finds nothing (DESIGN.md invariant 10).
fn mark_dead(stream: &mut [u64]) -> u64 {
    let mut live: HashSet<u64, BuildHasherDefault<UnitHasher>> = HashSet::default();
    let mut dead = 0;
    for ev in stream {
        match *ev & KIND {
            READ | WRITE => {
                live.insert(*ev >> KIND_BITS);
            }
            INVALIDATE if !live.remove(&(*ev >> KIND_BITS)) => {
                *ev = *ev & !KIND | DEAD;
                dead += 1;
            }
            _ => {}
        }
    }
    dead
}

/// A filtered trace with the cost class of every access computed once
/// under one cost map: runs under any cost pair replay the bits instead of
/// asking the map again.
#[derive(Debug, Clone)]
pub struct PricedTrace<'a> {
    trace: &'a FilteredTrace,
    /// Bit `i % 64` of word `i / 64` is set when event `i` accesses a
    /// high-cost block.
    high: Vec<u64>,
}

impl<'a> PricedTrace<'a> {
    /// Classifies every access of `trace` under `costs`. The map's own pair
    /// is not used.
    #[must_use]
    pub fn new(trace: &'a FilteredTrace, costs: &dyn CostMap) -> Self {
        let high = trace
            .stream
            .chunks(64)
            .map(|chunk| {
                chunk.iter().enumerate().fold(0u64, |word, (j, &ev)| {
                    let access = ev & KIND <= WRITE;
                    word | u64::from(access && costs.is_high_cost(BlockAddr(ev >> KIND_BITS))) << j
                })
            })
            .collect();
        PricedTrace { trace, high }
    }

    /// Runs `policy` with each L2 miss charged `pair.high()` on a
    /// high-cost block and `pair.low()` on any other.
    #[must_use]
    pub fn run(&self, pair: CostPair, policy: Policy) -> RunResult {
        self.run_observed(pair, policy, None)
    }

    /// [`run`](Self::run) with `obs`, if any, watching the L2's cores.
    fn run_observed(
        &self,
        pair: CostPair,
        policy: Policy,
        obs: Option<SharedObserver>,
    ) -> RunResult {
        let cores = l2_cores(policy, &self.trace.cfg.l2, obs);
        let (l1, l2) = self.run_policy(pair, cores, policy.compares_full_tags(), |_| {});
        RunResult { policy, l1, l2 }
    }

    /// [`run`](Self::run) with the L2's cores built by `l2_core`, the dead
    /// invalidations skipped when `skip_dead`, and each L2 miss also
    /// reported to `on_l2_miss`; returns the L1 and L2 statistics.
    fn run_policy<C: EvictionPolicy>(
        &self,
        pair: CostPair,
        l2_core: impl FnMut() -> C,
        skip_dead: bool,
        on_l2_miss: impl FnMut(BlockAddr),
    ) -> (CacheStats, CacheStats) {
        let cfg = self.trace.cfg;
        // A skipped invalidation is still one the levels were asked for.
        let skipped = if skip_dead { self.trace.dead } else { 0 };
        let (l1, mut l2) = match self.trace.l1 {
            Some(mut l1) => {
                let mut l2 = Cache::new(cfg.l2, l2_core);
                self.replay(pair, &mut l2, skip_dead, on_l2_miss);
                // `TwoLevel` asks the L1 for every L2 victim; in a nesting
                // geometry that probe never finds it. The filter pass made
                // every invalidation, dead ones included.
                l1.invalidations_requested += l2.stats().evictions;
                (l1, *l2.stats())
            }
            None => {
                let mut h = TwoLevel::new(cfg.l1, cfg.l2, l2_core);
                self.replay(pair, &mut h, skip_dead, on_l2_miss);
                let mut l1 = *h.l1().stats();
                l1.invalidations_requested += skipped;
                (l1, *h.l2().stats())
            }
        };
        l2.invalidations_requested += skipped;
        (l1, l2)
    }

    /// The LRU baseline of every pair at once: one LRU run's L2 misses,
    /// split by cost class.
    #[must_use]
    pub fn lru_misses(&self) -> ClassMisses {
        // LRU ignores costs, so charging high-class misses 1 and the rest
        // 0 makes the aggregate cost the high-class miss count.
        let skip_dead = Policy::Lru.compares_full_tags();
        let (_, l2) = self.run_policy(CostPair::infinite_ratio(), Lru::new, skip_dead, |_| {});
        ClassMisses {
            low: l2.misses - l2.aggregate_cost.0,
            high: l2.aggregate_cost.0,
        }
    }

    /// The one replay loop: every event into `level` but, when
    /// `skip_dead`, the dead invalidations; each access charged by its bit,
    /// each L2 miss also reported to `on_l2_miss`.
    fn replay(
        &self,
        pair: CostPair,
        level: &mut impl Level,
        skip_dead: bool,
        mut on_l2_miss: impl FnMut(BlockAddr),
    ) {
        for (chunk, &word) in self.trace.stream.chunks(64).zip(&self.high) {
            for (j, &ev) in chunk.iter().enumerate() {
                let block = BlockAddr(ev >> KIND_BITS);
                let op = match ev & KIND {
                    READ => AccessType::Read,
                    WRITE => AccessType::Write,
                    WRITEBACK => {
                        level.writeback(block);
                        continue;
                    }
                    DEAD if skip_dead => continue,
                    _ => {
                        level.invalidate(block);
                        continue;
                    }
                };
                if level.access(block, op, pair.pick(word >> j & 1 == 1)) {
                    on_l2_miss(block);
                }
            }
        }
    }
}

/// What a [`PricedTrace`] replays into: the L2 alone behind a filtered
/// stream, or the whole hierarchy behind an unfiltered one.
trait Level {
    /// One access charged `cost` on an L2 miss; `true` when it missed the
    /// L2.
    fn access(&mut self, block: BlockAddr, op: AccessType, cost: Cost) -> bool;

    /// A dirty L1 victim written back into the L2.
    fn writeback(&mut self, block: BlockAddr);

    /// A coherence invalidation.
    fn invalidate(&mut self, block: BlockAddr);
}

impl<C: EvictionPolicy> Level for Cache<C> {
    fn access(&mut self, block: BlockAddr, op: AccessType, cost: Cost) -> bool {
        !Cache::access(self, block, op, cost).hit
    }

    fn writeback(&mut self, block: BlockAddr) {
        Cache::writeback(self, block);
    }

    fn invalidate(&mut self, block: BlockAddr) {
        Cache::invalidate(self, block);
    }
}

impl<C: EvictionPolicy> Level for TwoLevel<C> {
    fn access(&mut self, block: BlockAddr, op: AccessType, cost: Cost) -> bool {
        TwoLevel::access(self, block, op, cost).l2_hit == Some(false)
    }

    fn writeback(&mut self, _block: BlockAddr) {
        unreachable!("an unfiltered stream carries no L1 writebacks")
    }

    fn invalidate(&mut self, block: BlockAddr) {
        TwoLevel::invalidate(self, block);
    }
}

/// An LRU run's L2 misses by cost class ([`PricedTrace::lru_misses`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassMisses {
    /// Misses on low-cost blocks.
    pub low: u64,
    /// Misses on high-cost blocks.
    pub high: u64,
}

impl ClassMisses {
    /// The run's aggregate cost under `pair`: `low·pair.low() +
    /// high·pair.high()`.
    #[must_use]
    pub fn aggregate_cost(&self, pair: CostPair) -> Cost {
        Cost(self.low * pair.low().0 + self.high * pair.high().0)
    }
}

/// Runs `policy` over a sampled trace under `costs`.
#[must_use]
pub fn run_sampled(
    sampled: &SampledTrace,
    costs: &dyn CostMap,
    policy: Policy,
    cfg: TraceSimConfig,
) -> RunResult {
    let trace = FilteredTrace::new(sampled, cfg);
    PricedTrace::new(&trace, costs).run(costs.pair(), policy)
}

/// Runs `policy` over a sampled trace with a decision observer attached.
///
/// Statistically identical to [`run_sampled`] — the observer only watches,
/// it never changes a replacement decision — but every hit, miss,
/// eviction, reservation and depreciation the policy makes is also
/// delivered to `obs`, so a table or figure computed from the returned
/// [`RunResult`] can carry a replayable decision trace as provenance.
/// LRU reports its decisions like every `csr` core; FIFO and Random, the
/// `cache-sim` baselines, emit no events.
#[must_use]
pub fn run_sampled_observed(
    sampled: &SampledTrace,
    costs: &dyn CostMap,
    policy: Policy,
    cfg: TraceSimConfig,
    obs: SharedObserver,
) -> RunResult {
    let trace = FilteredTrace::new(sampled, cfg);
    PricedTrace::new(&trace, costs).run_observed(costs.pair(), policy, Some(obs))
}

/// `policy`'s cores for the sets of a simulated `l2` cache: each core's
/// region is a set of `assoc` ways, and its directory (DCL, ACL) strips the
/// set-index bits from the tags it compares.
pub fn l2_cores(
    policy: Policy,
    l2: &Geometry,
    obs: Option<SharedObserver>,
) -> impl FnMut() -> cache_sim::BoxedPolicy {
    policy.cores(l2.assoc(), l2.num_sets().trailing_zeros(), obs)
}

/// Runs explicitly built cores over a sampled trace, one per L2 set from
/// `l2_core` (the ablation benches need hand-configured cores that
/// [`Policy`] cannot name). Returns the L1 and L2 statistics. Nothing says
/// how such cores compare tags, so every invalidation is replayed.
#[must_use]
pub fn run_sampled_policy<C: EvictionPolicy>(
    sampled: &SampledTrace,
    costs: &dyn CostMap,
    l2_core: impl FnMut() -> C,
    cfg: TraceSimConfig,
) -> (CacheStats, CacheStats) {
    let trace = FilteredTrace::new(sampled, cfg);
    PricedTrace::new(&trace, costs).run_policy(costs.pair(), l2_core, false, |_| {})
}

/// The per-block L2 miss counts of an LRU run.
///
/// LRU's replacement decisions are cost-independent, so a single LRU run
/// per trace yields the baseline aggregate cost for *every* static cost
/// map: `C_LRU = Σ_b misses(b) · cost(b)`. For many pairs of one map,
/// [`PricedTrace::lru_misses`] is cheaper; this serves many maps.
#[derive(Debug, Clone)]
pub struct LruMissProfile {
    miss_counts: HashMap<u64, u64>,
    stats: CacheStats,
}

impl LruMissProfile {
    /// Runs LRU once over the sampled trace and records per-block misses.
    #[must_use]
    pub fn collect(sampled: &SampledTrace, cfg: TraceSimConfig) -> Self {
        let trace = FilteredTrace::new(sampled, cfg);
        let unpriced = PricedTrace::new(&trace, &UniformCostMap(Cost::ZERO));
        let mut miss_counts: HashMap<u64, u64> = HashMap::new();
        let zero = CostPair::new(Cost::ZERO, Cost::ZERO);
        let skip_dead = Policy::Lru.compares_full_tags();
        let (_, stats) = unpriced.run_policy(zero, Lru::new, skip_dead, |block| {
            *miss_counts.entry(block.0).or_insert(0) += 1;
        });
        LruMissProfile { miss_counts, stats }
    }

    /// The LRU aggregate cost under `costs`.
    #[must_use]
    pub fn aggregate_cost(&self, costs: &dyn CostMap) -> Cost {
        self.miss_counts
            .iter()
            .map(|(&block, &n)| Cost(costs.cost_of(BlockAddr(block)).0 * n))
            .sum()
    }

    /// Total LRU misses (cost-map independent).
    #[must_use]
    pub fn total_misses(&self) -> u64 {
        self.stats.misses
    }

    /// The LRU L2 statistics of the profiling run.
    #[must_use]
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{build_benchmarks, run_tasks, Scale};
    use cache_sim::CostPair;
    use csr::{simulate_csopt, TraceEvent};
    use mem_trace::cost_map::{FirstTouchCostMap, RandomCostMap, UniformCostMap};
    use mem_trace::workloads::synthetic::UniformRandom;
    use mem_trace::{ProcId, Workload};

    fn sampled() -> SampledTrace {
        let w = UniformRandom {
            refs: 60_000,
            blocks: 2048,
            procs: 2,
            write_fraction: 0.3,
        };
        SampledTrace::from_trace(&w.generate(11), ProcId(0))
    }

    #[test]
    fn lru_profile_matches_direct_lru_run() {
        let s = sampled();
        let cfg = TraceSimConfig::paper_basic();
        let profile = LruMissProfile::collect(&s, cfg);
        for haf in [0.1, 0.5] {
            let map = RandomCostMap::new(haf, CostPair::ratio(8), 3);
            let direct = run_sampled(&s, &map, Policy::Lru, cfg);
            assert_eq!(profile.aggregate_cost(&map), direct.aggregate_cost());
        }
    }

    #[test]
    fn uniform_costs_make_cost_sensitive_policies_match_lru() {
        // Invariant 1 of DESIGN.md: with uniform costs BCL/DCL/ACL replace
        // exactly like LRU, so miss counts and costs coincide.
        let s = sampled();
        let cfg = TraceSimConfig::paper_basic();
        let map = UniformCostMap(Cost(5));
        let lru = run_sampled(&s, &map, Policy::Lru, cfg);
        for kind in [Policy::Bcl, Policy::Dcl, Policy::Acl] {
            let r = run_sampled(&s, &map, kind, cfg);
            assert_eq!(r.l2.misses, lru.l2.misses, "{kind} misses differ from LRU");
            assert_eq!(
                r.aggregate_cost(),
                lru.aggregate_cost(),
                "{kind} cost differs"
            );
        }
    }

    #[test]
    fn cost_sensitive_policies_save_cost_on_random_map() {
        let s = sampled();
        let cfg = TraceSimConfig::paper_basic();
        let map = RandomCostMap::new(0.2, CostPair::ratio(16), 9);
        let lru = run_sampled(&s, &map, Policy::Lru, cfg);
        let dcl = run_sampled(&s, &map, Policy::Dcl, cfg);
        assert!(
            dcl.aggregate_cost() < lru.aggregate_cost(),
            "DCL ({}) must beat LRU ({}) at the sweet spot",
            dcl.aggregate_cost(),
            lru.aggregate_cost()
        );
    }

    #[test]
    fn observed_run_is_bit_identical_and_counts_match_stats() {
        use csr_obs::CountingObserver;
        use std::sync::Arc;
        let s = sampled();
        let cfg = TraceSimConfig::paper_basic();
        let map = RandomCostMap::new(0.2, CostPair::ratio(16), 9);
        for kind in std::iter::once(Policy::Lru).chain(Policy::PAPER_SET) {
            let plain = run_sampled(&s, &map, kind, cfg);
            let counting = Arc::new(CountingObserver::new());
            let observed = run_sampled_observed(&s, &map, kind, cfg, counting.clone());
            assert_eq!(
                plain, observed,
                "{kind}: observation must not perturb the run"
            );
            let counts = counting.counts();
            assert!(counts.evictions > 0, "{kind}: trace must evict");
            assert_eq!(counts.hits, observed.l2.hits, "{kind} hits");
            assert_eq!(counts.misses, observed.l2.misses, "{kind} misses");
            assert_eq!(counts.evictions, observed.l2.evictions, "{kind} evictions");
        }
    }

    #[test]
    fn baseline_policies_fall_back_silently() {
        use csr_obs::CountingObserver;
        use std::sync::Arc;
        let s = sampled();
        let cfg = TraceSimConfig::paper_basic();
        let map = UniformCostMap(Cost(1));
        for kind in [Policy::Fifo, Policy::Random] {
            let plain = run_sampled(&s, &map, kind, cfg);
            let counting = Arc::new(CountingObserver::new());
            let observed = run_sampled_observed(&s, &map, kind, cfg, counting.clone());
            assert_eq!(plain, observed);
            let counts = counting.counts();
            assert_eq!(counts.hits + counts.misses + counts.evictions, 0);
        }
    }

    /// The L2's input under `pair`, for the offline optimum: reads and
    /// writes become accesses at their cost, invalidations (dead ones too)
    /// stay invalidations, and writebacks, which never bring a block in,
    /// are dropped.
    fn offline_events(priced: &PricedTrace<'_>, pair: CostPair) -> Vec<TraceEvent> {
        let bits = priced
            .high
            .iter()
            .flat_map(|&w| (0..64).map(move |j| w >> j & 1 == 1));
        priced
            .trace
            .stream
            .iter()
            .zip(bits)
            .filter_map(|(&ev, high)| {
                let block = BlockAddr(ev >> KIND_BITS);
                match ev & KIND {
                    READ | WRITE => Some(TraceEvent::Access {
                        block,
                        cost: pair.pick(high),
                    }),
                    WRITEBACK => None,
                    _ => Some(TraceEvent::Invalidate { block }),
                }
            })
            .collect()
    }

    /// The optimum on the L2's input lower-bounds every policy on every
    /// quick-scale Table 2 kernel, and GD stays within Young's bound
    /// `k·OPT + k·r` (`k` the associativity). The paper's geometry nests,
    /// so that input is the same under every policy.
    #[test]
    fn csopt_lower_bounds_every_policy_on_table2() {
        let cfg = TraceSimConfig::paper_basic();
        assert!(cfg.nests());
        let benchmarks = build_benchmarks(Scale::Quick);
        let filtered = run_tasks(2, &benchmarks, |b| FilteredTrace::new(&b.sampled, cfg));
        let cells: Vec<(usize, u64)> = (0..benchmarks.len())
            .flat_map(|bi| [(bi, 2), (bi, 32)])
            .collect();
        run_tasks(2, &cells, |&(bi, r)| {
            let b = &benchmarks[bi];
            let bb = cfg.l2.block_bytes();
            let map =
                FirstTouchCostMap::new(&b.placement, b.sample, CostPair::infinite_ratio(), bb);
            let priced = PricedTrace::new(&filtered[bi], &map);
            let pair = CostPair::ratio(r);
            let opt = simulate_csopt(&cfg.l2, &offline_events(&priced, pair)).aggregate_cost;
            for policy in Policy::ALL {
                let cost = priced.run(pair, policy).aggregate_cost();
                assert!(opt <= cost, "{} r={r}: OPT {opt} > {policy} {cost}", b.name);
                if policy == Policy::Gd {
                    let k = cfg.l2.assoc() as u64;
                    assert!(
                        cost.0 <= k * (opt.0 + r),
                        "{} r={r}: GD {cost}, OPT {opt}",
                        b.name
                    );
                }
            }
        });
    }

    #[test]
    fn foreign_writes_invalidate() {
        use cache_sim::AccessType;
        use mem_trace::{Trace, TraceRecord};
        let mut t = Trace::new(2);
        t.push(TraceRecord::read(ProcId(0), cache_sim::Addr(0)));
        t.push(TraceRecord::write(ProcId(1), cache_sim::Addr(0)));
        t.push(TraceRecord::read(ProcId(0), cache_sim::Addr(0)));
        let s = SampledTrace::from_trace(&t, ProcId(0));
        let cfg = TraceSimConfig::paper_basic();
        let r = run_sampled(&s, &UniformCostMap(Cost(1)), Policy::Lru, cfg);
        assert_eq!(r.l2.misses, 2, "the foreign write must force a re-miss");
        let _ = AccessType::Read;
    }
}
