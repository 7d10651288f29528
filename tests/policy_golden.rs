//! Every policy the workspace can build, in both layers, against
//! `golden/policies.tsv`.
//!
//! * Simulator: each of the twelve experiment policies through
//!   `run_sampled` on a small barnes trace (bodies 512, seed 7, processor 1)
//!   under first-touch costs at r = 8 in the paper's basic hierarchy; the
//!   line pins the L2's hits, misses, evictions, non-LRU evictions and
//!   aggregate cost.
//! * Key-value cache: each member of `Policy::ALL` through a 512-entry,
//!   two-shard `CsrCache` with a fixed hasher and a two-cost cost function,
//!   replaying a seeded Zipf get-or-insert stream; the line pins hits,
//!   evictions, reservations and aggregate miss cost.
//!
//! The file pins decisions, so a refactor of how cores are built never
//! rewrites it.

use cost_sensitive_cache::cache::{CsrCache, Policy};
use cost_sensitive_cache::harness::{run_sampled, PolicyKind, TraceSimConfig};
use cost_sensitive_cache::sim::CostPair;
use cost_sensitive_cache::trace::cost_map::FirstTouchCostMap;
use cost_sensitive_cache::trace::workloads::synthetic::ZipfRandom;
use cost_sensitive_cache::trace::workloads::BarnesLike;
use cost_sensitive_cache::trace::{ProcId, SampledTrace, TraceCensus, Workload};
use std::hash::{BuildHasher, Hasher};

const SIM_POLICIES: [PolicyKind; 12] = [
    PolicyKind::Lru,
    PolicyKind::Fifo,
    PolicyKind::Random,
    PolicyKind::Gd,
    PolicyKind::Bcl,
    PolicyKind::Dcl,
    PolicyKind::DclAlias4,
    PolicyKind::Acl,
    PolicyKind::AclAlias4,
    PolicyKind::S3Fifo,
    PolicyKind::Gdsf,
    PolicyKind::Camp,
];

fn sim_lines() -> Vec<String> {
    let trace = BarnesLike {
        bodies: 512,
        procs: 4,
        steps: 2,
        walk_len: 12,
        locality_bias: 0.68,
    }
    .generate(7);
    let sampled = SampledTrace::from_trace(&trace, ProcId(1));
    let placement = TraceCensus::from_trace(64, &trace).into_placement();
    let costs = FirstTouchCostMap::new(placement, sampled.proc(), CostPair::ratio(8), 64);
    let cfg = TraceSimConfig::paper_basic();
    SIM_POLICIES
        .iter()
        .map(|&kind| {
            let l2 = run_sampled(&sampled, &costs, kind, cfg).l2;
            format!(
                "sim/{}\t{}\t{}\t{}\t{}\t{}",
                kind.label(),
                l2.hits,
                l2.misses,
                l2.evictions,
                l2.non_lru_evictions,
                l2.aggregate_cost.0
            )
        })
        .collect()
}

/// A splitmix hasher with no per-process key: the shard of every key, and
/// so every decision, is the same on every run.
#[derive(Clone, Default)]
struct FixedState;

struct FixedHasher(u64);

impl Hasher for FixedHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    fn write_u64(&mut self, i: u64) {
        let mut z = i.wrapping_add(0x9E37_79B9_7F4A_7C15).wrapping_add(self.0);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        self.0 = z ^ (z >> 31);
    }
}

impl BuildHasher for FixedState {
    type Hasher = FixedHasher;
    fn build_hasher(&self) -> FixedHasher {
        FixedHasher(0)
    }
}

fn kv_lines() -> Vec<String> {
    let keys: Vec<u64> = ZipfRandom {
        refs: 40_000,
        blocks: 4096,
        exponent: 0.9,
        write_fraction: 0.0,
    }
    .generate(0x5EED)
    .iter()
    .map(|r| r.block(64).0)
    .collect();
    Policy::ALL
        .iter()
        .map(|&policy| {
            // One key in sixteen is expensive.
            let cache: CsrCache<u64, u64, FixedState> = CsrCache::builder(512)
                .shards(2)
                .policy(policy)
                .cost_fn(|k: &u64, _v: &u64| if k.is_multiple_of(16) { 32 } else { 1 })
                .hasher(FixedState)
                .build();
            for &k in &keys {
                if cache.get(&k).is_none() {
                    cache.insert(k, k);
                }
            }
            let s = cache.stats();
            format!(
                "kv/{}\t{}\t{}\t{}\t{}",
                policy.name(),
                s.hits,
                s.evictions,
                s.reservations,
                s.aggregate_miss_cost
            )
        })
        .collect()
}

#[test]
fn every_policy_matches_the_golden_in_both_layers() {
    let got: Vec<String> = sim_lines().into_iter().chain(kv_lines()).collect();
    let golden = include_str!("golden/policies.tsv");
    let want: Vec<&str> = golden.lines().filter(|l| !l.starts_with('#')).collect();
    if got != want {
        eprintln!("{}", got.join("\n"));
    }
    assert_eq!(got.len(), want.len(), "line count");
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(g, w);
    }
}
