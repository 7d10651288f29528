//! Beyond the paper: policy-zoo shoot-out over phase-shifting workloads.
//!
//! Runs every [`Policy`] the runtime cache supports — the paper's
//! cost-sensitive set plus the modern zoo (S3-FIFO, GDSF, CAMP) —
//! head-to-head over three synthetic key streams:
//!
//! * `zipf`  — skewed reuse with bimodal miss costs (steady state),
//! * `scan`  — the zipf stream interleaved with a long cyclic one-touch
//!   scan that thrashes recency-only policies,
//! * `phase` — zipf, then scan-heavy, then zipf again.
//!
//! Scoring is modeled cost savings: every hit saves the miss cost the
//! backing store would have charged for that key. The emitted
//! `BENCH_policies.json` carries the full matrix plus a `checks` object
//! the CI smoke job greps for: S3-FIFO collects more hits than LRU on the
//! scan stream, and DCL saves more cost than LRU on all three streams.

use crate::{report, ExperimentOpts, TableBuilder};
use csr_cache::{CsrCache, Policy};
use csr_obs::Json;
use mem_trace::rng::SplitMix64;
use std::collections::hash_map::DefaultHasher;
use std::hash::BuildHasher;

/// Keys in the skewed (zipf) namespace.
const KEYS: usize = 4096;
/// Cache capacity (entries, single shard).
const CAPACITY: usize = 512;
/// Length of the cyclic scan key range — wider than the cache so a
/// recency-only policy churns on it without ever collecting a hit.
const SCAN_SPACE: u64 = 2048;
/// First key of the scan namespace, disjoint from the zipf keys.
const SCAN_BASE: u64 = 1 << 32;
/// Zipf skew for the reuse-heavy phases.
const THETA: f64 = 0.9;

/// Deterministic [`BuildHasher`]: `DefaultHasher::new()` uses fixed keys,
/// so key→shard-slot placement is identical on every run.
#[derive(Clone, Default)]
struct FixedState;

impl BuildHasher for FixedState {
    type Hasher = DefaultHasher;
    fn build_hasher(&self) -> DefaultHasher {
        DefaultHasher::new()
    }
}

/// Modeled cost of re-fetching `key` on a miss: one key in eight is
/// expensive (a far-away origin), the rest are cheap.
fn cost_of(key: u64) -> u64 {
    if key.is_multiple_of(8) {
        16
    } else {
        1
    }
}

/// Cumulative Zipf distribution over ranks `1..=n` with skew `theta`.
fn zipf_cdf(n: usize, theta: f64) -> Vec<f64> {
    let mut cdf = Vec::with_capacity(n);
    let mut total = 0.0;
    for rank in 1..=n {
        total += 1.0 / (rank as f64).powf(theta);
        cdf.push(total);
    }
    for c in &mut cdf {
        *c /= total;
    }
    cdf
}

/// Draws one zipf-ranked key.
fn zipf_key(cdf: &[f64], rng: &mut SplitMix64) -> u64 {
    let u = rng.next_u64() as f64 / u64::MAX as f64;
    cdf.partition_point(|&c| c < u) as u64
}

/// One synthetic key stream.
struct Workload {
    name: &'static str,
    trace: Vec<u64>,
}

/// Builds the three workloads; `ops` is the per-workload trace length.
fn workloads(ops: usize, seed: u64) -> Vec<Workload> {
    let cdf = zipf_cdf(KEYS, THETA);
    let mut out = Vec::new();

    let mut rng = SplitMix64::new(seed);
    let zipf: Vec<u64> = (0..ops).map(|_| zipf_key(&cdf, &mut rng)).collect();
    out.push(Workload {
        name: "zipf",
        trace: zipf,
    });

    // Half the ops walk a cyclic scan range that never fits in the cache.
    let mut rng = SplitMix64::new(seed ^ 0x5ca_0001);
    let mut scan_pos = 0u64;
    let scan: Vec<u64> = (0..ops)
        .map(|_| {
            if rng.chance(0.5) {
                scan_pos += 1;
                SCAN_BASE + scan_pos % SCAN_SPACE
            } else {
                zipf_key(&cdf, &mut rng)
            }
        })
        .collect();
    out.push(Workload {
        name: "scan",
        trace: scan,
    });

    // Three acts: zipf, scan-heavy (90% scans), zipf again.
    let mut rng = SplitMix64::new(seed ^ 0x5ca_0002);
    let mut scan_pos = 0u64;
    let phase: Vec<u64> = (0..ops)
        .map(|i| {
            let scanning = (ops / 3..2 * ops / 3).contains(&i);
            if scanning && rng.chance(0.9) {
                scan_pos += 1;
                SCAN_BASE + scan_pos % SCAN_SPACE
            } else {
                zipf_key(&cdf, &mut rng)
            }
        })
        .collect();
    out.push(Workload {
        name: "phase",
        trace: phase,
    });
    out
}

/// Result of one (policy, workload) cell.
struct Cell {
    policy: &'static str,
    workload: &'static str,
    ops: u64,
    hits: u64,
    savings: u64,
}

impl Cell {
    fn hit_rate(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.hits as f64 / self.ops as f64
        }
    }
}

/// Replays `trace` through a fresh single-shard cache and scores it.
fn run_cell(trace: &[u64], policy: Policy, workload: &'static str) -> Cell {
    let cache: CsrCache<u64, u64, FixedState> = CsrCache::builder(CAPACITY)
        .shards(1)
        .hasher(FixedState)
        .cost_fn(|k: &u64, _v: &u64| cost_of(*k))
        .policy(policy)
        .build();
    let mut hits = 0u64;
    let mut savings = 0u64;
    for &key in trace {
        if cache.get(&key).is_some() {
            hits += 1;
            savings += cost_of(key);
        } else {
            cache.insert(key, key);
        }
    }
    Cell {
        policy: policy.name(),
        workload,
        ops: trace.len() as u64,
        hits,
        savings,
    }
}

/// Looks up a cell by policy name and workload.
fn cell<'a>(cells: &'a [Cell], policy: &str, workload: &str) -> &'a Cell {
    cells
        .iter()
        .find(|c| c.policy == policy && c.workload == workload)
        .expect("matrix cell present")
}

/// The acceptance checks derived from the matrix, emitted into the JSON
/// for the CI smoke job to grep.
fn s3fifo_beats_lru_scan(cells: &[Cell]) -> bool {
    cell(cells, "S3-FIFO", "scan").hits > cell(cells, "LRU", "scan").hits
}

/// The paper's claim in cost units: DCL's modeled savings exceed LRU's on
/// every stream.
fn dcl_saves_more_than_lru(cells: &[Cell]) -> bool {
    ["zipf", "scan", "phase"]
        .iter()
        .all(|w| cell(cells, "DCL", w).savings > cell(cells, "LRU", w).savings)
}

fn cells_json(cells: &[Cell]) -> Json {
    Json::Arr(
        cells
            .iter()
            .map(|c| {
                Json::obj([
                    ("workload", Json::str(c.workload)),
                    ("policy", Json::str(c.policy)),
                    ("ops", Json::uint(c.ops)),
                    ("hits", Json::uint(c.hits)),
                    ("hit_rate", Json::Float(c.hit_rate())),
                    ("modeled_savings", Json::uint(c.savings)),
                ])
            })
            .collect(),
    )
}

/// Runs the policy × workload matrix and emits `BENCH_policies.json`.
pub fn run_experiment(opts: &ExperimentOpts) {
    let ops = if opts.paper_scale { 240_000 } else { 60_000 };
    println!("=== Beyond the paper: policy zoo ===");
    println!("    {KEYS} zipf keys (theta {THETA}), {CAPACITY}-entry cache, {ops} ops/workload");
    let loads = workloads(ops, csr_harness::experiments::BENCH_SEED);

    let tasks: Vec<(usize, Policy)> = (0..loads.len())
        .flat_map(|wi| Policy::ALL.map(|p| (wi, p)))
        .collect();
    let cells = csr_harness::experiments::run_tasks(opts.threads, &tasks, |&(wi, p)| {
        run_cell(&loads[wi].trace, p, loads[wi].name)
    });

    for load in &loads {
        let mut t = TableBuilder::new();
        t.header(["policy", "hits", "hit rate", "modeled savings"]);
        let mut ranked: Vec<&Cell> = cells.iter().filter(|c| c.workload == load.name).collect();
        ranked.sort_by_key(|c| std::cmp::Reverse(c.savings));
        for c in &ranked {
            t.row([
                c.policy.to_string(),
                c.hits.to_string(),
                format!("{:.1}%", c.hit_rate() * 100.0),
                c.savings.to_string(),
            ]);
        }
        println!("\n--- workload: {} ---", load.name);
        print!("{}", t.render());
    }

    let s3fifo_beats_lru_scan = s3fifo_beats_lru_scan(&cells);
    let dcl_saves_more_than_lru = dcl_saves_more_than_lru(&cells);
    println!("\nchecks:");
    println!("  s3fifo_beats_lru_scan          {s3fifo_beats_lru_scan}");
    println!("  dcl_saves_more_than_lru        {dcl_saves_more_than_lru}");

    report::write_report(
        opts,
        "policies",
        &report::envelope(
            "policies",
            opts,
            Json::obj([
                ("keys", Json::uint(KEYS as u64)),
                ("capacity", Json::uint(CAPACITY as u64)),
                ("ops_per_workload", Json::uint(ops as u64)),
                ("cells", cells_json(&cells)),
                (
                    "checks",
                    Json::obj([
                        ("s3fifo_beats_lru_scan", Json::Bool(s3fifo_beats_lru_scan)),
                        (
                            "dcl_saves_more_than_lru",
                            Json::Bool(dcl_saves_more_than_lru),
                        ),
                    ]),
                ),
            ]),
        ),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_are_deterministic() {
        let a = workloads(3000, 7);
        let b = workloads(3000, 7);
        assert_eq!(a.len(), 3);
        for (wa, wb) in a.iter().zip(&b) {
            assert_eq!(wa.trace, wb.trace, "{}", wa.name);
        }
        // Scan keys live in their own namespace.
        assert!(a[1].trace.iter().any(|&k| k >= SCAN_BASE));
        assert!(a[0].trace.iter().all(|&k| k < KEYS as u64));
    }

    #[test]
    fn scan_workload_separates_s3fifo_from_lru() {
        let loads = workloads(20_000, csr_harness::experiments::BENCH_SEED);
        let scan = &loads[1];
        let lru = run_cell(&scan.trace, Policy::Lru, scan.name);
        let s3 = run_cell(&scan.trace, Policy::S3Fifo, scan.name);
        assert!(
            s3.hits > lru.hits,
            "S3-FIFO {} <= LRU {} on scan",
            s3.hits,
            lru.hits
        );
    }
}
