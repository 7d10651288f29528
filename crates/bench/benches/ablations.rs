//! Ablation studies of the design choices DESIGN.md calls out (run with
//! `cargo bench --bench ablations`; prints tables rather than timings):
//!
//! * BCL/DCL depreciation factor — the paper picks 2× ("hedges the bet");
//! * ETD capacity — the paper proves s-1 entries suffice;
//! * ETD tag width — aliasing vs full tags (Section 4.3).

use cache_sim::{relative_savings_pct, EvictionPolicy};
use csr::etd::{EtdConfig, EtdStats};
use csr::{BclCore, DclCore};
use csr_harness::{
    build_benchmarks, run_sampled_policy, Benchmark, LruMissProfile, Scale, TraceSimConfig,
};
use mem_trace::cost_map::{CostMap, RandomCostMap};

fn run_policy<C: EvictionPolicy>(
    bench: &Benchmark,
    costs: &dyn CostMap,
    cfg: TraceSimConfig,
    core: impl FnMut() -> C,
) -> cache_sim::Cost {
    run_sampled_policy(&bench.sampled, costs, core, cfg)
        .1
        .aggregate_cost
}

fn main() {
    let cfg = TraceSimConfig::paper_basic();
    let geom = cfg.l2;
    println!("building benchmarks ...");
    let benchmarks = build_benchmarks(Scale::Quick);
    let map = RandomCostMap::new(0.2, cache_sim::CostPair::ratio(8), 77);

    println!("\n=== Ablation: depreciation factor (savings over LRU, %, HAF=0.2 r=8) ===");
    println!(
        "{:<10} {:>8} {:>8} {:>8} | {:>8} {:>8} {:>8}",
        "benchmark", "BCL x1", "BCL x2", "BCL x4", "DCL x1", "DCL x2", "DCL x4"
    );
    for b in &benchmarks {
        let base = LruMissProfile::collect(&b.sampled, cfg).aggregate_cost(&map);
        let sav = |c: cache_sim::Cost| relative_savings_pct(base, c);
        let bcl: Vec<f64> = [1u64, 2, 4]
            .iter()
            .map(|&f| {
                sav(run_policy(b, &map, cfg, || {
                    BclCore::with_depreciation_factor(f)
                }))
            })
            .collect();
        let dcl: Vec<f64> = [1u64, 2, 4]
            .iter()
            .map(|&f| {
                sav(run_policy(b, &map, cfg, || {
                    DclCore::for_geometry(&geom).with_depreciation_factor(f)
                }))
            })
            .collect();
        println!(
            "{:<10} {:>8.2} {:>8.2} {:>8.2} | {:>8.2} {:>8.2} {:>8.2}",
            b.name, bcl[0], bcl[1], bcl[2], dcl[0], dcl[1], dcl[2]
        );
    }

    println!("\n=== Ablation: ETD entries per set (DCL savings over LRU, %) ===");
    println!(
        "{:<10} {:>8} {:>8} {:>8} {:>8}",
        "benchmark", "1", "2", "3 (s-1)", "7"
    );
    for b in &benchmarks {
        let base = LruMissProfile::collect(&b.sampled, cfg).aggregate_cost(&map);
        let row: Vec<f64> = [1usize, 2, 3, 7]
            .iter()
            .map(|&n| {
                let etd = EtdConfig {
                    entries_per_set: n,
                    tag_bits: None,
                };
                let c = run_policy(b, &map, cfg, || DclCore::with_etd_config(&geom, etd));
                relative_savings_pct(base, c)
            })
            .collect();
        println!(
            "{:<10} {:>8.2} {:>8.2} {:>8.2} {:>8.2}",
            b.name, row[0], row[1], row[2], row[3]
        );
    }

    println!("\n=== Ablation: ETD tag width (DCL savings over LRU, %; false-match rate) ===");
    println!(
        "{:<10} {:>14} {:>14} {:>14} {:>14}",
        "benchmark", "2 bits", "4 bits", "8 bits", "full"
    );
    for b in &benchmarks {
        let base = LruMissProfile::collect(&b.sampled, cfg).aggregate_cost(&map);
        let mut cells = Vec::new();
        for bits in [Some(2u32), Some(4), Some(8), None] {
            let etd = EtdConfig {
                entries_per_set: 3,
                tag_bits: bits,
            };
            let core = || DclCore::with_etd_config(&geom, etd);
            let mut h = cache_sim::TwoLevel::new(cfg.l1, cfg.l2, core);
            let bb = cfg.l2.block_bytes();
            for ev in b.sampled.events() {
                let (addr, kind) = ev.unpack();
                let block = addr.block(bb);
                match kind {
                    mem_trace::SampledKind::Own(op) => {
                        h.access(block, op, map.cost_of(block));
                    }
                    mem_trace::SampledKind::ForeignWrite => h.invalidate(block),
                }
            }
            let sav = relative_savings_pct(base, h.l2().stats().aggregate_cost);
            let mut etd = EtdStats::default();
            for core in h.l2().cores() {
                etd.merge(core.etd().stats());
            }
            let fm = etd.false_match_rate() * 100.0;
            cells.push(format!("{sav:+.2}% ({fm:.0}%fm)"));
        }
        println!(
            "{:<10} {:>14} {:>14} {:>14} {:>14}",
            b.name, cells[0], cells[1], cells[2], cells[3]
        );
    }
    println!("\n(paper: 4-bit aliasing changes results only marginally; Section 4.3)");
}
