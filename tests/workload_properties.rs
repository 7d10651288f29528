//! Randomized tests (seeded, dependency-free) of the workload generators
//! and trace plumbing.

use cost_sensitive_cache::trace::rng::SplitMix64;
use cost_sensitive_cache::trace::workloads::synthetic::{
    SequentialScan, UniformRandom, ZipfRandom,
};
use cost_sensitive_cache::trace::workloads::{BarnesLike, LuLike, OceanLike, RaytraceLike};
use cost_sensitive_cache::trace::{ProcId, SampledTrace, Trace, TraceCensus, Workload};

/// Every kernel's flat trace and phased trace contain exactly the same
/// references (the interleave is a permutation within phases).
#[test]
fn phased_and_flat_traces_agree() {
    let mut rng = SplitMix64::new(0x00AD_5EED);
    for _ in 0..8 {
        let seed = rng.below(1000);
        let kernels: Vec<Box<dyn Workload>> = vec![
            Box::new(BarnesLike {
                bodies: 512,
                procs: 4,
                steps: 1,
                walk_len: 8,
                locality_bias: 0.6,
            }),
            Box::new(LuLike {
                n: 64,
                block: 16,
                procs: 4,
                element_stride: 2,
            }),
            Box::new(OceanLike {
                n: 34,
                grids: 2,
                procs: 4,
                iters: 1,
                col_stride: 2,
                reduction_points: 16,
            }),
            Box::new(RaytraceLike {
                scene_nodes: 1024,
                image: 16,
                procs: 4,
                ray_depth: 6,
                locality_bias: 0.8,
            }),
        ];
        for w in kernels {
            let flat = w.generate(seed);
            let phased = w.generate_phases(seed);
            assert_eq!(flat.len(), phased.total_refs(), "{} seed {seed}", w.name());
            // Same per-processor reference counts.
            for p in 0..w.num_procs() {
                let phased_count: usize = phased
                    .phases()
                    .iter()
                    .map(|ph| ph.stream(ProcId(p)).len())
                    .sum();
                assert_eq!(flat.refs_by(ProcId(p)) as usize, phased_count);
            }
        }
    }
}

/// First-touch placement is stable: re-deriving it from the same trace
/// yields the same homes, and remote fractions stay in [0, 1].
#[test]
fn first_touch_is_deterministic() {
    let mut rng = SplitMix64::new(0xF1_857);
    for _ in 0..16 {
        let seed = rng.below(1000);
        let w = UniformRandom {
            refs: 3000,
            blocks: 256,
            procs: 4,
            write_fraction: 0.3,
        };
        let t = w.generate(seed);
        let a = TraceCensus::from_trace(64, &t);
        let b = TraceCensus::from_trace(64, &t);
        assert_eq!(a.placement().units_homed(), b.placement().units_homed());
        let fa = a.remote_fractions();
        assert!(fa.iter().all(|f| (0.0..=1.0).contains(f)));
        assert_eq!(fa, b.remote_fractions());
    }
}

/// A sampled trace never contains another processor's reads, and its
/// event count is own refs + foreign writes.
#[test]
fn sampling_partitions_correctly() {
    let mut rng = SplitMix64::new(0x5A_3713);
    for _ in 0..16 {
        let seed = rng.below(1000);
        let proc = rng.below(4) as usize;
        let w = UniformRandom {
            refs: 2000,
            blocks: 128,
            procs: 4,
            write_fraction: 0.4,
        };
        let t = w.generate(seed);
        let s = SampledTrace::from_trace(&t, ProcId(proc));
        assert_eq!(s.events().len() as u64, s.own_refs() + s.foreign_writes());
        assert_eq!(s.own_refs(), t.refs_by(ProcId(proc)));
        let total_writes: u64 = t
            .iter()
            .filter(|r| r.op == cost_sensitive_cache::sim::AccessType::Write)
            .count() as u64;
        let own_writes: u64 = t
            .iter()
            .filter(|r| {
                r.proc == ProcId(proc) && r.op == cost_sensitive_cache::sim::AccessType::Write
            })
            .count() as u64;
        assert_eq!(s.foreign_writes(), total_writes - own_writes);
    }
}

/// Trace round-trips through the binary format byte-exactly.
#[test]
fn trace_io_roundtrip() {
    let mut rng = SplitMix64::new(0x10_0907);
    for _ in 0..16 {
        let seed = rng.below(1000);
        let w = ZipfRandom {
            refs: 500,
            blocks: 64,
            exponent: 1.0,
            write_fraction: 0.2,
        };
        let t = w.generate(seed);
        let mut buf = Vec::new();
        cost_sensitive_cache::trace::io::write_trace(&t, &mut buf).expect("write");
        let back = cost_sensitive_cache::trace::io::read_trace(buf.as_slice()).expect("read");
        assert_eq!(back.records(), t.records());
    }
}

/// The sequential scan is exactly periodic.
#[test]
fn scan_is_periodic() {
    let mut rng = SplitMix64::new(0x5CA11);
    for _ in 0..16 {
        let passes = 1 + rng.below(4) as usize;
        let blocks = 1 + rng.below(63) as usize;
        let t = SequentialScan { passes, blocks }.generate(0);
        assert_eq!(t.len(), passes * blocks);
        let recs = t.records();
        for i in blocks..recs.len() {
            assert_eq!(recs[i].addr, recs[i - blocks].addr);
        }
    }
}

/// The Table-1 characteristics of the default suite stay in the bands
/// EXPERIMENTS.md documents (a drift canary for kernel edits).
#[test]
fn default_suite_characteristics_stay_in_documented_bands() {
    let suite: Vec<(Box<dyn Workload>, std::ops::Range<f64>)> = vec![
        (Box::new(BarnesLike::default()), 0.40..0.62),
        (Box::new(LuLike::default()), 0.12..0.30),
        (Box::new(OceanLike::default()), 0.03..0.15),
        (Box::new(RaytraceLike::default()), 0.22..0.42),
    ];
    for (w, band) in suite {
        let census = TraceCensus::from_trace(64, &w.generate(2003));
        let f = census.remote_fractions()[census.representative_processor().0];
        assert!(
            band.contains(&f),
            "{}: remote fraction {f} outside documented band {band:?}",
            w.name()
        );
    }
    let _ = Trace::new(1); // keep the import exercised
}
