//! Synthetic SPLASH-2-like workload kernels.
//!
//! The paper traces four SPLASH-2 benchmarks (Table 1). The original
//! SPARC binaries and their execution-driven tracing infrastructure are not
//! reproducible here, so this module provides synthetic kernels that emit
//! shared-data reference streams with the same *structural* properties the
//! replacement study depends on: locality profile, sharing and invalidation
//! traffic, per-set imbalance, and first-touch remote-access fraction.
//!
//! | Kernel | Mirrors | Character |
//! |--------|---------|-----------|
//! | [`BarnesLike`] | Barnes | irregular, data-dependent octree walks, high remote fraction |
//! | [`LuLike`] | LU | blocked dense factorization, high locality, strong set imbalance |
//! | [`OceanLike`] | Ocean | regular grid stencils, low remote fraction |
//! | [`RaytraceLike`] | Raytrace | read-mostly irregular scene traversal, large footprint |
//!
//! All kernels are deterministic given a seed and implement [`Workload`].

use crate::phased::{Phase, PhasedTrace};
use crate::record::{PackedRef, Trace};

mod barnes;
mod fft;
mod lu;
mod ocean;
mod radix;
mod raytrace;
pub mod synthetic;

pub use barnes::BarnesLike;
pub use fft::FftLike;
pub use lu::LuLike;
pub use ocean::OceanLike;
pub use radix::RadixLike;
pub use raytrace::RaytraceLike;

/// Chunk size used when flattening phases into a single trace: every
/// kernel's [`Workload::generate`] is
/// `generate_phases(seed).interleave(INTERLEAVE_CHUNK)`.
pub const INTERLEAVE_CHUNK: usize = 64;

/// A workload kernel that can generate a multiprocessor reference trace.
pub trait Workload {
    /// Short name ("barnes", "lu", …).
    fn name(&self) -> &'static str;

    /// Human-readable problem-size description (Table 1 style).
    fn problem_size(&self) -> String;

    /// Number of processors in the traced machine.
    fn num_procs(&self) -> usize;

    /// Generates the trace. Deterministic for a given `seed`.
    fn generate(&self, seed: u64) -> Trace;

    /// Generates the barrier-delimited per-processor streams that
    /// execution-driven simulation replays ([`PhasedTrace`]).
    ///
    /// The default implementation wraps the flat trace into a single phase
    /// (adequate for workloads without barrier structure); the SPLASH-like
    /// kernels override it with their real phase structure.
    fn generate_phases(&self, seed: u64) -> PhasedTrace {
        let trace = self.generate(seed);
        let mut phase = Phase::new(self.num_procs());
        for rec in &trace {
            phase.streams[rec.proc.0].push(PackedRef::from(*rec));
        }
        let mut pt = PhasedTrace::new(self.num_procs());
        pt.push(phase);
        pt
    }
}

/// The kernels' data-dependent access patterns draw from the workspace's
/// internal [`SplitMix64`](crate::rng::SplitMix64) generator, keeping
/// streams reproducible without the `rand` crate's version-dependent
/// stream definitions.
pub(crate) use crate::rng::SplitMix64 as Splitmix;

/// The standard four-kernel suite at trace-study scale (Section 3 analog).
#[must_use]
pub fn standard_suite() -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(BarnesLike::default()),
        Box::new(LuLike::default()),
        Box::new(OceanLike::default()),
        Box::new(RaytraceLike::default()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_sim::Addr;

    #[test]
    fn interleaver_round_robins_chunks() {
        let s0: Vec<PackedRef> = (0..4).map(|i| PackedRef::read(Addr(i * 64))).collect();
        let s1: Vec<PackedRef> = (0..2)
            .map(|i| PackedRef::read(Addr(0x1000 + i * 64)))
            .collect();
        let mut pt = PhasedTrace::new(2);
        pt.push(Phase::from_streams(vec![s0, s1]));
        let procs: Vec<usize> = pt.records(2).map(|r| r.proc.0).collect();
        assert_eq!(procs, vec![0, 0, 1, 1, 0, 0]);
    }

    #[test]
    fn splitmix_is_deterministic_and_spread() {
        let mut a = Splitmix::new(5);
        let mut b = Splitmix::new(5);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            let x = a.next_u64();
            assert_eq!(x, b.next_u64());
            seen.insert(x % 10);
        }
        assert!(seen.len() >= 8, "values should spread across residues");
    }

    #[test]
    fn chance_probability_sane() {
        let mut rng = Splitmix::new(99);
        let hits = (0..10_000).filter(|_| rng.chance(0.25)).count();
        assert!((hits as f64 / 10_000.0 - 0.25).abs() < 0.03);
    }

    #[test]
    fn standard_suite_has_four_kernels() {
        let suite = standard_suite();
        let names: Vec<&str> = suite.iter().map(|w| w.name()).collect();
        assert_eq!(names, vec!["barnes", "lu", "ocean", "raytrace"]);
    }
}
