//! A parallel radix-sort kernel (SPLASH-2 Radix analog).
//!
//! The paper's footnote 2 reports that Radix (with Water, MP3D and FFT) was
//! also run but "yielded no additional insight"; it is included here for
//! completeness of the suite. Each digit pass builds per-processor
//! histograms (local), combines them into global ranks (small all-to-all
//! reads), then permutes keys to their destinations — scattered, mostly
//! remote writes with essentially no reuse, the worst case for any
//! replacement policy.

// Per-processor generation loops deliberately index by `p`: the index is
// simultaneously the ProcId and the stream slot, and enumerate() would
// obscure that symmetry.
#![allow(clippy::needless_range_loop)]

use super::{Splitmix, Workload, INTERLEAVE_CHUNK};
use crate::phased::{Phase, PhasedTrace};
use crate::record::{PackedRef, Trace};
use cache_sim::Addr;

/// Configuration of [`RadixLike`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RadixLike {
    /// Number of keys sorted.
    pub keys: usize,
    /// Number of processors.
    pub procs: usize,
    /// Radix digit width in bits per pass.
    pub digit_bits: u32,
    /// Number of digit passes.
    pub passes: usize,
    /// Sampling stride over keys (1 = trace every key access).
    pub key_stride: usize,
}

impl Default for RadixLike {
    /// Trace-study scale: 256 K integer keys on 8 processors.
    fn default() -> Self {
        RadixLike {
            keys: 256 * 1024,
            procs: 8,
            digit_bits: 8,
            passes: 2,
            key_stride: 4,
        }
    }
}

impl RadixLike {
    /// A larger configuration matching the trace-study reference counts.
    #[must_use]
    pub fn paper_scale() -> Self {
        RadixLike {
            keys: 1024 * 1024,
            procs: 8,
            digit_bits: 8,
            passes: 3,
            key_stride: 2,
        }
    }

    /// A reduced configuration for the execution-driven machine.
    #[must_use]
    pub fn rsim_scale() -> Self {
        RadixLike {
            keys: 64 * 1024,
            procs: 16,
            digit_bits: 8,
            passes: 2,
            key_stride: 4,
        }
    }

    fn radix(&self) -> usize {
        1 << self.digit_bits
    }

    /// Source key array of pass `p` (double-buffered between passes).
    fn key_addr(&self, pass: usize, idx: usize) -> Addr {
        Addr((((6 + (pass & 1)) as u64) << 40) | ((idx as u64) * 8))
    }

    /// Per-processor histogram bucket.
    fn hist_addr(&self, proc: usize, bucket: usize) -> Addr {
        Addr((8u64 << 40) | (((proc * self.radix() + bucket) as u64) * 8))
    }

    fn chunk(&self, p: usize) -> std::ops::Range<usize> {
        let per = self.keys / self.procs;
        p * per..(p + 1) * per
    }

    /// The pseudo-random key value at initial index `idx`.
    fn key_value(&self, idx: usize, seed: u64) -> u64 {
        let mut rng = Splitmix::new(seed ^ (idx as u64).wrapping_mul(0x2545_F491_4F6C_DD1D));
        rng.next_u64()
    }
}

impl Workload for RadixLike {
    fn name(&self) -> &'static str {
        "radix"
    }

    fn problem_size(&self) -> String {
        format!("{}K keys", self.keys / 1024)
    }

    fn num_procs(&self) -> usize {
        self.procs
    }

    fn generate(&self, seed: u64) -> Trace {
        self.generate_phases(seed).interleave(INTERLEAVE_CHUNK)
    }

    fn generate_phases(&self, seed: u64) -> PhasedTrace {
        let mut pt = PhasedTrace::new(self.procs);
        let stride = self.key_stride.max(1);
        let radix_mask = (self.radix() - 1) as u64;

        // Initialization: owners write their key chunks (first touch).
        let mut init: Vec<Vec<PackedRef>> = vec![Vec::new(); self.procs];
        for p in 0..self.procs {
            for i in self.chunk(p).step_by(stride) {
                init[p].push(PackedRef::write(self.key_addr(0, i)));
            }
        }
        pt.push(Phase::from_streams(init));

        for pass in 0..self.passes {
            let shift = (pass as u32) * self.digit_bits;

            // Phase 1: local histograms (read own keys, bump own buckets).
            let mut phase: Vec<Vec<PackedRef>> = vec![Vec::new(); self.procs];
            for p in 0..self.procs {
                let out = &mut phase[p];
                for i in self.chunk(p).step_by(stride) {
                    out.push(PackedRef::read(self.key_addr(pass, i)));
                    let bucket = ((self.key_value(i, seed) >> shift) & radix_mask) as usize;
                    let h = self.hist_addr(p, bucket);
                    out.push(PackedRef::read(h));
                    out.push(PackedRef::write(h));
                }
            }
            pt.push(Phase::from_streams(phase));

            // Phase 2: global rank computation — every processor scans all
            // histograms (remote reads of small shared data).
            let mut phase: Vec<Vec<PackedRef>> = vec![Vec::new(); self.procs];
            for p in 0..self.procs {
                let out = &mut phase[p];
                for other in 0..self.procs {
                    for bucket in (0..self.radix()).step_by(8) {
                        out.push(PackedRef::read(self.hist_addr(other, bucket)));
                    }
                }
            }
            pt.push(Phase::from_streams(phase));

            // Phase 3: permutation — read own keys, write them to their
            // globally-ranked position (scattered, mostly remote).
            let mut phase: Vec<Vec<PackedRef>> = vec![Vec::new(); self.procs];
            for p in 0..self.procs {
                let out = &mut phase[p];
                for i in self.chunk(p).step_by(stride) {
                    out.push(PackedRef::read(self.key_addr(pass, i)));
                    // Destination ≈ digit-ordered position: deterministic
                    // scatter derived from the key value.
                    let digit = (self.key_value(i, seed) >> shift) & radix_mask;
                    let dest = ((digit * self.keys as u64) / self.radix() as u64) as usize
                        + (self.key_value(i, seed ^ 0xD157) % (self.keys / self.radix()) as u64)
                            as usize;
                    out.push(PackedRef::write(
                        self.key_addr(pass + 1, dest.min(self.keys - 1)),
                    ));
                }
            }
            pt.push(Phase::from_streams(phase));
        }
        pt
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::TraceCensus;

    fn small() -> RadixLike {
        RadixLike {
            keys: 8192,
            procs: 4,
            digit_bits: 6,
            passes: 2,
            key_stride: 2,
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let w = small();
        assert_eq!(w.generate(3).records()[100], w.generate(3).records()[100]);
        assert_eq!(w.generate(3).len(), w.generate(3).len());
    }

    #[test]
    fn permutation_writes_are_scattered() {
        // The permutation phase writes mostly outside the writer's own
        // chunk: high remote-write traffic.
        let w = small();
        let t = w.generate(1);
        let f = TraceCensus::from_trace(64, &t).remote_fractions()[2];
        assert!(f > 0.2, "radix should be remote-heavy, got {f}");
    }

    #[test]
    fn phases_follow_the_three_step_pattern() {
        let w = small();
        let pt = w.generate_phases(1);
        // init + passes * (histogram, rank, permute)
        assert_eq!(pt.phases().len(), 1 + w.passes * 3);
    }
}
