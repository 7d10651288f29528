//! A six-step FFT kernel (SPLASH-2 FFT analog).
//!
//! Like Radix, FFT appears in the paper's footnote 2 ("yielded no
//! additional insight") and is provided for suite completeness. The √N×√N
//! data matrix is row-banded across processors: local row FFTs stream over
//! owned data, while the all-to-all transpose steps read column blocks from
//! every other processor — bursty remote traffic with blocked locality.

// Per-processor generation loops deliberately index by `p`: the index is
// simultaneously the ProcId and the stream slot, and enumerate() would
// obscure that symmetry.
#![allow(clippy::needless_range_loop)]

use super::{Workload, INTERLEAVE_CHUNK};
use crate::phased::{Phase, PhasedTrace};
use crate::record::{PackedRef, Trace};
use cache_sim::Addr;

/// Configuration of [`FftLike`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FftLike {
    /// Matrix side (the transform has `side * side` complex points).
    pub side: usize,
    /// Number of processors (must divide `side`).
    pub procs: usize,
    /// Element sampling stride.
    pub stride: usize,
}

impl Default for FftLike {
    /// Trace-study scale: 256×256 complex points on 8 processors.
    fn default() -> Self {
        FftLike {
            side: 256,
            procs: 8,
            stride: 2,
        }
    }
}

impl FftLike {
    /// A larger configuration matching the trace-study reference counts.
    #[must_use]
    pub fn paper_scale() -> Self {
        FftLike {
            side: 512,
            procs: 8,
            stride: 1,
        }
    }

    /// A reduced configuration for the execution-driven machine.
    #[must_use]
    pub fn rsim_scale() -> Self {
        FftLike {
            side: 128,
            procs: 16,
            stride: 2,
        }
    }

    /// A matrix element (16 bytes: complex double).
    fn elem(&self, mat: usize, row: usize, col: usize) -> Addr {
        Addr((((10 + mat) as u64) << 40) | (((row * self.side + col) as u64) * 16))
    }

    fn rows(&self, p: usize) -> std::ops::Range<usize> {
        let per = self.side / self.procs;
        p * per..(p + 1) * per
    }

    /// Emits one local row-FFT pass over matrix `mat` for processor `p`:
    /// log2(side) butterfly sweeps, sampled.
    fn row_fft(&self, out: &mut Vec<PackedRef>, p: usize, mat: usize) {
        let stages = self.side.ilog2().min(3); // sampled butterfly depth
        for row in self.rows(p) {
            for stage in 0..stages {
                let span = 1usize << stage;
                for col in (0..self.side - span).step_by(self.stride.max(1) * 2) {
                    let a = self.elem(mat, row, col);
                    let b = self.elem(mat, row, col + span);
                    out.push(PackedRef::read(a));
                    out.push(PackedRef::read(b));
                    out.push(PackedRef::write(a));
                    out.push(PackedRef::write(b));
                }
            }
        }
    }

    /// Emits the all-to-all transpose: `p` reads the column block owned by
    /// every processor and writes it into its own rows of the other matrix.
    fn transpose(&self, out: &mut Vec<PackedRef>, p: usize, from: usize, to: usize) {
        let my_rows = self.rows(p);
        // The transpose touches every element (unsampled): it is the dense
        // all-to-all communication step of the six-step algorithm.
        for other in 0..self.procs {
            for src_row in self.rows(other) {
                for dst_row in my_rows.clone() {
                    // Element (src_row, dst_row) of `from` becomes
                    // (dst_row, src_row) of `to`.
                    out.push(PackedRef::read(self.elem(from, src_row, dst_row)));
                    out.push(PackedRef::write(self.elem(to, dst_row, src_row)));
                }
            }
        }
    }
}

impl Workload for FftLike {
    fn name(&self) -> &'static str {
        "fft"
    }

    fn problem_size(&self) -> String {
        format!("{}x{} points", self.side, self.side)
    }

    fn num_procs(&self) -> usize {
        self.procs
    }

    fn generate(&self, seed: u64) -> Trace {
        self.generate_phases(seed).interleave(INTERLEAVE_CHUNK)
    }

    fn generate_phases(&self, _seed: u64) -> PhasedTrace {
        assert!(
            self.side.is_multiple_of(self.procs),
            "processors must divide the matrix side"
        );
        let mut pt = PhasedTrace::new(self.procs);
        let stride = self.stride.max(1);

        // Initialization: owners write their row bands of matrix 0.
        let mut init: Vec<Vec<PackedRef>> = vec![Vec::new(); self.procs];
        for p in 0..self.procs {
            for row in self.rows(p) {
                for col in (0..self.side).step_by(stride) {
                    init[p].push(PackedRef::write(self.elem(0, row, col)));
                }
            }
        }
        pt.push(Phase::from_streams(init));

        // Six-step FFT: FFT rows, transpose, FFT rows, transpose back, FFT.
        let steps: [(usize, Option<(usize, usize)>); 5] = [
            (0, None),
            (0, Some((0, 1))),
            (1, None),
            (1, Some((1, 0))),
            (0, None),
        ];
        for (mat, transpose) in steps {
            let mut phase: Vec<Vec<PackedRef>> = vec![Vec::new(); self.procs];
            for p in 0..self.procs {
                match transpose {
                    None => self.row_fft(&mut phase[p], p, mat),
                    Some((from, to)) => self.transpose(&mut phase[p], p, from, to),
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

    fn small() -> FftLike {
        FftLike {
            side: 64,
            procs: 4,
            stride: 2,
        }
    }

    #[test]
    fn deterministic() {
        let w = small();
        assert_eq!(w.generate(1).len(), w.generate(2).len());
    }

    #[test]
    fn transpose_is_remote_heavy() {
        let w = small();
        let t = w.generate(0);
        let f = TraceCensus::from_trace(64, &t).remote_fractions()[1];
        // (procs-1)/procs of the transpose reads are remote; FFT rows local.
        assert!(f > 0.08 && f < 0.5, "remote fraction {f}");
    }

    #[test]
    fn phase_structure() {
        let w = small();
        let pt = w.generate_phases(0);
        assert_eq!(pt.phases().len(), 6); // init + 5 six-step phases
    }
}
