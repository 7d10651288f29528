//! A red-black grid relaxation kernel (SPLASH-2 Ocean analog).
//!
//! Several N×N grids are band-partitioned by rows across processors. Each
//! iteration performs 5-point stencil sweeps: every update reads the four
//! neighbours and read-modify-writes the centre. Only the first and last
//! rows of a band read another processor's rows, giving the low remote
//! fraction the paper reports for Ocean (7.4 %).

// Per-processor generation loops deliberately index by `p`: the index is
// simultaneously the ProcId and the stream slot, and enumerate() would
// obscure that symmetry.
#![allow(clippy::needless_range_loop)]

use super::{Workload, INTERLEAVE_CHUNK};
use crate::phased::{Phase, PhasedTrace};
use crate::record::{PackedRef, Trace};
use cache_sim::Addr;

/// Configuration of [`OceanLike`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OceanLike {
    /// Grid dimension (points per side).
    pub n: usize,
    /// Number of grids cycled through (Ocean keeps ~25 live grids; several
    /// are enough to reproduce the footprint-to-reuse ratio).
    pub grids: usize,
    /// Number of processors (must divide the interior rows reasonably).
    pub procs: usize,
    /// Relaxation iterations.
    pub iters: usize,
    /// Sampling stride over columns (1 = trace every point).
    pub col_stride: usize,
    /// Global points each processor reads per iteration in the reduction
    /// phase (error norms / multigrid restriction read data from every
    /// band; this is Ocean's main source of remote traffic).
    pub reduction_points: usize,
}

impl Default for OceanLike {
    /// Trace-study scale: 258×258, 16 processors (Table 1 row for Ocean).
    fn default() -> Self {
        OceanLike {
            n: 258,
            grids: 6,
            procs: 16,
            iters: 8,
            col_stride: 1,
            reduction_points: 1536,
        }
    }
}

impl OceanLike {
    /// The paper's Table-1 configuration.
    #[must_use]
    pub fn paper_scale() -> Self {
        OceanLike {
            n: 258,
            grids: 6,
            procs: 16,
            iters: 16,
            col_stride: 1,
            reduction_points: 1536,
        }
    }

    /// The reduced RSIM configuration of Section 4.2: 130×130.
    #[must_use]
    pub fn rsim_scale() -> Self {
        OceanLike {
            n: 130,
            grids: 6,
            procs: 16,
            iters: 6,
            col_stride: 1,
            reduction_points: 400,
        }
    }

    fn grid_base(&self, g: usize) -> u64 {
        (g as u64) << 32
    }

    fn point_addr(&self, g: usize, row: usize, col: usize) -> Addr {
        Addr(self.grid_base(g) + ((row * self.n + col) * 8) as u64)
    }

    /// Address of a point in multigrid level `l` (side `self.n >> l`).
    fn coarse_addr(&self, level: usize, row: usize, col: usize) -> Addr {
        let side = self.n >> level;
        Addr(((self.grids + level) as u64) << 32 | ((row * side + col) * 8) as u64)
    }

    /// Address of a point in the read-only coefficient (topography) grid,
    /// written once during initialization and read by every processor in
    /// each iteration's reduction phase.
    fn coeff_addr(&self, row: usize, col: usize) -> Addr {
        Addr(((self.grids + 8) as u64) << 32 | ((row * self.n + col) * 8) as u64)
    }

    /// The fixed lattice of coefficient points sampled by the reduction
    /// phase (identical every iteration, so the reads have cross-iteration
    /// reuse).
    fn reduction_lattice(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let total = (self.n * self.n) as u64;
        (0..self.reduction_points).map(move |k| {
            let idx = (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) % total;
            (
                (idx / self.n as u64) as usize,
                (idx % self.n as u64) as usize,
            )
        })
    }

    /// Rows of the band of an `n`-row grid owned by `p`.
    fn band_of(n: usize, procs: usize, p: usize) -> (usize, usize) {
        let interior = n.saturating_sub(2);
        let per = interior / procs;
        let extra = interior % procs;
        let start = 1 + p * per + p.min(extra);
        let len = per + usize::from(p < extra);
        (start, start + len)
    }

    /// Rows of the band owned by `p` (interior rows split evenly).
    fn band(&self, p: usize) -> (usize, usize) {
        Self::band_of(self.n, self.procs, p)
    }
}

impl Workload for OceanLike {
    fn name(&self) -> &'static str {
        "ocean"
    }

    fn problem_size(&self) -> String {
        format!("{0} x {0}", self.n)
    }

    fn num_procs(&self) -> usize {
        self.procs
    }

    fn generate(&self, seed: u64) -> Trace {
        self.generate_phases(seed).interleave(INTERLEAVE_CHUNK)
    }

    fn generate_phases(&self, _seed: u64) -> PhasedTrace {
        let mut pt = PhasedTrace::new(self.procs);
        let stride = self.col_stride.max(1);

        // Initialization: each processor writes its band of every grid
        // (first touch homes the bands correctly).
        let mut init: Vec<Vec<PackedRef>> = vec![Vec::new(); self.procs];
        for g in 0..self.grids {
            for p in 0..self.procs {
                let (lo, hi) = self.band(p);
                // Band owners also home their adjacent boundary rows.
                let lo = if p == 0 { 0 } else { lo };
                let hi = if p == self.procs - 1 { self.n } else { hi };
                for row in lo..hi {
                    for col in (0..self.n).step_by(stride) {
                        init[p].push(PackedRef::write(self.point_addr(g, row, col)));
                    }
                }
            }
        }
        // Coefficient grid: written once, band-homed, read-only afterwards.
        for p in 0..self.procs {
            let (lo, hi) = self.band(p);
            let lo = if p == 0 { 0 } else { lo };
            let hi = if p == self.procs - 1 { self.n } else { hi };
            for row in lo..hi {
                for col in (0..self.n).step_by(stride) {
                    init[p].push(PackedRef::write(self.coeff_addr(row, col)));
                }
            }
        }
        pt.push(Phase::from_streams(init));

        // Relaxation sweeps: alternate source/destination grids.
        for it in 0..self.iters {
            let src = it % self.grids;
            let dst = (it + 1) % self.grids;
            let mut phase: Vec<Vec<PackedRef>> = vec![Vec::new(); self.procs];
            for p in 0..self.procs {
                let (lo, hi) = self.band(p);
                let out = &mut phase[p];
                for row in lo..hi {
                    for col in (1..self.n - 1).step_by(stride) {
                        // 5-point stencil on the source grid.
                        out.push(PackedRef::read(self.point_addr(src, row - 1, col)));
                        out.push(PackedRef::read(self.point_addr(src, row + 1, col)));
                        out.push(PackedRef::read(self.point_addr(src, row, col - 1)));
                        out.push(PackedRef::read(self.point_addr(src, row, col + 1)));
                        out.push(PackedRef::read(self.point_addr(src, row, col)));
                        out.push(PackedRef::write(self.point_addr(dst, row, col)));
                    }
                }
            }
            pt.push(Phase::from_streams(phase));

            // Residual computation: a second, read-only pass over the source
            // band (including the remote boundary rows). This re-read after
            // a full band sweep is Ocean's main supply of reuse beyond the
            // L1 working set.
            let mut phase: Vec<Vec<PackedRef>> = vec![Vec::new(); self.procs];
            for p in 0..self.procs {
                let (lo, hi) = self.band(p);
                let out = &mut phase[p];
                for row in (lo - 1)..=(hi).min(self.n - 1) {
                    for col in (1..self.n - 1).step_by(stride) {
                        out.push(PackedRef::read(self.point_addr(src, row, col)));
                    }
                }
            }
            pt.push(Phase::from_streams(phase));

            // Multigrid: restriction and relaxation on two coarser levels
            // (each its own long-lived grid, band-partitioned like the fine
            // grid). Coarse data is revisited every iteration with a working
            // set that no longer fits the cache — reuse at a distance.
            let mut phase: Vec<Vec<PackedRef>> = vec![Vec::new(); self.procs];
            for level in 1..=2usize {
                let side = self.n >> level;
                for p in 0..self.procs {
                    let (lo, hi) = Self::band_of(side, self.procs, p);
                    let out = &mut phase[p];
                    for row in lo..hi {
                        for col in (1..side - 1).step_by(stride) {
                            out.push(PackedRef::read(self.coarse_addr(level, row - 1, col)));
                            out.push(PackedRef::read(self.coarse_addr(level, row + 1, col)));
                            out.push(PackedRef::read(self.coarse_addr(level, row, col)));
                            let a = self.coarse_addr(level, row, col);
                            out.push(PackedRef::write(a));
                        }
                    }
                }
            }
            pt.push(Phase::from_streams(phase));

            // Reduction: every processor reads the same fixed lattice of
            // coefficient points spread over the whole (band-homed,
            // read-only) coefficient grid — remote, re-read every
            // iteration, and never invalidated.
            if self.reduction_points > 0 {
                let mut phase: Vec<Vec<PackedRef>> = vec![Vec::new(); self.procs];
                for p in 0..self.procs {
                    let out = &mut phase[p];
                    for (row, col) in self.reduction_lattice() {
                        out.push(PackedRef::read(self.coeff_addr(row, col)));
                    }
                }
                pt.push(Phase::from_streams(phase));
            }
        }
        pt
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::TraceCensus;

    fn small() -> OceanLike {
        OceanLike {
            n: 66,
            grids: 3,
            procs: 4,
            iters: 4,
            col_stride: 1,
            reduction_points: 100,
        }
    }

    #[test]
    fn bands_partition_interior_rows() {
        let w = small();
        let mut covered = Vec::new();
        for p in 0..w.procs {
            let (lo, hi) = w.band(p);
            covered.extend(lo..hi);
        }
        let expect: Vec<usize> = (1..w.n - 1).collect();
        assert_eq!(covered, expect);
    }

    #[test]
    fn remote_fraction_is_low() {
        let w = small();
        let t = w.generate(0);
        let f = TraceCensus::from_trace(64, &t).remote_fractions()[1];
        // Only boundary rows are remote: Ocean's fraction is small
        // (paper: 7.4 %).
        assert!(f < 0.20, "remote fraction {f}");
        assert!(f > 0.0, "bands must still exchange boundary rows");
    }

    #[test]
    fn footprint_counts_all_grids() {
        let w = small();
        let t = w.generate(0);
        let grid_bytes = (w.n * w.n * 8) as u64;
        let fp = t.footprint_bytes(64);
        // 3 relaxation grids + the coefficient grid, plus the two coarse
        // multigrid levels (~5/16 of a grid together).
        assert!(fp >= 4 * grid_bytes - 64 * 4, "fp = {fp}");
        assert!(fp <= 5 * grid_bytes, "fp = {fp}");
    }

    #[test]
    fn deterministic_output() {
        let w = small();
        assert_eq!(w.generate(7).len(), w.generate(9).len());
    }
}
