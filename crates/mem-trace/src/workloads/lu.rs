//! A blocked dense LU factorization kernel (SPLASH-2 LU analog).
//!
//! The matrix is divided into B×B blocks scattered over a 2-D processor
//! grid, exactly like SPLASH-2 LU. Each outer step `k` factorizes the
//! diagonal block, has owners update the perimeter blocks against it, and
//! then has owners update interior blocks against the perimeter. Accesses
//! to a processor's own blocks dominate (high locality), while pivot/
//! perimeter reads go to other owners' blocks — the moderate remote
//! fraction and the strong per-set imbalance the paper reports for LU.

use super::{Workload, INTERLEAVE_CHUNK};
use crate::phased::{Phase, PhasedTrace};
use crate::record::{PackedRef, ProcId, Trace};
use cache_sim::Addr;

/// Configuration of [`LuLike`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LuLike {
    /// Matrix dimension (elements per side).
    pub n: usize,
    /// Block dimension.
    pub block: usize,
    /// Number of processors.
    pub procs: usize,
    /// Sampling stride over element accesses: 1 traces every access, `s`
    /// traces one in `s` (keeps default traces tractable while preserving
    /// the block-level structure).
    pub element_stride: usize,
}

impl Default for LuLike {
    /// Trace-study scale: 256×256 with 16×16 blocks on 8 processors.
    fn default() -> Self {
        LuLike {
            n: 256,
            block: 16,
            procs: 8,
            element_stride: 1,
        }
    }
}

impl LuLike {
    /// The paper's Table-1 configuration: 512×512 on 8 processors.
    #[must_use]
    pub fn paper_scale() -> Self {
        LuLike {
            n: 512,
            block: 16,
            procs: 8,
            element_stride: 1,
        }
    }

    /// The reduced RSIM configuration of Section 4.2: 256×256.
    #[must_use]
    pub fn rsim_scale() -> Self {
        LuLike {
            n: 256,
            block: 16,
            procs: 16,
            element_stride: 2,
        }
    }

    fn blocks_per_side(&self) -> usize {
        self.n / self.block
    }

    /// 2-D scatter assignment of blocks to processors.
    fn owner(&self, bi: usize, bj: usize) -> ProcId {
        // Processor grid as square as possible.
        let pr = (self.procs as f64).sqrt() as usize;
        let pr = pr.max(1);
        let pc = self.procs / pr;
        ProcId((bi % pr) * pc + (bj % pc))
    }

    /// Byte address of element (i, j); the matrix is stored block-major so
    /// a block is contiguous (as SPLASH-2 LU does).
    fn elem_addr(&self, i: usize, j: usize) -> Addr {
        let (bi, bj) = (i / self.block, j / self.block);
        let (oi, oj) = (i % self.block, j % self.block);
        let block_idx = bi * self.blocks_per_side() + bj;
        let elem_idx = oi * self.block + oj;
        Addr(((block_idx * self.block * self.block + elem_idx) * 8) as u64)
    }

    /// Emits the accesses of one block-level task into `out`.
    /// `reads` lists source blocks, `target` is read-modified-written.
    fn block_task(
        &self,
        out: &mut Vec<PackedRef>,
        reads: &[(usize, usize)],
        target: (usize, usize),
    ) {
        let b = self.block;
        let stride = self.element_stride.max(1);
        let (ti, tj) = (target.0 * b, target.1 * b);
        let mut step = 0usize;
        for i in 0..b {
            for j in 0..b {
                step += 1;
                if !step.is_multiple_of(stride) {
                    continue;
                }
                // Source elements are register-reused across the inner
                // daxpy, so they are read at half the rate of the target
                // element's load/store pair (this keeps the remote access
                // fraction near the paper's moderate LU value).
                if step.is_multiple_of(2) {
                    for &(ri, rj) in reads {
                        out.push(PackedRef::read(self.elem_addr(ri * b + i, rj * b + j % b)));
                    }
                }
                let a = self.elem_addr(ti + i, tj + j);
                out.push(PackedRef::read(a));
                out.push(PackedRef::write(a));
            }
        }
    }
}

impl Workload for LuLike {
    fn name(&self) -> &'static str {
        "lu"
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
        assert!(
            self.n.is_multiple_of(self.block),
            "matrix must divide into blocks"
        );
        let nb = self.blocks_per_side();
        let mut pt = PhasedTrace::new(self.procs);

        // Initialization: every owner writes its blocks (first touch).
        let mut init: Vec<Vec<PackedRef>> = vec![Vec::new(); self.procs];
        for bi in 0..nb {
            for bj in 0..nb {
                let p = self.owner(bi, bj);
                let b = self.block;
                for i in (0..b * b).step_by(self.element_stride.max(1) * 4) {
                    let addr = self.elem_addr(bi * b + i / b, bj * b + i % b);
                    init[p.0].push(PackedRef::write(addr));
                }
            }
        }
        pt.push(Phase::from_streams(init));

        // Outer factorization steps with barrier-separated phases.
        for k in 0..nb {
            // Phase 1: factor the diagonal block (its owner only).
            let mut phase: Vec<Vec<PackedRef>> = vec![Vec::new(); self.procs];
            let p = self.owner(k, k);
            self.block_task(&mut phase[p.0], &[], (k, k));
            pt.push(Phase::from_streams(phase));

            // Phase 2: perimeter updates read the diagonal block.
            let mut phase: Vec<Vec<PackedRef>> = vec![Vec::new(); self.procs];
            for x in (k + 1)..nb {
                let p = self.owner(k, x);
                self.block_task(&mut phase[p.0], &[(k, k)], (k, x));
                let p = self.owner(x, k);
                self.block_task(&mut phase[p.0], &[(k, k)], (x, k));
            }
            pt.push(Phase::from_streams(phase));

            // Phase 3: interior updates read their perimeter blocks.
            // Column-major task order: the row-perimeter block (k, j) is
            // reused by consecutive tasks, while the column-panel block
            // (i, k) is re-read once per column of tasks — a medium reuse
            // distance just beyond the cache, which is what makes LU's
            // locality profile interesting for reservations.
            let mut phase: Vec<Vec<PackedRef>> = vec![Vec::new(); self.procs];
            for j in (k + 1)..nb {
                for i in (k + 1)..nb {
                    let p = self.owner(i, j);
                    self.block_task(&mut phase[p.0], &[(i, k), (k, j)], (i, j));
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

    #[test]
    fn trace_is_deterministic() {
        let w = LuLike {
            n: 64,
            block: 16,
            procs: 4,
            element_stride: 2,
        };
        let a = w.generate(1);
        let b = w.generate(2); // seed is unused: structurally deterministic
        assert_eq!(a.len(), b.len());
        assert!(a.len() > 10_000, "len = {}", a.len());
    }

    #[test]
    fn footprint_matches_matrix_size() {
        let w = LuLike {
            n: 64,
            block: 16,
            procs: 4,
            element_stride: 1,
        };
        let t = w.generate(0);
        // 64*64*8 = 32 KB of matrix data.
        assert_eq!(t.footprint_bytes(64), 64 * 64 * 8);
    }

    #[test]
    fn all_procs_participate() {
        let w = LuLike {
            n: 64,
            block: 16,
            procs: 4,
            element_stride: 2,
        };
        let t = w.generate(0);
        for p in 0..4 {
            assert!(t.refs_by(ProcId(p)) > 0, "P{p} idle");
        }
    }

    #[test]
    fn remote_fraction_is_moderate() {
        let w = LuLike::default();
        let t = w.generate(0);
        let f = TraceCensus::from_trace(64, &t).remote_fractions()[1];
        // Paper (Table 1): 19.1 % for LU. The synthetic kernel should land
        // in the same moderate band.
        assert!(f > 0.05 && f < 0.45, "remote fraction {f}");
    }

    #[test]
    fn owner_scatter_covers_all_procs() {
        let w = LuLike {
            n: 256,
            block: 16,
            procs: 8,
            element_stride: 1,
        };
        let mut seen = std::collections::HashSet::new();
        for bi in 0..16 {
            for bj in 0..16 {
                seen.insert(w.owner(bi, bj).0);
            }
        }
        assert_eq!(seen.len(), 8);
    }
}
