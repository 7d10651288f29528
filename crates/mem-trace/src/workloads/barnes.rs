//! An N-body tree-code kernel (SPLASH-2 Barnes analog).
//!
//! Bodies are chunk-partitioned across processors; tree cells are shared
//! and touched by data-dependent, irregular walks. Each timestep rebuilds
//! part of the tree (writes to shared cells) and computes forces (long
//! read walks over cells plus read-modify-writes of the processor's own
//! bodies). Cell walks are only weakly biased toward the processor's own
//! spatial region, giving the high remote-access fraction the paper
//! reports for Barnes (44.8 %).

// Per-processor generation loops deliberately index by `p`: the index is
// simultaneously the ProcId and the stream slot, and enumerate() would
// obscure that symmetry.
#![allow(clippy::needless_range_loop)]

use super::{Splitmix, Workload, INTERLEAVE_CHUNK};
use crate::phased::{Phase, PhasedTrace};
use crate::record::{PackedRef, Trace};
use cache_sim::Addr;

/// Configuration of [`BarnesLike`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BarnesLike {
    /// Number of bodies.
    pub bodies: usize,
    /// Number of processors.
    pub procs: usize,
    /// Simulated timesteps.
    pub steps: usize,
    /// Cells touched per force walk.
    pub walk_len: usize,
    /// Probability that a top-level branch choice descends toward the
    /// processor's own subtree (tunes the remote fraction; ~0.68 lands near
    /// Table 1's 44.8 %).
    pub locality_bias: f64,
}

impl Default for BarnesLike {
    /// Trace-study scale: 16 K bodies on 8 processors.
    fn default() -> Self {
        BarnesLike {
            bodies: 16 * 1024,
            procs: 8,
            steps: 4,
            walk_len: 24,
            locality_bias: 0.68,
        }
    }
}

impl BarnesLike {
    /// The paper's Table-1 configuration: 64 K bodies.
    #[must_use]
    pub fn paper_scale() -> Self {
        BarnesLike {
            bodies: 64 * 1024,
            procs: 8,
            steps: 4,
            walk_len: 24,
            locality_bias: 0.68,
        }
    }

    /// The reduced RSIM configuration of Section 4.2: 4 K bodies.
    #[must_use]
    pub fn rsim_scale() -> Self {
        BarnesLike {
            bodies: 4 * 1024,
            procs: 16,
            steps: 3,
            walk_len: 24,
            locality_bias: 0.68,
        }
    }

    /// Depth of the (binary-heap-indexed) tree: cells are nodes 1..2^depth.
    fn tree_depth(&self) -> u32 {
        ((self.bodies / 2).max(64)).ilog2()
    }

    fn num_cells(&self) -> usize {
        1 << self.tree_depth()
    }

    /// Bodies region: 128 bytes per body (two cache blocks).
    fn body_addr(&self, idx: usize, half: usize) -> Addr {
        Addr((1u64 << 40) + (idx as u64) * 128 + (half as u64) * 64)
    }

    /// Cells region: 128 bytes per cell.
    fn cell_addr(&self, idx: usize, half: usize) -> Addr {
        Addr((2u64 << 40) + (idx as u64) * 128 + (half as u64) * 64)
    }

    /// Bodies owned by processor `p` (contiguous chunks).
    fn body_range(&self, p: usize) -> std::ops::Range<usize> {
        let per = self.bodies / self.procs;
        p * per..(p + 1) * per
    }

    /// Levels of the tree that select the owning processor's subtree.
    fn proc_bits(&self) -> u32 {
        self.procs.ilog2()
    }

    /// The home processor of a cell: top-of-tree cells are scattered by
    /// hash; cells inside a processor subtree belong to that processor.
    fn cell_owner(&self, idx: usize) -> usize {
        let depth = idx.ilog2(); // heap depth of node `idx` (root = 1)
        let pb = self.proc_bits();
        if depth < pb {
            // Shared top levels: pseudo-random home.
            (idx.wrapping_mul(0x9E37_79B9) >> 7) % self.procs
        } else {
            // The subtree is identified by the first `pb` branch choices.
            (idx >> (depth - pb)) & (self.procs - 1)
        }
    }

    /// Descends the tree from the root, emitting one cell per level. Branch
    /// choices are biased toward the processor's own subtree with
    /// probability `locality_bias`, mimicking bodies clustered in the
    /// processor's spatial region.
    fn walk<F: FnMut(usize)>(&self, rng: &mut Splitmix, p: usize, depth: u32, mut visit: F) {
        let pb = self.proc_bits();
        let mut idx = 1usize;
        for d in 0..depth.min(self.tree_depth()) {
            visit(idx);
            let own_bit = if d < pb {
                (p >> (pb - 1 - d)) & 1
            } else {
                rng.below(2) as usize
            };
            let bit = if d < pb && !rng.chance(self.locality_bias) {
                rng.below(2) as usize
            } else {
                own_bit
            };
            idx = idx * 2 + bit;
        }
    }
}

impl Workload for BarnesLike {
    fn name(&self) -> &'static str {
        "barnes"
    }

    fn problem_size(&self) -> String {
        format!("{}K bodies", self.bodies / 1024)
    }

    fn num_procs(&self) -> usize {
        self.procs
    }

    fn generate(&self, seed: u64) -> Trace {
        self.generate_phases(seed).interleave(INTERLEAVE_CHUNK)
    }

    fn generate_phases(&self, seed: u64) -> PhasedTrace {
        let mut pt = PhasedTrace::new(self.procs);

        // Initialization: owners write their bodies and the tree cells they
        // home (first touch).
        let mut init: Vec<Vec<PackedRef>> = vec![Vec::new(); self.procs];
        for p in 0..self.procs {
            for b in self.body_range(p) {
                init[p].push(PackedRef::write(self.body_addr(b, 0)));
                init[p].push(PackedRef::write(self.body_addr(b, 1)));
            }
        }
        for c in 1..self.num_cells() {
            let p = self.cell_owner(c);
            init[p].push(PackedRef::write(self.cell_addr(c, 0)));
        }
        pt.push(Phase::from_streams(init));

        let full_depth = self.tree_depth();
        let build_depth = (self.proc_bits() + 5).min(full_depth);
        for step in 0..self.steps {
            // Tree build: each processor re-inserts a sample of its bodies,
            // reading and writing the cells along the insertion path.
            let mut phase: Vec<Vec<PackedRef>> = vec![Vec::new(); self.procs];
            for p in 0..self.procs {
                let mut rng = Splitmix::new(seed ^ (step as u64) << 32 ^ (p as u64) << 8 ^ 0xB);
                let out = &mut phase[p];
                for b in self.body_range(p).step_by(4) {
                    out.push(PackedRef::read(self.body_addr(b, 0)));
                    self.walk(&mut rng, p, build_depth, |c| {
                        out.push(PackedRef::read(self.cell_addr(c, 0)));
                        out.push(PackedRef::write(self.cell_addr(c, 0)));
                    });
                }
            }
            pt.push(Phase::from_streams(phase));

            // Force computation: each body performs `walk_len` cell reads as
            // root-to-leaf descents (hot top levels, cold deep levels), then
            // updates the body.
            let mut phase: Vec<Vec<PackedRef>> = vec![Vec::new(); self.procs];
            for p in 0..self.procs {
                let mut rng = Splitmix::new(seed ^ (step as u64) << 32 ^ (p as u64) << 8 ^ 0xF);
                let out = &mut phase[p];
                for b in self.body_range(p) {
                    out.push(PackedRef::read(self.body_addr(b, 0)));
                    let mut emitted = 0usize;
                    while emitted < self.walk_len {
                        self.walk(&mut rng, p, full_depth, |c| {
                            if emitted < self.walk_len {
                                out.push(PackedRef::read(self.cell_addr(c, c & 1)));
                                emitted += 1;
                            }
                        });
                    }
                    out.push(PackedRef::write(self.body_addr(b, 1)));
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

    fn small() -> BarnesLike {
        BarnesLike {
            bodies: 1024,
            procs: 4,
            steps: 2,
            walk_len: 12,
            locality_bias: 0.68,
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let w = small();
        let a = w.generate(3);
        let b = w.generate(3);
        assert_eq!(a.len(), b.len());
        assert_eq!(a.records()[1000], b.records()[1000]);
    }

    #[test]
    fn different_seeds_differ() {
        let w = small();
        let a = w.generate(3);
        let b = w.generate(4);
        let differs = a.iter().zip(b.iter()).any(|(x, y)| x.addr != y.addr);
        assert!(differs);
    }

    #[test]
    fn remote_fraction_is_high() {
        let w = small();
        let t = w.generate(1);
        let f = TraceCensus::from_trace(64, &t).remote_fractions()[1];
        // Paper (Table 1): 44.8 % for Barnes.
        assert!(f > 0.30 && f < 0.60, "remote fraction {f}");
    }

    #[test]
    fn bodies_partitioned_evenly() {
        let w = small();
        assert_eq!(w.body_range(0), 0..256);
        assert_eq!(w.body_range(3), 768..1024);
    }
}
