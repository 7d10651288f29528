//! A ray-tracing kernel (SPLASH-2 Raytrace analog).
//!
//! A large, read-mostly scene (BVH nodes and primitives) is spatially
//! partitioned at first touch; processors trace rays for tiles of the
//! image. Each ray performs an irregular chain of node reads — biased
//! toward the processor's own spatial region, since rays from one tile hit
//! geometry in the same part of the scene — followed by a local framebuffer
//! write. The footprint is large and reuse is poor, mirroring the paper's
//! Raytrace characteristics (32 MB, 29.6 % remote).

// Per-processor generation loops deliberately index by `p`: the index is
// simultaneously the ProcId and the stream slot, and enumerate() would
// obscure that symmetry.
#![allow(clippy::needless_range_loop)]

use super::{Splitmix, Workload, INTERLEAVE_CHUNK};
use crate::phased::{Phase, PhasedTrace};
use crate::record::{PackedRef, Trace};
use cache_sim::Addr;

/// Configuration of [`RaytraceLike`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RaytraceLike {
    /// Scene size in 64-byte nodes.
    pub scene_nodes: usize,
    /// Image dimension (square, pixels per side).
    pub image: usize,
    /// Number of processors.
    pub procs: usize,
    /// Nodes visited per ray.
    pub ray_depth: usize,
    /// Probability that a traversal step stays in the processor's own
    /// scene region (~0.72 lands near the paper's 29.6 % remote fraction).
    pub locality_bias: f64,
}

impl Default for RaytraceLike {
    /// Trace-study scale: 4 MB scene, 192×192 image on 8 processors.
    fn default() -> Self {
        RaytraceLike {
            scene_nodes: 64 * 1024,
            image: 224,
            procs: 8,
            ray_depth: 24,
            locality_bias: 0.87,
        }
    }
}

impl RaytraceLike {
    /// The paper's Table-1 configuration: "car" scene, 32 MB.
    #[must_use]
    pub fn paper_scale() -> Self {
        RaytraceLike {
            scene_nodes: 512 * 1024,
            image: 512,
            procs: 8,
            ray_depth: 24,
            locality_bias: 0.87,
        }
    }

    /// The reduced RSIM configuration of Section 4.2: "teapot" scene.
    #[must_use]
    pub fn rsim_scale() -> Self {
        RaytraceLike {
            scene_nodes: 16 * 1024,
            image: 128,
            procs: 16,
            ray_depth: 20,
            locality_bias: 0.87,
        }
    }

    /// Depth of the heap-indexed BVH: nodes are 1..2^depth.
    fn tree_depth(&self) -> u32 {
        self.scene_nodes.max(64).ilog2()
    }

    fn num_nodes(&self) -> usize {
        1 << self.tree_depth()
    }

    fn node_addr(&self, idx: usize) -> Addr {
        Addr((4u64 << 40) + (idx as u64) * 64)
    }

    fn pixel_addr(&self, x: usize, y: usize) -> Addr {
        Addr((5u64 << 40) + ((y * self.image + x) * 16) as u64)
    }

    /// Levels of the BVH that select the owning processor's subtree.
    fn proc_bits(&self) -> u32 {
        self.procs.ilog2()
    }

    /// The home processor of a BVH node (top levels scattered by hash,
    /// subtrees owned by the processor that built that spatial region).
    fn node_owner(&self, idx: usize) -> usize {
        let depth = idx.ilog2();
        let pb = self.proc_bits();
        if depth < pb {
            (idx.wrapping_mul(0x9E37_79B9) >> 5) % self.procs
        } else {
            (idx >> (depth - pb)) & (self.procs - 1)
        }
    }

    /// Image rows rendered by `p` (contiguous horizontal tiles).
    fn rows(&self, p: usize) -> std::ops::Range<usize> {
        let per = self.image / self.procs;
        p * per..(p + 1) * per
    }

    /// Root-to-leaf BVH descent: rays from `p`'s image tile mostly hit
    /// geometry in `p`'s spatial region.
    fn descend<F: FnMut(usize)>(&self, rng: &mut Splitmix, p: usize, mut visit: F) {
        let pb = self.proc_bits();
        let mut idx = 1usize;
        for d in 0..self.tree_depth() {
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

impl Workload for RaytraceLike {
    fn name(&self) -> &'static str {
        "raytrace"
    }

    fn problem_size(&self) -> String {
        format!("{} MB scene", self.scene_nodes * 64 / (1024 * 1024))
    }

    fn num_procs(&self) -> usize {
        self.procs
    }

    fn generate(&self, seed: u64) -> Trace {
        self.generate_phases(seed).interleave(INTERLEAVE_CHUNK)
    }

    fn generate_phases(&self, seed: u64) -> PhasedTrace {
        let mut pt = PhasedTrace::new(self.procs);

        // Scene build: each node is written by its owner (spatially
        // partitioned preprocessing; establishes first touch).
        let mut init: Vec<Vec<PackedRef>> = vec![Vec::new(); self.procs];
        for n in 1..self.num_nodes() {
            let p = self.node_owner(n);
            init[p].push(PackedRef::write(self.node_addr(n)));
        }
        pt.push(Phase::from_streams(init));

        // Rendering: one ray per pixel; each ray descends the BVH until it
        // has visited `ray_depth` nodes, then writes its pixel.
        let mut phase: Vec<Vec<PackedRef>> = vec![Vec::new(); self.procs];
        for p in 0..self.procs {
            let mut rng = Splitmix::new(seed ^ (p as u64) << 16 ^ 0x7EA);
            let out = &mut phase[p];
            for y in self.rows(p) {
                for x in 0..self.image {
                    // Consecutive rays share their path prefix (spatial
                    // coherence): re-seed only every 4 pixels.
                    if x % 4 == 0 {
                        rng = Splitmix::new(seed ^ ((y * self.image + x) as u64) << 8 ^ (p as u64));
                    }
                    let mut emitted = 0usize;
                    while emitted < self.ray_depth {
                        self.descend(&mut rng, p, |n| {
                            if emitted < self.ray_depth {
                                out.push(PackedRef::read(self.node_addr(n)));
                                emitted += 1;
                            }
                        });
                    }
                    out.push(PackedRef::write(self.pixel_addr(x, y)));
                }
            }
        }
        pt.push(Phase::from_streams(phase));
        pt
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::TraceCensus;

    fn small() -> RaytraceLike {
        RaytraceLike {
            scene_nodes: 4096,
            image: 32,
            procs: 4,
            ray_depth: 12,
            locality_bias: 0.87,
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let w = small();
        assert_eq!(w.generate(5).records()[500], w.generate(5).records()[500]);
    }

    #[test]
    fn remote_fraction_is_around_a_third() {
        let w = small();
        let t = w.generate(2);
        let f = TraceCensus::from_trace(64, &t).remote_fractions()[2];
        // Paper (Table 1): 29.6 % for Raytrace.
        assert!(f > 0.15 && f < 0.45, "remote fraction {f}");
    }

    #[test]
    fn reads_dominate() {
        let w = small();
        let t = w.generate(2);
        let reads = t
            .iter()
            .filter(|r| r.op == cache_sim::AccessType::Read)
            .count();
        let writes = t.len() - reads;
        // The one-off scene-build phase is all writes; rendering is
        // read-dominated, so reads still outnumber writes clearly.
        assert!(
            reads > writes * 2,
            "read-mostly: {reads} reads vs {writes} writes"
        );
    }

    #[test]
    fn rows_partition_image() {
        let w = small();
        let total: usize = (0..w.procs).map(|p| w.rows(p).len()).sum();
        assert_eq!(total, w.image);
    }
}
