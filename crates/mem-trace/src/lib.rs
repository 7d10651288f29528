//! # mem-trace
//!
//! Memory reference traces and synthetic workloads for the HPCA 2003
//! cost-sensitive-replacement reproduction:
//!
//! * [`record`] — multiprocessor [`Trace`]s of shared-data references, and
//!   the one-word [`PackedRef`] that [`phased`] streams hold;
//! * [`phased`] — barrier-delimited per-processor streams ([`PhasedTrace`]);
//! * [`workloads`] — synthetic SPLASH-2-like kernels ([`BarnesLike`],
//!   [`LuLike`], [`OceanLike`], [`RaytraceLike`]) plus generic generators;
//! * [`first_touch`] — first-touch NUMA placement;
//! * [`cost_map`] — the random and first-touch two-cost mappings of
//!   Section 3;
//! * [`sampled`] — the Section 3.1 sample-processor trace view (own
//!   references + foreign writes);
//! * [`rng`] — the internal SplitMix64/xorshift generators every stream
//!   in the workspace is derived from (no `rand` dependency);
//! * [`stats`] — the one-pass [`TraceCensus`] behind the sample processor
//!   and Table-1-style trace characteristics.
//!
//! # Examples
//!
//! ```
//! use mem_trace::{Workload, workloads::OceanLike, TraceCensus};
//!
//! let w = OceanLike { n: 66, grids: 2, procs: 4, iters: 2, col_stride: 2, reduction_points: 50 };
//! let census = TraceCensus::from_trace(64, &w.generate(42));
//! let remote = census.remote_fractions()[1];
//! assert!(remote < 0.25); // Ocean-like kernels are mostly local
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost_map;
pub mod criticality;
pub mod first_touch;
pub mod io;
pub mod phased;
pub mod record;
pub mod rng;
pub mod sampled;
pub mod stats;
pub mod workloads;

pub use cost_map::{CostMap, FirstTouchCostMap, RandomCostMap, UniformCostMap};
pub use first_touch::{FirstTouchPlacement, UnitHasher};
pub use phased::{Phase, PhasedTrace};
pub use record::{PackedRef, ProcId, Trace, TraceRecord};
pub use sampled::{SampledEvent, SampledKind, SampledTrace};
pub use stats::{TraceCensus, TraceCharacteristics};
pub use workloads::{BarnesLike, LuLike, OceanLike, RaytraceLike, Workload};
