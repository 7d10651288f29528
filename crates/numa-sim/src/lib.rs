//! # numa-sim
//!
//! An execution-driven CC-NUMA multiprocessor simulator, the substrate of
//! Section 4 of *Cost-Sensitive Cache Replacement Algorithms* (HPCA 2003):
//!
//! * [`config`] — the Table 4 machine (16 nodes, 4×4 mesh, MESI with
//!   replacement hints, 500 MHz / 1 GHz cores);
//! * [`mesh`] — XY-routed mesh with per-link occupancy;
//! * [`directory`] — MESI directory state with home-side serialization;
//! * [`system`] — CPUs (burst execution with MSHR / outstanding-load
//!   limits), caches, the protocol engine and the event loop;
//! * [`stats`] — per-node counters and the Table 3 latency-correlation
//!   matrix.
//!
//! The L2 replacement policy is pluggable: one boxed core per set, LRU or
//! any cost-sensitive core from the `csr` crate, with the miss cost = the
//! last measured miss latency (timestamp-based measurement, Section 4.1).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod directory;
pub mod event;
pub mod mesh;
pub mod msg;
pub mod node;
pub mod stats;
pub mod system;

pub use config::{ns, Clock, CostMode, SystemConfig, Time};
pub use msg::{HomeState, Msg, MsgKind};
pub use stats::{MissClass, NodeStats, ReqType, SimResult, Table3Cell, Table3Matrix};
pub use system::System;
