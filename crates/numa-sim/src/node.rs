//! Per-node processor, cache and MSHR state.

use crate::config::Time;
use crate::stats::{MissClass, NodeStats, Table3Matrix};
use cache_sim::{BoxedPolicy, Cache, Lru};
use std::collections::{HashMap, HashSet};

/// Why a CPU is not currently executing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CpuState {
    /// Executing (or runnable).
    Running,
    /// Stalled: all MSHRs are in use.
    WaitMshr,
    /// Stalled: the outstanding-load limit (active list) is reached.
    WaitLoadLimit,
    /// Finished its phase stream, waiting at the barrier.
    AtBarrier,
    /// All phases complete.
    Done,
}

/// One miss-status holding register.
#[derive(Debug, Clone, Copy)]
pub struct MshrEntry {
    /// The transaction requests ownership (GetX).
    pub is_write: bool,
    /// The transaction is an ownership upgrade of a resident block.
    pub is_upgrade: bool,
    /// When the miss was detected (request issue timestamp).
    pub issue: Time,
    /// A store merged into this (read) transaction while it was in flight;
    /// ownership must still be acquired once the shared data arrives.
    pub wants_write: bool,
}

/// One processor node: CPU state, L1/L2, MSHRs, prediction and statistics.
pub struct Node {
    /// Node id (also its mesh position).
    pub id: usize,
    /// Local CPU time (ps). May run ahead of global event time within a
    /// burst; never behind.
    pub cpu_time: Time,
    /// Execution state.
    pub state: CpuState,
    /// Current phase index.
    pub phase: usize,
    /// Position within the current phase stream.
    pub pos: usize,
    /// L1 cache (direct-mapped, LRU trivial).
    pub l1: Cache<Lru>,
    /// L2 cache, one pluggable (cost-sensitive) core per set.
    pub l2: Cache<BoxedPolicy>,
    /// Blocks held in exclusive (M/E) state.
    pub owned: HashSet<u64>,
    /// Outstanding transactions by block address.
    pub mshr: HashMap<u64, MshrEntry>,
    /// Loads currently outstanding (bounded by the active list model).
    pub outstanding_loads: usize,
    /// When the CPU entered its current memory stall (None while running);
    /// attributes stall time to the miss whose fill ends the stall, for
    /// penalty-based costs.
    pub stalled_since: Option<Time>,
    /// Last-miss classification per block (drives Table 3).
    pub last_miss: HashMap<u64, MissClass>,
    /// This node's Table 3 contribution.
    pub table3: Table3Matrix,
    /// Counters.
    pub stats: NodeStats,
}

impl std::fmt::Debug for Node {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Node")
            .field("id", &self.id)
            .field("cpu_time", &self.cpu_time)
            .field("state", &self.state)
            .field("phase", &self.phase)
            .field("pos", &self.pos)
            .field("outstanding_loads", &self.outstanding_loads)
            .finish_non_exhaustive()
    }
}

impl Node {
    /// Creates an idle node.
    #[must_use]
    pub fn new(id: usize, l1: Cache<Lru>, l2: Cache<BoxedPolicy>) -> Self {
        Node {
            id,
            cpu_time: 0,
            state: CpuState::Running,
            phase: 0,
            pos: 0,
            l1,
            l2,
            owned: HashSet::new(),
            mshr: HashMap::new(),
            outstanding_loads: 0,
            stalled_since: None,
            last_miss: HashMap::new(),
            table3: Table3Matrix::new(),
            stats: NodeStats::default(),
        }
    }

    /// Whether the node's CPU is stalled on a memory resource.
    #[must_use]
    pub fn is_stalled(&self) -> bool {
        matches!(self.state, CpuState::WaitMshr | CpuState::WaitLoadLimit)
    }
}
