//! Shared helpers for the numa-sim integration tests.

use mem_trace::{PackedRef, Phase, PhasedTrace};
use numa_sim::{Clock, SystemConfig};

/// A 2x2-mesh Table-4 machine.
pub fn cfg4() -> SystemConfig {
    let mut cfg = SystemConfig::table4(Clock::Mhz500);
    cfg.num_nodes = 4;
    cfg
}

/// One L2 set's LRU core: a factory for `System::new`.
pub fn lru_core() -> cache_sim::BoxedPolicy {
    Box::new(cache_sim::Lru::new())
}

/// One processor's references within a phase: `(proc, [(addr, is_write)])`.
pub type ProcRefs = (usize, Vec<(u64, bool)>);

/// Builds a phased trace from (phase -> proc -> list of (addr, is_write)).
pub fn trace_of(num_procs: usize, phases: &[Vec<ProcRefs>]) -> PhasedTrace {
    let mut pt = PhasedTrace::new(num_procs);
    for phase in phases {
        let mut streams = vec![Vec::new(); num_procs];
        for (proc, refs) in phase {
            for &(addr, w) in refs {
                let rec = if w {
                    PackedRef::write(cache_sim::Addr(addr))
                } else {
                    PackedRef::read(cache_sim::Addr(addr))
                };
                streams[*proc].push(rec);
            }
        }
        pt.push(Phase::from_streams(streams));
    }
    pt
}
