//! Phased traces: per-processor reference streams separated by barriers.
//!
//! The trace-driven study (Section 3) consumes one interleaved order of the
//! references ([`PhasedTrace::records`]); the execution-driven study
//! (Section 4) instead replays each processor's stream on its own simulated
//! CPU, with barrier synchronization between program phases — the
//! interleaving *within* a phase then emerges from the simulated timing.
//!
//! A stream holds [`PackedRef`]s, one word a reference: its processor is
//! the stream's index, and [`PhasedTrace::records`] unpacks each reference
//! into a [`TraceRecord`] as it yields it.

use crate::record::{PackedRef, ProcId, Trace, TraceRecord};

/// One barrier-delimited phase: a reference stream per processor.
#[derive(Debug, Clone, Default)]
pub struct Phase {
    pub(crate) streams: Vec<Vec<PackedRef>>,
}

impl Phase {
    /// Creates an empty phase for `num_procs` processors.
    #[must_use]
    pub fn new(num_procs: usize) -> Self {
        Phase {
            streams: vec![Vec::new(); num_procs],
        }
    }

    /// Wraps existing per-processor streams, processor `p`'s at index `p`.
    #[must_use]
    pub fn from_streams(streams: Vec<Vec<PackedRef>>) -> Self {
        Phase { streams }
    }

    /// The stream of processor `p`.
    #[must_use]
    pub fn stream(&self, p: ProcId) -> &[PackedRef] {
        &self.streams[p.0]
    }

    /// All streams.
    #[must_use]
    pub fn streams(&self) -> &[Vec<PackedRef>] {
        &self.streams
    }

    /// Total references across all processors.
    #[must_use]
    pub fn len(&self) -> usize {
        self.streams.iter().map(Vec::len).sum()
    }

    /// Whether no processor has any reference in this phase.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.streams.iter().all(Vec::is_empty)
    }
}

/// A whole execution: phases separated by global barriers.
#[derive(Debug, Clone)]
pub struct PhasedTrace {
    num_procs: usize,
    phases: Vec<Phase>,
}

impl PhasedTrace {
    /// Creates an empty phased trace.
    ///
    /// # Panics
    ///
    /// Panics if `num_procs` is zero.
    #[must_use]
    pub fn new(num_procs: usize) -> Self {
        assert!(num_procs > 0, "need at least one processor");
        PhasedTrace {
            num_procs,
            phases: Vec::new(),
        }
    }

    /// Appends a phase.
    ///
    /// # Panics
    ///
    /// Panics if the phase's processor count differs.
    pub fn push(&mut self, phase: Phase) {
        assert_eq!(
            phase.streams.len(),
            self.num_procs,
            "phase has wrong processor count"
        );
        self.phases.push(phase);
    }

    /// Number of processors.
    #[must_use]
    pub fn num_procs(&self) -> usize {
        self.num_procs
    }

    /// The phases in program order.
    #[must_use]
    pub fn phases(&self) -> &[Phase] {
        &self.phases
    }

    /// Total references across all phases and processors.
    #[must_use]
    pub fn total_refs(&self) -> usize {
        self.phases.iter().map(Phase::len).sum()
    }

    /// The records in the order of the single interleaved trace (the
    /// Section 3 methodology), lazily: within each phase, round-robin
    /// chunks of `chunk` records from every processor's stream, a stream
    /// leaving the rotation when it is spent; phases in program order.
    /// Each record is unpacked as it is yielded; no phase is ever copied.
    /// Internal iteration (`for_each`, `fold`) runs the nested `flat_map`s
    /// as plain loops, faster than calling `next`.
    ///
    /// # Panics
    ///
    /// Panics if `chunk` is zero.
    pub fn records(&self, chunk: usize) -> impl Iterator<Item = TraceRecord> + '_ {
        assert!(chunk > 0, "chunk must be nonzero");
        self.phases.iter().flat_map(move |phase| {
            let longest = phase.streams.iter().map(Vec::len).max().unwrap_or(0);
            (0..longest).step_by(chunk).flat_map(move |start| {
                phase.streams.iter().enumerate().flat_map(move |(p, s)| {
                    let run = s.get(start..).unwrap_or_default().iter().take(chunk);
                    run.map(move |r| r.record(ProcId(p)))
                })
            })
        })
    }

    /// Collects [`records`](Self::records) into a single [`Trace`].
    #[must_use]
    pub fn interleave(&self, chunk: usize) -> Trace {
        let mut trace = Trace::new(self.num_procs);
        trace.extend(self.records(chunk));
        trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_sim::Addr;

    #[test]
    fn phase_accounting() {
        let mut ph = Phase::new(2);
        ph.streams[0].push(PackedRef::read(Addr(0)));
        assert_eq!(ph.len(), 1);
        assert!(!ph.is_empty());
        assert_eq!(ph.stream(ProcId(1)).len(), 0);
    }

    #[test]
    fn interleave_respects_phase_barriers() {
        let mut pt = PhasedTrace::new(2);
        let mut p1 = Phase::new(2);
        p1.streams[0].push(PackedRef::read(Addr(0)));
        p1.streams[1].push(PackedRef::read(Addr(64)));
        let mut p2 = Phase::new(2);
        p2.streams[1].push(PackedRef::read(Addr(128)));
        pt.push(p1);
        pt.push(p2);
        let t = pt.interleave(4);
        // Phase 1 records (both procs) strictly precede phase 2 records.
        assert_eq!(t.len(), 3);
        assert_eq!(t.records()[2].addr, Addr(128));
        assert_eq!(pt.total_refs(), 3);
    }
}
