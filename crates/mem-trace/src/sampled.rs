//! The sample-processor trace view of Section 3.1.
//!
//! The paper's trace-driven experiments simulate the cache of **one**
//! processor: its trace contains *all* shared-data references of the sample
//! processor, plus the shared **writes of every other processor**, which
//! arrive at the simulated cache as coherence invalidations.

use crate::record::{ProcId, Trace, TraceRecord};
use cache_sim::{AccessType, Addr};

/// One event as seen by the sample processor's cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SampledEvent {
    /// A reference issued by the sample processor itself.
    Own {
        /// Referenced byte address.
        addr: Addr,
        /// Read or write.
        op: AccessType,
    },
    /// A write by another processor: invalidates the block if cached.
    ForeignWrite {
        /// Written byte address.
        addr: Addr,
    },
}

/// The trace-driven input for one sample processor.
#[derive(Debug, Clone)]
pub struct SampledTrace {
    proc: ProcId,
    events: Vec<SampledEvent>,
    own_refs: u64,
    foreign_writes: u64,
}

impl SampledTrace {
    /// Extracts the sample view of `proc` from a full multiprocessor trace.
    #[must_use]
    pub fn from_trace(trace: &Trace, proc: ProcId) -> Self {
        Self::from_records(trace.iter().copied(), proc)
    }

    /// Extracts the sample view of `proc` from records in trace order
    /// ([`PhasedTrace::records`](crate::PhasedTrace::records), or a
    /// [`Trace`]'s records copied).
    #[must_use]
    pub fn from_records(records: impl IntoIterator<Item = TraceRecord>, proc: ProcId) -> Self {
        let mut events = Vec::new();
        let mut own_refs = 0;
        let mut foreign_writes = 0;
        // Internal iteration, as in `TraceCensus::from_records`.
        records.into_iter().for_each(|rec| {
            if rec.proc == proc {
                events.push(SampledEvent::Own {
                    addr: rec.addr,
                    op: rec.op,
                });
                own_refs += 1;
            } else if rec.op == AccessType::Write {
                events.push(SampledEvent::ForeignWrite { addr: rec.addr });
                foreign_writes += 1;
            }
        });
        SampledTrace {
            proc,
            events,
            own_refs,
            foreign_writes,
        }
    }

    /// The sample processor.
    #[must_use]
    pub fn proc(&self) -> ProcId {
        self.proc
    }

    /// All events in order.
    #[must_use]
    pub fn events(&self) -> &[SampledEvent] {
        &self.events
    }

    /// References issued by the sample processor.
    #[must_use]
    pub fn own_refs(&self) -> u64 {
        self.own_refs
    }

    /// Foreign writes (potential invalidations).
    #[must_use]
    pub fn foreign_writes(&self) -> u64 {
        self.foreign_writes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_own_refs_and_foreign_writes_only() {
        let mut t = Trace::new(3);
        t.push(TraceRecord::read(ProcId(0), Addr(0)));
        t.push(TraceRecord::read(ProcId(1), Addr(64))); // foreign read: dropped
        t.push(TraceRecord::write(ProcId(1), Addr(128))); // foreign write: kept
        t.push(TraceRecord::write(ProcId(0), Addr(192)));
        t.push(TraceRecord::write(ProcId(2), Addr(0))); // foreign write: kept
        let s = SampledTrace::from_trace(&t, ProcId(0));
        assert_eq!(s.own_refs(), 2);
        assert_eq!(s.foreign_writes(), 2);
        assert_eq!(s.events().len(), 4);
        assert_eq!(
            s.events()[0],
            SampledEvent::Own {
                addr: Addr(0),
                op: AccessType::Read
            }
        );
        assert_eq!(
            s.events()[1],
            SampledEvent::ForeignWrite { addr: Addr(128) }
        );
    }

    #[test]
    fn order_is_preserved() {
        let mut t = Trace::new(2);
        for i in 0..10u64 {
            let p = ProcId((i % 2) as usize);
            t.push(TraceRecord::write(p, Addr(i * 64)));
        }
        let s = SampledTrace::from_trace(&t, ProcId(1));
        // Alternating Own/ForeignWrite, starting with a foreign write by P0.
        assert!(matches!(s.events()[0], SampledEvent::ForeignWrite { .. }));
        assert!(matches!(s.events()[1], SampledEvent::Own { .. }));
        assert_eq!(s.events().len(), 10);
    }
}
