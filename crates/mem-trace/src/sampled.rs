//! The sample-processor trace view of Section 3.1.
//!
//! The paper's trace-driven experiments simulate the cache of **one**
//! processor: its trace contains *all* shared-data references of the sample
//! processor, plus the shared **writes of every other processor**, which
//! arrive at the simulated cache as coherence invalidations.

use crate::record::{ProcId, Trace, TraceRecord};
use cache_sim::{AccessType, Addr};

/// What a [`SampledEvent`] is: a reference of the sample processor, or a
/// write by another processor, which invalidates the block if cached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SampledKind {
    /// A read or write issued by the sample processor itself.
    Own(AccessType),
    /// A write by another processor.
    ForeignWrite,
}

/// One event as seen by the sample processor's cache, packed into a word:
/// the byte address shifted left by two, the low two bits its kind (0 an
/// own read, 1 an own write, 2 a foreign write). [`unpack`](Self::unpack)
/// is the one way to read it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampledEvent(u64);

const _: () = assert!(std::mem::size_of::<SampledEvent>() == 8);

impl SampledEvent {
    /// The largest address an event can hold: the top two bits are lost to
    /// the kind.
    pub const MAX_ADDR: Addr = Addr(u64::MAX >> 2);

    /// Packs an event of `kind` at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is above [`MAX_ADDR`](Self::MAX_ADDR).
    #[must_use]
    pub fn new(addr: Addr, kind: SampledKind) -> Self {
        assert!(
            addr <= Self::MAX_ADDR,
            "address {:#x} does not fit a sample event",
            addr.0
        );
        let kind = match kind {
            SampledKind::Own(AccessType::Read) => 0,
            SampledKind::Own(AccessType::Write) => 1,
            SampledKind::ForeignWrite => 2,
        };
        SampledEvent(addr.0 << 2 | kind)
    }

    /// The event's byte address and kind.
    #[must_use]
    pub fn unpack(self) -> (Addr, SampledKind) {
        let kind = match self.0 & 3 {
            0 => SampledKind::Own(AccessType::Read),
            1 => SampledKind::Own(AccessType::Write),
            _ => SampledKind::ForeignWrite,
        };
        (Addr(self.0 >> 2), kind)
    }
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
                events.push(SampledEvent::new(rec.addr, SampledKind::Own(rec.op)));
                own_refs += 1;
            } else if rec.op == AccessType::Write {
                events.push(SampledEvent::new(rec.addr, SampledKind::ForeignWrite));
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
            s.events()[0].unpack(),
            (Addr(0), SampledKind::Own(AccessType::Read))
        );
        assert_eq!(
            s.events()[1].unpack(),
            (Addr(128), SampledKind::ForeignWrite)
        );
        assert_eq!(
            s.events()[2].unpack(),
            (Addr(192), SampledKind::Own(AccessType::Write))
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
        assert_eq!(s.events()[0].unpack().1, SampledKind::ForeignWrite);
        assert_eq!(
            s.events()[1].unpack().1,
            SampledKind::Own(AccessType::Write)
        );
        assert_eq!(s.events().len(), 10);
    }

    #[test]
    fn every_kind_round_trips_at_the_largest_address() {
        for kind in [
            SampledKind::Own(AccessType::Read),
            SampledKind::Own(AccessType::Write),
            SampledKind::ForeignWrite,
        ] {
            for addr in [Addr(0), Addr(64), SampledEvent::MAX_ADDR] {
                assert_eq!(SampledEvent::new(addr, kind).unpack(), (addr, kind));
            }
        }
        assert_eq!(SampledEvent::MAX_ADDR, Addr((1 << 62) - 1));
    }

    #[test]
    #[should_panic(expected = "does not fit a sample event")]
    fn an_address_past_the_largest_panics() {
        let _ = SampledEvent::new(Addr(1 << 62), SampledKind::ForeignWrite);
    }
}
