//! Trace records and containers.
//!
//! A [`Trace`] is a time-ordered sequence of shared-data references from all
//! processors of a simulated multiprocessor execution, following the
//! methodology of Section 3.1 of the paper: private data and instruction
//! references are excluded, writes from every processor are retained (they
//! drive invalidations), and one processor is later *sampled* for the
//! trace-driven cache study (see [`crate::sampled`]).

use cache_sim::{AccessType, Addr, BlockAddr};
use std::fmt;

/// Identifier of a processor in the traced machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ProcId(pub usize);

impl fmt::Display for ProcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// One shared-data reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// The processor issuing the reference.
    pub proc: ProcId,
    /// The referenced byte address.
    pub addr: Addr,
    /// Read or write.
    pub op: AccessType,
}

impl TraceRecord {
    /// Convenience constructor for a read.
    #[must_use]
    pub fn read(proc: ProcId, addr: Addr) -> Self {
        TraceRecord {
            proc,
            addr,
            op: AccessType::Read,
        }
    }

    /// Convenience constructor for a write.
    #[must_use]
    pub fn write(proc: ProcId, addr: Addr) -> Self {
        TraceRecord {
            proc,
            addr,
            op: AccessType::Write,
        }
    }

    /// The block containing this reference for `block_bytes`-byte blocks.
    #[must_use]
    pub fn block(&self, block_bytes: u64) -> BlockAddr {
        self.addr.block(block_bytes)
    }
}

/// One reference of a phase stream packed into a word: the byte address
/// shifted left by one, the low bit set for a write. The issuing processor
/// is not stored; it is the index of the stream that holds the reference
/// ([`Phase`](crate::Phase)), so a phase costs 8 bytes a reference where a
/// [`TraceRecord`] costs 24.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackedRef(u64);

const _: () = assert!(std::mem::size_of::<PackedRef>() == 8);

impl PackedRef {
    /// Packs a reference to `addr`.
    ///
    /// # Panics
    ///
    /// Panics if bit 63 of `addr` is set: the shift would drop it.
    #[must_use]
    pub fn new(addr: Addr, op: AccessType) -> Self {
        assert!(
            addr.0 >> 63 == 0,
            "address {:#x} does not fit a packed reference",
            addr.0
        );
        PackedRef(addr.0 << 1 | u64::from(op == AccessType::Write))
    }

    /// A packed read of `addr`.
    #[must_use]
    pub fn read(addr: Addr) -> Self {
        Self::new(addr, AccessType::Read)
    }

    /// A packed write of `addr`.
    #[must_use]
    pub fn write(addr: Addr) -> Self {
        Self::new(addr, AccessType::Write)
    }

    /// The referenced byte address.
    #[must_use]
    pub fn addr(self) -> Addr {
        Addr(self.0 >> 1)
    }

    /// Read or write.
    #[must_use]
    pub fn op(self) -> AccessType {
        if self.0 & 1 == 1 {
            AccessType::Write
        } else {
            AccessType::Read
        }
    }

    /// The reference as issued by `proc`.
    #[must_use]
    pub fn record(self, proc: ProcId) -> TraceRecord {
        TraceRecord {
            proc,
            addr: self.addr(),
            op: self.op(),
        }
    }
}

impl From<TraceRecord> for PackedRef {
    fn from(rec: TraceRecord) -> Self {
        PackedRef::new(rec.addr, rec.op)
    }
}

/// A time-ordered multiprocessor reference trace.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    records: Vec<TraceRecord>,
    num_procs: usize,
}

impl Trace {
    /// Creates an empty trace for `num_procs` processors.
    ///
    /// # Panics
    ///
    /// Panics if `num_procs` is zero.
    #[must_use]
    pub fn new(num_procs: usize) -> Self {
        assert!(num_procs > 0, "a trace needs at least one processor");
        Trace {
            records: Vec::new(),
            num_procs,
        }
    }

    /// Number of processors that contributed to this trace.
    #[must_use]
    pub fn num_procs(&self) -> usize {
        self.num_procs
    }

    /// Number of records.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the trace is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Appends a record.
    ///
    /// # Panics
    ///
    /// Panics if the record's processor id is out of range.
    pub fn push(&mut self, rec: TraceRecord) {
        assert!(
            rec.proc.0 < self.num_procs,
            "processor id {} out of range",
            rec.proc
        );
        self.records.push(rec);
    }

    /// The records in order.
    #[must_use]
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Iterates over the records.
    pub fn iter(&self) -> std::slice::Iter<'_, TraceRecord> {
        self.records.iter()
    }

    /// Number of references issued by `proc`.
    #[must_use]
    pub fn refs_by(&self, proc: ProcId) -> u64 {
        self.records.iter().filter(|r| r.proc == proc).count() as u64
    }

    /// Total bytes touched, rounded to `block_bytes` blocks (the footprint).
    #[must_use]
    pub fn footprint_bytes(&self, block_bytes: u64) -> u64 {
        let mut blocks: Vec<u64> = self
            .records
            .iter()
            .map(|r| r.block(block_bytes).0)
            .collect();
        blocks.sort_unstable();
        blocks.dedup();
        blocks.len() as u64 * block_bytes
    }
}

impl Extend<TraceRecord> for Trace {
    fn extend<T: IntoIterator<Item = TraceRecord>>(&mut self, iter: T) {
        for rec in iter {
            self.push(rec);
        }
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a TraceRecord;
    type IntoIter = std::slice::Iter<'a, TraceRecord>;
    fn into_iter(self) -> Self::IntoIter {
        self.records.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_query() {
        let mut t = Trace::new(2);
        t.push(TraceRecord::read(ProcId(0), Addr(0x100)));
        t.push(TraceRecord::write(ProcId(1), Addr(0x140)));
        t.push(TraceRecord::read(ProcId(0), Addr(0x104)));
        assert_eq!(t.len(), 3);
        assert_eq!(t.refs_by(ProcId(0)), 2);
        assert_eq!(t.refs_by(ProcId(1)), 1);
        // 0x100 and 0x104 share a 64-byte block; 0x140 is another.
        assert_eq!(t.footprint_bytes(64), 128);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_proc() {
        let mut t = Trace::new(2);
        t.push(TraceRecord::read(ProcId(2), Addr(0)));
    }

    #[test]
    fn packed_refs_round_trip() {
        for addr in [0, 0x40, 0x1234_5678_9abc, (1 << 63) - 1] {
            for rec in [
                TraceRecord::read(ProcId(3), Addr(addr)),
                TraceRecord::write(ProcId(3), Addr(addr)),
            ] {
                let packed = PackedRef::from(rec);
                assert_eq!(packed.record(ProcId(3)), rec);
                assert_eq!((packed.addr(), packed.op()), (rec.addr, rec.op));
            }
        }
    }

    #[test]
    #[should_panic(expected = "does not fit a packed reference")]
    fn packing_rejects_an_address_with_bit_63_set() {
        let _ = PackedRef::write(Addr(1 << 63));
    }

    #[test]
    fn extend_and_iterate() {
        let mut t = Trace::new(1);
        t.extend((0..5).map(|i| TraceRecord::read(ProcId(0), Addr(i * 64))));
        assert_eq!(t.iter().count(), 5);
        let blocks: Vec<u64> = (&t).into_iter().map(|r| r.block(64).0).collect();
        assert_eq!(blocks, vec![0, 1, 2, 3, 4]);
    }
}
