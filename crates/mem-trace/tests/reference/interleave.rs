//! TEST-ONLY REFERENCE. This is the interleaver of
//! `src/workloads/mod.rs` as it stood before `PhasedTrace::records`
//! replaced it: one phase's streams merged into a `Trace` by round-robining
//! fixed-size chunks. `tests/interleave_order.rs` checks the lazy iterator
//! against it. Below this paragraph the code is verbatim; do not "fix" or
//! modernize it.

use mem_trace::{Trace, TraceRecord};

/// Merges per-processor record streams into one global order by
/// round-robining fixed-size chunks, approximating concurrent execution
/// between barriers.
#[derive(Debug)]
pub(crate) struct Interleaver {
    chunk: usize,
}

impl Interleaver {
    pub(crate) fn new(chunk: usize) -> Self {
        assert!(chunk > 0, "chunk must be nonzero");
        Interleaver { chunk }
    }

    /// Appends the interleaving of `streams` to `trace`.
    pub(crate) fn merge_into(&self, trace: &mut Trace, streams: &[Vec<TraceRecord>]) {
        let mut cursors = vec![0usize; streams.len()];
        loop {
            let mut progressed = false;
            for (s, cursor) in cursors.iter_mut().enumerate() {
                let stream = &streams[s];
                if *cursor < stream.len() {
                    let end = (*cursor + self.chunk).min(stream.len());
                    for rec in &stream[*cursor..end] {
                        trace.push(*rec);
                    }
                    *cursor = end;
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }
    }
}
