//! `PhasedTrace::records` is the one implementation of the Section 3
//! interleaving order. This checks it, record for record, against the
//! frozen interleaver it replaced (`tests/reference/interleave.rs`), run
//! phase by phase, on seeded random shapes: no phases to five, one to
//! seventeen processors, empty phases and streams, uneven stream lengths,
//! and chunks from one record to longer than every stream. The phases hold
//! packed references and the reference merges the records they were packed
//! from, so the unpacking is checked with the order: addresses reach bit 62,
//! the highest a packed reference holds.

#[path = "reference/interleave.rs"]
mod reference;

use cache_sim::{AccessType, Addr};
use mem_trace::rng::SplitMix64;
use mem_trace::{PackedRef, Phase, PhasedTrace, ProcId, Trace, TraceRecord};
use reference::Interleaver;

/// A random phased trace, and the records of each of its phases' streams.
/// Every record's address is unique, so the comparison sees any
/// reordering.
fn random_shape(rng: &mut SplitMix64) -> (PhasedTrace, Vec<Vec<Vec<TraceRecord>>>) {
    let procs = 1 + rng.below(17) as usize;
    let mut pt = PhasedTrace::new(procs);
    let mut phases = Vec::new();
    let mut next_addr = 0u64;
    for _ in 0..rng.below(6) {
        let empty_phase = rng.chance(0.15);
        let streams: Vec<Vec<TraceRecord>> = (0..procs)
            .map(|p| {
                let len = if empty_phase || rng.chance(0.2) {
                    0
                } else {
                    rng.below(300)
                };
                (0..len)
                    .map(|_| {
                        next_addr += 64;
                        let op = if rng.chance(0.3) {
                            AccessType::Write
                        } else {
                            AccessType::Read
                        };
                        TraceRecord {
                            proc: ProcId(p),
                            addr: Addr(next_addr | rng.below(2) << 62),
                            op,
                        }
                    })
                    .collect()
            })
            .collect();
        let packed = streams
            .iter()
            .map(|s| s.iter().copied().map(PackedRef::from).collect())
            .collect();
        pt.push(Phase::from_streams(packed));
        phases.push(streams);
    }
    (pt, phases)
}

#[test]
fn records_follow_the_reference_interleaver() {
    let mut rng = SplitMix64::new(0x1A7E_41EA);
    for case in 0..400 {
        let (pt, phases) = random_shape(&mut rng);
        for chunk in [1, 3, 64, 301, usize::MAX] {
            let mut want = Trace::new(pt.num_procs());
            let il = Interleaver::new(chunk);
            for streams in &phases {
                il.merge_into(&mut want, streams);
            }
            let got: Vec<TraceRecord> = pt.records(chunk).collect();
            assert_eq!(got, want.records(), "case {case}, chunk {chunk}");
            assert_eq!(pt.interleave(chunk).records(), want.records());
        }
    }
}

#[test]
#[should_panic(expected = "chunk must be nonzero")]
fn records_reject_a_zero_chunk() {
    let _ = PhasedTrace::new(1).records(0);
}
