//! Trace-level statistics: the quantities reported in Table 1 of the paper.

use crate::first_touch::FirstTouchPlacement;
use crate::record::{ProcId, Trace};
use cache_sim::AccessType;

/// Table-1-style characteristics of one benchmark trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceCharacteristics {
    /// Workload name.
    pub name: String,
    /// Problem-size description.
    pub problem_size: String,
    /// Number of processors.
    pub num_procs: usize,
    /// Footprint in megabytes (64-byte-block granularity).
    pub memory_usage_mb: f64,
    /// References issued by the sample processor.
    pub refs_by_sample: u64,
    /// Total trace length.
    pub total_refs: u64,
    /// Fraction of the sample processor's references that are writes.
    pub write_fraction: f64,
    /// Remote access fraction of the sample processor under per-block
    /// first-touch placement.
    pub remote_access_fraction: f64,
}

/// Computes Table-1 characteristics for `trace` from the viewpoint of
/// `sample`, given the trace's per-block first-touch `placement`
/// (`FirstTouchPlacement::from_trace(64, trace)`, built once by the caller
/// and shared with [`representative_processor`]). The footprint is the
/// placement's homed units: every block the trace touches, once.
#[must_use]
pub fn characterize(
    name: &str,
    problem_size: &str,
    trace: &Trace,
    sample: ProcId,
    placement: &FirstTouchPlacement,
) -> TraceCharacteristics {
    let (mut refs_by_sample, mut writes_by_sample, mut remote) = (0u64, 0u64, 0u64);
    for rec in trace.iter().filter(|r| r.proc == sample) {
        refs_by_sample += 1;
        writes_by_sample += u64::from(rec.op == AccessType::Write);
        remote += u64::from(placement.is_remote(sample, rec.addr));
    }
    let share = |n: u64| {
        if refs_by_sample == 0 {
            0.0
        } else {
            n as f64 / refs_by_sample as f64
        }
    };
    let footprint = placement.units_homed() as u64 * placement.granularity_bytes();
    TraceCharacteristics {
        name: name.to_owned(),
        problem_size: problem_size.to_owned(),
        num_procs: trace.num_procs(),
        memory_usage_mb: footprint as f64 / (1024.0 * 1024.0),
        refs_by_sample,
        total_refs: trace.len() as u64,
        write_fraction: share(writes_by_sample),
        remote_access_fraction: share(remote),
    }
}

/// Picks the processor whose remote-access fraction under `placement` is
/// closest to the mean across all processors — the paper's "most
/// representative" sample selection for irregular benchmarks (Section 3.1).
#[must_use]
pub fn representative_processor(trace: &Trace, placement: &FirstTouchPlacement) -> ProcId {
    let fractions = placement.remote_fractions(trace);
    let mean = fractions.iter().sum::<f64>() / fractions.len() as f64;
    let best = fractions
        .iter()
        .enumerate()
        .min_by(|(_, a), (_, b)| {
            (*a - mean)
                .abs()
                .partial_cmp(&(*b - mean).abs())
                .expect("fractions are finite")
        })
        .map(|(i, _)| i)
        .unwrap_or(0);
    ProcId(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::TraceRecord;
    use cache_sim::Addr;

    #[test]
    fn characterize_counts() {
        let mut t = Trace::new(2);
        t.push(TraceRecord::write(ProcId(0), Addr(0)));
        t.push(TraceRecord::write(ProcId(1), Addr(64)));
        t.push(TraceRecord::read(ProcId(0), Addr(64))); // remote for P0
        t.push(TraceRecord::read(ProcId(0), Addr(0))); // local
        let c = characterize(
            "t",
            "tiny",
            &t,
            ProcId(0),
            &FirstTouchPlacement::from_trace(64, &t),
        );
        assert_eq!(c.refs_by_sample, 3);
        assert_eq!(c.total_refs, 4);
        assert!((c.write_fraction - 1.0 / 3.0).abs() < 1e-12);
        assert!((c.remote_access_fraction - 1.0 / 3.0).abs() < 1e-12);
        assert!((c.memory_usage_mb - 128.0 / (1024.0 * 1024.0)).abs() < 1e-12);
    }

    #[test]
    fn representative_processor_is_valid() {
        let mut t = Trace::new(4);
        for i in 0..64u64 {
            t.push(TraceRecord::write(ProcId((i % 4) as usize), Addr(i * 64)));
        }
        for i in 0..64u64 {
            t.push(TraceRecord::read(
                ProcId(((i + 1) % 4) as usize),
                Addr(i * 64),
            ));
        }
        let p = representative_processor(&t, &FirstTouchPlacement::from_trace(64, &t));
        assert!(p.0 < 4);
    }
}
