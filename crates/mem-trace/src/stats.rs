//! Trace-level statistics: the quantities reported in Table 1 of the paper.

use crate::first_touch::FirstTouchPlacement;
use crate::record::{ProcId, Trace, TraceRecord};
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

/// What Section 3.1's preparation needs to know about a trace, gathered in
/// one pass over its records: the first-touch placement and, per
/// processor, its references, writes and remote references. The sample
/// processor and the Table-1 characteristics are readings of it.
///
/// A reference is judged remote when it is counted, against the homes
/// assigned so far. That is the final placement's verdict as well: a
/// unit's home is fixed by its first touch, which precedes every later
/// reference to the unit, and a first touch is local under both.
#[derive(Debug, Clone)]
pub struct TraceCensus {
    placement: FirstTouchPlacement,
    /// (references, writes, remote references) per processor.
    counts: Vec<(u64, u64, u64)>,
}

impl TraceCensus {
    /// Takes the census of `records`, issued by `num_procs` processors,
    /// homing memory at `granularity_bytes` (the paper homes 64-byte
    /// blocks).
    ///
    /// # Panics
    ///
    /// Panics if a record's processor is not below `num_procs`, or if
    /// `granularity_bytes` is not a power of two.
    #[must_use]
    pub fn from_records(
        num_procs: usize,
        granularity_bytes: u64,
        records: impl IntoIterator<Item = TraceRecord>,
    ) -> Self {
        let mut placement = FirstTouchPlacement::new(granularity_bytes);
        let mut counts = vec![(0, 0, 0); num_procs];
        // Internal iteration: a nested `flat_map` such as
        // `PhasedTrace::records` then runs as plain loops.
        records.into_iter().for_each(|rec| {
            let home = placement.touch(rec.proc, rec.addr);
            let c = &mut counts[rec.proc.0];
            c.0 += 1;
            c.1 += u64::from(rec.op == AccessType::Write);
            c.2 += u64::from(home != rec.proc);
        });
        TraceCensus { placement, counts }
    }

    /// The census of a whole [`Trace`].
    #[must_use]
    pub fn from_trace(granularity_bytes: u64, trace: &Trace) -> Self {
        Self::from_records(trace.num_procs(), granularity_bytes, trace.iter().copied())
    }

    /// The first-touch placement of the records.
    #[must_use]
    pub fn placement(&self) -> &FirstTouchPlacement {
        &self.placement
    }

    /// Gives up the census for its placement.
    #[must_use]
    pub fn into_placement(self) -> FirstTouchPlacement {
        self.placement
    }

    /// Every processor's fraction of references that are remote — the
    /// paper's *remote access fraction* (Table 1) — indexed by processor;
    /// 0 for a processor with none.
    #[must_use]
    pub fn remote_fractions(&self) -> Vec<f64> {
        self.counts.iter().map(|c| share(c.2, c.0)).collect()
    }

    /// The processor whose remote-access fraction is closest to the mean
    /// across all processors — the paper's "most representative" sample
    /// selection for irregular benchmarks (Section 3.1).
    #[must_use]
    pub fn representative_processor(&self) -> ProcId {
        let fractions = self.remote_fractions();
        let mean = fractions.iter().sum::<f64>() / fractions.len() as f64;
        let best = fractions
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| (*a - mean).abs().total_cmp(&(*b - mean).abs()))
            .map_or(0, |(i, _)| i);
        ProcId(best)
    }

    /// Table-1 characteristics from the viewpoint of `sample`. The
    /// footprint is the placement's homed units: every unit the records
    /// touch, once.
    #[must_use]
    pub fn characterize(
        &self,
        name: &str,
        problem_size: &str,
        sample: ProcId,
    ) -> TraceCharacteristics {
        let (refs, writes, remote) = self.counts.get(sample.0).copied().unwrap_or_default();
        let footprint = self.placement.units_homed() as u64 * self.placement.granularity_bytes();
        TraceCharacteristics {
            name: name.to_owned(),
            problem_size: problem_size.to_owned(),
            num_procs: self.counts.len(),
            memory_usage_mb: footprint as f64 / (1024.0 * 1024.0),
            refs_by_sample: refs,
            total_refs: self.counts.iter().map(|c| c.0).sum(),
            write_fraction: share(writes, refs),
            remote_access_fraction: share(remote, refs),
        }
    }
}

/// `n` as a fraction of `of`, 0 when `of` is.
fn share(n: u64, of: u64) -> f64 {
    if of == 0 {
        0.0
    } else {
        n as f64 / of as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_sim::Addr;

    #[test]
    fn characterize_counts() {
        let mut t = Trace::new(2);
        t.push(TraceRecord::write(ProcId(0), Addr(0)));
        t.push(TraceRecord::write(ProcId(1), Addr(64)));
        t.push(TraceRecord::read(ProcId(0), Addr(64))); // remote for P0
        t.push(TraceRecord::read(ProcId(0), Addr(0))); // local
        let c = TraceCensus::from_trace(64, &t).characterize("t", "tiny", ProcId(0));
        assert_eq!(c.refs_by_sample, 3);
        assert_eq!(c.total_refs, 4);
        assert!((c.write_fraction - 1.0 / 3.0).abs() < 1e-12);
        assert!((c.remote_access_fraction - 1.0 / 3.0).abs() < 1e-12);
        assert!((c.memory_usage_mb - 128.0 / (1024.0 * 1024.0)).abs() < 1e-12);
    }

    #[test]
    fn remote_fraction_from_trace() {
        let mut t = Trace::new(2);
        // P1 homes block 0; P0 homes block 1; then P0 references both twice.
        t.push(TraceRecord::write(ProcId(1), Addr(0)));
        t.push(TraceRecord::write(ProcId(0), Addr(64)));
        t.push(TraceRecord::read(ProcId(0), Addr(0)));
        t.push(TraceRecord::read(ProcId(0), Addr(64)));
        let census = TraceCensus::from_trace(64, &t);
        // P0 refs: 64 (local, homed it), 0 (remote), 64 (local) => 1/3.
        let f = census.remote_fractions()[0];
        assert!((f - 1.0 / 3.0).abs() < 1e-12, "got {f}");
        assert_eq!(census.placement().units_homed(), 2);
        // P1 refs: 0 (local, homed it) => 0; one pass gives both.
        assert_eq!(census.remote_fractions(), vec![f, 0.0]);
        let idle = TraceCensus::from_records(3, 64, t.iter().copied());
        assert_eq!(idle.remote_fractions()[2], 0.0, "no references");
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
        let p = TraceCensus::from_trace(64, &t).representative_processor();
        assert!(p.0 < 4);
    }
}
