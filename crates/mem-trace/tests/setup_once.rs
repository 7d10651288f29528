//! Suite setup takes one census of each kernel's phases in interleaved
//! order, judging every reference remote or local as it comes, and derives
//! the placement, the sample processor and the Table-1 characteristics from
//! it; a second pass takes the sample view. This checks all four against
//! the way they were computed before — over the interleaved `Trace`, a
//! placement built first, one pass over the trace per processor against
//! the final homes, the footprint by sorting every block — on the default
//! (quick-scale) kernels.

use cache_sim::{AccessType, Addr};
use mem_trace::workloads::{BarnesLike, LuLike, OceanLike, RaytraceLike, INTERLEAVE_CHUNK};
use mem_trace::{
    FirstTouchPlacement, ProcId, SampledKind, SampledTrace, Trace, TraceCensus,
    TraceCharacteristics, Workload,
};

/// The remote fraction of one processor, by its own pass.
fn old_remote_fraction(placement: &FirstTouchPlacement, trace: &Trace, proc: ProcId) -> f64 {
    let (mut total, mut remote) = (0u64, 0u64);
    for rec in trace.iter().filter(|r| r.proc == proc) {
        total += 1;
        remote += u64::from(placement.is_remote(proc, rec.addr));
    }
    if total == 0 {
        0.0
    } else {
        remote as f64 / total as f64
    }
}

fn old_representative(fractions: &[f64]) -> ProcId {
    let mean = fractions.iter().sum::<f64>() / fractions.len() as f64;
    let best = fractions
        .iter()
        .enumerate()
        .min_by(|(_, a), (_, b)| (*a - mean).abs().total_cmp(&(*b - mean).abs()))
        .map_or(0, |(i, _)| i);
    ProcId(best)
}

fn old_characterize(
    w: &dyn Workload,
    trace: &Trace,
    sample: ProcId,
    remote_access_fraction: f64,
) -> TraceCharacteristics {
    let refs_by_sample = trace.refs_by(sample);
    let writes = trace
        .iter()
        .filter(|r| r.proc == sample && r.op == AccessType::Write)
        .count() as u64;
    TraceCharacteristics {
        name: w.name().to_owned(),
        problem_size: w.problem_size(),
        num_procs: trace.num_procs(),
        memory_usage_mb: trace.footprint_bytes(64) as f64 / (1024.0 * 1024.0),
        refs_by_sample,
        total_refs: trace.len() as u64,
        write_fraction: writes as f64 / refs_by_sample as f64,
        remote_access_fraction,
    }
}

/// The sample view of `proc`: its own references and every foreign write.
fn old_sample_events(trace: &Trace, proc: ProcId) -> Vec<(Addr, SampledKind)> {
    let mut events = Vec::new();
    for rec in trace {
        if rec.proc == proc {
            events.push((rec.addr, SampledKind::Own(rec.op)));
        } else if rec.op == AccessType::Write {
            events.push((rec.addr, SampledKind::ForeignWrite));
        }
    }
    events
}

#[test]
fn one_placement_gives_the_same_samples_and_table1_rows() {
    let suite: Vec<Box<dyn Workload>> = vec![
        Box::new(BarnesLike::default()),
        Box::new(LuLike::default()),
        Box::new(OceanLike::default()),
        Box::new(RaytraceLike::default()),
    ];
    for w in suite {
        let trace = w.generate(2003);
        let mut placement = FirstTouchPlacement::new(64);
        for rec in &trace {
            placement.touch(rec.proc, rec.addr);
        }
        let phases = w.generate_phases(2003);
        let census =
            TraceCensus::from_records(phases.num_procs(), 64, phases.records(INTERLEAVE_CHUNK));
        let old_fractions: Vec<f64> = (0..trace.num_procs())
            .map(|p| old_remote_fraction(&placement, &trace, ProcId(p)))
            .collect();
        assert_eq!(census.remote_fractions(), old_fractions);
        let sample = census.representative_processor();
        assert_eq!(sample, old_representative(&old_fractions), "{}", w.name());
        assert_eq!(
            census.characterize(w.name(), &w.problem_size(), sample),
            old_characterize(w.as_ref(), &trace, sample, old_fractions[sample.0]),
        );
        let homes = census.placement();
        assert_eq!(homes.units_homed(), placement.units_homed());
        assert!(trace
            .iter()
            .all(|r| homes.home_of(r.addr) == placement.home_of(r.addr)));
        let sampled = SampledTrace::from_records(phases.records(INTERLEAVE_CHUNK), sample);
        let events: Vec<_> = sampled.events().iter().map(|ev| ev.unpack()).collect();
        assert_eq!(events, old_sample_events(&trace, sample));
    }
}
