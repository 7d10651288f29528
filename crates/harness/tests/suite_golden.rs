//! The suite setup — sample processor, Table-1 row, sampled event stream
//! and first-touch placement of every kernel — against
//! `golden/suite_quick.tsv`, written before setup streamed the phases, and
//! at the paper's sizes against `golden/suite_paper.tsv`, written before
//! the phase streams were packed. A change to how the suite is built must
//! reproduce every field exactly.
//!
//! The paper-scale test is ignored by default (slow in a debug build);
//! run it with `cargo test --release -p csr-harness --test suite_golden --
//! --ignored`.

use cache_sim::AccessType;
use csr_harness::{build_benchmarks, Benchmark, Scale};
use mem_trace::SampledKind;

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

fn line(b: &Benchmark) -> String {
    let c = &b.characteristics;
    let (mut events, mut homes) = (Fnv::new(), Fnv::new());
    for e in b.sampled.events() {
        let (addr, kind) = e.unpack();
        let tag = match kind {
            SampledKind::Own(op) => u8::from(op == AccessType::Write),
            SampledKind::ForeignWrite => 2,
        };
        events.write(&[tag]);
        events.write(&addr.0.to_le_bytes());
        let home = b.placement.home_of(addr).map_or(u64::MAX, |p| p.0 as u64);
        homes.write(&home.to_le_bytes());
    }
    [
        c.name.clone(),
        format!("sample={}", b.sample.0),
        format!("problem_size={}", c.problem_size),
        format!("num_procs={}", c.num_procs),
        format!("memory_usage_mb={:?}", c.memory_usage_mb),
        format!("refs_by_sample={}", c.refs_by_sample),
        format!("total_refs={}", c.total_refs),
        format!("write_fraction={:?}", c.write_fraction),
        format!("remote_access_fraction={:?}", c.remote_access_fraction),
        format!("events={}", b.sampled.events().len()),
        format!("event_fnv={:016x}", events.0),
        format!("units_homed={}", b.placement.units_homed()),
        format!("home_fnv={:016x}", homes.0),
    ]
    .join("\t")
}

fn assert_suite_matches(scale: Scale, golden: &str) {
    let got: Vec<String> = build_benchmarks(scale).iter().map(line).collect();
    let want: Vec<&str> = golden.lines().filter(|l| !l.starts_with('#')).collect();
    assert_eq!(got, want);
}

#[test]
fn quick_suite_setup_matches_the_golden() {
    assert_suite_matches(Scale::Quick, include_str!("golden/suite_quick.tsv"));
}

#[test]
#[ignore = "paper scale: run in release with --ignored"]
fn paper_suite_setup_matches_the_golden() {
    assert_suite_matches(Scale::Paper, include_str!("golden/suite_paper.tsv"));
}
