//! Table 1: benchmark characteristics.

use crate::{ExperimentOpts, TableBuilder};
use csr_harness::{build_benchmarks, Benchmark};

/// Prints Table 1 for the synthetic suite, alongside the paper's values.
pub fn run(opts: &ExperimentOpts) {
    println!("=== Table 1: benchmark characteristics ===");
    let paper: &[(&str, &str, usize, f64, f64, f64)] = &[
        // name, size, procs, mem MB, refs (M), remote fraction
        ("barnes", "64K", 8, 11.3, 34.2, 0.448),
        ("lu", "512 x 512", 8, 2.0, 12.7, 0.191),
        ("ocean", "258 x 258", 16, 15.0, 15.6, 0.074),
        ("raytrace", "car", 8, 32.0, 14.0, 0.296),
    ];
    let mut t = TableBuilder::new();
    t.header([
        "benchmark",
        "size",
        "procs",
        "mem (MB)",
        "sample refs",
        "remote frac",
        "paper mem",
        "paper refs",
        "paper remote",
    ]);
    // Only the characteristics outlive this loop: each kernel's sample
    // trace and placement map are freed before the footnote kernels are
    // built.
    for b in build_benchmarks(opts.scale()) {
        let c = b.characteristics;
        let p = paper.iter().find(|p| p.0 == c.name);
        t.row([
            c.name.clone(),
            c.problem_size.clone(),
            c.num_procs.to_string(),
            format!("{:.1}", c.memory_usage_mb),
            format!("{:.2}M", c.refs_by_sample as f64 / 1e6),
            format!("{:.1}%", c.remote_access_fraction * 100.0),
            p.map_or(String::from("-"), |p| format!("{:.1}", p.3)),
            p.map_or(String::from("-"), |p| format!("{:.1}M", p.4)),
            p.map_or(String::from("-"), |p| format!("{:.1}%", p.5 * 100.0)),
        ]);
    }
    print!("{}", t.render());
    println!();

    if !opts.extended {
        return;
    }
    // Footnote 2 of the paper: FFT and Radix were also run. Characterize
    // their analogues for completeness.
    println!("--- footnote-2 kernels (extended suite) ---");
    let mut t = TableBuilder::new();
    t.header([
        "benchmark",
        "size",
        "procs",
        "mem (MB)",
        "sample refs",
        "remote frac",
    ]);
    let footnote: Vec<Box<dyn mem_trace::Workload>> = if opts.paper_scale {
        vec![
            Box::new(mem_trace::workloads::FftLike::paper_scale()),
            Box::new(mem_trace::workloads::RadixLike::paper_scale()),
        ]
    } else {
        vec![
            Box::new(mem_trace::workloads::FftLike::default()),
            Box::new(mem_trace::workloads::RadixLike::default()),
        ]
    };
    for w in footnote {
        let c = Benchmark::build(w.as_ref(), csr_harness::experiments::BENCH_SEED).characteristics;
        t.row([
            c.name.clone(),
            c.problem_size.clone(),
            c.num_procs.to_string(),
            format!("{:.1}", c.memory_usage_mb),
            format!("{:.2}M", c.refs_by_sample as f64 / 1e6),
            format!("{:.1}%", c.remote_access_fraction * 100.0),
        ]);
    }
    print!("{}", t.render());
    println!();
}
