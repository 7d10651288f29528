//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! experiments <subcommand> [--paper-scale] [--extended (table1/table5)] [--threads N]
//!                          [--json DIR (fig3/table2)]
//!
//! Subcommands:
//!   table1    benchmark characteristics
//!   fig3      relative cost savings, random cost mapping (full grid)
//!   table2    relative cost savings, first-touch cost mapping
//!   table3    consecutive-miss latency correlation (NUMA simulation)
//!   table4    baseline NUMA system configuration
//!   table5    execution-time reduction under latency-sensitive replacement
//!   hwcost    Section 5 hardware-overhead model
//!   sweep     associativity and cache-size sweeps (Section 3.1)
//!   penalty   penalty-based cost function (Section 7 outlook)
//!   policies  policy zoo over phase-shifting workloads
//!   all       everything above in sequence
//! ```

use csr_bench::{
    fig3, hwcost, penalty, policies, sweep, table1, table2, table3, table4, table5, ExperimentOpts,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut sub = None;
    let mut opts = ExperimentOpts::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--paper-scale" => opts.paper_scale = true,
            "--extended" => opts.extended = true,
            "--threads" => {
                let n = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--threads needs a number"));
                opts.threads = n;
            }
            "--json" => {
                let dir = it.next().unwrap_or_else(|| die("--json needs a directory"));
                opts.json_dir = Some(dir.into());
            }
            s if sub.is_none() && !s.starts_with('-') => sub = Some(s.to_owned()),
            other => die(&format!("unknown argument: {other}")),
        }
    }
    let sub = sub.unwrap_or_else(|| die("missing subcommand"));
    match sub.as_str() {
        "table1" => table1::run(&opts),
        "fig3" => fig3::run(&opts),
        "table2" => table2::run(&opts),
        "table3" => table3::run(&opts),
        "table4" => table4::run(&opts),
        "table5" => table5::run(&opts),
        "hwcost" => hwcost::run(&opts),
        "sweep" => sweep::run(&opts),
        "penalty" => penalty::run_experiment(&opts),
        "policies" => policies::run_experiment(&opts),
        "all" => {
            table1::run(&opts);
            fig3::run(&opts);
            table2::run(&opts);
            table3::run(&opts);
            table4::run(&opts);
            table5::run(&opts);
            hwcost::run(&opts);
            sweep::run(&opts);
            penalty::run_experiment(&opts);
            policies::run_experiment(&opts);
        }
        other => die(&format!("unknown subcommand: {other}")),
    }
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("usage: experiments <table1|fig3|table2|table3|table4|table5|hwcost|sweep|penalty|policies|all> [--paper-scale] [--extended (table1/table5)] [--threads N] [--json DIR (fig3/table2)]");
    std::process::exit(2);
}
