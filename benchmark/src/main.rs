//! The repo benchmark. `benchmark/run.sh` builds and runs it; see
//! `benchmark/README.md` for the workloads, the metrics and their limits.

use csr_benchmark::spec::{self, Better, END_TO_END, PER_LAYER, WORKLOADS};
use csr_benchmark::workloads::{self, Opts, Outcome};
use csr_benchmark::{layers, measure, trace};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

#[global_allocator]
static ALLOC: measure::CountingAlloc = measure::CountingAlloc;

/// Spans of each lane that reach the trace file.
const SPANS_WRITTEN_PER_LANE: usize = 1 << 16;

const USAGE: &str = "usage: benchmark/run.sh [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]
                        [--check-repeat] [--write-golden] [--print-contract] [--golden DIR] [--out DIR]
  no --workload runs all seven; --check-repeat runs all twice and compares";

struct Cli {
    opts: Opts,
    workload: Option<String>,
    check_repeat: bool,
    write_golden: bool,
}

fn parse_cli() -> Result<Cli, String> {
    let mut cli = Cli {
        opts: Opts {
            seed: 42,
            seconds: f64::from(spec::RUN_SECONDS),
            trace: false,
            daemon: PathBuf::from(".bench_build/release/csr-serve"),
            out_dir: PathBuf::from("benchmark/out"),
            golden_dir: PathBuf::from("benchmark/golden"),
        },
        workload: None,
        check_repeat: false,
        write_golden: false,
    };
    let mut args = std::env::args().skip(1).peekable();
    while let Some(flag) = args.next() {
        let mut value = |what: &str| args.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => cli.workload = Some(value("a name")?),
            "--seed" => {
                cli.opts.seed = value("a number")?
                    .parse()
                    .map_err(|_| "--seed: not a number")?
            }
            "--seconds" => {
                cli.opts.seconds = value("a number")?
                    .parse()
                    .map_err(|_| "--seconds: not a number")?;
                if cli.opts.seconds.is_nan() || cli.opts.seconds <= 0.0 {
                    return Err("--seconds must be positive".to_owned());
                }
            }
            // `--trace` alone turns tracing on; the driver writes `--trace 0|1`.
            "--trace" => {
                cli.opts.trace = match args.peek().map(String::as_str) {
                    Some("0") => false,
                    Some("1") => true,
                    _ => {
                        cli.opts.trace = true;
                        continue;
                    }
                };
                args.next();
            }
            "--check-repeat" => cli.check_repeat = true,
            "--write-golden" => cli.write_golden = true,
            "--print-contract" => {
                print!("{}", spec::benchmark_json());
                std::process::exit(0);
            }
            "--daemon" => cli.opts.daemon = value("a path")?.into(),
            "--golden" => cli.opts.golden_dir = value("a directory")?.into(),
            "--out" => cli.opts.out_dir = value("a directory")?.into(),
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if let Some(name) = &cli.workload {
        if !WORKLOADS.iter().any(|w| w.name == name) {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!(
                "unknown workload '{name}'; one of {}",
                names.join(", ")
            ));
        }
    }
    Ok(cli)
}

/// The result of one run, ready to print.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, &'static str, f64)>,
}

impl Report {
    /// The contract's last line: exactly `correct`, `attempted`, `failed`
    /// and `metrics`, every value with all its digits.
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, unit, value)| {
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    fn value(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.2)
    }
}

/// Runs one workload (and, traced, the layer walk) and prints its table.
fn run_one(name: &str, opts: &Opts) -> Report {
    let t0 = Instant::now();
    println!(
        "== {name}  seed={} seconds={} trace={} load_threads={} nproc={}",
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        measure::load_threads(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    measure::reset_own_peak_rss();
    let mut out: Outcome = workloads::run(name, opts).expect("the name was checked");
    let mut problems = std::mem::take(&mut out.invalid);

    let mut found: Vec<(&'static str, f64)> = Vec::new();
    if opts.trace {
        let mut walk_spans = trace::SpanBuf::new(100, 1 << 14);
        let walk = layers::walk(opts, &mut walk_spans);
        out.attempted += walk.attempted;
        out.failed += walk.failed;
        out.notes.extend(walk.notes);
        found.extend(out.per_layer.iter().copied());
        found.extend(walk.metrics);
        let path = opts.out_dir.join(format!("trace-{name}.jsonl"));
        let mut bufs: Vec<&trace::SpanBuf> = out.spans.iter().collect();
        bufs.push(&walk_spans);
        let recorded: usize = bufs.iter().map(|b| b.len()).sum();
        let dropped: u64 = bufs.iter().map(|b| b.dropped).sum();
        match trace::write_jsonl(&path, &bufs, SPANS_WRITTEN_PER_LANE) {
            Ok(written) => out.notes.push(format!(
                "spans: {recorded} recorded, {dropped} did not fit, first {written} written to {}",
                path.display()
            )),
            Err(e) => problems.push(format!("cannot write {}: {e}", path.display())),
        }
    } else {
        found.extend(out.end_to_end.iter().copied());
    }

    // Exactly the metrics the contract lists, in its order.
    let wanted: Vec<(&'static str, &'static str)> = if opts.trace {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    let mut metrics = Vec::new();
    for (metric, unit) in wanted {
        match found.iter().find(|f| f.0 == metric) {
            Some(&(_, value)) if value.is_finite() => metrics.push((metric, unit, value)),
            Some(&(_, value)) => problems.push(format!("{metric} is {value}")),
            None => problems.push(format!("{metric} was not measured")),
        }
    }
    for (metric, unit, value) in &metrics {
        println!("  {metric:<44} {value:>16.4} {unit}");
    }
    if !opts.trace {
        println!(
            "  (each the best timed window, kv-hit the median one; p50/p90 over at least {} latency samples a window)",
            out.samples
        );
    }
    for note in &out.notes {
        println!("  note: {note}");
    }
    for problem in &problems {
        println!("  INVALID: {problem}");
    }
    let correct = out.failed == 0 && problems.is_empty() && out.attempted > 0;
    println!(
        "  attempted={} failed={} error_rate={:e} correct={correct} wall={:.1}s",
        out.attempted,
        out.failed,
        out.failed as f64 / out.attempted.max(1) as f64,
        t0.elapsed().as_secs_f64()
    );
    Report {
        correct,
        attempted: out.attempted.max(1),
        failed: out.failed,
        metrics,
    }
}

/// Runs every workload twice and holds each end-to-end metric of the second
/// run against the first: worse by more than its bound fails.
fn check_repeat(opts: &Opts) -> bool {
    let mut ok = true;
    let mut rows = Vec::new();
    for w in &WORKLOADS {
        let first = run_one(w.name, opts);
        let second = run_one(w.name, opts);
        ok &= first.correct && second.correct;
        for m in &END_TO_END {
            let (Some(a), Some(b)) = (first.value(m.name), second.value(m.name)) else {
                ok = false;
                continue;
            };
            let worse = match m.better {
                Better::Lower => (b - a) / a,
                Better::Higher => (a - b) / a,
            };
            let verdict = if worse > m.bound { "FAIL" } else { "ok" };
            ok &= worse <= m.bound;
            rows.push(format!(
                "  {:<11} {:<14} {a:>14.4} {b:>14.4} {:>+8.2}% (bound {:.0}%) {verdict}",
                w.name,
                m.name,
                100.0 * worse,
                100.0 * m.bound
            ));
        }
    }
    println!("== check-repeat: second run against first, positive is worse");
    for row in rows {
        println!("{row}");
    }
    ok
}

fn main() -> ExitCode {
    let cli = match parse_cli() {
        Ok(cli) => cli,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    if cli.write_golden {
        return match workloads::write_golden(&cli.opts) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: cannot write the golden files: {e}");
                ExitCode::from(1)
            }
        };
    }
    let ok = if cli.check_repeat {
        check_repeat(&cli.opts)
    } else {
        let names: Vec<&str> = match &cli.workload {
            Some(name) => vec![name.as_str()],
            None => WORKLOADS.iter().map(|w| w.name).collect(),
        };
        let mut ok = true;
        for name in names {
            let report = run_one(name, &cli.opts);
            ok &= report.correct;
            println!("{}", report.json());
        }
        ok
    };
    // The daemons' scratch directory, if this run made one and emptied it.
    let _ = std::fs::remove_dir(cli.opts.out_dir.join("tmp"));
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
