//! Checks of the benchmark's own contract: the tables in `src/spec.rs`, the
//! `BENCHMARK.json` rendered from them, and the JSON the command prints.
//! `csr_obs::Json` is used here only to parse that output.

use csr_benchmark::measure::{median, percentile};
use csr_benchmark::spec::{self, END_TO_END, PER_LAYER, WORKLOADS};
use csr_obs::Json;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn is_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn tables_stay_inside_the_contract_limits() {
    assert!((2..=8).contains(&WORKLOADS.len()));
    assert!((1..=16).contains(&END_TO_END.len()));
    assert!((1..=128).contains(&PER_LAYER.len()));
    let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    names.extend(END_TO_END.iter().map(|m| m.name));
    names.extend(PER_LAYER.iter().map(|m| m.name));
    for name in &names {
        assert!(is_name(name), "bad name '{name}'");
    }
    let mut unique = names.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), names.len(), "a name is used twice");
    for w in &WORKLOADS {
        assert!(
            !w.why.is_empty() && w.why.len() <= 200 && !w.why.contains('\n'),
            "why of {}",
            w.name
        );
    }
    for m in &END_TO_END {
        assert!(is_unit(m.unit), "unit of {}", m.name);
        assert!(m.bound > 0.0 && m.bound <= 0.25, "bound of {}", m.name);
    }
    for m in &PER_LAYER {
        assert!(is_unit(m.unit), "unit of {}", m.name);
    }
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s is required");
    assert_eq!((setup.unit, setup.better), ("s", spec::Better::Lower));
    let largest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
    assert_eq!(setup.bound, largest, "setup_s has the largest bound");
}

#[test]
fn benchmark_json_is_the_rendered_tables() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let on_disk = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    assert_eq!(
        on_disk,
        spec::benchmark_json(),
        "regenerate with `benchmark/run.sh --print-contract > BENCHMARK.json`"
    );
    assert!(on_disk.len() <= 64 * 1024);
    let json = Json::parse(&on_disk).expect("BENCHMARK.json parses");
    for key in [
        "command",
        "paths",
        "run_seconds",
        "workloads",
        "end_to_end",
        "per_layer",
    ] {
        assert!(json.get(key).is_some(), "missing key {key}");
    }
}

#[test]
fn percentiles_are_nearest_rank() {
    let v: Vec<u32> = (1..=10).collect();
    assert_eq!(percentile(&v, 0.5), 5);
    assert_eq!(percentile(&v, 0.9), 9);
    assert_eq!(percentile(&v, 1.0), 10);
    assert_eq!(percentile(&[7u32], 0.9), 7);
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
}

fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch directory");
    dir
}

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_csr-benchmark"))
        .args(args)
        .output()
        .expect("run the benchmark binary")
}

/// The last line of standard output, parsed.
fn result_line(out: &Output) -> Json {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout
        .lines()
        .last()
        .expect("the command printed something");
    Json::parse(last).unwrap_or_else(|e| panic!("last line is not JSON ({e:?}): {last}"))
}

#[test]
fn the_last_line_has_exactly_the_contract_keys() {
    let out_dir = scratch("emitted");
    let out = run(&[
        "--workload",
        "kv-hit",
        "--seed",
        "7",
        "--seconds",
        "1",
        "--trace",
        "0",
        "--out",
        out_dir.to_str().expect("utf-8 path"),
    ]);
    assert!(
        out.status.success(),
        "kv-hit failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = result_line(&out);
    let Json::Obj(top) = &json else {
        panic!("not an object")
    };
    // The parser keeps keys sorted.
    let keys: Vec<&str> = top.keys().map(String::as_str).collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(json.get("correct"), Some(&Json::Bool(true)));
    assert!(
        json.get("attempted")
            .and_then(Json::as_i64)
            .expect("attempted")
            >= 1
    );
    assert_eq!(json.get("failed").and_then(Json::as_i64), Some(0));
    let Some(Json::Obj(metrics)) = json.get("metrics") else {
        panic!("metrics is not an object")
    };
    let printed: Vec<&str> = metrics.keys().map(String::as_str).collect();
    let mut wanted: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
    wanted.sort_unstable();
    assert_eq!(printed, wanted, "every end-to-end metric, and nothing else");
    for m in &END_TO_END {
        let value = &metrics[m.name];
        assert_eq!(
            value.get("unit").and_then(Json::as_str),
            Some(m.unit),
            "unit of {}",
            m.name
        );
        let v = value.get("value").and_then(Json::as_f64).expect("a number");
        assert!(v.is_finite() && v > 0.0, "{} = {v}", m.name);
    }
}

#[test]
fn a_corrupted_expected_value_fails_the_command() {
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("golden/table2.tsv");
    let text = std::fs::read_to_string(&golden).expect("golden file");
    // Change the first cell's expected savings by one part in a thousand.
    let line = text
        .lines()
        .find(|l| !l.starts_with('#'))
        .expect("a data line");
    let (label, value) = line.split_once('\t').expect("label, tab, value");
    let wrong: f64 = value.parse::<f64>().expect("a number") * 1.001;
    let dir = scratch("corrupted-golden");
    std::fs::write(
        dir.join("table2.tsv"),
        text.replacen(line, &format!("{label}\t{wrong:?}"), 1),
    )
    .expect("write the corrupted copy");

    let out_dir = scratch("corrupted-out");
    let args = |golden_dir: &Path| {
        let out = run(&[
            "--workload",
            "sim-table2",
            "--seconds",
            "0.1",
            "--golden",
            golden_dir.to_str().expect("utf-8 path"),
            "--out",
            out_dir.to_str().expect("utf-8 path"),
        ]);
        (out.status.success(), result_line(&out))
    };
    let (ok, json) = args(&dir);
    assert!(!ok, "a wrong expected value must fail the command");
    assert_eq!(json.get("correct"), Some(&Json::Bool(false)));
    assert!(json.get("failed").and_then(Json::as_i64).expect("failed") >= 1);

    let (ok, json) = args(golden.parent().expect("golden directory"));
    assert!(ok, "the committed golden file passes");
    assert_eq!(json.get("failed").and_then(Json::as_i64), Some(0));
}
