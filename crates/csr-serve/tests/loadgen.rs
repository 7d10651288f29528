//! The `loadgen` binary end to end, against an in-process server with a
//! simulated origin: a closed-loop run, open-loop stages with and without
//! a warm-up, a chaos run, and the flags it refuses. Reports are read the way CI's smoke steps
//! read them: the first member of a name in `BENCH_serve.json`.

use csr_obs::Json;
use csr_serve::server::{serve, ServerConfig, ServerHandle};
use csr_serve::SimBacking;
use std::path::PathBuf;
use std::process::{Command, Output};
use std::sync::Arc;
use std::time::Duration;

fn server() -> ServerHandle {
    let origin = Arc::new(SimBacking {
        fast: Duration::ZERO,
        slow: Duration::from_micros(200),
        ..SimBacking::default()
    });
    serve(ServerConfig::default(), origin).expect("server starts")
}

fn loadgen(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_loadgen"))
        .args(args)
        .output()
        .expect("spawn loadgen")
}

/// Runs loadgen against `handle` with `--json`, requires exit 0 and
/// returns the parsed report.
fn run(name: &str, handle: &ServerHandle, args: &[&str]) -> Json {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("loadgen-test-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let addr = handle.addr().to_string();
    let json_dir = dir.to_str().expect("utf-8 temp dir");
    let mut all = vec!["--addr", addr.as_str(), "--json", json_dir];
    all.extend_from_slice(args);
    let out = loadgen(&all);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{args:?}: {stderr}");
    let text = std::fs::read_to_string(dir.join("BENCH_serve.json")).expect("report written");
    let _ = std::fs::remove_dir_all(&dir);
    Json::parse(&text).expect("report parses")
}

/// The first member named `name` in render order (sorted keys, depth
/// first): what `grep -o '"name":[0-9]*' | head -1` finds.
fn first(json: &Json, name: &str) -> Option<u64> {
    match json {
        Json::Obj(members) => members.iter().find_map(|(key, value)| {
            if key == name {
                value.as_i64().and_then(|v| u64::try_from(v).ok())
            } else {
                first(value, name)
            }
        }),
        Json::Arr(items) => items.iter().find_map(|item| first(item, name)),
        _ => None,
    }
}

/// The value of the server's metric series `series`.
fn metric(handle: &ServerHandle, series: &str) -> u64 {
    let text = csr_obs::export::prometheus(&handle.registry().snapshot());
    text.lines()
        .find_map(|l| l.strip_prefix(series)?.trim().parse().ok())
        .unwrap_or_else(|| panic!("no {series} in:\n{text}"))
}

fn field(report: &Json, name: &str) -> u64 {
    first(report, name).unwrap_or_else(|| panic!("no {name} in {}", report.render()))
}

#[test]
fn closed_loop_runs_clean() {
    let handle = server();
    let report = run("closed", &handle, &["--conns", "2", "--secs", "1"]);
    assert!(field(&report, "ops") > 0, "{}", report.render());
    assert_eq!(field(&report, "wrong_values"), 0);
    assert_eq!(field(&report, "errors"), 0);
}

#[test]
fn open_loop_stage_opens_every_connection() {
    let handle = server();
    let report = run(
        "open",
        &handle,
        &["--curve", "64", "--rate", "500", "--secs", "1"],
    );
    assert!(field(&report, "ops") > 0, "{}", report.render());
    assert_eq!(field(&report, "errors"), 0, "{}", report.render());
    assert_eq!(field(&report, "shed"), 0, "{}", report.render());
    let accepted = metric(&handle, "csr_serve_connections_total{event=\"accepted\"}");
    assert!(accepted >= 64, "accepted {accepted} connections");
}

/// An open-loop stage sends its warm-up's requests but reports only the
/// measured seconds.
#[test]
fn open_loop_warmup_runs_but_is_not_counted() {
    let handle = server();
    let report = run(
        "warmup",
        &handle,
        &[
            "--curve", "4", "--rate", "200", "--secs", "1", "--warmup", "1",
        ],
    );
    let ops = field(&report, "ops");
    let served = metric(&handle, "csr_serve_requests_total{verb=\"get\"}")
        + metric(&handle, "csr_serve_requests_total{verb=\"set\"}");
    assert!((150..=250).contains(&ops), "{}", report.render());
    assert!(served >= ops + 150, "served {served}, reported {ops}");
}

#[test]
fn chaos_run_heals_without_a_wrong_value() {
    let handle = server();
    let report = run(
        "chaos",
        &handle,
        &[
            "--conns",
            "4",
            "--secs",
            "1",
            "--chaos-seed",
            "11",
            "--chaos-reset-rate",
            "0.3",
            "--chaos-corrupt-rate",
            "0.3",
        ],
    );
    assert_eq!(field(&report, "wrong_values"), 0, "{}", report.render());
    assert!(field(&report, "reconnects") > 0, "{}", report.render());
}

/// Flags that were removed, and flag combinations the open loop cannot
/// honour, are usage errors: exit 2 and a line naming the flag.
#[test]
fn refused_flags_exit_2_naming_the_flag() {
    let removed = [
        ("--scan-frac", "0.1"),
        ("--scan-len", "64"),
        ("--curve-threads", "4"),
        ("--zipf", "0.5"),
        ("--value-len", "16"),
        ("--connect-timeout-ms", "100"),
        ("--op-timeout-ms", "100"),
        ("--chaos-stall-rate", "0.1"),
        ("--chaos-stall-ms", "5"),
        ("--chaos-throttle-bps", "1000"),
        ("--chaos-partial-write-rate", "0.1"),
    ];
    let unknown: Vec<(Vec<&str>, String)> = removed
        .iter()
        .map(|&(flag, value)| (vec![flag, value], format!("error: unknown flag '{flag}'")))
        .collect();
    let open_loop = [
        (
            vec!["--rate", "100", "--chaos-seed", "1"],
            "error: --rate/--curve are incompatible with --chaos".to_owned(),
        ),
        (
            vec!["--curve", "4", "--max-attempts", "3"],
            "error: --rate/--curve are incompatible with --max-attempts".to_owned(),
        ),
    ];
    for (args, want) in unknown.iter().chain(&open_loop) {
        // A closed port and no run time: a flag that got through ends
        // at once instead of driving load.
        let mut all = vec!["--addr", "127.0.0.1:1", "--secs", "0"];
        all.extend_from_slice(args);
        let out = loadgen(&all);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.lines().any(|l| l == want), "{args:?}: {stderr}");
    }
}
