//! Machine-readable experiment output.
//!
//! When the `experiments` binary runs with `--json <dir>`, each subcommand
//! mirrors its printed table as a `BENCH_<name>.json` file in that
//! directory, rendered (and re-parsed as a self-check) through the
//! `csr-obs` JSON exporter. Downstream tooling can regenerate any figure
//! from these files without scraping the human-oriented tables, and every
//! reported number carries its provenance (benchmark, policy, cost ratio,
//! workload scale).

use crate::ExperimentOpts;
use csr_harness::{CostRatio, SavingsPoint, Table2Cell};
use csr_obs::Json;
use std::path::PathBuf;

/// Converts a cost ratio to JSON: the finite ratio as an integer, the
/// paper's infinite ratio as the string `"inf"`.
#[must_use]
pub fn ratio_json(ratio: CostRatio) -> Json {
    match ratio {
        CostRatio::Finite(r) => Json::uint(r),
        CostRatio::Infinite => Json::str("inf"),
    }
}

/// The Figure 3 grid as an array of per-point records.
#[must_use]
pub fn savings_points_json(points: &[SavingsPoint]) -> Json {
    Json::Arr(
        points
            .iter()
            .map(|p| {
                Json::obj([
                    ("benchmark", Json::str(p.benchmark.as_str())),
                    ("policy", Json::str(p.policy.name())),
                    ("ratio", ratio_json(p.ratio)),
                    ("haf", Json::Float(p.haf)),
                    ("savings_pct", Json::Float(p.savings_pct)),
                ])
            })
            .collect(),
    )
}

/// The Table 2 cells as an array of per-cell records.
#[must_use]
pub fn table2_cells_json(cells: &[Table2Cell]) -> Json {
    Json::Arr(
        cells
            .iter()
            .map(|c| {
                Json::obj([
                    ("benchmark", Json::str(c.benchmark.as_str())),
                    ("policy", Json::str(c.policy.name())),
                    ("ratio", ratio_json(c.ratio)),
                    ("savings_pct", Json::Float(c.savings_pct)),
                ])
            })
            .collect(),
    )
}

/// Wraps a subcommand's data in the common report envelope. The `meta`
/// object stamps each report with its run configuration (tool, version,
/// trace seed, scale, thread count), so a `BENCH_*.json` found cold is
/// self-describing and reproducible.
#[must_use]
pub fn envelope(experiment: &str, opts: &ExperimentOpts, data: Json) -> Json {
    Json::obj([
        ("experiment", Json::str(experiment)),
        ("scale", Json::str(format!("{:?}", opts.scale()))),
        ("extended", Json::Bool(opts.extended)),
        (
            "meta",
            Json::obj([
                ("tool", Json::str("experiments")),
                ("version", Json::str(env!("CARGO_PKG_VERSION"))),
                ("seed", Json::uint(csr_harness::experiments::BENCH_SEED)),
                ("scale", Json::str(format!("{:?}", opts.scale()))),
                ("extended", Json::Bool(opts.extended)),
                ("threads", Json::uint(opts.threads as u64)),
            ]),
        ),
        ("data", data),
    ])
}

/// If `--json <dir>` was given, writes `value` to `<dir>/BENCH_<name>.json`
/// and returns the path. The rendered text is parsed back before writing so
/// a malformed report fails the run instead of poisoning downstream tools.
///
/// # Panics
///
/// Panics if the directory or file cannot be written, or if the rendered
/// JSON fails to re-parse — an experiment run that cannot deliver the
/// report it was asked for should fail loudly.
pub fn write_report(opts: &ExperimentOpts, name: &str, value: &Json) -> Option<PathBuf> {
    let dir = opts.json_dir.as_ref()?;
    let text = value.render();
    Json::parse(&text).expect("rendered report must re-parse");
    std::fs::create_dir_all(dir).expect("create --json directory");
    let path = dir.join(format!("BENCH_{name}.json"));
    std::fs::write(&path, text + "\n").expect("write JSON report");
    eprintln!("wrote {}", path.display());
    Some(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use csr::Policy;

    #[test]
    fn reports_round_trip_through_the_exporter() {
        let points = vec![SavingsPoint {
            benchmark: "mp3d".into(),
            policy: Policy::Dcl,
            ratio: CostRatio::Infinite,
            haf: 0.05,
            savings_pct: 12.5,
        }];
        let opts = ExperimentOpts::default();
        let report = envelope("fig3", &opts, savings_points_json(&points));
        let parsed = Json::parse(&report.render()).expect("round trip");
        assert_eq!(parsed, report);
        let row = &parsed.get("data").and_then(Json::as_arr).expect("data")[0];
        assert_eq!(row.get("policy").and_then(Json::as_str), Some("DCL"));
        assert_eq!(row.get("ratio").and_then(Json::as_str), Some("inf"));
        assert_eq!(row.get("savings_pct").and_then(Json::as_f64), Some(12.5));
    }

    #[test]
    fn write_report_is_a_no_op_without_json_dir() {
        let opts = ExperimentOpts::default();
        assert!(write_report(&opts, "fig3", &Json::Null).is_none());
    }

    #[test]
    fn write_report_emits_a_parseable_file() {
        let dir = std::env::temp_dir().join("csr-bench-report-test");
        let opts = ExperimentOpts {
            json_dir: Some(dir.clone()),
            ..ExperimentOpts::default()
        };
        let cells = vec![Table2Cell {
            benchmark: "lu".into(),
            policy: Policy::Gd,
            ratio: CostRatio::Finite(8),
            savings_pct: -1.25,
        }];
        let report = envelope("table2", &opts, table2_cells_json(&cells));
        let path = write_report(&opts, "table2", &report).expect("path");
        let text = std::fs::read_to_string(&path).expect("readable");
        let parsed = Json::parse(&text).expect("parseable");
        assert_eq!(
            parsed.get("experiment").and_then(Json::as_str),
            Some("table2")
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
