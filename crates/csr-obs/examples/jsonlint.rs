//! Validates that files contain well-formed JSON, using the crate's own
//! parser. CI runs this over every `BENCH_*.json` and metrics snapshot the
//! examples and benches emit:
//!
//! ```text
//! cargo run -p csr-obs --example jsonlint -- BENCH_table1.json metrics.json
//! ```
//!
//! Exits non-zero (with the parse error and byte offset) if any file fails.

use csr_obs::Json;
use std::process::ExitCode;

fn main() -> ExitCode {
    let paths: Vec<String> = std::env::args().skip(1).collect();
    if paths.is_empty() {
        eprintln!("usage: jsonlint <file.json>...");
        return ExitCode::FAILURE;
    }
    let mut failed = false;
    for path in &paths {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("{path}: cannot read: {e}");
                failed = true;
                continue;
            }
        };
        match Json::parse(&text) {
            Ok(_) => println!("{path}: ok"),
            Err(e) => {
                eprintln!("{path}: invalid JSON: {e}");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
