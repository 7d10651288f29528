#!/usr/bin/env bash
# Builds the csr-serve daemon and the benchmark in release mode, then runs
# the benchmark from the repository root. See benchmark/README.md.
#
#   benchmark/run.sh                          all seven workloads, seed 42
#   benchmark/run.sh --workload kv-evict --seed 7 --seconds 10 --trace 1
#   benchmark/run.sh --check-repeat           everything twice, compared
#   benchmark/run.sh --write-golden           rewrite benchmark/golden/ from the product
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f crates/csr-serve/Cargo.toml ]; then
  echo "benchmark/run.sh: $(pwd) is not a checkout of the repository (no crates/csr-serve)" >&2
  exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p csr-serve --bin csr-serve >&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
echo "# csr-benchmark commit=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)" \
     "nproc=$(nproc) kernel=$(uname -r) rustc=$(rustc -V | cut -d' ' -f2)"
exec "$CARGO_TARGET_DIR/release/csr-benchmark" --daemon "$CARGO_TARGET_DIR/release/csr-serve" "$@"
