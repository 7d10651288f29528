#!/usr/bin/env bash
# Runs the repo benchmark, or one `experiments` command, on two revisions in
# alternating pairs and compares them metric by metric.
#
#   scripts/pair.sh PARENT CHANGE --workload W --pairs N [--seconds S] [--cpus LIST] [-- RUN_FLAGS...]
#   scripts/pair.sh PARENT CHANGE --experiments "ARGS" --pairs N [--cpus LIST]
#
# PARENT and CHANGE are any git revisions. Each is checked out as a git
# worktree under a scratch directory and runs its own benchmark/run.sh,
# built into its own .bench_build/. The directory is $PAIR_DIR if set,
# kept afterwards so a later call reuses both builds; otherwise a new
# directory under ${TMPDIR:-/tmp}, removed with its worktrees at exit.
#
# Pair i runs PARENT first when i is odd and CHANGE first when it is even:
# the serve workloads read slower for whichever side of a back-to-back pair
# runs second. --seconds defaults to BENCHMARK.json's run_seconds. With
# --cpus, both sides run under `taskset -c LIST` (kv-evict has one mode
# with both load threads on one vCPU and another with them apart); the
# placement is printed either way. Whatever follows `--` is passed on to
# both sides' benchmark/run.sh unchanged (`-- --seed 7` runs another seed).
#
# For every end-to-end metric it prints each side's median and quartiles
# (q1/q3), the pairs the change won, the move of the median, and a verdict
# against the metric's bound: `ok`, or `BREACH` when the change's median is
# worse than the parent's by more than the bound (a share of the parent's
# median). Exit status: 0, 1 on a breach or a run that was not `correct`,
# 2 on bad usage. Needs jq.
#
# With --experiments, each side runs its own release build of
# `experiments ARGS` (ARGS split on blanks, e.g. "table2 --paper-scale")
# instead, and the metrics are its wall time and its peak RSS, the
# process's VmHWM read from /proc/<pid>/status every 20 ms while it runs
# (so wall times carry up to 20 ms of polling). They have no bound; the
# verdict is on the output instead: exit 1 if any run's stdout differs
# byte for byte from the first parent run's, or any run exits non-zero.
set -euo pipefail

usage() {
    echo "usage: scripts/pair.sh PARENT CHANGE --workload W --pairs N [--seconds S] [--cpus LIST] [-- RUN_FLAGS...]" >&2
    echo "       scripts/pair.sh PARENT CHANGE --experiments \"ARGS\" --pairs N [--cpus LIST]" >&2
    exit 2
}
[ $# -ge 2 ] || usage
parent_rev=$1
change_rev=$2
shift 2
workload="" experiments="" pairs="" seconds="" cpus=""
extra=()
while [ $# -gt 0 ]; do
    if [ "$1" = -- ]; then
        shift
        extra=("$@")
        break
    fi
    [ $# -ge 2 ] || usage
    case $1 in
        --workload) workload=$2 ;;
        --experiments) experiments=$2 ;;
        --pairs) pairs=$2 ;;
        --seconds) seconds=$2 ;;
        --cpus) cpus=$2 ;;
        *) usage ;;
    esac
    shift 2
done
# Exactly one of --workload and --experiments; the benchmark's flags go
# with the first only.
if [ -n "$workload" ] && [ -n "$experiments" ]; then usage; fi
if [ -z "$workload" ] && [ -z "$experiments" ]; then usage; fi
if [ -n "$experiments" ] && { [ -n "$seconds" ] || [ ${#extra[@]} -gt 0 ]; }; then usage; fi
read -r -a exp_args <<<"$experiments"
[[ $pairs =~ ^[1-9][0-9]*$ ]] || usage

repo=$(cd "$(dirname "$0")/.." && pwd)
parent=$(git -C "$repo" rev-parse --verify --quiet "$parent_rev^{commit}") || usage
change=$(git -C "$repo" rev-parse --verify --quiet "$change_rev^{commit}") || usage

if [ -n "${PAIR_DIR:-}" ]; then
    dir=$PAIR_DIR
    mkdir -p "$dir"
else
    dir=$(mktemp -d "${TMPDIR:-/tmp}/pair.XXXXXX")
    cleanup() {
        for side in parent change; do
            git -C "$repo" worktree remove --force "$dir/$side" 2>/dev/null || true
        done
        git -C "$repo" worktree prune
        rm -rf "$dir"
    }
    trap cleanup EXIT
fi

# Check out `rev` as worktree `dir/side` (reusing one a kept $PAIR_DIR
# holds), then make the two builds its benchmark/run.sh starts with, so
# that no timed pair includes a build.
prepare() {
    local side=$1 rev=$2
    if [ -e "$dir/$side/.git" ]; then
        git -C "$dir/$side" checkout --quiet --detach "$rev"
    else
        git -C "$repo" worktree add --quiet --detach "$dir/$side" "$rev"
    fi
    (
        cd "$dir/$side"
        export CARGO_TARGET_DIR=.bench_build
        if [ -n "$experiments" ]; then
            cargo build --release --offline --quiet -p csr-bench --bin experiments
        else
            cargo build --release --offline --quiet -p csr-serve --bin csr-serve
            cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
        fi
    ) >&2
}
prepare parent "$parent"
prepare change "$change"

spec="$dir/change/BENCHMARK.json"
if [ -n "$experiments" ]; then
    # The two metrics of an experiments run, in the shape of the spec's
    # end-to-end list; no bound.
    metrics='[{"name": "wall_s", "better": "lower", "bound": null},
              {"name": "peak_rss_mb", "better": "lower", "bound": null}]'
else
    metrics=$(jq .end_to_end "$spec")
    [ -n "$seconds" ] || seconds=$(jq -r .run_seconds "$spec")
fi
pin=()
if [ -n "$cpus" ]; then
    pin=(taskset -c "$cpus")
    echo "placement: pinned, taskset -c $cpus"
else
    echo "placement: free"
fi
if [ -n "$experiments" ]; then
    echo "experiments $experiments pairs=$pairs parent=${parent:0:7} change=${change:0:7}"
else
    echo "workload=$workload pairs=$pairs seconds=$seconds parent=${parent:0:7} change=${change:0:7}${extra[*]+ run.sh flags: ${extra[*]}}"
fi

status=0
: > "$dir/parent.jsonl"
: > "$dir/change.jsonl"
# One run of `side`; its result line goes to side.jsonl.
run() {
    local side=$1 i=$2 out
    out="$dir/$side.$i.out"
    (
        cd "$dir/$side"
        CARGO_TARGET_DIR=.bench_build ${pin[@]+"${pin[@]}"} \
            bash benchmark/run.sh --workload "$workload" --seconds "$seconds" ${extra[@]+"${extra[@]}"}
    ) > "$out" 2> "$dir/$side.$i.err" || true
    if ! tail -n 1 "$out" | jq -e .correct > /dev/null 2>&1; then
        echo "pair $i: $side did not report correct: true (see $out)" >&2
        status=1
    fi
    tail -n 1 "$out" | jq -c . >> "$dir/$side.jsonl" 2> /dev/null || true
}
# One `experiments` run of `side`: its stdout is held to the first parent
# run's, and its wall time and peak RSS go to side.jsonl.
run_experiments() {
    local side=$1 i=$2 out pid line start end hwm_kb=0 code=0
    out="$dir/$side.$i.out"
    start=$(date +%s%N)
    ${pin[@]+"${pin[@]}"} "$dir/$side/.bench_build/release/experiments" "${exp_args[@]}" \
        > "$out" 2> "$dir/$side.$i.err" &
    pid=$!
    # A process that has exited has no VmHWM line, even before it is reaped.
    while line=$(grep '^VmHWM:' "/proc/$pid/status" 2> /dev/null); do
        hwm_kb=${line//[!0-9]/}
        sleep 0.02
    done
    wait "$pid" || code=$?
    end=$(date +%s%N)
    if [ "$code" -ne 0 ]; then
        echo "pair $i: $side exited with status $code (see $dir/$side.$i.err)" >&2
        status=1
    fi
    if ! cmp -s "$out" "$dir/parent.1.out"; then
        echo "pair $i: $side's stdout differs from the first parent run's ($out)" >&2
        status=1
    fi
    jq -n -c --argjson wall "$(((end - start) / 1000000))" --argjson hwm "$hwm_kb" \
        '{metrics: {wall_s: {value: ($wall / 1000)}, peak_rss_mb: {value: ($hwm / 1024)}}}' \
        >> "$dir/$side.jsonl"
}
key=ops_per_s
if [ -n "$experiments" ]; then
    run() { run_experiments "$@"; }
    key=wall_s
fi
for i in $(seq 1 "$pairs"); do
    if [ $((i % 2)) -eq 1 ]; then
        run parent "$i"
        run change "$i"
        order="parent first"
    else
        run change "$i"
        run parent "$i"
        order="change first"
    fi
    echo "pair $i ($order): $key $(tail -n 1 "$dir/parent.jsonl" | jq ".metrics.$key.value") -> $(tail -n 1 "$dir/change.jsonl" | jq ".metrics.$key.value")"
done

jq -n -r \
    --slurpfile p "$dir/parent.jsonl" \
    --slurpfile c "$dir/change.jsonl" \
    --argjson metrics "$metrics" '
    # Linear interpolation between the two nearest ranks.
    def q($f): sort as $s | ($s | length) as $n | (($n - 1) * $f) as $h
        | ($h | floor) as $l
        | if $l + 1 < $n then $s[$l] + ($h - $l) * ($s[$l + 1] - $s[$l]) else $s[$l] end;
    # Four significant digits, or a whole number from 1000 up.
    def fmt: if . == null then "-" elif . == 0 or fabs >= 1000 then round | tostring
        else (3 - (fabs | log10 | floor)) as $d
            | (. * pow(10; $d) | round) / pow(10; $d) | tostring end;
    ["metric", "parent q1/med/q3", "change q1/med/q3", "won", "move", "bound", "verdict"],
    ($metrics[] as $m
        | [$p[].metrics[$m.name].value] as $a
        | [$c[].metrics[$m.name].value] as $b
        | ($a | q(0.5)) as $am | ($b | q(0.5)) as $bm
        | (if $m.better == "higher" then 1 else -1 end) as $sign
        | ([range(0; [$a, $b | length] | min)
            | select(($b[.] - $a[.]) * $sign > 0)] | length) as $won
        | (if $am == 0 then 0 else ($bm - $am) / $am end) as $move
        | [$m.name,
           "\($a | q(0.25) | fmt)/\($am | fmt)/\($a | q(0.75) | fmt)",
           "\($b | q(0.25) | fmt)/\($bm | fmt)/\($b | q(0.75) | fmt)",
           "\($won)/\([$a, $b | length] | min)",
           "\(($move * 1000 | round) / 10)%",
           (if $m.bound == null then "-" else "\($m.better) \($m.bound * 100)%" end),
           (if $m.bound == null then "-" elif -$move * $sign > $m.bound then "BREACH" else "ok" end)])
    | @tsv' | awk -F'\t' '
    { for (i = 1; i <= NF; i++) { cell[NR, i] = $i; if (length($i) > w[i]) w[i] = length($i) } }
    END { for (r = 1; r <= NR; r++) { line = ""
            for (i = 1; i in w; i++) line = line sprintf("%-" w[i] "s  ", cell[r, i])
            sub(/ +$/, "", line); print line } }' | tee "$dir/summary.txt"
if grep -q BREACH "$dir/summary.txt"; then
    status=1
fi
exit "$status"
