#!/usr/bin/env bash
# Runs the repo benchmark on two revisions in alternating pairs and compares
# them metric by metric against the bounds in BENCHMARK.json.
#
#   scripts/pair.sh PARENT CHANGE --workload W --pairs N [--seconds S] [--cpus LIST] [-- RUN_FLAGS...]
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
set -euo pipefail

usage() {
    echo "usage: scripts/pair.sh PARENT CHANGE --workload W --pairs N [--seconds S] [--cpus LIST] [-- RUN_FLAGS...]" >&2
    exit 2
}
[ $# -ge 2 ] || usage
parent_rev=$1
change_rev=$2
shift 2
workload="" pairs="" seconds="" cpus=""
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
        --pairs) pairs=$2 ;;
        --seconds) seconds=$2 ;;
        --cpus) cpus=$2 ;;
        *) usage ;;
    esac
    shift 2
done
[ -n "$workload" ] || usage
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
        cargo build --release --offline --quiet -p csr-serve --bin csr-serve
        cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
    ) >&2
}
prepare parent "$parent"
prepare change "$change"

spec="$dir/change/BENCHMARK.json"
[ -n "$seconds" ] || seconds=$(jq -r .run_seconds "$spec")
pin=()
if [ -n "$cpus" ]; then
    pin=(taskset -c "$cpus")
    echo "placement: pinned, taskset -c $cpus"
else
    echo "placement: free"
fi
echo "workload=$workload pairs=$pairs seconds=$seconds parent=${parent:0:7} change=${change:0:7}${extra[*]+ run.sh flags: ${extra[*]}}"

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
    echo "pair $i ($order): ops_per_s $(tail -n 1 "$dir/parent.jsonl" | jq '.metrics.ops_per_s.value') -> $(tail -n 1 "$dir/change.jsonl" | jq '.metrics.ops_per_s.value')"
done

jq -n -r \
    --slurpfile p "$dir/parent.jsonl" \
    --slurpfile c "$dir/change.jsonl" \
    --slurpfile spec "$spec" '
    # Linear interpolation between the two nearest ranks.
    def q($f): sort as $s | ($s | length) as $n | (($n - 1) * $f) as $h
        | ($h | floor) as $l
        | if $l + 1 < $n then $s[$l] + ($h - $l) * ($s[$l + 1] - $s[$l]) else $s[$l] end;
    # Four significant digits, or a whole number from 1000 up.
    def fmt: if . == null then "-" elif . == 0 or fabs >= 1000 then round | tostring
        else (3 - (fabs | log10 | floor)) as $d
            | (. * pow(10; $d) | round) / pow(10; $d) | tostring end;
    ["metric", "parent q1/med/q3", "change q1/med/q3", "won", "move", "bound", "verdict"],
    ($spec[0].end_to_end[] as $m
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
           "\($m.better) \($m.bound * 100)%",
           (if -$move * $sign > $m.bound then "BREACH" else "ok" end)])
    | @tsv' | awk -F'\t' '
    { for (i = 1; i <= NF; i++) { cell[NR, i] = $i; if (length($i) > w[i]) w[i] = length($i) } }
    END { for (r = 1; r <= NR; r++) { line = ""
            for (i = 1; i in w; i++) line = line sprintf("%-" w[i] "s  ", cell[r, i])
            sub(/ +$/, "", line); print line } }' | tee "$dir/summary.txt"
if grep -q BREACH "$dir/summary.txt"; then
    status=1
fi
exit "$status"
