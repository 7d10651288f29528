#!/usr/bin/env bash
# Non-test source lines per crate: for every .rs file under <crate>/src, the
# lines above its first `#[cfg(test)]`, counted raw and code-only (non-blank
# and not a `//` comment line). The one measure simplicity PRs quote.
#
#   scripts/loc.sh [--files] [ROOT]   # ROOT defaults to the repository root
#
# --files prints the same pair per source file instead of per crate.
#
# A second block lists the frozen references under crates/*/tests/reference,
# whole files, per file with a subtotal. They are test-only copies of
# replaced code that differential tests run in lockstep with the shipped
# code: never edit them, and they are not part of the total.
set -euo pipefail
per_file=0
label="crate src"
if [ "${1:-}" = "--files" ]; then
    per_file=1
    label=file
    shift
fi
root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"

# One "raw code path" row per file named (NUL-separated) on stdin. With
# cut=1 a file is counted only above its first `#[cfg(test)]`.
rows_of() {
    xargs -0 awk -v cut="$1" '
        function flush() { if (file != "") print raw + 0, code + 0, file }
        FNR == 1 { flush(); file = FILENAME; raw = code = in_tests = 0 }
        cut && /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
        in_tests { next }
        { raw++ }
        !/^[[:space:]]*($|\/\/)/ { code++ }
        END { flush() }'
}

sum_of() {
    awk '{ r += $1; c += $2 } END { print r + 0, c + 0 }' <<<"$1"
}

print_rows() {
    while read -r r c f; do
        printf '%-44s %8d %8d\n' "${f#"$root"/}" "$r" "$c"
    done <<<"$1"
}

printf '%-44s %8s %8s\n' "$label" raw code
total_raw=0
total_code=0
for src in "$root"/crates/*/src "$root"/src; do
    [ -d "$src" ] || continue
    rows=$(find "$src" -name '*.rs' -print0 | sort -z | rows_of 1)
    read -r raw code < <(sum_of "$rows")
    if [ "$per_file" = 1 ]; then
        print_rows "$rows"
    else
        printf '%-44s %8d %8d\n' "${src#"$root"/}" "$raw" "$code"
    fi
    total_raw=$((total_raw + raw))
    total_code=$((total_code + code))
done
printf '%-44s %8d %8d\n' total "$total_raw" "$total_code"

refs=()
for dir in "$root"/crates/*/tests/reference; do
    [ -d "$dir" ] && refs+=("$dir")
done
if [ "${#refs[@]}" -gt 0 ]; then
    rows=$(find "${refs[@]}" -name '*.rs' -print0 | sort -z | rows_of 0)
    read -r raw code < <(sum_of "$rows")
    printf '\n%-44s %8s %8s\n' "test-only reference, never edit" raw code
    print_rows "$rows"
    printf '%-44s %8d %8d\n' "reference subtotal (not in total)" "$raw" "$code"
fi
