#!/usr/bin/env bash
# Non-test source lines per crate: for every .rs file under <crate>/src, the
# lines above its first `#[cfg(test)]`, counted raw and code-only (non-blank
# and not a `//` comment line). The one measure simplicity PRs quote.
#
#   scripts/loc.sh [--files] [ROOT]   # ROOT defaults to the repository root
#
# --files prints the same pair per source file instead of per crate.
set -euo pipefail
per_file=0
label="crate src"
if [ "${1:-}" = "--files" ]; then
    per_file=1
    label=file
    shift
fi
root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"

printf '%-40s %8s %8s\n' "$label" raw code
total_raw=0
total_code=0
for src in "$root"/crates/*/src "$root"/src; do
    [ -d "$src" ] || continue
    # One "raw code path" row per file.
    rows=$(find "$src" -name '*.rs' -print0 | sort -z | xargs -0 awk '
        function flush() { if (file != "") print raw + 0, code + 0, file }
        FNR == 1 { flush(); file = FILENAME; raw = code = in_tests = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
        in_tests { next }
        { raw++ }
        !/^[[:space:]]*($|\/\/)/ { code++ }
        END { flush() }')
    read -r raw code < <(awk '{ r += $1; c += $2 } END { print r + 0, c + 0 }' <<<"$rows")
    if [ "$per_file" = 1 ]; then
        while read -r r c f; do
            printf '%-40s %8d %8d\n' "${f#"$root"/}" "$r" "$c"
        done <<<"$rows"
    else
        printf '%-40s %8d %8d\n' "${src#"$root"/}" "$raw" "$code"
    fi
    total_raw=$((total_raw + raw))
    total_code=$((total_code + code))
done
printf '%-40s %8d %8d\n' total "$total_raw" "$total_code"
