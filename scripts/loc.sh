#!/usr/bin/env bash
# Non-test source lines per crate: for every .rs file under <crate>/src, the
# lines above its first `#[cfg(test)]`, counted raw and code-only (non-blank
# and not a `//` comment line). The one measure simplicity PRs quote.
#
#   scripts/loc.sh [ROOT]     # ROOT defaults to the repository root
set -euo pipefail
root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"

printf '%-24s %8s %8s\n' "crate src" raw code
total_raw=0
total_code=0
for src in "$root"/crates/*/src "$root"/src; do
    [ -d "$src" ] || continue
    read -r raw code < <(
        find "$src" -name '*.rs' -print0 | sort -z | xargs -0 awk '
            FNR == 1 { in_tests = 0 }
            /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
            in_tests { next }
            { raw++ }
            !/^[[:space:]]*($|\/\/)/ { code++ }
            END { print raw + 0, code + 0 }'
    )
    printf '%-24s %8d %8d\n' "${src#"$root"/}" "$raw" "$code"
    total_raw=$((total_raw + raw))
    total_code=$((total_code + code))
done
printf '%-24s %8d %8d\n' total "$total_raw" "$total_code"
