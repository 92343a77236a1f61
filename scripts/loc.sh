#!/usr/bin/env bash
# Non-test, non-blank, non-comment lines per crate — the counter behind the
# per-crate tables in CHANGES.md (ROADMAP item 2). For every src/**/*.rs it
# counts the lines up to the first `#[cfg(test)]`, minus blank lines and
# lines that start with `//` (which covers `///` and `//!` docs).
#
#   scripts/loc.sh                 every crate plus the root package
#   scripts/loc.sh crates/graph    just the named package directories
#
# The last row is the sum over the rows printed.
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
    find "$1/src" -name '*.rs' -print0 | sort -z | xargs -0 awk '
        FNR == 1 { in_tests = 0 }
        /#\[cfg\(test\)\]/ { in_tests = 1 }
        !in_tests && !/^[[:space:]]*$/ && !/^[[:space:]]*\/\// { n++ }
        END { print n + 0 }'
}

if [ "$#" -eq 0 ]; then
    set -- crates/* .
fi
total=0
for dir in "$@"; do
    dir="${dir%/}"
    [ -d "$dir/src" ] || continue
    n="$(count "$dir")"
    total=$((total + n))
    printf '%-20s %6d\n' "$dir" "$n"
done
printf '%-20s %6d\n' total "$total"
