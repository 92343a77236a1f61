#!/usr/bin/env bash
# Non-test, non-blank, non-comment lines per crate — the counter behind the
# per-crate tables in CHANGES.md (ROADMAP item 2). For every src/**/*.rs it
# counts the lines before the test module — a line that is just
# `#[cfg(test)]` with a `mod` on the next line — minus blank lines and lines
# that start with `//` (which covers `///` and `//!` docs). A `#[cfg(test)]`
# on anything else (a helper method) is counted like any other line.
#
#   scripts/loc.sh                 every crate plus the root package
#   scripts/loc.sh crates/graph    just the named package directories
#
# The last row is the sum over the rows printed.
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
    find "$1/src" -name '*.rs' -print0 | sort -z | xargs -0 awk '
        FNR == 1 { in_tests = 0; pending = 0 }
        in_tests { next }
        pending {
            pending = 0
            if (/^[[:space:]]*(pub(\([a-z]+\))?[[:space:]]+)?mod[[:space:]]/) { in_tests = 1; next }
            n++
        }
        /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ { pending = 1; next }
        !/^[[:space:]]*$/ && !/^[[:space:]]*\/\// { n++ }
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
