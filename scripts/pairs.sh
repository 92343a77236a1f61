#!/usr/bin/env bash
# Alternating parent/change runs of one BENCHMARK.json workload — the loop
# behind every "claimed gain" / "should not move" row in CHANGES.md.
#
#   scripts/pairs.sh <parent-rev> <workload> [pairs=10] [seed0=42] [rig args…]
#
# Both sides are built from *committed* files, the way the driver builds
# them: `git archive <rev>` into $PAIRS_DIR/<tree-sha>/src with its own
# CARGO_TARGET_DIR beside it ($PAIRS_DIR defaults to target/pairs; a tree's
# directory is reused, so a second invocation does not rebuild). The change
# is HEAD, or — when the tree is dirty — the commit `git stash create` makes
# of the tracked and staged files, so `git add -A` first if you added any.
# Pair k runs seed0+k on both sides, parent first on even k, change first
# on odd k. Extra arguments replace the default `--trace 0`
# (e.g. `--trace 1` for the per-layer probes).
#
# Prints, per metric of the result lines: median [q1, q3] for each side,
# change/parent of the medians, and the pairs the change won (ties count
# for neither). Exits 1 if any run failed to produce a result line or
# reported "failed" != 0 or "correct" != true.
set -euo pipefail
cd "$(dirname "$0")/.."

[ "$#" -ge 2 ] || { sed -n '2,20p' "$0"; exit 2; }
parent_rev=$1 workload=$2 pairs=${3:-10} seed0=${4:-42}
shift $(($# < 4 ? $# : 4))
[ "$#" -gt 0 ] || set -- --trace 0
pairs_dir=$(mkdir -p "${PAIRS_DIR:-target/pairs}" && cd "${PAIRS_DIR:-target/pairs}" && pwd)

parent=$(git rev-parse --verify "$parent_rev^{commit}")
change=$(git stash create)
change=${change:-$(git rev-parse HEAD)}

# The command and run length come from the contract, not from this script.
mapfile -t command < <(awk '/"command"/ {on = 1; next} on && /\]/ {exit} on' BENCHMARK.json |
    sed 's/^[[:space:]]*"//; s/",\{0,1\}$//')
seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)
# "name better" for every metric in the catalogue.
directions=$(awk -F'"' '/"name":/ {name = $4} /"better":/ {print name, $4}' BENCHMARK.json)

dir_of() { # <commit> -> its directory, named after the tree (same files, same build)
    local tree
    tree=$(git rev-parse "$1^{tree}")
    echo "$pairs_dir/${tree:0:12}"
}

checkout() { # <commit> -> extracts (once) and builds it
    local dir
    dir=$(dir_of "$1")
    if [ ! -d "$dir/src" ]; then
        mkdir -p "$dir/src.tmp"
        git archive "$1" | tar -x -C "$dir/src.tmp"
        mv "$dir/src.tmp" "$dir/src"
    fi
    (cd "$dir/src" && CARGO_TARGET_DIR=$dir/target cargo build --release --offline --quiet \
        --manifest-path rig/Cargo.toml 2> >(grep -v 'was not used in the crate graph' >&2 || true))
}

bad=0
run() { # <side> <commit> <seed> [rig args…] -> appends the result line to $pairs_dir/<side>.jsonl
    local dir line
    dir=$(dir_of "$2")
    line=$(cd "$dir/src" && CARGO_TARGET_DIR=$dir/target "${command[@]}" \
        --workload "$workload" --seed "$3" --seconds "$seconds" "${@:4}" 2>/dev/null | tail -n 1) || true
    case $line in
        *'"correct":true'*'"failed":0,'*) ;;
        *) bad=1; echo "!! $1 seed $3: ${line:-no result line}" >&2 ;;
    esac
    echo "$line" >> "$pairs_dir/$1.jsonl"
}

echo "parent ${parent:0:12}  change ${change:0:12}  $workload  $pairs pairs from seed $seed0  ($*)"
checkout "$parent"
checkout "$change"
: > "$pairs_dir/parent.jsonl"
: > "$pairs_dir/change.jsonl"
for ((k = 0; k < pairs; k++)); do
    seed=$((seed0 + k))
    if ((k % 2 == 0)); then
        run parent "$parent" "$seed" "$@"; run change "$change" "$seed" "$@"
    else
        run change "$change" "$seed" "$@"; run parent "$parent" "$seed" "$@"
    fi
    printf '.' >&2
done
echo >&2

values() { # <side> <metric> -> one value per run, in pair order ("nan" when absent)
    sed -n "s/.*\"$2\":{\"value\":\([^,}]*\).*/\1/p; t; s/.*/nan/p" "$pairs_dir/$1.jsonl"
}
quartiles() { # stdin: values -> "median q1 q3" (linear interpolation)
    sort -g | awk '{v[NR] = $1} END {
        split("0.5 0.25 0.75", q, " ")
        for (i = 1; i <= 3; i++) {
            pos = 1 + (NR - 1) * q[i]; lo = int(pos); hi = lo < NR ? lo + 1 : lo
            printf "%.6g%s", v[lo] + (v[hi] - v[lo]) * (pos - lo), (i < 3 ? " " : "")
        }
    }'
}

printf '%-34s %-36s %-36s %8s %6s\n' metric 'parent median [q1, q3]' 'change median [q1, q3]' 'chg/par' wins
for metric in $(grep -o '"[a-zA-Z_.]*":{"value"' "$pairs_dir/parent.jsonl" | cut -d'"' -f2 | awk '!seen[$0]++'); do
    better=$(awk -v m="$metric" '$1 == m {print $2}' <<< "$directions")
    read -r pm p1 p3 <<< "$(values parent "$metric" | quartiles)"
    read -r cm c1 c3 <<< "$(values change "$metric" | quartiles)"
    wins=$(paste <(values parent "$metric") <(values change "$metric") |
        awk -v better="${better:-lower}" '
            $1 != "nan" && $2 != "nan" && $1 != $2 { if (better == "higher" ? $2 > $1 : $2 < $1) w++ }
            END { print w + 0 "/" NR }')
    printf '%-34s %-36s %-36s %8s %6s\n' "$metric" "$pm [$p1, $p3]" "$cm [$c1, $c3]" \
        "$(awk -v c="$cm" -v p="$pm" 'BEGIN { if (p != 0) printf "%.3f", c / p; else print "-" }')" "$wins"
done
echo "(wins: pairs where the change is better in the metric's direction; raw lines in $pairs_dir/{parent,change}.jsonl)"
exit "$bad"
