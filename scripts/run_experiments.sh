#!/usr/bin/env bash
# Regenerates every table and figure of the paper (see DESIGN.md's
# experiment index) and the ablations, writing outputs under results/.
#
# Scales are chosen for a small machine; raise SAGA_SCALE / SAGA_REPEATS
# for higher-fidelity runs. Usage:
#
#   ./scripts/run_experiments.sh [quick|full]
set -euo pipefail
cd "$(dirname "$0")/.."

MODE="${1:-quick}"
if [ "$MODE" = "full" ]; then
    SW_SCALE=1.0; SW_REPEATS=3; ARCH_SCALE=0.6; ABL_SCALE=1.0
else
    SW_SCALE=0.35; SW_REPEATS=2; ARCH_SCALE=0.4; ABL_SCALE=0.5
fi
THREADS="${SAGA_THREADS:-4}"

run() {
    local name="$1"; shift
    echo "=== $name ==="
    "$@" 2>&1 | tail -40
}

export SAGA_THREADS="$THREADS"

# Dataset inventory + tails: cheap, full default scale.
SAGA_SCALE=1.0 run table2 cargo run -q -p saga-bench --release --bin table2
SAGA_SCALE=1.0 run table4 cargo run -q -p saga-bench --release --bin table4

# Software-level characterization: Table III + Figs. 6-8 in one sweep.
SAGA_SCALE=$SW_SCALE SAGA_REPEATS=$SW_REPEATS \
    run software_suite cargo run -q -p saga-bench --release --bin software_suite

# Heavy-tailed datasets at full profile scale: the Fig. 6b flip needs the
# full hub work (see EXPERIMENTS.md), and Wiki/Talk are cheap.
SAGA_RESULTS_DIR=results/heavy SAGA_DATASETS=Wiki,Talk SAGA_SCALE=1.0 SAGA_REPEATS=2 \
    run software_suite_heavy cargo run -q -p saga-bench --release --bin software_suite

# The AS <-> DAH crossover as the per-batch tail grows (Fig. 6b's flip).
SAGA_SCALE=1.0 SAGA_REPEATS=2 run tail_sweep cargo run -q -p saga-bench --release --bin tail_sweep

# Architecture-level: Figs. 9b/9c/10 in one traced pass; Fig. 9a sweep.
SAGA_SCALE=$ARCH_SCALE SAGA_ALGS=bfs,cc,pr \
    run arch_suite cargo run -q -p saga-bench --release --bin arch_suite
SAGA_SCALE=$ARCH_SCALE SAGA_ALGS=bfs,pr \
    run fig9a cargo run -q -p saga-bench --release --bin fig9

# Ablations.
SAGA_SCALE=$ABL_SCALE SAGA_REPEATS=2 \
    run ablation_locking cargo run -q -p saga-bench --release --bin ablation_locking
SAGA_SCALE=$ABL_SCALE run ablation_blocksize cargo run -q -p saga-bench --release --bin ablation_blocksize
SAGA_SCALE=$ABL_SCALE run ablation_dah_threshold cargo run -q -p saga-bench --release --bin ablation_dah_threshold
SAGA_SCALE=$ABL_SCALE run ablation_epsilon cargo run -q -p saga-bench --release --bin ablation_epsilon

# Extension: pipelined execution.
SAGA_SCALE=$ABL_SCALE run pipelined cargo run -q -p saga-bench --release --bin pipelined

echo "All experiment outputs written to results/."
