#!/usr/bin/env bash
# Builds the benchmark once and runs the four workloads in order with one
# seed, concatenating their result lines. Fails if a workload fails or if
# the total wall time exceeds what the driver's schedule allows one round
# of four runs (its cap of 3420 s covers 92 runs and two builds).
#
#   benchmark/run_all.sh [seed] [seconds]
set -euo pipefail
cd "$(dirname "$0")/.."

seed="${1:-1}"
seconds="${2:-20}"
cap_s=$(( 3420 * 4 / 92 ))   # 148 s for one run of each workload

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --manifest-path benchmark/Cargo.toml
bin="$CARGO_TARGET_DIR/release/snn-benchmark"

start=$(date +%s)
lines=()
for workload in engine_f32_closed engine_quant_closed http_vgg_paced http_small_closed; do
    out="$("$bin" run --workload "$workload" --seed "$seed" --seconds "$seconds")"
    echo "$out" | sed '$d' >&2
    lines+=("\"$workload\":$(echo "$out" | tail -n 1)")
done
wall=$(( $(date +%s) - start ))

(IFS=,; echo "{${lines[*]},\"wall_s\":$wall,\"cap_s\":$cap_s,\"claim\":null}")
if [ "$wall" -gt "$cap_s" ]; then
    echo "run_all: $wall s of wall time exceeds the cap of $cap_s s" >&2
    exit 1
fi
