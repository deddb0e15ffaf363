#!/usr/bin/env bash
# Run the benchmark's workloads and print every metric as `name value unit`.
#
#   benchmark/run.sh [--smoke] [--seed N] [workload ...]
#
# Builds the benchmark and the `xar` binary offline when missing or
# stale, then runs each workload (default: all four) untraced for the
# end-to-end metrics and traced for the per-layer metrics. Exits
# non-zero when a run fails or reports incorrect output.
set -euo pipefail
cd "$(dirname "$0")/.."

seed=1
smoke=()
workloads=()
while [ $# -gt 0 ]; do
  case "$1" in
    --smoke) smoke=(--smoke) ;;
    --seed) seed="$2"; shift ;;
    -h|--help) sed -n '2,9p' "$0"; exit 0 ;;
    *) workloads+=("$1") ;;
  esac
  shift
done
[ ${#workloads[@]} -gt 0 ] || workloads=(day look metro day_obs)
seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)

# One target directory for the benchmark and the xar binary it drives.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$PWD/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin="$CARGO_TARGET_DIR/release/xar-benchmark"

status=0
for w in "${workloads[@]}"; do
  for trace in 0 1; do
    out=$("$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace" "${smoke[@]}")
    printf '%s\n' "$out" | grep -v '^{'
    case "$(printf '%s\n' "$out" | tail -n 1)" in
      '{"correct": true,'*) ;;
      *) echo "# $w --trace $trace: output checks failed" >&2; status=1 ;;
    esac
  done
done
exit $status
