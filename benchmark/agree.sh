#!/usr/bin/env bash
# Run two sets of N invocations of the same code, alternating between
# the sets, and compare them the way the driver compares a change with
# its parent.
#
#   benchmark/agree.sh N [--smoke] [--seed S] [workload ...]
#
# Invocation i of both sets uses seed S+i (default S = 1000, seeds not
# used while the benchmark was written). Prints, per workload and
# end-to-end metric, each set's median, quartiles and spread
# ((Q3 - Q1) / median). Exits non-zero when a pair of medians differs,
# in the worse direction, by more than the metric's bound, when a
# spread exceeds the bound (`setup_s` excepted, as for the driver), or
# when `decisions_digest` or `share_rate` differs between two runs with
# the same seed.
set -euo pipefail
cd "$(dirname "$0")/.."

[ $# -ge 1 ] || { sed -n '2,16p' "$0"; exit 2; }
n="$1"; shift
seed0=1000
smoke=()
workloads=()
while [ $# -gt 0 ]; do
  case "$1" in
    --smoke) smoke=(--smoke) ;;
    --seed) seed0="$2"; shift ;;
    *) workloads+=("$1") ;;
  esac
  shift
done
[ ${#workloads[@]} -gt 0 ] || workloads=(day look metro day_obs)
seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$PWD/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin="$CARGO_TARGET_DIR/release/xar-benchmark"
mkdir -p benchmark/out
log=benchmark/out/agree.log
: > "$log"

for w in "${workloads[@]}"; do
  for i in $(seq 1 "$n"); do
    for set in A B; do
      out=$("$bin" --workload "$w" --seed $((seed0 + i)) --seconds "$seconds" --trace 0 "${smoke[@]}")
      digest=$(printf '%s\n' "$out" | sed -n 's/.*decisions_digest \([0-9a-f]*\).*/\1/p' | head -n 1)
      printf '%s %s %s %s %s\n' "$w" "$set" "$i" "$digest" "$(printf '%s\n' "$out" | tail -n 1)" >> "$log"
      echo "# $w set $set run $i done" >&2
    done
  done
done

python3 - "$log" <<'PY'
import json, statistics, sys

bench = json.load(open("BENCHMARK.json"))
runs = {}  # workload -> set -> list of (digest, result)
for line in open(sys.argv[1]):
    w, s, _, digest, result = line.split(" ", 4)
    runs.setdefault(w, {}).setdefault(s, []).append((digest, json.loads(result)))

def quartiles(v):
    return statistics.quantiles(v, n=4) if len(v) > 1 else [v[0]] * 3

bad = 0
for w, sets in runs.items():
    print(f"\n{w}")
    print(f"  {'metric':<16} {'unit':<6} {'A median':>12} {'A q1':>12} {'A q3':>12} {'A spread':>9}"
          f" {'B median':>12} {'B q1':>12} {'B q3':>12} {'B spread':>9} {'worse by':>9} {'bound':>6}")
    for (da, ra), (db, rb) in zip(sets["A"], sets["B"]):
        if not (ra["correct"] and rb["correct"]):
            print("  FAIL: a run reported incorrect output"); bad += 1
        if da != db or ra["metrics"]["share_rate"] != rb["metrics"]["share_rate"]:
            print(f"  FAIL: same seed, different decisions ({da} vs {db})"); bad += 1
    for m in bench["end_to_end"]:
        name, bound = m["name"], m["bound"]
        row, med = [], {}
        for s in "AB":
            v = [r["metrics"][name]["value"] for _, r in sets[s]]
            q = quartiles(v)
            med[s] = statistics.median(v)
            spread = (q[2] - q[0]) / med[s]
            row.append(f"{med[s]:12.4f} {q[0]:12.4f} {q[2]:12.4f} {spread:9.4f}")
            if name != "setup_s" and spread > bound:
                row.append("SPREAD>BOUND"); bad += 1
        worse = (med["A"] - med["B"] if m["better"] == "higher" else med["B"] - med["A"]) / med["A"]
        flag = ""
        if abs(worse) > bound:
            flag = " MEDIANS DIFFER"; bad += 1
        print(f"  {name:<16} {m['unit']:<6} {' '.join(row)} {worse:9.4f} {bound:6.3f}{flag}")
print()
print("agree: FAIL" if bad else "agree: OK")
sys.exit(1 if bad else 0)
PY
