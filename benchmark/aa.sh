#!/usr/bin/env bash
# A/A check of the benchmark's own noise: two interleaved sets of runs of
# the same build (A and B, run i of both on seed i) and a hold-out set on
# seeds the other two never use (H, run i on seed 1000+i). Prints, per
# workload and end-to-end metric, each set's median and inter-quartile
# range, B against A, and H against A, as markdown.
#
#   benchmark/aa.sh [runs per set, default 10] [seconds per run, default 25] [workload...]
#
# With workload names, only those are run again; the report always covers
# every workload that has results. The committed output is AA_BASELINE.md.
set -euo pipefail

runs=${1:-10}
seconds=${2:-25}
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
export CARGO_TARGET_DIR=${CARGO_TARGET_DIR:-benchmark/target}
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin=$CARGO_TARGET_DIR/release/fdb-benchmark
out=benchmark/out/aa
mkdir -p "$out"

workloads=${*:3}
[ -n "$workloads" ] || workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
for w in $workloads; do
  rm -f "$out/$w".*.json
done
for i in $(seq 1 "$runs"); do
  for w in $workloads; do
    for set in A B H; do
      seed=$i
      [ "$set" = H ] && seed=$((1000 + i))
      "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 \
        | tail -n 1 > "$out/$w.$set.$i.json"
    done
  done
done

python3 - "$out" "$runs" "$seconds" <<'EOF'
import glob, json, statistics, sys

out, runs, seconds = sys.argv[1], int(sys.argv[2]), sys.argv[3]
spec = json.load(open("BENCHMARK.json"))

def quartiles(values):
    q = statistics.quantiles(values, n=4)
    return statistics.median(values), (q[2] - q[0])

print(f"{runs} runs per set, {seconds} s per run; IQR as a share of the set's median.")
print("`B vs A` and `H vs A` are the change of the median in the metric's bad")
print("direction (negative: the second set was better).")
worst = 0.0
for w in spec["workloads"]:
    print(f"\n### {w['name']}\n")
    print("| metric | bound | A median | A IQR | B median | B IQR | B vs A | H median | H IQR | H vs A |")
    print("|---|---|---|---|---|---|---|---|---|---|")
    for m in spec["end_to_end"]:
        cells, med = [], {}
        for s in "ABH":
            values = []
            for path in sorted(glob.glob(f"{out}/{w['name']}.{s}.*.json")):
                result = json.load(open(path))
                assert result["correct"] and result["failed"] == 0, path
                values.append(result["metrics"][m["name"]]["value"])
            med[s], iqr = quartiles(values)
            share = iqr / med[s]
            if m["name"] != "setup_s":
                worst = max(worst, share / m["bound"])
            cells.append((med[s], share))
        sign = 1.0 if m["better"] == "lower" else -1.0
        worse = {s: sign * (med[s] / med["A"] - 1.0) for s in "BH"}
        worst = max(worst, worse["B"] / m["bound"])
        print(
            f"| `{m['name']}` [{m['unit']}] | {m['bound']:.1%} "
            f"| {cells[0][0]:.6g} | {cells[0][1]:.2%} "
            f"| {cells[1][0]:.6g} | {cells[1][1]:.2%} | {worse['B']:+.2%} "
            f"| {cells[2][0]:.6g} | {cells[2][1]:.2%} | {worse['H']:+.2%} |"
        )
print(f"\nLargest spread or A/A shift, as a share of its metric's bound: {worst:.2f}")
sys.exit(0 if worst <= 1.0 else 1)
EOF
