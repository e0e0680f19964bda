#!/usr/bin/env bash
# Run the benchmark on git revision REF and on this checkout in interleaved pairs.
#
#   scripts/bench_pairs.sh REF WORKLOAD PAIRS [SECONDS]
#
# REF is exported with `git archive` into a temporary directory, and this
# checkout's perfbench/ and BENCHMARK.json replace the export's, so both sides
# run the same benchmark code.  Pair k runs
# `perfbench/run.py --workload WORKLOAD --seed k --seconds SECONDS` (SECONDS
# defaults to 10) on both trees, REF first in odd pairs and this checkout first
# in even ones.  The script prints each pair's end-to-end metrics (the
# `end_to_end` list of BENCHMARK.json) and failed ops, then per metric each
# side's median, the distance between REF's quartiles, the ratio of the
# change's median to REF's, and the number of pairs in which the change was
# better (ties count for neither side).  The temporary directory is removed on
# exit.
set -euo pipefail

if [ $# -lt 3 ] || [ $# -gt 4 ]; then
    echo "usage: $0 REF WORKLOAD PAIRS [SECONDS]" >&2
    exit 2
fi
root=$(cd "$(dirname "$0")/.." && pwd)
workload=$2
pairs=$3
seconds=${4:-10}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

mkdir "$tmp/ref" "$tmp/runs"
git -C "$root" archive "$1" | tar -x -C "$tmp/ref"
rm -rf "$tmp/ref/perfbench" "$tmp/ref/BENCHMARK.json"
mkdir "$tmp/ref/perfbench"
cp "$root"/perfbench/*.py "$root"/perfbench/*.md "$tmp/ref/perfbench/"
cp "$root/BENCHMARK.json" "$tmp/ref/"

run() {  # TREE SIDE SEED: the result line of one benchmark run
    (cd "$1" && python3 perfbench/run.py --workload "$workload" --seed "$3" \
        --seconds "$seconds") | tail -n 1 > "$tmp/runs/$2.$3.json"
}

for k in $(seq 1 "$pairs"); do
    if [ $((k % 2)) -eq 1 ]; then
        run "$tmp/ref" parent "$k"
        run "$root" change "$k"
    else
        run "$root" change "$k"
        run "$tmp/ref" parent "$k"
    fi
done

python3 - "$root/BENCHMARK.json" "$tmp/runs" "$pairs" "$1" <<'EOF'
import json
import statistics
import sys

bench, runs, pairs, ref = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4]
metrics = json.load(open(bench))["end_to_end"]
result = {}
for side in ("parent", "change"):
    for k in range(1, pairs + 1):
        r = json.load(open(f"{runs}/{side}.{k}.json"))
        r["metrics"] = {name: m["value"] for name, m in r["metrics"].items()}
        result[side, k] = r
print("pair side   " + " ".join(f"{m['name']:>12}" for m in metrics) + "  failed/attempted")
for k in range(1, pairs + 1):
    for side in ("parent", "change") if k % 2 else ("change", "parent"):
        r = result[side, k]
        values = " ".join(f"{r['metrics'][m['name']]:12.5g}" for m in metrics)
        print(f"{k:4d} {side:6} {values}  {r['failed']}/{r['attempted']}")
print(f"\nparent = {ref}, change = this checkout, {pairs} pairs")
print(f"{'metric':>12} {'parent':>12} {'parent IQR':>12} {'change':>12} {'ratio':>8}"
      "  change better")
for m in metrics:
    name, sign = m["name"], 1 if m["better"] == "higher" else -1
    old = [result["parent", k]["metrics"][name] for k in range(1, pairs + 1)]
    new = [result["change", k]["metrics"][name] for k in range(1, pairs + 1)]
    wins = sum(sign * (b - a) > 0 for a, b in zip(old, new))
    p, c = statistics.median(old), statistics.median(new)
    q1, _, q3 = statistics.quantiles(old, n=4) if pairs > 1 else (p, p, p)
    print(f"{name:>12} {p:12.5g} {q3 - q1:12.5g} {c:12.5g} {c / p:8.4f}  {wins}/{pairs}")
EOF
