#!/usr/bin/env bash
# A/B harness for performance claims: runs the repository benchmark
# (perfbench/run.py) on two revisions in alternating pairs and reports every
# end-to-end metric of BENCHMARK.json with its spread.
#
# Usage:
#   tools/ab.sh <parent-rev> [<change-rev> [<pairs> [<seconds> [<workload>...]]]]
#
# Defaults: change-rev HEAD, 5 pairs, 25 s per run, every workload of
# BENCHMARK.json, seed 1. Both revisions are exported with `git archive`
# into ${TMPDIR:-/tmp}/easyview-ab/<rev>/ and each is built in its own
# CARGO_TARGET_DIR there. Pair i runs parent then change when i is odd and
# change then parent when it is even. For each metric it prints the median
# and min-max of both sides, the median shift, how many pairs the change
# won, and whether the shift exceeds the parent's interquartile range. All
# runs and the summary go to ${TMPDIR:-/tmp}/easyview-ab/ab.json.
#
# The script only reads the repository: it never edits perfbench/ or
# BENCHMARK.json.
set -euo pipefail

if [[ $# -lt 1 ]]; then
  sed -n '2,20p' "$0" | sed 's/^# \{0,1\}//'
  exit 2
fi

root=$(git -C "$(dirname "$0")/.." rev-parse --show-toplevel)
parent=$(git -C "$root" rev-parse --verify "$1^{commit}")
change=$(git -C "$root" rev-parse --verify "${2:-HEAD}^{commit}")
pairs=${3:-5}
seconds=${4:-25}
shift $(( $# < 4 ? $# : 4 ))
work=${TMPDIR:-/tmp}/easyview-ab
mkdir -p "$work/runs"

# Export and build one revision; prints its checkout directory.
prepare() {
  local rev=$1 dir=$work/${1:0:12}
  if [[ ! -f $dir/src/BENCHMARK.json ]]; then
    rm -rf "$dir"
    mkdir -p "$dir/src"
    git -C "$root" archive "$rev" | tar -x -C "$dir/src"
  fi
  cmake -S "$dir/src/perfbench" -B "$dir/target/perfbench" \
    -DCMAKE_BUILD_TYPE=Release >&2
  cmake --build "$dir/target/perfbench" -j "$(( $(nproc) < 4 ? $(nproc) : 4 ))" >&2
  echo "$dir"
}

parent_dir=$(prepare "$parent")
change_dir=$(prepare "$change")

if [[ $# -gt 0 ]]; then
  workloads=("$@")
else
  mapfile -t workloads < <(python3 -c '
import json, sys
for w in json.load(open(sys.argv[1]))["workloads"]:
    print(w["name"])' "$change_dir/src/BENCHMARK.json")
fi

# One benchmark run; its last stdout line (the JSON result) goes to $3.
run() {
  local dir=$1 workload=$2 out=$3
  (cd "$dir/src" && CARGO_TARGET_DIR="$dir/target" python3 perfbench/run.py \
     --workload "$workload" --seed 1 --seconds "$seconds" --trace 0) \
    2>"$out.log" | tail -n 1 >"$out" || true
}

rm -f "$work"/runs/*.json
for workload in "${workloads[@]}"; do
  for ((i = 1; i <= pairs; ++i)); do
    if ((i % 2)); then order=(parent change); else order=(change parent); fi
    for side in "${order[@]}"; do
      dir=$parent_dir
      [[ $side == change ]] && dir=$change_dir
      echo "ab: $workload pair $i/$pairs: $side" >&2
      run "$dir" "$workload" "$work/runs/$workload-$side-$i.json"
    done
  done
done

python3 - "$work" "$change_dir/src/BENCHMARK.json" "$parent" "$change" \
  "$pairs" "$seconds" "${workloads[@]}" <<'EOF'
import json, os, statistics, sys

work, bench, parent, change = sys.argv[1:5]
pairs, seconds = int(sys.argv[5]), float(sys.argv[6])
workloads = sys.argv[7:]
metrics = json.load(open(bench))["end_to_end"]

def load(workload, side, i):
    path = os.path.join(work, "runs", "%s-%s-%d.json" % (workload, side, i))
    try:
        with open(path) as f:
            return json.loads(f.read().strip())
    except (OSError, ValueError):
        return None

def quartiles(xs):
    xs = sorted(xs)
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]

report = {"parent": parent, "change": change, "pairs": pairs,
          "seconds": seconds, "seed": 1, "workloads": {}}
for workload in workloads:
    runs = {side: [load(workload, side, i) for i in range(1, pairs + 1)]
            for side in ("parent", "change")}
    summary = {}
    print("\n%s (%d pairs, %g s each)" % (workload, pairs, seconds))
    print("  %-16s %24s %24s %9s %6s %s" % ("metric", "parent median [min-max]",
          "change median [min-max]", "shift", "wins", "exceeds spread"))
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        values = {}
        for side in runs:
            values[side] = [r["metrics"][name]["value"] for r in runs[side]
                            if r and name in r.get("metrics", {})]
        if not values["parent"] or not values["change"]:
            print("  %-16s missing" % name)
            continue
        p, c = values["parent"], values["change"]
        mp, mc = statistics.median(p), statistics.median(c)
        q1, q3 = quartiles(p)
        shift = (mc - mp) / mp * 100 if mp else 0.0
        wins = sum(1 for a, b in zip(p, c) if (b < a if lower else b > a))
        exceeds = abs(mc - mp) > (q3 - q1)
        summary[name] = {"parent": p, "change": c, "parent_median": mp,
                         "change_median": mc, "shift_pct": shift,
                         "parent_iqr": q3 - q1, "change_wins": wins,
                         "exceeds_spread": exceeds}
        print("  %-16s %10.4g [%.4g-%.4g] %10.4g [%.4g-%.4g] %+8.1f%% %3d/%-2d %s" % (
            name, mp, min(p), max(p), mc, min(c), max(c), shift, wins,
            len(c), "yes" if exceeds else "no"))
    for side in runs:
        done = [r for r in runs[side] if r]
        attempted = sum(r.get("attempted", 0) for r in done)
        failed = sum(r.get("failed", 0) for r in done)
        correct = all(r.get("correct") for r in done) and len(done) == pairs
        summary[side + "_failed_share"] = failed / attempted if attempted else None
        summary[side + "_all_correct"] = correct
        print("  %s: %d/%d runs, %d of %d requests failed, checks %s" % (
            side, len(done), pairs, failed, attempted,
            "passed" if correct else "FAILED"))
    report["workloads"][workload] = summary

out = os.path.join(work, "ab.json")
with open(out, "w") as f:
    json.dump(report, f, indent=1)
print("\nwrote " + out)
EOF
