#!/bin/sh
# Line and branch coverage of src/ from the test suite. Build with the
# `coverage` preset first, then run from the repository root:
#
#   cmake --preset coverage && cmake --build --preset coverage -j"$(nproc)"
#   tools/coverage.sh [build-dir]     (default: build-coverage)
#
# Deletes the old counters, runs ctest in the build dir, then runs gcov over
# every object of the easyview library and prints the lines executed and
# the branches taken per src/ top-level directory, for all of src/, and for
# ide/ViewCache.cpp. Objects whose source no longer exists (left in the
# build dir by a deleted file) are skipped. A line counts once however
# many objects instantiate it (headers, inline functions). Branches are
# gcov's non-exception ones (not `throw`), counted once per line and
# function: a branch is taken if any object took it. Exits with ctest's
# status.
set -eu
BUILD=$(cd "${1:-build-coverage}" && pwd)
ROOT=$(cd "$(dirname "$0")/.." && pwd)
OBJ="$BUILD/src/CMakeFiles/easyview.dir"
[ -d "$OBJ" ] || { echo "coverage.sh: no library objects in $OBJ" >&2; exit 2; }

find "$BUILD" -name '*.gcda' -exec rm -f {} +
STATUS=0
(cd "$BUILD" && ctest --output-on-failure -j"$(nproc)") || STATUS=$?

python3 - "$ROOT/src" "$OBJ" <<'EOF'
import json, os, subprocess, sys
from collections import defaultdict

src, obj = sys.argv[1], sys.argv[2]
lines = defaultdict(dict)  # src-relative file -> {line: executed}
# src-relative file -> {(line, function): [taken, ...]}, one per branch
branches = defaultdict(dict)
for dirpath, _, names in os.walk(obj):
    for name in sorted(names):
        if not name.endswith(".gcno"):
            continue
        # An object whose source was deleted lingers in the build dir
        # until a clean build; it no longer counts.
        source = os.path.join(src, os.path.relpath(dirpath, obj), name[:-5])
        if not os.path.exists(source):
            continue
        out = subprocess.run(
            ["gcov", "--branch-probabilities", "--stdout", "--json-format",
             os.path.join(dirpath, name)],
            capture_output=True, text=True, cwd=dirpath, check=True).stdout
        for doc in out.splitlines():
            if not doc.strip():
                continue
            for f in json.loads(doc)["files"]:
                path = os.path.normpath(os.path.join(dirpath, f["file"]))
                if not path.startswith(src + os.sep):
                    continue
                rel = os.path.relpath(path, src)
                seen, taken = lines[rel], branches[rel]
                for l in f["lines"]:
                    n = l["line_number"]
                    seen[n] = seen.get(n, False) or l["count"] > 0
                    now = [b["count"] > 0 for b in l.get("branches", [])
                           if not b["throw"]]
                    if not now:
                        continue
                    # Objects that compile the same function agree on its
                    # branches; pad in case one does not.
                    key = (n, l.get("function_name"))
                    old = taken.get(key, [])
                    width = max(len(old), len(now))
                    old += [False] * (width - len(old))
                    now += [False] * (width - len(now))
                    taken[key] = [a or b for a, b in zip(old, now)]

def pct(hit, total):
    return 100.0 * hit / total if total else 0.0

def row(name, files):
    total = sum(len(lines[f]) for f in files)
    hit = sum(sum(lines[f].values()) for f in files)
    btotal = sum(len(b) for f in files for b in branches[f].values())
    bhit = sum(sum(b) for f in files for b in branches[f].values())
    print("%-22s %8d %8d %6.1f%% %8d %8d %6.1f%%" %
          (name, total, hit, pct(hit, total), btotal, bhit, pct(bhit, btotal)))

print("%-22s %8s %8s %7s %8s %8s %7s" %
      ("src/", "lines", "executed", "cover", "branches", "taken", "cover"))
dirs = defaultdict(list)
for f in lines:
    dirs[f.split(os.sep)[0]].append(f)
for d in sorted(dirs):
    row(d + "/", dirs[d])
row("all of src/", list(lines))
row("ide/ViewCache.cpp", ["ide/ViewCache.cpp"])
EOF
exit "$STATUS"
