#!/bin/sh
# Rebuilds the golden behaviour corpus under tests/golden/ from the current
# source tree. Run from the repository root after an intended behaviour
# change, then review `git diff --stat tests/golden` before committing.
#
#   tools/regen_golden.sh [build-dir]     (default: build)
set -eu
BUILD=${1:-build}
cmake -B "$BUILD" -S . >/dev/null
cmake --build "$BUILD" --target easyview_golden -j"$(nproc)"
rm -rf tests/golden
"$BUILD/tests/easyview_golden" --regenerate tests/golden
