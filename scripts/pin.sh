#!/usr/bin/env bash
# pin.sh — regenerate the behaviour pins as a base commit computes them.
#
# Usage: scripts/pin.sh BASE
#
# Exports BASE with git archive into a temp dir (nothing is registered in
# .git), copies the working tree's pin tests over the export, so cases
# added since BASE are answered by BASE's code, and runs them there with
# PESTO_PIN_UPDATE=1: each writes its full listing instead of comparing.
# The regenerated files are copied back into the working tree:
#
#   internal/placement/testdata/plans_pinned.txt   (TestPlansPinned)
#   internal/sim/testdata/run_pinned.txt           (TestRunResultPinned)
#   internal/lp/testdata/solve_pinned.txt          (TestSolvePinned)
#   internal/profile/testdata/comm_pinned.txt      (TestCommPinned)
#   internal/trace/testdata/gantt_pinned.txt       (TestGanttPinned)
#
# `git diff` then shows every line BASE disagrees with. The copied pin
# tests must compile against BASE. On exit, for any reason, the temp dir
# is removed.
set -euo pipefail

cd "$(dirname "$0")/.."

[ $# -eq 1 ] || { echo "usage: $0 BASE" >&2; exit 2; }
BASE="$1"

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
trap 'exit 130' INT TERM HUP

export GOTOOLCHAIN=local GOPROXY=off

# package  test  pin-test file  pin file
PINS="internal/placement TestPlansPinned plans_pinned_test.go testdata/plans_pinned.txt
internal/sim TestRunResultPinned pinned_test.go testdata/run_pinned.txt
internal/lp TestSolvePinned pinned_test.go testdata/solve_pinned.txt
internal/profile TestCommPinned pinned_test.go testdata/comm_pinned.txt
internal/trace TestGanttPinned gantt_pinned_test.go testdata/gantt_pinned.txt"

base_rev="$(git rev-parse --short "$BASE^{commit}")"
echo "pin: exporting $BASE ($base_rev)" >&2
git archive "$BASE" | tar -x -C "$WORK"

while read -r pkg test src pin; do
    cp "$pkg/$src" "$WORK/$pkg/$src"
    mkdir -p "$(dirname "$WORK/$pkg/$pin")" "$(dirname "$pkg/$pin")"
    echo "pin: $test at $base_rev" >&2
    (cd "$WORK" && PESTO_PIN_UPDATE=1 go test -count=1 -timeout 10m -run "^$test\$" "./$pkg") >&2
    cp "$WORK/$pkg/$pin" "$pkg/$pin"
done <<< "$PINS"

git status --short -- $(while read -r pkg _ _ pin; do echo "$pkg/$pin"; done <<< "$PINS")
