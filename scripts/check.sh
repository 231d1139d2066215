#!/usr/bin/env sh
# check.sh — the repository's full verification gate:
#   gofmt (diff-clean), go vet, build, unit tests under the race
#   detector. The placement engine evaluates candidates concurrently,
#   so the race detector is part of the default gate, not an extra.
#   Under -race internal/placement alone runs for about ten minutes on
#   a 2-core machine, past go test's default per-package timeout, so
#   the race run gets 30 minutes like make verify and make chaos.
#
# Usage: scripts/check.sh  (or: make check)
set -eu

cd "$(dirname "$0")/.."

fmt_out=$(gofmt -l . 2>/dev/null)
if [ -n "$fmt_out" ]; then
    echo "gofmt needed on:" >&2
    echo "$fmt_out" >&2
    exit 1
fi

go vet ./...
go build ./...
go test -race -timeout 30m ./...
