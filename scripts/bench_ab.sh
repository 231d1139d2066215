#!/usr/bin/env bash
# bench_ab.sh — A/B the repository benchmark: the working tree against a
# base commit, in alternating pairs of runs.
#
# Usage: scripts/bench_ab.sh WORKLOAD [N] [BASE] [SEED]
#    or: make bench-ab W=ladder_zoo N=10 BASE=HEAD SEED=7
#
# Builds the bench program twice — from an export of BASE (git archive
# into a temp dir, so nothing is registered in .git) and from the working
# tree — then runs N pairs in the foreground, alternating which side goes
# first, each `--workload WORKLOAD --seed SEED --seconds 22 --trace 0`.
# After every pair it prints both sides' end-to-end metrics; at the end,
# per metric, each side's median and quartiles, the change in the median
# and how many pairs the working tree won (by the metric's direction in
# BENCHMARK.json; equal values are ties, not wins). On exit, for any
# reason, it kills the run in flight and removes the temp dir.
set -euo pipefail

cd "$(dirname "$0")/.."

usage() { echo "usage: $0 WORKLOAD [N] [BASE] [SEED]" >&2; exit 2; }
[ $# -ge 1 ] && [ $# -le 4 ] || usage
W="$1"
N="${2:-10}"
BASE="${3:-HEAD}"
SEED="${4:-7}"
case "$N" in '' | *[!0-9]* | 0) usage ;; esac

WORK="$(mktemp -d)"
CHILD=""
cleanup() {
    [ -n "$CHILD" ] && kill "$CHILD" 2>/dev/null && wait "$CHILD" 2>/dev/null
    pkill -P $$ 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT
trap 'exit 130' INT TERM HUP

export GOTOOLCHAIN=local GOPROXY=off

base_rev="$(git rev-parse --short "$BASE^{commit}")"
echo "bench-ab: exporting $BASE ($base_rev)" >&2
mkdir -p "$WORK/base"
git archive "$BASE" | tar -x -C "$WORK/base"

echo "bench-ab: building both sides" >&2
(cd "$WORK/base" && go build -o "$WORK/base.bin" ./bench)
go build -o "$WORK/change.bin" ./bench

# metric better-direction pairs, in BENCHMARK.json order
awk '/"end_to_end"/ { e = 1 } /"per_layer"/ { e = 0 }
     e && /"name"/   { gsub(/[",]/, "", $2); name = $2 }
     e && /"better"/ { gsub(/[",]/, "", $2); print name, $2 }' BENCHMARK.json > "$WORK/metrics"

# run SIDE PAIR: one bench run; appends "PAIR SIDE METRIC VALUE" lines.
run() {
    local side="$1" pair="$2" dir="$WORK/base"
    [ "$side" = change ] && dir="$PWD"
    (cd "$dir" && exec "$WORK/$side.bin" --workload "$W" --seed "$SEED" --seconds 22 --trace 0) \
        > "$WORK/out" 2> "$WORK/err" &
    CHILD=$!
    if ! wait "$CHILD"; then
        CHILD=""
        cat "$WORK/err" >&2
        echo "bench-ab: $side run of pair $pair failed" >&2
        exit 1
    fi
    CHILD=""
    # The last line is the driver's result:
    # {"correct":…,"attempted":…,"failed":F,"metrics":{"NAME":{"value":V,"unit":U},…}}
    tail -n 1 "$WORK/out" | grep -q '"failed":0,' ||
        echo "bench-ab: WARNING: $side run of pair $pair had failed ops: $(tail -n 1 "$WORK/out" | cut -c1-80)"
    tail -n 1 "$WORK/out" | grep -o '"[a-z_]*":{"value":[^,}]*' |
        sed 's/^"\([a-z_]*\)":{"value":/\1 /' | awk -v p="$pair" -v s="$side" '{ print p, s, $1, $2 }' >> "$WORK/results"
}

echo "bench-ab: $W, $N pairs, seed $SEED, base $base_rev vs working tree" >&2
for i in $(seq 1 "$N"); do
    if [ $((i % 2)) -eq 1 ]; then
        run base "$i"; run change "$i"; first=base
    else
        run change "$i"; run base "$i"; first=change
    fi
    echo "pair $i ($first first)"
    awk -v p="$i" 'FNR == NR { m[++n] = $1; next }
        $1 == p { v[$2, $3] = $4 }
        END { for (k = 1; k <= n; k++) if ((("base", m[k]) in v)) {
            b = v["base", m[k]]; c = v["change", m[k]]
            printf "  %-20s %14.5f %14.5f %+8.2f%%\n", m[k], b, c, b != 0 ? 100 * (c - b) / b : 0 } }' \
        "$WORK/metrics" "$WORK/results"
done

echo
echo "$W over $N pairs, seed $SEED: base $base_rev vs working tree"
awk -v np="$N" '
    function sortv(a, n,   i, j, t) {
        for (i = 2; i <= n; i++) { t = a[i]; for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]; a[j + 1] = t }
    }
    function q(a, n, p,   pos, lo) {
        pos = p * (n - 1); lo = int(pos)
        if (lo + 1 >= n) return a[n]
        return a[lo + 1] + (pos - lo) * (a[lo + 2] - a[lo + 1])
    }
    FNR == NR { m[++nm] = $1; better[$1] = $2; next }
    { v[$1, $2, $3] = $4 }
    END {
        printf "%-20s %12s %12s %12s   %12s %12s %12s %9s  %s\n", "metric", "base med", "q1", "q3", "change med", "q1", "q3", "delta", "wins/ties"
        for (k = 1; k <= nm; k++) {
            x = m[k]; wins = 0; ties = 0; n = 0
            for (i = 1; i <= np; i++) {
                if (!((i, "base", x) in v)) continue
                b = v[i, "base", x]; c = v[i, "change", x]; n++
                bs[n] = b; cs[n] = c
                if (b == c) ties++
                else if ((better[x] == "lower") == (c < b)) wins++
            }
            if (n == 0) continue
            sortv(bs, n); sortv(cs, n)
            bm = q(bs, n, 0.5); cm = q(cs, n, 0.5)
            printf "%-20s %12.5f %12.5f %12.5f   %12.5f %12.5f %12.5f %+8.2f%%  %d/%d of %d\n", x,
                bm, q(bs, n, 0.25), q(bs, n, 0.75), cm, q(cs, n, 0.25), q(cs, n, 0.75),
                bm != 0 ? 100 * (cm - bm) / bm : 0, wins, ties, n
        }
    }' "$WORK/metrics" "$WORK/results"
