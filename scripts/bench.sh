#!/usr/bin/env sh
# bench.sh — run the benchmark suite and emit a BENCH_<sha>.json
# snapshot so the performance trajectory is trackable per commit.
#
# Usage:
#   scripts/bench.sh                 # default suite, short benchtime
#   scripts/bench.sh -bench 'Fig9'   # extra args forwarded to go test
#
# Output: BENCH_<git-sha>.json in the repository root, e.g.
#   {"commit":"abc1234","date":"...","gomaxprocs":8,
#    "benchmarks":[{"name":"BenchmarkEndToEndEpoch","ns_per_op":2.4e7,
#                   "b_per_op":126488,"allocs_per_op":642}, ...]}
#
# The suite includes BenchmarkSessionEpoch next to BenchmarkEndToEndEpoch:
# the first measures one epoch through the streaming Session API, the
# second through the batch Run wrapper. Compare them across snapshots to
# catch session-layer overhead creeping into the hot loop.
# BenchmarkClusterArbitration{8,64} track the cluster coordinator's
# per-epoch rebalance (target: O(members), zero steady-state allocs);
# BenchmarkSLOArbitration{8,64} track the contract-aware arbiter's
# demand-estimation pass on a partially contracted fleet, same bar;
# BenchmarkPredictiveArbitration{8,64} track the forecast-driven
# arbiter's observe+predict+fund pass on a warm fleet, same bar.
# BenchmarkDistWire{Grant,Report,Result} (internal/dist) track one
# EncodeMsg + DecodeMsg round trip of the distributed wire codec per
# frame kind — the result frame is a 40-epoch, 4-core member, as the
# fleet-dist workload ships it; watch ns/op and allocs/op.
#
# After the Go benchmarks the script boots a real fastcapd and measures
# serving capacity with fastcap-loadgen at increasing closed-loop tenant
# counts (default 64, 256 and 1024; override with BENCH_CAPACITY_LEVELS,
# or set BENCH_SKIP_CAPACITY=1 to skip). Each level's full loadgen
# report lands in the snapshot's "capacity" array, so sessions/sec and
# create/retarget latency percentiles are trackable per commit alongside
# ns/op.
set -eu

cd "$(dirname "$0")/.."

SHA=$(git rev-parse --short HEAD 2>/dev/null || echo "worktree")
OUT="BENCH_${SHA}.json"
RAW=$(mktemp)
CAP=$(mktemp)
trap 'rm -f "$RAW" "$CAP"' EXIT

# 3 iterations, not 1: single-op numbers are dominated by cold-start
# effects a served epoch never pays — in particular the process-wide
# baseline cache (runner.SharedBaselines) is empty on op 1, so a 1x
# Fig12And13 measures the cache miss, not the steady state the daemon
# runs in. Three ops amortize that while keeping the suite under a
# minute. Later flags win in go test, so extra args can still override.
if [ "$#" -gt 0 ]; then
    go test -run '^$' -bench . -benchmem -benchtime 3x "$@" . ./internal/dist | tee "$RAW"
else
    go test -run '^$' -bench . -benchmem -benchtime 3x . ./internal/dist | tee "$RAW"
fi

awk -v sha="$SHA" -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" -v gmp="$(nproc 2>/dev/null || echo 1)" '
BEGIN { n = 0 }
/^Benchmark/ && NF >= 3 {
    name = $1
    sub(/-[0-9]+$/, "", name)   # strip -GOMAXPROCS suffix
    ns = ""; b = ""; allocs = ""
    for (i = 2; i < NF; i++) {
        if ($(i+1) == "ns/op")     ns = $i
        if ($(i+1) == "B/op")      b = $i
        if ($(i+1) == "allocs/op") allocs = $i
    }
    if (ns != "") {
        rows[n++] = sprintf("{\"name\":\"%s\",\"ns_per_op\":%s,\"b_per_op\":%s,\"allocs_per_op\":%s}",
                            name, ns, (b == "" ? "null" : b), (allocs == "" ? "null" : allocs))
    }
}
END {
    printf "{\"commit\":\"%s\",\"date\":\"%s\",\"gomaxprocs\":%s,\"benchmarks\":[", sha, date, gmp
    for (i = 0; i < n; i++) printf "%s%s", (i ? "," : ""), rows[i]
    print "]}"
}' "$RAW" > "$OUT"

# --- capacity rows: loadgen against a live daemon ---------------------
if [ "${BENCH_SKIP_CAPACITY:-0}" != "1" ]; then
    LEVELS="${BENCH_CAPACITY_LEVELS:-64 256 1024}"
    # Default to an ephemeral port so a live fastcapd or a parallel CI
    # job cannot collide; BENCH_CAPACITY_PORT pins one explicitly.
    PORT="${BENCH_CAPACITY_PORT:-0}"
    DLOG=$(mktemp)
    go build -o /tmp/fastcapd-bench ./cmd/fastcapd
    go build -o /tmp/fastcap-loadgen-bench ./cmd/fastcap-loadgen
    /tmp/fastcapd-bench -addr "127.0.0.1:$PORT" -max-sessions 1100 >"$DLOG" 2>&1 &
    DPID=$!
    trap 'rm -f "$RAW" "$CAP" "$DLOG"; kill "$DPID" 2>/dev/null || true' EXIT
    # Discover the bound address from the daemon's log (it prints the
    # resolved port when given :0) and fail fast — dumping that log —
    # if the daemon dies instead of becoming ready.
    BASE=""
    i=0
    while [ -z "$BASE" ]; do
        if ! kill -0 "$DPID" 2>/dev/null; then
            echo "fastcapd exited during startup:" >&2
            cat "$DLOG" >&2
            exit 1
        fi
        ADDR=$(sed -n 's/.*listening on \(127\.0\.0\.1:[0-9][0-9]*\).*/\1/p' "$DLOG" | head -n 1)
        if [ -n "$ADDR" ] && curl -fs "http://$ADDR/readyz" >/dev/null 2>&1; then
            BASE="http://$ADDR"
            break
        fi
        i=$((i + 1))
        if [ "$i" -ge 50 ]; then
            echo "fastcapd never became ready; daemon log:" >&2
            cat "$DLOG" >&2
            exit 1
        fi
        sleep 0.2
    done
    for n in $LEVELS; do
        echo "capacity: $n closed-loop tenants ..."
        # Closed loop: at level n every stream is in flight for most of
        # the run, so the per-stream follow timeout must cover the whole
        # level, not one session. 10m clears 1024 tenants on a 1-CPU box.
        /tmp/fastcap-loadgen-bench -base "$BASE" -sessions "$n" \
            -lifecycles 1 -epochs 10 -epoch-ms 0.5 -timeout 10m >> "$CAP" \
            || { echo "loadgen failed at $n tenants"; exit 1; }
    done
    kill -TERM "$DPID" 2>/dev/null || true
    wait "$DPID" 2>/dev/null || true
    trap 'rm -f "$RAW" "$CAP" "$DLOG"' EXIT

    # Splice the per-level reports (one JSON object per line) into the
    # snapshot as its "capacity" array.
    awk -v capfile="$CAP" '
    { line = $0 }
    END {
        sub(/\]\}$/, "],\"capacity\":[", line)
        printf "%s", line
        n = 0
        while ((getline row < capfile) > 0) printf "%s%s", (n++ ? "," : ""), row
        print "]}"
    }' "$OUT" > "$OUT.tmp" && mv "$OUT.tmp" "$OUT"
fi

echo "wrote $OUT"
