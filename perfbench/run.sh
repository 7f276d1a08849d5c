#!/usr/bin/env bash
# Builds the benchmark and the fastcapd daemon from this checkout's
# sources, then runs one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload sim-paper --seed 1 --seconds 10 --trace 0
#
# Build outputs and the Go build cache stay inside the checkout, under
# .bench_build (or $CARGO_TARGET_DIR when set).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/bin"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
cd "$here"
go build -o "$out/bin/perfbench" .
go build -o "$out/bin/fastcapd" repro/cmd/fastcapd
cd "$root"
exec "$out/bin/perfbench" -fastcapd "$out/bin/fastcapd" "$@"
