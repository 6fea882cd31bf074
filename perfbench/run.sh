#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments from the checkout root. Build outputs, the Go build cache
# and temporary files stay under .bench_build/ (CARGO_TARGET_DIR when set),
# so nothing is written outside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go -C "$root/perfbench" build -o "$out/perfbench" . >&2
cd "$root"
exec "$out/perfbench" "$@"
