#!/usr/bin/env bash
# Builds ccbench, cclserve and the benchmark from source, then runs one
# workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload layout-race --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the current directory: the Go build cache, temporary files, the
# binaries and the span files of traced runs.
set -euo pipefail

root=$PWD
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/ccbench" || ! -d "$root/cmd/cclserve" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/ccbench, cmd/cclserve and perfbench/ must exist)" >&2
	exit 2
fi

out=$root/.bench_build/perfbench
mkdir -p "$out/bin" "$out/tmp" "$out/home"
export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOPATH=$out/gopath \
	GOTMPDIR=$out/tmp TMPDIR=$out/tmp HOME=$out/home \
	XDG_CONFIG_HOME=$out/home/.config XDG_CACHE_HOME=$out/home/.cache \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

{
	go build -o "$out/bin/ccbench" ./cmd/ccbench
	go build -o "$out/bin/cclserve" ./cmd/cclserve
	(cd perfbench && go build -o "$out/bin/perfbench" .)
} >&2

exec "$out/bin/perfbench" -bin "$out/bin" -out "$out" "$@"
