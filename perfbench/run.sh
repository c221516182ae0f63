#!/usr/bin/env bash
# Builds the benchmark and the examples/server binary from the source tree in
# the current directory, then runs one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload device-b1 --seed 1 --seconds 30 --trace 0
#
# Every build artifact, Go cache and run file stays under .bench_build/ in the
# repository root. Building is not part of any measured time.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/core" || ! -d "$root/examples/server" ]]; then
	echo "perfbench: run from the repository root (go.mod, internal/ and examples/server/ are required)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/bin" "$build/run" "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
export CGO_ENABLED=0

go build -C "$root/perfbench" -o "$build/bin/perfbench" .
go build -o "$build/bin/apds-server" ./examples/server

# Only a checkout's own .git names the commit; a copy without one is named
# by the source digest in every result.
commit=unknown
if [[ -e "$root/.git" ]]; then
	commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi

exec "$build/bin/perfbench" -server "$build/bin/apds-server" -work "$build/run" -root "$root" -commit "$commit" "$@"
