#!/bin/sh
# check.sh — the repo's pre-merge gate, also reachable as `make check`:
# vet, build, vet and test the benchmark module (perfbench/ is its own Go
# module, so `go build ./...` never compiles it), race-test the numeric hot paths AND the observability/serving
# path (the metrics registry, hooks, the request coalescer, and stream gating
# are explicitly concurrent), run the oracle-backed differential harness, give
# each fuzz target a short smoke budget (seed corpora always replay; the extra
# seconds of mutation catch shallow regressions), then record the batched
# propagation benchmark with its metrics snapshot (results/BENCH_batch.json +
# results/BENCH_obs.prom) and smoke runs of the serving and registry
# benchmarks, and finally run the quantized-propagator
# and sequence-path (conv/RNN/GRU + dense exact-backend) benchmarks, a
# 2-replica cluster smoke, and a 20k session-fleet smoke and diff each
# against its committed trajectory with tools/benchdiff. The smoke bench runs write to a scratch directory so short
# cells never clobber the committed results/BENCH_serve.json /
# BENCH_registry.json / BENCH_cluster.json / BENCH_seq.json (regenerate those
# with `make bench-serve` / `make bench-registry` /
# `make bench-quant` / `make bench-cluster` / `make bench-seq`).
set -eu

cd "$(dirname "$0")/.."

echo "== go vet ./..."
go vet ./...

echo "== go build ./..."
go build ./...

echo "== perfbench: go vet + go test (separate module)"
go -C perfbench vet ./...
go -C perfbench test ./...

echo "== go test -race (numeric hot paths)"
go test -race ./internal/core/... ./internal/tensor/... ./internal/compile/... ./internal/qprop/... ./internal/quantize/...

echo "== go test -race (observability + serving path)"
go test -race ./internal/obs/... ./internal/stream/... ./internal/serve/... ./examples/server/...

echo "== go test -race (model registry: hot-swap, shadow, manifest reload)"
go test -race ./internal/registry/...

echo "== go test -race (session fleet: arena, wheel, snapshot, hammer)"
go test -race ./internal/session/... ./internal/stats/...

echo "== go test -race (cluster tier: hash, ring, router, budgets)"
go test -race ./internal/hashkey/... ./internal/cluster/...

echo "== manifest hot-reload smoke (end-to-end through the HTTP server)"
go test -race -run 'TestManifestReloadSmoke|TestReadinessLifecycle' ./examples/server/

echo "== go test -race (sequence paths: conv + rnn)"
go test -race ./internal/conv/... ./internal/rnn/...

echo "== go test -race (oracle + differential harness)"
go test -race ./internal/oracle/... ./internal/proptest/...

echo "== fuzz smoke (10s per target)"
go test -run NONE -fuzz 'FuzzPropagateVsOracle' -fuzztime 10s ./internal/proptest
go test -run NONE -fuzz 'FuzzBatchVsSequential' -fuzztime 10s ./internal/proptest
go test -run NONE -fuzz 'FuzzCompiledVsInterpreted' -fuzztime 10s ./internal/proptest
go test -run NONE -fuzz 'FuzzQuantizedVsFloat' -fuzztime 10s ./internal/proptest
go test -run NONE -fuzz 'FuzzExactVsOracle' -fuzztime 10s ./internal/proptest
go test -run NONE -fuzz 'FuzzConvVsOracle' -fuzztime 10s ./internal/proptest
go test -run NONE -fuzz 'FuzzQMadd' -fuzztime 10s ./internal/tensor
go test -run NONE -fuzz 'FuzzLoadModel' -fuzztime 10s ./internal/nn

echo "== apds-bench -batch -obs"
go run ./cmd/apds-bench -batch -obs -results results

echo "== apds-bench -serve (smoke)"
smokedir=$(mktemp -d)
trap 'rm -rf "$smokedir"' EXIT
go run ./cmd/apds-bench -serve -serve-duration 200ms -results "$smokedir"

echo "== apds-bench -registry (smoke)"
go run ./cmd/apds-bench -registry -registry-duration 200ms -results "$smokedir"

echo "== apds-bench -quant + benchdiff vs committed trajectory"
go run ./cmd/apds-bench -quant -results "$smokedir"
# Loose tolerance: the committed numbers come from another box; this gate
# catches the fixed-point path silently losing its integer kernels (scalar
# fallback) or its size advantage, not machine noise.
go run ./tools/benchdiff -base results/BENCH_quant.json -fresh "$smokedir/BENCH_quant.json" -tol 0.6

echo "== apds-bench -cluster (2-replica smoke) + benchdiff vs committed trajectory"
go run ./cmd/apds-bench -cluster -cluster-replicas 2 -cluster-duration 300ms -results "$smokedir"
# The committed file carries the full 4-replica sweep; the smoke's 2-replica
# prefix pairs with it by scenario index. Loose tolerance again: the gate is
# for the router losing its scaling (speedup) or its latency profile, not for
# box-to-box qps differences.
go run ./tools/benchdiff -base results/BENCH_cluster.json -fresh "$smokedir/BENCH_cluster.json" -tol 0.6

echo "== apds-bench -seq + benchdiff vs committed trajectory"
go run ./cmd/apds-bench -seq -results "$smokedir"
# Catches a sequence fast path or the dense exact backend silently
# degenerating (e.g. per-element alloc/abstraction creep), not cross-machine
# noise.
go run ./tools/benchdiff -base results/BENCH_seq.json -fresh "$smokedir/BENCH_seq.json" -tol 0.6

echo "== apds-bench -sessions (smoke) + benchdiff vs committed trajectory"
go run ./cmd/apds-bench -sessions -session-count 20000 -session-stream 5000 -results "$smokedir"
# The committed file holds 1M resident sessions; the smoke holds 20k. Only
# the *_per_sec rates are gated (per-item costs are scale-independent and
# small runs only get faster); absolute durations and counts are *_sec /
# plain-count keys benchdiff ignores. Catches the arena losing its
# struct-of-arrays footprint economics or the wheel degenerating to scans.
go run ./tools/benchdiff -base results/BENCH_stream.json -fresh "$smokedir/BENCH_stream.json" -tol 0.6

echo "check: ok"
