#!/bin/sh
# check.sh — the repo's pre-merge gate, also reachable as `make check`.
# In order:
#   - vet (also for GOARCH=arm64, so the pure-Go fallbacks of the amd64
#     kernels compile) and build;
#   - vet and test perfbench/, which is its own Go module, so
#     `go build ./...` never compiles it;
#   - race-test the numeric hot paths and the concurrent serving stack:
#     metrics, hooks, the request coalescer, stream gating, the model
#     registry, the session fleet, the cluster tier and the sequence paths;
#   - run the oracle-backed differential harness, and give each fuzz target
#     a short smoke budget (seed corpora always replay; the extra seconds of
#     mutation catch shallow regressions);
#   - gate the activation panel's vector passes against the per-element
#     kernel, as a same-run ratio;
#   - check that the quick-scale paper-claim verdicts are identical at
#     GOMAXPROCS=1 and 2;
#   - smoke the registry benchmark, then run the cluster (2 replicas),
#     sequence-path and session-fleet (20k) benchmarks and diff each against
#     its committed trajectory with tools/benchdiff.
# The bench smokes run the apds-bench binary built for the verdict check and
# write to a scratch directory, so the gate never rewrites a committed file
# under results/ (regenerate those with `make bench-registry` /
# `make bench-cluster` / `make bench-seq` / `make bench-sessions`).
set -eu

cd "$(dirname "$0")/.."

echo "== go vet ./..."
go vet ./...

echo "== GOARCH=arm64 go vet ./... (type-checks the non-amd64 kernel fallbacks)"
GOARCH=arm64 go vet ./...

echo "== go build ./..."
go build ./...

echo "== perfbench: go vet + go test (separate module)"
go -C perfbench vet ./...
go -C perfbench test ./...

echo "== go test -race (numeric hot paths)"
go test -race ./internal/core/... ./internal/tensor/... ./internal/compile/... ./internal/quantize/...

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
go test -run NONE -fuzz 'FuzzExactVsOracle' -fuzztime 10s ./internal/proptest
go test -run NONE -fuzz 'FuzzConvVsOracle' -fuzztime 10s ./internal/proptest
go test -run NONE -fuzz 'FuzzKnotWindow' -fuzztime 10s ./internal/core
go test -run NONE -fuzz 'FuzzActPanel' -fuzztime 10s ./internal/stats
go test -run NONE -fuzz 'FuzzPanelLanes' -fuzztime 10s ./internal/stats
go test -run NONE -fuzz 'FuzzLoadModel' -fuzztime 10s ./internal/nn

smokedir=$(mktemp -d)
trap 'rm -rf "$smokedir"' EXIT

echo "== activation panel fallback gate: panel ≤ 0.6× per-element moments, same run"
# The activation panel's AVX-512 passes run the served tanh layer at about
# a quarter of the per-element kernel's cost; its Go passes, which also run
# when the vector passes silently stop dispatching, at about 0.7×. Both
# benchmarks run in one go test invocation, so the gate reads a same-run
# ratio of medians, not a number recorded on another machine.
if grep -qw avx512f /proc/cpuinfo 2>/dev/null; then
	go test -run NONE -bench 'ActKernelTanh7$|ActPanelTanh7$' -cpu 1 -count 3 ./internal/core >"$smokedir/actpanel.txt"
	kern=$(awk '/^BenchmarkActKernelTanh7[ \t]/ { print $3 }' "$smokedir/actpanel.txt" | sort -g | sed -n 2p)
	panel=$(awk '/^BenchmarkActPanelTanh7[ \t]/ { for (i = 1; i < NF; i++) if ($(i + 1) == "ns/unit") print $i }' "$smokedir/actpanel.txt" | sort -g | sed -n 2p)
	awk -v p="$panel" -v k="$kern" 'BEGIN {
		r = p / k
		printf "panel %.1f ns/unit, per-element %.1f ns/unit: ratio %.2f (gate 0.60)\n", p, k, r
		exit !(r <= 0.6)
	}'
else
	echo "skip: this CPU has no AVX-512F, so the panel runs its Go passes and the gate does not apply"
fi

echo "== apds-bench -scale quick -verify: same verdicts at GOMAXPROCS=1 and 2"
# Training and MCDrop draw every mask from seeded streams in a fixed order,
# so the paper-claim verdicts and every number behind them must not depend
# on the host's core count. Only the wall-time line may differ.
go build -o "$smokedir/apds-bench" ./cmd/apds-bench
for p in 1 2; do
	GOMAXPROCS=$p "$smokedir/apds-bench" -scale quick -verify \
		-models "$smokedir/verify-models-$p" -results "$smokedir/verify-$p" >"$smokedir/verify-$p.log" 2>&1
	grep -v 'done in' "$smokedir/verify-$p.log" >"$smokedir/verify-$p.txt"
done
diff "$smokedir/verify-1.txt" "$smokedir/verify-2.txt"

echo "== apds-bench -registry (smoke)"
"$smokedir/apds-bench" -registry -registry-duration 200ms -results "$smokedir"

echo "== apds-bench -cluster (2-replica smoke) + benchdiff vs committed trajectory"
"$smokedir/apds-bench" -cluster -cluster-replicas 2 -cluster-duration 300ms -results "$smokedir"
# The committed file carries the full 4-replica sweep; the smoke's 2-replica
# prefix pairs with it by scenario index. Loose tolerance: the gate is
# for the router losing its scaling (speedup) or its latency profile, not for
# box-to-box qps differences.
go run ./tools/benchdiff -base results/BENCH_cluster.json -fresh "$smokedir/BENCH_cluster.json" -tol 0.6

echo "== apds-bench -seq + benchdiff vs committed trajectory"
"$smokedir/apds-bench" -seq -results "$smokedir"
# Catches a sequence fast path or the dense exact backend silently
# degenerating (e.g. per-element alloc/abstraction creep), not cross-machine
# noise.
go run ./tools/benchdiff -base results/BENCH_seq.json -fresh "$smokedir/BENCH_seq.json" -tol 0.6

echo "== apds-bench -sessions (smoke) + benchdiff vs committed trajectory"
"$smokedir/apds-bench" -sessions -session-count 20000 -session-stream 5000 -results "$smokedir"
# The committed file holds 1M resident sessions; the smoke holds 20k. Only
# the *_per_sec rates are gated (per-item costs are scale-independent and
# small runs only get faster); absolute durations and counts are *_sec /
# plain-count keys benchdiff ignores. Catches the arena losing its
# struct-of-arrays footprint economics or the wheel degenerating to scans.
go run ./tools/benchdiff -base results/BENCH_stream.json -fresh "$smokedir/BENCH_stream.json" -tol 0.6

echo "check: ok"
