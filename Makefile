# Developer entry points. `make check` is the pre-merge gate: vet + build +
# race tests over the numeric hot paths, the observability/serving path, and
# the oracle-backed differential harness + a fuzz smoke pass over every fuzz
# target + the batched propagation benchmark with its metrics snapshot
# (results/BENCH_batch.json, results/BENCH_obs.prom) + smoke runs of the
# serving, registry, quantized-propagator, and sequence-path benchmarks
# (the last two diffed against their committed trajectories with
# tools/benchdiff).

.PHONY: check test fuzz bench bench-hooks bench-serve bench-registry bench-quant bench-cluster bench-seq bench-sessions build

check:
	./tools/check.sh

build:
	go build ./...

test:
	go test ./...

# Longer fuzz cells than the check.sh smoke pass: run before touching the
# closed-form activation moments, the blocked kernels, or the serializer.
fuzz:
	go test -run NONE -fuzz 'FuzzPropagateVsOracle' -fuzztime 2m ./internal/proptest
	go test -run NONE -fuzz 'FuzzBatchVsSequential' -fuzztime 2m ./internal/proptest
	go test -run NONE -fuzz 'FuzzCompiledVsInterpreted' -fuzztime 2m ./internal/proptest
	go test -run NONE -fuzz 'FuzzQuantizedVsFloat' -fuzztime 2m ./internal/proptest
	go test -run NONE -fuzz 'FuzzExactVsOracle' -fuzztime 2m ./internal/proptest
	go test -run NONE -fuzz 'FuzzConvVsOracle' -fuzztime 2m ./internal/proptest
	go test -run NONE -fuzz 'FuzzQMadd' -fuzztime 2m ./internal/tensor
	go test -run NONE -fuzz 'FuzzLoadModel' -fuzztime 2m ./internal/nn

bench:
	go test -run NONE -bench . -benchtime 2s .

# The instrumentation-overhead pair: PropagateBatch with nil hooks must stay
# within noise of the pre-instrumentation baseline recorded in
# internal/core/hooks_bench_test.go; the Hooked variant shows the cost of
# live callbacks.
bench-hooks:
	go test -run NONE -bench 'PropagateBatch(NilHooks|Hooked)' -benchtime 2s ./internal/core

# The serving benchmark: closed-loop clients at concurrency 1/8/64, coalesced
# vs per-request, recorded as results/BENCH_serve.json (the committed
# artifact; EXPERIMENTS.md documents the recorded run).
bench-serve:
	go run ./cmd/apds-bench -serve -results results

# The registry benchmark: serving through the model registry while route
# tables swap, versions hot-reload, and shadow traffic duplicates to a
# candidate, recorded as results/BENCH_registry.json (the committed artifact).
bench-registry:
	go run ./cmd/apds-bench -registry -results results

# The quantized-propagator benchmark: the int8/int16 fixed-point path vs the
# float engine at batch 1/8/64, plus model-size and Edison cost-model
# projections, recorded as results/BENCH_quant.json (the committed
# artifact). `tools/benchdiff` diffs a fresh run against it in check.sh.
bench-quant:
	go run ./cmd/apds-bench -quant -results results

# The cluster benchmark: N replica processes behind the consistent-hash
# router under open-loop load — replica scaling at fixed offered load, node
# kill, rolling reload, and Zipf hot-key skew — recorded as
# results/BENCH_cluster.json (the committed artifact). check.sh runs a
# 2-replica smoke and diffs it against this file.
bench-cluster:
	go run ./cmd/apds-bench -cluster -results results

# The sequence benchmark: conv/RNN/GRU moment-propagation paths plus dense
# rectifier nets on the exact activation backend, recorded as
# results/BENCH_seq.json (the committed artifact). `tools/benchdiff` diffs a
# fresh run against it in check.sh.
bench-seq:
	go run ./cmd/apds-bench -seq -results results

# The session-fleet benchmark: 1M resident device sessions through the
# struct-of-arrays arena — create/ingest/window throughput, bytes per
# session, whole-fleet snapshot/restore with verdict continuity, and a full
# idle-eviction churn through the timing wheel — recorded as
# results/BENCH_stream.json (the committed artifact). check.sh runs a 20k
# smoke and diffs its rates against this file.
bench-sessions:
	go run ./cmd/apds-bench -sessions -results results
