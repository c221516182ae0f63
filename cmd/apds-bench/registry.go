package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/apdeepsense/apdeepsense/internal/nn"
	"github.com/apdeepsense/apdeepsense/internal/obs"
	"github.com/apdeepsense/apdeepsense/internal/registry"
	"github.com/apdeepsense/apdeepsense/internal/report"
	"github.com/apdeepsense/apdeepsense/internal/serve"
	"github.com/apdeepsense/apdeepsense/internal/tensor"
)

// registryBenchClients is the closed-loop client count for every registry
// cell: enough concurrency to keep the coalescer pools batching.
const registryBenchClients = 16

// registryBenchEntry is one mode cell of BENCH_registry.json.
type registryBenchEntry struct {
	Mode      string  `json:"mode"` // steady | swapping | reloading | shadow
	Requests  int64   `json:"requests"`
	QPS       float64 `json:"qps"`
	P50Micros float64 `json:"p50_micros"`
	P95Micros float64 `json:"p95_micros"`
	P99Micros float64 `json:"p99_micros"`
	// QPSvsSteady is this cell's throughput relative to the steady cell
	// (set on non-steady rows): the cost of continuous swaps / shadowing.
	QPSvsSteady float64 `json:"qps_vs_steady,omitempty"`
	// Swaps counts route-table swaps (swapping) or full hot-reloads
	// (reloading) applied during the cell.
	Swaps int64 `json:"swaps,omitempty"`
	// SwapP50Micros / SwapP99Micros are latency percentiles of one swap:
	// SetRoutes alone (swapping) or load+warmup+register+route (reloading).
	SwapP50Micros float64 `json:"swap_p50_micros,omitempty"`
	SwapP99Micros float64 `json:"swap_p99_micros,omitempty"`
	// ShadowCompleted / ShadowDropped count duplicate comparisons in the
	// shadow cell (dropped = shadow pool saturated; never blocks primary).
	ShadowCompleted int64 `json:"shadow_completed,omitempty"`
	ShadowDropped   int64 `json:"shadow_dropped,omitempty"`
}

type registryBenchReport struct {
	Network    string               `json:"network"`
	KeepProb   float64              `json:"keep_prob"`
	MaxBatch   int                  `json:"max_batch"`
	Clients    int                  `json:"clients"`
	CellSecs   float64              `json:"cell_seconds"`
	GOMAXPROCS int                  `json:"gomaxprocs"`
	Timestamp  string               `json:"timestamp"`
	Entries    []registryBenchEntry `json:"entries"`
}

// emitRegistryBench measures the model-registry serving path. Four
// closed-loop cells cover steady single-version serving (the baseline),
// serving while route tables swap continuously, serving while whole versions
// hot-reload (load + warmup + register + route), and serving with shadow
// duplication to a candidate version. A paced open-loop pair then compares
// primary-path latency with shadow off and on at a tenth of steady capacity.
// Results print as a table and land in BENCH_registry.json under dir.
func emitRegistryBench(dir string, cell time.Duration) error {
	mkNet := func(seed int64) (*nn.Network, error) {
		return nn.New(nn.Config{
			InputDim: 5, Hidden: []int{256, 256}, OutputDim: 1,
			Activation: nn.ActReLU, OutputActivation: nn.ActIdentity,
			KeepProb: 0.9, Seed: seed,
		})
	}
	obsReg := obs.NewRegistry()
	met := registry.NewMetrics(obsReg)
	r := registry.New(registry.Config{
		Serve:   serve.Config{MaxBatch: 64, MaxWait: 2 * time.Millisecond, QueueDepth: 1024},
		Metrics: met,
	})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = r.Close(ctx)
	}()
	for seed, id := range map[int64]string{1: "v1", 2: "v2"} {
		net, err := mkNet(seed)
		if err != nil {
			return fmt.Errorf("registry bench: %w", err)
		}
		if _, err := r.AddVersion("m", id, net); err != nil {
			return fmt.Errorf("registry bench: %w", err)
		}
	}
	if err := r.SetRoutes("m", "v1", "", 0, ""); err != nil {
		return fmt.Errorf("registry bench: %w", err)
	}

	rep := registryBenchReport{
		Network:    "5-256-256-1",
		KeepProb:   0.9,
		MaxBatch:   64,
		Clients:    registryBenchClients,
		CellSecs:   cell.Seconds(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
	}
	tbl := &report.Table{
		Title: "Model registry: serving under hot-swap / reload / shadow (5-256-256-1)",
		Headers: []string{"mode", "qps", "p50 µs", "p95 µs", "p99 µs",
			"vs steady", "swaps", "swap p50 µs", "swap p99 µs"},
	}
	ctx := context.Background()
	var seq atomic.Int64
	predict := func(x tensor.Vector) error {
		key := fmt.Sprintf("r%d", seq.Add(1))
		_, _, err := r.Predict(ctx, "m", key, x)
		return err
	}

	addRow := func(e registryBenchEntry) {
		rep.Entries = append(rep.Entries, e)
		vs, sw, p50, p99 := "", "", "", ""
		if e.QPSvsSteady > 0 {
			vs = fmt.Sprintf("%.2fx", e.QPSvsSteady)
		}
		if e.Swaps > 0 {
			sw = fmt.Sprint(e.Swaps)
			p50 = fmt.Sprintf("%.0f", e.SwapP50Micros)
			p99 = fmt.Sprintf("%.0f", e.SwapP99Micros)
		}
		tbl.AddRow(e.Mode, fmt.Sprintf("%.0f", e.QPS),
			fmt.Sprintf("%.0f", e.P50Micros), fmt.Sprintf("%.0f", e.P95Micros),
			fmt.Sprintf("%.0f", e.P99Micros), vs, sw, p50, p99)
	}

	// Cell 1: steady — one routed version, no mutations.
	steady := closedLoopCell(cell, predict)
	steady.Mode = "steady"
	addRow(steady)
	baseQPS := steady.QPS

	// mutateCell runs one cell with a background mutator invoking step in a
	// loop (spaced by gap) and returns the cell entry plus swap latencies.
	mutateCell := func(mode string, gap time.Duration, step func(i int) error) (registryBenchEntry, error) {
		stop := make(chan struct{})
		var mu sync.Mutex
		var swapLats []float64
		var swaps int64
		var mutErr error
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				t0 := time.Now()
				if err := step(i); err != nil {
					mutErr = err
					return
				}
				mu.Lock()
				swapLats = append(swapLats, float64(time.Since(t0).Microseconds()))
				swaps++
				mu.Unlock()
				time.Sleep(gap)
			}
		}()
		e := closedLoopCell(cell, predict)
		close(stop)
		wg.Wait()
		if mutErr != nil {
			return registryBenchEntry{}, fmt.Errorf("registry bench %s: %w", mode, mutErr)
		}
		sort.Float64s(swapLats)
		e.Mode, e.Swaps = mode, swaps
		e.SwapP50Micros = percentile(swapLats, 0.50)
		e.SwapP99Micros = percentile(swapLats, 0.99)
		if baseQPS > 0 {
			e.QPSvsSteady = e.QPS / baseQPS
		}
		return e, nil
	}

	// Cell 2: swapping — the route table flips between two standing versions
	// continuously while clients predict. Swap latency is SetRoutes alone.
	entry, err := mutateCell("swapping", 10*time.Millisecond, func(i int) error {
		target := "v1"
		if i%2 == 1 {
			target = "v2"
		}
		return r.SetRoutes("m", target, "", 0, "")
	})
	if err != nil {
		return err
	}
	addRow(entry)

	// Cell 3: reloading — a full hot-reload per step: build a fresh network
	// (standing in for loading new weights from disk), warm it, register it
	// under a constant ID, and route to it. The displaced version drains in
	// the background while clients keep predicting.
	entry, err = mutateCell("reloading", 50*time.Millisecond, func(i int) error {
		net, err := mkNet(int64(100 + i))
		if err != nil {
			return err
		}
		if _, err := r.AddVersion("m", "hot", net); err != nil {
			return err
		}
		return r.SetRoutes("m", "hot", "", 0, "")
	})
	if err != nil {
		return err
	}
	addRow(entry)

	// Cell 4: shadow — every primary answer is duplicated to a candidate
	// version in the background. The check: primary-path latency and QPS stay
	// at the steady cell's level (shadow work must never block admission).
	if err := r.SetRoutes("m", "v1", "", 0, "v2"); err != nil {
		return fmt.Errorf("registry bench: %w", err)
	}
	entry = closedLoopCell(cell, predict)
	entry.Mode = "shadow"
	entry.ShadowCompleted = int64(met.ShadowCompleted("m"))
	entry.ShadowDropped = int64(met.ShadowDropped("m"))
	if baseQPS > 0 {
		entry.QPSvsSteady = entry.QPS / baseQPS
	}
	addRow(entry)

	// Cells 5+6: paced open-loop pair — the shadow-overhead claim proper.
	// The closed-loop cells saturate the CPU, where any duplicated compute
	// must cost throughput; the design claim is about latency at normal
	// utilization. Requests arrive at ~10% of steady capacity with shadow
	// off, then again with shadow on: the primary-path percentiles should
	// move only within scheduler noise because shadow jobs run strictly
	// behind a bounded queue that drops rather than delays.
	pacedRate := baseQPS * 0.10
	if err := r.SetRoutes("m", "v1", "", 0, ""); err != nil {
		return fmt.Errorf("registry bench: %w", err)
	}
	pacedOff := pacedCell(pacedRate, cell, predict)
	pacedOff.Mode = "paced"
	addRow(pacedOff)
	shadowBefore := met.ShadowCompleted("m")
	if err := r.SetRoutes("m", "v1", "", 0, "v2"); err != nil {
		return fmt.Errorf("registry bench: %w", err)
	}
	pacedOn := pacedCell(pacedRate, cell, predict)
	pacedOn.Mode = "paced_shadow"
	pacedOn.ShadowCompleted = int64(met.ShadowCompleted("m") - shadowBefore)
	addRow(pacedOn)

	tbl.Notes = append(tbl.Notes,
		fmt.Sprintf("closed loop, %d clients; every request flows through the registry's per-version coalescer pools", registryBenchClients),
		"swapping = SetRoutes flips between two standing versions; reloading = build+warm+register+route a new version each step",
		fmt.Sprintf("shadow cell duplicated %d requests to the candidate (%d dropped); at closed-loop saturation the duplicate compute necessarily costs throughput",
			entry.ShadowCompleted, entry.ShadowDropped),
		fmt.Sprintf("paced pair arrives open-loop at %.0f req/s (~10%% of steady capacity): paced_shadow p50 vs paced p50 is the true primary-path shadow overhead (%.0f vs %.0f µs)",
			pacedRate, pacedOn.P50Micros, pacedOff.P50Micros),
	)

	text, err := tbl.Render()
	if err != nil {
		return err
	}
	fmt.Println(text)
	js, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "BENCH_registry.json"), append(js, '\n'), 0o644)
}

// closedLoopCell drives one closed-loop cell: registryBenchClients clients
// issue requests through call back to back for roughly d, after a short
// warmup. It returns the request count, throughput and latency percentiles.
func closedLoopCell(d time.Duration, call func(tensor.Vector) error) registryBenchEntry {
	inputs := benchBatchInputs(256, 5)
	run := func(d time.Duration, record bool) []float64 {
		var (
			wg   sync.WaitGroup
			lats = make([][]float64, registryBenchClients)
		)
		start := time.Now()
		for w := range lats {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				x := inputs[w%len(inputs)]
				for time.Since(start) < d {
					t0 := time.Now()
					if err := call(x); err != nil {
						panic(fmt.Sprintf("apds-bench registry: %v", err))
					}
					if record {
						lats[w] = append(lats[w], float64(time.Since(t0).Microseconds()))
					}
				}
			}(w)
		}
		wg.Wait()
		var all []float64
		for _, l := range lats {
			all = append(all, l...)
		}
		return all
	}

	run(d/10+10*time.Millisecond, false) // warmup: prime scratch pools and scheduler
	start := time.Now()
	lats := run(d, true)
	return latencyEntry(lats, time.Since(start))
}

// pacedCell offers call open loop at rate for d (see openLoop) and keeps
// only the answered arrivals: queue-full rejections under arrival bursts
// leave the latency sample rather than failing the cell.
func pacedCell(rate float64, d time.Duration, call func(tensor.Vector) error) registryBenchEntry {
	if rate <= 0 {
		return registryBenchEntry{}
	}
	inputs := benchBatchInputs(256, 5)
	samples, elapsed := openLoop(rate, d, nil, func(i int64) bool {
		return call(inputs[i%int64(len(inputs))]) == nil
	})
	var lats []float64
	for _, s := range samples {
		if s.ok {
			lats = append(lats, s.micros)
		}
	}
	return latencyEntry(lats, elapsed)
}

// latencyEntry summarises one cell's successful request latencies
// (microseconds) over elapsed wall time.
func latencyEntry(lats []float64, elapsed time.Duration) registryBenchEntry {
	sort.Float64s(lats)
	return registryBenchEntry{
		Requests:  int64(len(lats)),
		QPS:       float64(len(lats)) / elapsed.Seconds(),
		P50Micros: percentile(lats, 0.50),
		P95Micros: percentile(lats, 0.95),
		P99Micros: percentile(lats, 0.99),
	}
}

// benchBatchInputs returns n seeded standard-normal input rows of width dim.
func benchBatchInputs(n, dim int) []tensor.Vector {
	rng := rand.New(rand.NewSource(7))
	out := make([]tensor.Vector, n)
	for i := range out {
		v := make(tensor.Vector, dim)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		out[i] = v
	}
	return out
}
