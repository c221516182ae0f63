package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"runtime/debug"
	"slices"
	"time"

	"github.com/apdeepsense/apdeepsense/internal/core"
	"github.com/apdeepsense/apdeepsense/internal/nn"
	"github.com/apdeepsense/apdeepsense/internal/tensor"
)

// deviceObsVar is the observation variance device-b1's estimator adds; the
// output check removes it again before comparing with the oracle.
const deviceObsVar = 1e-3

var deviceB1 = &workload{
	name: "device-b1",
	layers: []string{
		"loadgen.cpu_us_per_op", "setup.load_s", "setup.build_s",
		"core.propagate_us_per_row", "core.l0.affine_us", "core.l0.activation_us", "core.l1.affine_us",
		"core.l1.activation_us", "core.l2.affine_us", "core.l2.activation_us", "core.activation_share",
		"core.b1_interp_us", "core.b1_compiled_us", "core.b64_interp_us_per_row", "core.b64_compiled_us_per_row",
		"runtime.alloc_kb_per_op", "runtime.gc_pause_ms", "trace.overhead_pct",
	},
	run: runDevice,
}

const (
	// poolRows is the number of distinct inputs a workload serves; each is
	// checked against the oracle once.
	poolRows = 256
	// setupRepeats and setupSpan bound how often every workload repeats its
	// set-up before the timed window and again after it: at least
	// setupRepeats times and for at least setupSpan. setup_s is the median
	// of the fastest tenth of them.
	setupRepeats = 5
	setupSpan    = 2 * time.Second
	// warmCalls is the number of predictions a set-up makes after building.
	warmCalls = 16
)

// inputSeq returns a seeded sequence of row indices into a pool of n rows.
func inputSeq(rng *rand.Rand, n, length int) []int {
	seq := make([]int, length)
	for i := range seq {
		seq[i] = rng.Intn(n)
	}
	return seq
}

// rowsOf returns the pool rows a sequence of indices names.
func rowsOf(pool []tensor.Vector, idx []int) []tensor.Vector {
	out := make([]tensor.Vector, len(idx))
	for i, r := range idx {
		out[i] = pool[r]
	}
	return out
}

func runDevice(cfg config) (*outcome, error) {
	modelBytes, err := denseReLU.encode()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	rows := inputRows(rng, poolRows, denseReLU.in)
	seq := inputSeq(rng, poolRows, 1<<16)

	var (
		est                  *core.ApDeepSense
		net                  *nn.Network
		loads, builds, total []float64
	)
	setup := func() error {
		debug.FreeOSMemory()
		t0 := time.Now()
		var err error
		if net, err = nn.Load(bytes.NewReader(modelBytes)); err != nil {
			return err
		}
		t1 := time.Now()
		if est, err = core.NewApDeepSense(net, core.Options{}, deviceObsVar); err != nil {
			return err
		}
		for k := 0; k < warmCalls; k++ {
			if _, err := est.Predict(rows[k%len(rows)]); err != nil {
				return err
			}
		}
		t2 := time.Now()
		loads = append(loads, t1.Sub(t0).Seconds())
		builds = append(builds, t2.Sub(t1).Seconds())
		total = append(total, t2.Sub(t0).Seconds())
		return nil
	}
	if err := repeatSetup(setup); err != nil {
		return nil, err
	}

	chk, err := newChecker(net, rows, deviceObsVar, false)
	if err != nil {
		return nil, err
	}
	predict := func(i int) error {
		r := seq[i%len(seq)]
		g, err := est.Predict(rows[r])
		if err != nil {
			return err
		}
		chk.observe(r, answer{g.Mean, g.Var})
		return nil
	}
	out := &outcome{report: map[string]any{
		"model": denseReLU.String(),
		"loop":  "closed, 1 goroutine",
	}}
	if !cfg.trace {
		m, err := timedInProcess(cfg.window(), predict)
		if err != nil {
			return nil, err
		}
		failed, checkErr := chk.verify()
		if out, err = windowOutcome(out, m.w, failed, checkErr); err != nil {
			return nil, err
		}
		m = inProcess{} // drop the window's arrays before the set-ups after it
		return out, setupOutcome(out, setup, &total)
	}

	lv := newLayerVals()
	lv.put("setup.load_s", median(loads))
	lv.put("setup.build_s", median(builds))
	half := cfg.window() / 2
	plain, err := timedInProcess(half, predict)
	if err != nil {
		return nil, err
	}
	putInProcessLoad(lv, plain)

	hc := &hookCounts{}
	est.Propagator().SetHooks(hc.hooks())
	tr := newTracer()
	traced := closedLoop(half, reserved(len(plain.w.lat), half), noCPU, func(i int) error {
		t0 := time.Now()
		err := predict(i)
		tr.record(i, "core.predict", "", t0, time.Now())
		return err
	})
	est.Propagator().SetHooks(nil)
	putHooks(lv, hc)
	putOverhead(lv, plain.w, traced)
	if err := probeCore(net, rows, 1, lv); err != nil {
		return nil, err
	}
	if err := tr.write(cfg.work, cfg.workload, cfg.seed); err != nil {
		return nil, err
	}
	out.report["spans"] = tr.count
	failed, checkErr := chk.verify()
	return finishTraced(out, lv, failed, checkErr, plain.w, traced), nil
}

// repeatSetup runs setup at least setupRepeats times and until setupSpan
// has passed. Set-up r runs on the r-th of this process's allowed CPUs,
// round robin, as the slices of a timed window do; a server started in it
// inherits that CPU.
func repeatSetup(setup func() error) error {
	cpus, err := allowedCPUs()
	if err != nil {
		return err
	}
	self := os.Getpid()
	t0 := time.Now()
	for r := 0; r < setupRepeats || time.Since(t0) < setupSpan; r++ {
		if err := pinProcess(self, cpus[r%len(cpus):r%len(cpus)+1]); err != nil {
			return err
		}
		if err := setup(); err != nil {
			return err
		}
	}
	return pinProcess(self, cpus)
}

// setupOutcome repeats set-up after an untraced window, whose figures and
// arrays the caller has already taken and dropped, so that the set-ups
// after the window run on the same live heap as those before it. setup_s is
// the median of the fastest tenth of the set-up times, which setup appends to
// times: like the window's fast slices, it reads the host in its fast
// phases.
func setupOutcome(out *outcome, setup func() error, times *[]float64) error {
	if err := repeatSetup(setup); err != nil {
		return err
	}
	out.report["setups"] = setupSummary(*times)
	out.metrics["setup_s"] = quantile(*times, fastShare/2)
	return nil
}

// setupSummary describes a run's repeated set-up times for the report.
func setupSummary(xs []float64) map[string]any {
	return map[string]any{"n": len(xs), "min_s": slices.Min(xs), "median_s": median(xs), "max_s": slices.Max(xs)}
}

// inProcess is what a timed in-process window measured.
type inProcess struct {
	w  window
	rt runtimeDelta
	// loopCPU is the closed loop's own CPU per operation, measured on an
	// empty operation.
	loopCPU time.Duration
}

// warmupFor is the untimed run before a window: long enough to fill
// caches, pools and the GC pacer's history.
func warmupFor(d time.Duration) time.Duration {
	if w := d / 10; w < time.Second {
		return w
	}
	return time.Second
}

// timedInProcess warms op up, then runs it closed-loop for d measuring
// latency, throughput, this process's CPU and peak RSS, and its runtime
// counters.
func timedInProcess(d time.Duration, op func(int) error) (inProcess, error) {
	wd := warmupFor(d)
	w := reserved(room(closedLoop(wd, window{}, noCPU, op), wd, d), d)
	debug.FreeOSMemory()
	ms := readRuntime()
	w, err := timed(0, os.Getpid(), func(cpu func() time.Duration) window { return closedLoop(d, w, cpu, op) })
	if err != nil {
		return inProcess{}, fmt.Errorf("measure window: %w", err)
	}
	// The process that does the work also holds the window's bookkeeping,
	// which grows with throughput; its peak RSS is reported without it.
	w.peakMB -= w.reservedMB()
	return inProcess{w: w, rt: runtimeSince(ms), loopCPU: loopCPU()}, nil
}

// loopCPU measures closedLoop's own bookkeeping per operation.
func loopCPU() time.Duration {
	c0 := selfCPU()
	w := closedLoop(200*time.Millisecond, window{}, noCPU, func(int) error { return nil })
	return (selfCPU() - c0) / time.Duration(w.attempted)
}

// putInProcessLoad records the load generator and runtime metrics of an
// in-process window.
func putInProcessLoad(lv *layerVals, m inProcess) {
	ops := float64(m.w.attempted)
	lv.put("loadgen.cpu_us_per_op", float64(m.loopCPU.Nanoseconds())/1e3)
	lv.put("runtime.alloc_kb_per_op", m.rt.allocBytes/1024/ops)
	lv.put("runtime.gc_pause_ms", float64(m.rt.pause.Nanoseconds())/1e6)
}

// putOverhead records how much tracing slowed the median operation.
func putOverhead(lv *layerVals, plain, traced window) {
	p0, p1 := plain.lat.quantileMs(0.5), traced.lat.quantileMs(0.5)
	lv.put("trace.overhead_pct", 100*(p1-p0)/p0)
}

// windowOutcome fills the end-to-end metrics of an untraced window, all
// but setup_s (see setupOutcome). Latency, throughput and CPU come from the
// window's fast slices, peak RSS and ok_pct from all of it. failed counts
// operations whose output the check rejected after the window, on top of
// those that failed during it.
func windowOutcome(out *outcome, w window, failed int, checkErr error) (*outcome, error) {
	lat, elapsed, cpu, ok := w.fast()
	if !ok {
		return nil, fmt.Errorf("%d operations do not put %d samples beyond the p90", len(w.lat), minTail)
	}
	out.attempted = w.attempted
	out.failed = min(w.failed+failed, w.attempted)
	out.checkErr = checkErr
	n := float64(len(lat))
	out.metrics = map[string]float64{
		"p50_ms":        lat.quantileMs(0.5),
		"p90_ms":        lat.quantileMs(0.9),
		"ops_per_s":     n / elapsed.Seconds(),
		"cpu_us_per_op": float64(cpu.Nanoseconds()) / 1e3 / n,
		"peak_rss_mb":   w.peakMB,
		"ok_pct":        100 * float64(out.attempted-out.failed) / float64(w.attempted),
	}
	out.report["samples"] = len(lat)
	out.report["fast_s"] = elapsed.Seconds()
	out.report["window_ops"] = w.attempted
	out.report["window_s"] = w.elapsed.Seconds()
	return out, nil
}

// finishTraced totals the operations of a traced run's windows and attaches
// its per-layer metrics.
func finishTraced(out *outcome, lv *layerVals, failed int, checkErr error, windows ...window) *outcome {
	for _, w := range windows {
		out.attempted += w.attempted
		out.failed += w.failed
	}
	out.failed = min(out.failed+failed, out.attempted)
	out.checkErr = checkErr
	out.layers = lv
	return out
}
