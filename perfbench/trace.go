package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"github.com/apdeepsense/apdeepsense/internal/compile"
	"github.com/apdeepsense/apdeepsense/internal/core"
	"github.com/apdeepsense/apdeepsense/internal/nn"
	"github.com/apdeepsense/apdeepsense/internal/stats"
	"github.com/apdeepsense/apdeepsense/internal/tensor"
)

// maxSpans bounds the spans a traced run keeps for writing out. Per-layer
// metrics are aggregated from every span; only the stored copy is capped.
const maxSpans = 50000

// span is one call into a layer. Spans of one operation share op; parent
// names the enclosing span ("" for the operation's root).
type span struct {
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans relative to its creation time and keeps a running
// total per span name.
type tracer struct {
	t0    time.Time
	spans []span
	total map[string]time.Duration
	count map[string]int
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), total: map[string]time.Duration{}, count: map[string]int{}}
}

// record adds a finished span.
func (t *tracer) record(op int, name, parent string, start, end time.Time) {
	d := end.Sub(start)
	t.total[name] += d
	t.count[name]++
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{op, name, parent, int64(start.Sub(t.t0)), int64(end.Sub(t.t0))})
	}
}

// meanUs is the mean duration of the named spans in microseconds.
func (t *tracer) meanUs(name string) float64 {
	return ratio(float64(t.total[name].Microseconds()), float64(t.count[name]))
}

// write stores the kept spans as JSON lines under dir.
func (t *tracer) write(dir, workload string, seed int64) error {
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("spans-%s-%d.jsonl", workload, seed)))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// hookCounts accumulates core.Hooks callbacks during a traced window.
type hookCounts struct {
	mu         sync.Mutex
	rows       int // rows through the first layer
	layer      map[int]time.Duration
	hits, gets int
}

func (h *hookCounts) hooks() *core.Hooks {
	h.layer = map[int]time.Duration{}
	return &core.Hooks{
		LayerTime: func(layer, rows int, d time.Duration) {
			h.mu.Lock()
			h.layer[layer] += d
			if layer == 0 {
				h.rows += rows
			}
			h.mu.Unlock()
		},
		ScratchGet: func(hit bool) {
			h.mu.Lock()
			h.gets++
			if hit {
				h.hits++
			}
			h.mu.Unlock()
		},
	}
}

// perCallUs times fn: five blocks of at least 20 ms each, reporting the
// median block's mean time per call in microseconds.
func perCallUs(fn func()) float64 {
	const blocks, minBlock = 5, 20 * time.Millisecond
	fn() // warm caches and pools
	var per []float64
	for b := 0; b < blocks; b++ {
		n := 0
		t0 := time.Now()
		for time.Since(t0) < minBlock {
			fn()
			n++
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(n)/1e3)
	}
	return median(per)
}

// probeCore measures the core layer on net in isolation: the affine versus
// activation split per layer, and batch-1 and batch-64 cost with and
// without a compiled program.
// Pre-activation values come from PropagateTrace on the workload's inputs,
// so the activation kernel sees the moments the workload produces. batch
// selects per-sample DenseMoments (1) or the batched matmul (64) as the
// affine step.
func probeCore(net *nn.Network, rows []tensor.Vector, batch int, lv *layerVals) error {
	const n = 64
	if len(rows) < n {
		return fmt.Errorf("probe needs %d rows, have %d", n, len(rows))
	}
	rows = rows[:n]
	prop, err := core.NewPropagator(net, core.Options{})
	if err != nil {
		return err
	}
	layers := net.Layers()
	// ins[l][r] is row r's input to layer l; pre[l][r] its pre-activation.
	ins := make([][]core.GaussianVec, len(layers))
	pre := make([][]core.GaussianVec, len(layers))
	for _, x := range rows {
		_, tr, err := prop.PropagateTrace(x)
		if err != nil {
			return err
		}
		for l, layer := range layers {
			in := core.Deterministic(x)
			if l > 0 {
				in = tr[l-1]
			}
			ins[l] = append(ins[l], in)
			p, err := core.DenseMoments(in, layer, layer.W.Square())
			if err != nil {
				return err
			}
			pre[l] = append(pre[l], p)
		}
	}

	var affSum, actSum float64
	for l, layer := range layers {
		wsq := layer.W.Square()
		var aff float64
		if batch == 1 {
			aff = perCallUs(func() {
				for _, in := range ins[l] {
					_, _ = core.DenseMoments(in, layer, wsq)
				}
			}) / n
		} else {
			mu, va := tensor.NewMatrix(n, layer.InDim()), tensor.NewMatrix(n, layer.InDim())
			for r, in := range ins[l] {
				copy(mu.Row(r), in.Mean)
				copy(va.Row(r), in.Var)
			}
			outMu, outVa := tensor.NewMatrix(n, layer.OutDim()), tensor.NewMatrix(n, layer.OutDim())
			aff = perCallUs(func() {
				_ = mu.MulInto(layer.W, outMu)
				_ = va.MulInto(wsq, outVa)
			}) / n
		}
		ak := prop.Kernel(l)
		bounds := make([]stats.Boundary, ak.NumBounds())
		pms := make([]stats.PartialMoments, ak.NumBounds())
		sink := 0.0
		act := perCallUs(func() {
			for _, p := range pre[l] {
				for j := range p.Mean {
					m, v := ak.Moments(p.Mean[j], p.Var[j], bounds, pms)
					sink += m + v
				}
			}
		}) / n
		if math.IsNaN(sink) {
			return fmt.Errorf("layer %d activation moments produced NaN", l)
		}
		affSum += aff
		actSum += act
		if l <= 2 {
			lv.put(fmt.Sprintf("core.l%d.affine_us", l), aff)
			lv.put(fmt.Sprintf("core.l%d.activation_us", l), act)
		}
	}
	lv.put("core.activation_share", actSum/(affSum+actSum))

	compiled, err := core.NewPropagator(net, core.Options{})
	if err != nil {
		return err
	}
	pg, err := compile.Compile(compiled, n)
	if err != nil {
		return err
	}
	if err := pg.Warm(compiled); err != nil {
		return err
	}
	compiled.SetCompiled(pg)
	one := rows[:1]
	b1 := func(p *core.Propagator) float64 {
		return perCallUs(func() { _, _ = p.PropagateBatch(one) })
	}
	b64 := func(p *core.Propagator) float64 {
		return perCallUs(func() { _, _ = p.PropagateBatch(rows) }) / n
	}
	lv.put("core.b1_interp_us", b1(prop))
	lv.put("core.b1_compiled_us", b1(compiled))
	lv.put("core.b64_interp_us_per_row", b64(prop))
	lv.put("core.b64_compiled_us_per_row", b64(compiled))
	return nil
}

// putHooks records what the propagator's hooks saw in a traced window: the
// per-row propagation time summed over layers and the batch scratch reuse.
func putHooks(lv *layerVals, h *hookCounts) {
	var layers time.Duration
	for _, d := range h.layer {
		layers += d
	}
	lv.put("core.propagate_us_per_row", ratio(float64(layers.Nanoseconds())/1e3, float64(h.rows)))
	if h.gets > 0 {
		lv.put("core.scratch_hit_ratio", float64(h.hits)/float64(h.gets))
	}
}

// runtimeDelta is the change of the benchmark process's allocation and GC
// pause counters across a window.
type runtimeDelta struct {
	allocBytes float64
	pause      time.Duration
}

func readRuntime() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

func runtimeSince(before runtime.MemStats) runtimeDelta {
	after := readRuntime()
	return runtimeDelta{
		allocBytes: float64(after.TotalAlloc - before.TotalAlloc),
		pause:      time.Duration(after.PauseTotalNs - before.PauseTotalNs),
	}
}
