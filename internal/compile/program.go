package compile

import (
	"sync"
	"time"

	"github.com/apdeepsense/apdeepsense/internal/core"
)

// RunBatch propagates in into out along the compiled fast path. It
// implements core.CompiledBatch: the caller (core.Propagator's batch
// dispatch) guarantees 1 <= in.Batch() <= MaxBatch(), matching input
// dimension, and a pre-shaped out. h is the dispatcher's hooks snapshot (may
// be nil); LayerTime and ScratchGet fire exactly as on the interpreted path,
// and never touch the numeric state. The precomputed chunk plan for this
// batch size decides the fan-out; a single-chunk plan runs inline on the
// caller's goroutine.
func (pg *Program) RunBatch(in, out core.GaussianBatch, h *core.Hooks) {
	plan := pg.plans[in.Batch()]
	if len(plan) == 1 {
		pg.runChunk(in, out, plan[0].lo, plan[0].hi, h)
		return
	}
	var wg sync.WaitGroup
	for _, s := range plan {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			pg.runChunk(in, out, lo, hi, h)
		}(s.lo, s.hi)
	}
	wg.Wait()
}

// runChunk pushes rows [lo, hi) through every compiled layer step. The
// sequence mirrors the interpreted propagateRows exactly: copy the rows in,
// apply the first layer's dropout prep (E[xz] = μp, Var[xz] = (μ²+σ²)p −
// μ²p²), run the fused per-layer closures, copy the final ping-pong panel
// out.
func (pg *Program) runChunk(in, out core.GaussianBatch, lo, hi int, h *core.Hooks) {
	sc, warm := pg.getScratch()
	if h != nil && h.ScratchGet != nil {
		h.ScratchGet(warm)
	}
	rows := hi - lo
	dim := pg.inDim
	copy(sc.curMu[:rows*dim], in.Mean.Data[lo*dim:hi*dim])
	copy(sc.curVar[:rows*dim], in.Var.Data[lo*dim:hi*dim])

	keep := pg.keep0
	mu := sc.curMu[:rows*dim]
	va := sc.curVar[:rows*dim]
	for t, m := range mu {
		s2 := va[t]
		mu[t] = m * keep
		va[t] = (m*m+s2)*keep - m*m*keep*keep
	}

	if timed := h != nil && h.LayerTime != nil; timed {
		var t0 time.Time
		for li, step := range pg.steps {
			t0 = time.Now()
			step(sc, rows)
			h.LayerTime(li, rows, time.Since(t0))
		}
	} else {
		for _, step := range pg.steps {
			step(sc, rows)
		}
	}

	od := pg.outDim
	copy(out.Mean.Data[lo*od:hi*od], sc.curMu[:rows*od])
	copy(out.Var.Data[lo*od:hi*od], sc.curVar[:rows*od])
	pg.putScratch(sc)
}
