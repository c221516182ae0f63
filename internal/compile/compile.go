// Package compile specializes a whole network at load time into fused
// per-layer closures — a compiled batch propagator for internal/core.
//
// The Propagator's own engine already runs the packed W/W² dual panels
// (tensor.PackDual / tensor.DualMulInto) and the fused activation sweep, so
// a compiled program no longer has an arithmetic edge; nothing in the
// serving stack installs one. It remains as a benchmark comparison point.
// What it still does differently:
//
//   - The activation kernel, bias vector, next-layer keep probability, and
//     layer dimensions are baked into one closure per layer.
//   - Scratch is sized exactly once, for the registered maximum batch, and
//     recycled through a fixed free list; the steady state allocates only
//     the result batch.
//   - The row-chunk plan for every batch size 1..maxBatch is precomputed,
//     so dispatch is a table lookup instead of per-call arithmetic.
//
// The compiled program is a specialization, not a reimplementation: every
// output element accumulates through the same tensor.DualMulInto kernel
// over the same panel layout, with the same bias adds, variance clamps, and
// core.ActKernel moment evaluations as the engine. Outputs are therefore
// Float64bits-identical — a property gated by Program.Warm at install time
// and by internal/proptest over random networks, hostile inputs, and a fuzz
// corpus.
//
// One freedom the compiled path does take: its row-chunk plan is fixed at
// compile time, while the engine re-reads GOMAXPROCS per call. Chunking
// only changes which rows share a 4-row register block, and a blocked
// accumulator that starts at +0 can never become −0 (x+(−0) = x and
// +0+(−0) = +0 in round-to-nearest), so for finite weight panels the chunk
// plan is invisible in the output bits. TestCompiledChunkPlanInvariance pins
// this.
package compile

import (
	"fmt"
	"runtime"

	"github.com/apdeepsense/apdeepsense/internal/core"
	"github.com/apdeepsense/apdeepsense/internal/stats"
	"github.com/apdeepsense/apdeepsense/internal/tensor"
)

// span is one worker's half-open row range within a batch.
type span struct{ lo, hi int }

// Program is a network compiled for batches of at most MaxBatch rows. It
// implements core.CompiledBatch; install it with Propagator.SetCompiled
// after Warm succeeds. A Program is immutable after Compile and safe for
// concurrent RunBatch calls.
type Program struct {
	inDim, outDim int
	maxBatch      int
	// keep0 is the first layer's dropout keep probability, applied to the
	// input moments before layer 0 (for later layers the prep is fused into
	// the previous layer's activation sweep, inside each step closure).
	keep0 float64
	// steps holds one fused closure per layer: dual-panel matmul, bias add,
	// variance clamp, activation moments, and next-layer dropout prep.
	steps []func(sc *scratch, rows int)
	// plans[b] is the precomputed row-chunk plan for a b-row batch,
	// b in 1..maxBatch. plans[0] is unused (core returns empty batches
	// before dispatch).
	plans [][]span
	// free recycles scratch buffers; see getScratch.
	free chan *scratch
	// elems is the ping-pong panel length (largest chunk × widest layer);
	// nBounds the boundary-scratch length (largest knot count).
	elems, nBounds int
}

// Compile specializes p's network for batches of up to maxBatch rows. The
// worker fan-out rule and 4-row chunk rounding mirror the interpreted path,
// resolved once against the propagator's worker bound (or GOMAXPROCS) at
// compile time. Compile is pure precomputation — it never touches the
// serving path and can run concurrently with traffic on p.
func Compile(p *core.Propagator, maxBatch int) (*Program, error) {
	if p == nil {
		return nil, fmt.Errorf("compile: nil propagator")
	}
	if maxBatch < 1 {
		return nil, fmt.Errorf("compile: max batch %d, want >= 1", maxBatch)
	}
	net := p.Network()
	layers := net.Layers()
	pg := &Program{
		inDim:    net.InputDim(),
		outDim:   net.OutputDim(),
		maxBatch: maxBatch,
		keep0:    layers[0].KeepProb,
		nBounds:  p.MaxBounds(),
		plans:    make([][]span, maxBatch+1),
	}

	workers := p.Workers()
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	maxChunk, maxSpans := 0, 0
	for b := 1; b <= maxBatch; b++ {
		plan := chunkPlan(b, workers)
		pg.plans[b] = plan
		if n := len(plan); n > maxSpans {
			maxSpans = n
		}
		for _, s := range plan {
			if rows := s.hi - s.lo; rows > maxChunk {
				maxChunk = rows
			}
		}
	}
	pg.elems = maxChunk * p.MaxLayerDim()

	// Pre-fill the free list with one scratch per concurrent chunk; the
	// channel holds twice that so a second in-flight batch recycles instead
	// of allocating. Steady state is allocation-free either way.
	pg.free = make(chan *scratch, 2*maxSpans)
	for i := 0; i < maxSpans; i++ {
		pg.free <- pg.newScratch()
	}

	for li := range layers {
		l := layers[li]
		nextKeep := 0.0
		last := li == len(layers)-1
		if !last {
			nextKeep = layers[li+1].KeepProb
		}
		pg.steps = append(pg.steps, makeStep(
			p.Kernel(li), tensor.PackDual(l.W),
			append([]float64(nil), l.B...),
			l.InDim(), l.OutDim(), nextKeep, last,
		))
	}
	return pg, nil
}

// MaxBatch reports the largest batch the program was specialized for.
func (pg *Program) MaxBatch() int { return pg.maxBatch }

// InputDim reports the compiled network's input dimension.
func (pg *Program) InputDim() int { return pg.inDim }

// OutputDim reports the compiled network's output dimension.
func (pg *Program) OutputDim() int { return pg.outDim }

// chunkPlan reproduces the interpreted path's fan-out for a b-row batch
// under the given worker bound: at least core.MinRowsPerWorker rows per
// worker, chunks rounded up to a multiple of 4 so every worker but the last
// stays on the 4-row register-blocked fast path.
func chunkPlan(b, workerBound int) []span {
	workers := workerBound
	if max := (b + core.MinRowsPerWorker - 1) / core.MinRowsPerWorker; workers > max {
		workers = max
	}
	if workers <= 1 {
		return []span{{0, b}}
	}
	chunk := (b + workers - 1) / workers
	if chunk%4 != 0 {
		chunk += 4 - chunk%4
	}
	plan := make([]span, 0, workers)
	for lo := 0; lo < b; lo += chunk {
		hi := lo + chunk
		if hi > b {
			hi = b
		}
		plan = append(plan, span{lo, hi})
	}
	return plan
}

// makeStep bakes one layer into a fused closure: dual-panel matmul into the
// ping-pong scratch, then one sweep doing bias add, variance clamp,
// activation moments, and (for all but the last layer) the next layer's
// dropout prep — the same element-wise operation sequence as the interpreted
// propagateRows, with every per-layer fact captured as a constant.
func makeStep(ak *core.ActKernel, panel *tensor.DualPanel, bias []float64, nIn, nOut int, nextKeep float64, last bool) func(sc *scratch, rows int) {
	return func(sc *scratch, rows int) {
		outMu := sc.nxtMu[:rows*nOut]
		outVa := sc.nxtVar[:rows*nOut]
		tensor.DualMulInto(panel, sc.curMu[:rows*nIn], sc.curVar[:rows*nIn], outMu, outVa, rows)
		for r := 0; r < rows; r++ {
			o := outMu[r*nOut : (r+1)*nOut]
			v := outVa[r*nOut : (r+1)*nOut][:nOut]
			if !last {
				for j, bj := range bias {
					s2 := v[j]
					if s2 < 0 {
						s2 = 0
					}
					m, mv := ak.Moments(o[j]+bj, s2, sc.bounds, sc.pms)
					o[j] = m * nextKeep
					v[j] = (m*m+mv)*nextKeep - m*m*nextKeep*nextKeep
				}
			} else {
				for j, bj := range bias {
					s2 := v[j]
					if s2 < 0 {
						s2 = 0
					}
					o[j], v[j] = ak.Moments(o[j]+bj, s2, sc.bounds, sc.pms)
				}
			}
		}
		sc.curMu, sc.nxtMu = sc.nxtMu, sc.curMu
		sc.curVar, sc.nxtVar = sc.nxtVar, sc.curVar
	}
}

// scratch is one chunk worker's buffers: ping-pong mean/variance panels plus
// the activation kernel's boundary-term arrays, all sized once at compile
// time for the largest chunk × widest layer.
type scratch struct {
	curMu, curVar []float64
	nxtMu, nxtVar []float64
	bounds        []stats.Boundary
	pms           []stats.PartialMoments
}

func (pg *Program) newScratch() *scratch {
	return &scratch{
		curMu:  make([]float64, pg.elems),
		curVar: make([]float64, pg.elems),
		nxtMu:  make([]float64, pg.elems),
		nxtVar: make([]float64, pg.elems),
		bounds: make([]stats.Boundary, pg.nBounds),
		pms:    make([]stats.PartialMoments, pg.nBounds),
	}
}

// getScratch recycles from the fixed free list, falling back to a fresh
// allocation only when more batches are in flight than the list was sized
// for (it never blocks the serving path on a buffer). The second result
// feeds Hooks.ScratchGet: true for a recycled buffer set, false for an
// overflow allocation.
func (pg *Program) getScratch() (*scratch, bool) {
	select {
	case sc := <-pg.free:
		return sc, true
	default:
		return pg.newScratch(), false
	}
}

func (pg *Program) putScratch(sc *scratch) {
	select {
	case pg.free <- sc:
	default: // list full; let the overflow buffer be collected
	}
}
