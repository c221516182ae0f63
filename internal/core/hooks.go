package core

import "time"

// Hooks receives low-level observability callbacks from a Propagator:
// per-layer wall time, batch sizes, and scratch-pool reuse. Hook fields are
// optional — leave any nil to skip it. Implementations must be safe for
// concurrent calls (the batched path invokes them from every row-chunk
// worker) and should be cheap: they run inside the propagation hot path.
//
// A Propagator with no hooks attached pays one atomic pointer load per
// propagation call and nothing per element; see
// BenchmarkPropagateBatchNilHooks / BenchmarkPropagateBatchHooked for the
// measured overhead pair.
type Hooks struct {
	// BatchStart is called once per propagation call with the number of
	// rows, before any work happens: B for PropagateBatch/PropagateBatchFrom,
	// 1 for the per-sample Propagate, PropagateFrom and PropagateTrace (they
	// are one-row calls of the same engine).
	BatchStart func(rows int)
	// LayerTime is called after each layer finishes with the layer index,
	// the rows pushed through it, and the wall time spent. Each row-chunk
	// worker reports its own chunk, so one batch yields up to GOMAXPROCS
	// calls per layer; rows identifies the chunk size.
	LayerTime func(layer, rows int, d time.Duration)
	// ActivationTime is called after each layer's activation step with the
	// layer index, the rows and the wall time of that step alone: bias add,
	// variance clamp, the activation moments and the fused next-layer dropout
	// prep. LayerTime minus ActivationTime is the layer's affine (matmul)
	// time. Only the engine's row-chunk path fires it; a compiled program
	// fuses the two steps and reports LayerTime alone.
	ActivationTime func(layer, rows int, d time.Duration)
	// ScratchGet is called once per scratch-buffer acquisition (once per
	// row chunk). hit is true when the pool returned a warm buffer set,
	// false when a fresh allocation was needed.
	ScratchGet func(hit bool)
}

// Note on installed programs: a call that dispatches to a compiled program
// (SetCompiled) fires the same hooks the engine would — BatchStart once at
// dispatch, LayerTime per fused layer step per chunk, and ScratchGet per
// free-list acquisition (hit = recycled buffer set, miss = overflow
// allocation). Outputs are bit-identical with or without hooks either way.

// SetHooks attaches (or, with nil, detaches) observability hooks. It may be
// called at any time, including while other goroutines propagate: the
// propagator snapshots the pointer once per call, so a swap applies to
// subsequent calls atomically.
func (p *Propagator) SetHooks(h *Hooks) { p.hooks.Store(h) }

// Hooks returns the currently attached hooks, or nil.
func (p *Propagator) Hooks() *Hooks { return p.hooks.Load() }
