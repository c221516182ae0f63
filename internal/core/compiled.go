package core

// CompiledBatch is a batched propagation program specialized for one exact
// network at load time (see internal/compile): per-layer closures over the
// same dual-panel layout and activation kernels the Propagator's engine uses, and
// scratch sized once for a registered maximum batch. A Propagator dispatches
// every call but PropagateTrace whose batch fits MaxBatch to the installed
// program (per-sample calls are one-row batches); larger batches stay on the
// engine. The serving stack does not install one: the engine runs the same
// kernels, so the program is kept only as a benchmark comparison point.
//
// Contract: RunBatch outputs must be Float64bits-identical to the engine
// on the same inputs — the compiled path is a specialization of the same
// arithmetic, never an approximation of it. internal/proptest
// gates this over random networks, hostile inputs, and a fuzz corpus, and
// Program.Warm checks it before a program is installed.
type CompiledBatch interface {
	// MaxBatch reports the largest batch the program was specialized for.
	MaxBatch() int
	// RunBatch propagates in into out. The caller guarantees
	// 1 <= in.Batch() <= MaxBatch(), in.Dim() equal to the network input
	// dimension, and out pre-shaped to in.Batch() × output dimension. in is
	// not modified. h is the dispatching propagator's hooks snapshot (may be
	// nil): the program fires LayerTime and ScratchGet exactly as the
	// engine does, so observability is path-independent.
	// Hooks observe timing and buffer reuse only and never touch numeric
	// state, so outputs are bit-identical with or without them.
	RunBatch(in, out GaussianBatch, h *Hooks)
}

// compiledHolder wraps the interface value so it can live behind an
// atomic.Pointer (interfaces are two words and not atomically swappable
// directly).
type compiledHolder struct{ cb CompiledBatch }

// SetCompiled installs (or, with nil, removes) a compiled batch program. It
// may be called at any time, including while other goroutines propagate: the
// pointer is snapshotted once per propagation call, so a swap applies
// atomically to subsequent calls. Callers are expected to verify the program
// against the engine (Program.Warm in internal/compile) before installing it.
func (p *Propagator) SetCompiled(cb CompiledBatch) {
	if cb == nil {
		p.compiledProg.Store(nil)
		return
	}
	p.compiledProg.Store(&compiledHolder{cb})
}

// Compiled returns the installed compiled batch program, or nil.
func (p *Propagator) Compiled() CompiledBatch {
	if h := p.compiledProg.Load(); h != nil {
		return h.cb
	}
	return nil
}

// Kernel returns layer i's activation-moment kernel. The compiled propagator
// (internal/compile) binds these into its per-layer closures so the compiled
// activation sweep is the same code — and therefore the same bits — as the
// engine's.
func (p *Propagator) Kernel(i int) *ActKernel { return p.kernels[i] }

// MaxLayerDim reports the widest layer dimension (including the input),
// which sizes the ping-pong scratch panels on both propagation paths.
func (p *Propagator) MaxLayerDim() int { return p.maxDim }

// MaxBounds reports the largest knot count across the per-layer activation
// kernels — the length the boundary-term scratch must accommodate.
func (p *Propagator) MaxBounds() int { return p.maxBounds }
