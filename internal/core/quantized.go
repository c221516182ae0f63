package core

// QuantizedProgram is a fixed-point propagation program specialized for one
// exact network at load time (see internal/qprop): int8 weight codes and
// derived squared-weight codes packed into pair-interleaved int16 panels,
// per-row dynamic activation quantization, and int32/int64 fixed-point
// accumulation, dequantizing into the same ActKernel activation-moment step
// as the float paths.
//
// Contract: unlike CompiledBatch, a quantized program is an approximation,
// not a bit-identical specialization — its accuracy contract is the a-priori
// quantization error budget of internal/oracle (ForwardQuantCond), gated
// over random networks by internal/proptest. What IS exact is row
// self-consistency: each row's dynamic quantization scales depend only on
// that row, so a row's result is Float64bits-identical whatever batch it
// arrives in, and serving results are independent of batching decisions.
//
// When a quantized program is installed it takes dispatch priority over the
// compiled program and the float engine on every entry point but
// PropagateTrace — per-sample calls are one-row batches — so a registry
// version serving quantized traffic answers Predict and coalesced
// PredictBatch calls from the same arithmetic.
type QuantizedProgram interface {
	// MaxBatch reports the largest batch the program accepts; quantized
	// programs are batch-size-agnostic (scratch is per row chunk) and
	// typically report a very large value.
	MaxBatch() int
	// RunBatch propagates in into out. The caller guarantees
	// 1 <= in.Batch() <= MaxBatch(), in.Dim() equal to the network input
	// dimension, and out pre-shaped to in.Batch() × output dimension. in is
	// not modified. h is the dispatching propagator's hooks snapshot (may be
	// nil); the program fires ScratchGet per row chunk and LayerTime is not
	// reported (the fixed-point path is organized row-major, not
	// layer-major). Rows whose input moments are non-finite are NaN-filled.
	RunBatch(in, out GaussianBatch, h *Hooks)
}

// quantizedHolder wraps the interface value so it can live behind an
// atomic.Pointer (interfaces are two words and not atomically swappable
// directly).
type quantizedHolder struct{ qp QuantizedProgram }

// SetQuantized installs (or, with nil, removes) a quantized propagation
// program. It may be called at any time, including while other goroutines
// propagate: the pointer is snapshotted once per call, so a swap applies
// atomically to subsequent propagations. Callers are expected to hold the
// program to the oracle's quantization error budget (internal/proptest does,
// over the random-network space) and to smoke-check it before installing.
func (p *Propagator) SetQuantized(qp QuantizedProgram) {
	if qp == nil {
		p.quantizedProg.Store(nil)
		return
	}
	p.quantizedProg.Store(&quantizedHolder{qp})
}

// Quantized returns the installed quantized program, or nil.
func (p *Propagator) Quantized() QuantizedProgram {
	if h := p.quantizedProg.Load(); h != nil {
		return h.qp
	}
	return nil
}
