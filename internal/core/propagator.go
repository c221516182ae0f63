package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/apdeepsense/apdeepsense/internal/edison"
	"github.com/apdeepsense/apdeepsense/internal/nn"
	"github.com/apdeepsense/apdeepsense/internal/piecewise"
	"github.com/apdeepsense/apdeepsense/internal/tensor"
)

// Element-op counts charged per output element when computing the moments of
// one PWL piece (evaluating eqs. 23–25 with vectorized tensor operations: two
// erf, two exp, and the surrounding arithmetic chains, each a separate
// element-wise pass on a graph executor). Constant pieces (k = 0) need only
// the interval mass D. See internal/edison for how element-ops convert to
// time and energy; EXPERIMENTS.md records the calibration.
const (
	// OpsPerLinearPiece is the per-element op count of a k ≠ 0 piece.
	OpsPerLinearPiece = 88
	// OpsPerConstPiece is the per-element op count of a k = 0 piece.
	OpsPerConstPiece = 24
	// OpsPerExactMoments is the per-element op count charged to the exact
	// rectifier moment backend (stats.RectifiedMoments): one erfc, one exp,
	// and the surrounding arithmetic, counted as one constant plus one
	// linear PWL piece — what the 2-piece rectifier PWL costs — so
	// exact-vs-PWL cost parity for ReLU layers holds by construction in the
	// model (the measured exact kernel is the cheaper of the two).
	OpsPerExactMoments = OpsPerConstPiece + OpsPerLinearPiece
)

// Options configures a Propagator.
type Options struct {
	// TanhPieces is the PWL piece count approximating tanh layers.
	// The paper uses 7 in all experiments. Defaults to 7.
	TanhPieces int
	// SigmoidPieces is the PWL piece count approximating sigmoid layers.
	// Defaults to 7.
	SigmoidPieces int
}

func (o *Options) fillDefaults() {
	if o.TanhPieces == 0 {
		o.TanhPieces = 7
	}
	if o.SigmoidPieces == 0 {
		o.SigmoidPieces = 7
	}
}

// Option configures optional Propagator behavior beyond the numeric Options
// struct (which is part of the serialized experiment configs and stays
// purely about PWL fidelity).
type Option func(*Propagator)

// WithWorkers bounds the number of goroutines a batched propagation fans its
// row chunks across. n <= 0 (the default) selects runtime.GOMAXPROCS(0);
// n == 1 forces the single-threaded batch path (deterministic scheduling,
// useful for benchmarking the kernels themselves). The effective worker
// count is still capped so every worker has at least a few rows.
func WithWorkers(n int) Option {
	return func(p *Propagator) { p.workers = n }
}

// Propagator runs ApDeepSense inference over a fixed network: a single
// deterministic pass that outputs the full Gaussian approximation of the
// network's output distribution under dropout. It packs every layer's W and
// element-wise W² (for eqs. 9–10) into one dual panel and prepares the
// activation-moment kernels, so construction is paid once per model. Every
// entry point — per-sample, trace, and batched — runs the same engine
// (batchprop.go), which is what keeps them bit-identical.
//
// A Propagator is safe for concurrent use: every entry point only reads
// the precomputed state (the batch scratch pool is internally
// synchronized), and the optional observability hooks (SetHooks) are stored
// behind an atomic pointer.
type Propagator struct {
	net  *nn.Network
	acts []*piecewise.Func
	cost edison.Cost

	// Engine state (see batchprop.go): per-layer W/W² dual panels and
	// activation kernels with shared-boundary truncated moments, the widest
	// layer dimension (sizing the ping-pong scratch), the largest knot
	// count, and a pool of reusable scratch buffers so the hot path is
	// allocation-free after warmup.
	panels    []*tensor.DualPanel
	kernels   []*ActKernel
	maxDim    int
	maxBounds int
	scratch   sync.Pool
	// workers bounds the batched-path fan-out (WithWorkers); <= 0 means
	// runtime.GOMAXPROCS(0), resolved per call.
	workers int

	// hooks holds the optional observability callbacks (see Hooks). Loaded
	// once per propagation call; nil costs one atomic pointer load.
	hooks atomic.Pointer[Hooks]

	// compiledProg holds the optional shape-specialized batch program
	// (SetCompiled / internal/compile). Snapshotted once per propagation
	// call; uninstalled it costs one atomic pointer load.
	compiledProg atomic.Pointer[compiledHolder]
}

// NewPropagator prepares ApDeepSense inference for net. Optional behavior
// (e.g. WithWorkers) is passed as trailing options.
func NewPropagator(net *nn.Network, opts Options, extra ...Option) (*Propagator, error) {
	opts.fillDefaults()
	layers := net.Layers()
	p := &Propagator{
		net:     net,
		acts:    make([]*piecewise.Func, len(layers)),
		panels:  make([]*tensor.DualPanel, len(layers)),
		kernels: make([]*ActKernel, len(layers)),
		maxDim:  net.InputDim(),
	}
	for i, l := range layers {
		f, k, err := KernelFor(l.Act, opts)
		if err != nil {
			return nil, fmt.Errorf("core: prepare layer %d: %w", i, err)
		}
		p.acts[i] = f
		p.panels[i] = tensor.PackDual(l.W)
		p.kernels[i] = k
		if l.OutDim() > p.maxDim {
			p.maxDim = l.OutDim()
		}
		if f.NumPieces()+1 > p.maxBounds {
			p.maxBounds = f.NumPieces() + 1
		}
	}
	p.cost = p.computeCost()
	p.scratch.New = func() any { return &batchScratch{} }
	for _, o := range extra {
		o(p)
	}
	return p, nil
}

// Workers reports the configured batched-path worker bound (0 = GOMAXPROCS).
func (p *Propagator) Workers() int {
	if p.workers <= 0 {
		return 0
	}
	return p.workers
}

// Network returns the underlying network.
func (p *Propagator) Network() *nn.Network { return p.net }

// ActivationPieces returns the PWL piece count used for layer i's
// activation.
func (p *Propagator) ActivationPieces(i int) int { return p.acts[i].NumPieces() }

// Propagate runs the full ApDeepSense pass: the input point mass is pushed
// through every layer's dropout-aware affine map (eqs. 9–10) and PWL
// activation (eqs. 12–26), yielding the Gaussian approximation of the output
// distribution. Narrow outputs mean low uncertainty; wide outputs mean high
// uncertainty (paper §III-D summary). It is a one-row call of the batched
// engine, so it takes the same dispatch (the compiled program when
// installed) and fires the same hooks as PropagateBatch.
func (p *Propagator) Propagate(x tensor.Vector) (GaussianVec, error) {
	if len(x) != p.net.InputDim() {
		return GaussianVec{}, fmt.Errorf("propagate: input dim %d, want %d: %w", len(x), p.net.InputDim(), ErrInput)
	}
	return p.propagateBatch(rowBatch(x, make([]float64, len(x))), nil).Row(0), nil
}

// PropagateFrom runs the moment propagation starting from an already
// Gaussian input — the entry point for hybrid models (e.g. convolutional
// front-ends, internal/conv) whose earlier stages produced a distribution.
// g is not modified.
func (p *Propagator) PropagateFrom(g GaussianVec) (GaussianVec, error) {
	if g.Dim() != p.net.InputDim() {
		return GaussianVec{}, fmt.Errorf("propagate-from: input dim %d, want %d: %w", g.Dim(), p.net.InputDim(), ErrInput)
	}
	return p.propagateBatch(rowBatch(g.Mean, g.Var), nil).Row(0), nil
}

// PropagateTrace runs the moment propagation and additionally returns the
// Gaussian state after every layer (post-activation, before the next
// layer's dropout), index 0 being the first layer's output. It powers
// layer-wise diagnostics such as Figure 1's hidden-unit distribution checks
// and variance-flow debugging. It always runs the engine, never an
// installed compiled program: only the engine can capture the per-layer
// states.
func (p *Propagator) PropagateTrace(x tensor.Vector) (GaussianVec, []GaussianVec, error) {
	if len(x) != p.net.InputDim() {
		return GaussianVec{}, nil, fmt.Errorf("propagate-trace: input dim %d, want %d: %w", len(x), p.net.InputDim(), ErrInput)
	}
	trace := make([]GaussianVec, p.net.NumLayers())
	out := p.propagateBatch(rowBatch(x, make([]float64, len(x))), trace)
	return out.Row(0), trace, nil
}

// rowBatch views one Gaussian's moments as a one-row batch without copying;
// the engine only reads its input.
func rowBatch(mean, variance []float64) GaussianBatch {
	return GaussianBatch{
		Mean: &tensor.Matrix{Rows: 1, Cols: len(mean), Data: mean},
		Var:  &tensor.Matrix{Rows: 1, Cols: len(mean), Data: variance},
	}
}

// Cost returns the modeled per-inference execution cost of the ApDeepSense
// pass (see internal/edison). It is a static property of the network shape
// and the PWL piece counts.
func (p *Propagator) Cost() edison.Cost { return p.cost }

func (p *Propagator) computeCost() edison.Cost {
	var c edison.Cost
	for i, l := range p.net.Layers() {
		in, out := int64(l.InDim()), int64(l.OutDim())
		// Mean matmul (eq. 9) and variance matmul against W² (eq. 10).
		c.DenseFLOPs += 2 * 2 * in * out
		// Element-wise prep: μ⊙p (1 pass) and (μ²+σ²)p − μ²p² (4 passes)
		// over the inputs, bias add (1 pass) over the outputs.
		c.ElementOps += 5*in + out
		// Activation moment propagation: the exact rectifier closed form per
		// element, or the PWL assembly per piece per element.
		if p.kernels[i].Exact() {
			c.ElementOps += out * OpsPerExactMoments
		} else {
			for _, piece := range p.acts[i].Pieces() {
				if piece.K == 0 {
					c.ElementOps += out * OpsPerConstPiece
				} else {
					c.ElementOps += out * OpsPerLinearPiece
				}
			}
		}
	}
	return c
}

// ForwardPassCost returns the modeled cost of ONE plain stochastic forward
// pass of net (the MCDrop primitive), for comparing estimator costs on the
// same scale.
func ForwardPassCost(net *nn.Network) edison.Cost {
	var c edison.Cost
	for _, l := range net.Layers() {
		in, out := int64(l.InDim()), int64(l.OutDim())
		c.DenseFLOPs += 2 * in * out
		c.ElementOps += out // bias add
		switch l.Act {
		case nn.ActTanh, nn.ActSigmoid:
			// Transcendental activations cost several element-op passes
			// worth of polynomial evaluation on an in-order core.
			c.ElementOps += 8 * out
		case nn.ActReLU:
			c.ElementOps += out
		}
		if l.KeepProb < 1 {
			c.RandomDraws += in
			c.ElementOps += in // mask multiply
		}
	}
	return c
}
