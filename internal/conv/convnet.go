package conv

import (
	"fmt"
	"math/rand"

	"github.com/apdeepsense/apdeepsense/internal/core"
	"github.com/apdeepsense/apdeepsense/internal/edison"
	"github.com/apdeepsense/apdeepsense/internal/nn"
	"github.com/apdeepsense/apdeepsense/internal/piecewise"
	"github.com/apdeepsense/apdeepsense/internal/tensor"
)

// Net is a hybrid time-series model: a stack of Conv1D layers, global
// average pooling over time, and a fully-connected head — the standard
// shape of IoT CNN classifiers/regressors. Uncertainty propagates end to
// end: channel-dropout conv moments → pooled Gaussian vector → the dense
// ApDeepSense propagator.
type Net struct {
	convs []*Conv1D
	head  *nn.Network

	// acts/kernels cache each conv layer's PWL activation and its
	// activation-moment kernel, resolved once through core.KernelFor so
	// the conv stack obeys the same backend dispatch (exact rectifier
	// closed form, PWL otherwise) as the dense propagator.
	acts    []*piecewise.Func
	kernels []*core.ActKernel
	prop    *core.Propagator
}

// NewNet validates layer compatibility and prepares moment propagation
// under default options. The head's input dimension must equal the last
// conv layer's OutCh.
func NewNet(convs []*Conv1D, head *nn.Network) (*Net, error) {
	if len(convs) == 0 {
		return nil, fmt.Errorf("no conv layers: %w", ErrConfig)
	}
	for i := 1; i < len(convs); i++ {
		if convs[i].InCh != convs[i-1].OutCh {
			return nil, fmt.Errorf("conv %d in=%d != conv %d out=%d: %w",
				i, convs[i].InCh, i-1, convs[i-1].OutCh, ErrConfig)
		}
	}
	if head == nil {
		return nil, fmt.Errorf("nil head: %w", ErrConfig)
	}
	last := convs[len(convs)-1]
	if head.InputDim() != last.OutCh {
		return nil, fmt.Errorf("head input %d != pooled channels %d: %w",
			head.InputDim(), last.OutCh, ErrConfig)
	}
	n := &Net{
		convs:   convs,
		head:    head,
		acts:    make([]*piecewise.Func, len(convs)),
		kernels: make([]*core.ActKernel, len(convs)),
	}
	for i, c := range convs {
		f, k, err := core.KernelFor(c.Act, core.Options{})
		if err != nil {
			return nil, fmt.Errorf("conv layer %d: %w", i, err)
		}
		n.acts[i] = f
		n.kernels[i] = k
	}
	prop, err := core.NewPropagator(head, core.Options{})
	if err != nil {
		return nil, fmt.Errorf("head propagator: %w", err)
	}
	n.prop = prop
	return n, nil
}

// Head returns the dense head network.
func (n *Net) Head() *nn.Network { return n.head }

// HeadPropagator returns the dense head's moment propagator.
func (n *Net) HeadPropagator() *core.Propagator { return n.prop }

// Convs returns the conv layers (shared, treat as read-only).
func (n *Net) Convs() []*Conv1D {
	out := make([]*Conv1D, len(n.convs))
	copy(out, n.convs)
	return out
}

// Forward runs the deterministic (weight-scaled) pass end to end.
func (n *Net) Forward(x *Seq) (tensor.Vector, error) {
	cur := x
	for i, c := range n.convs {
		var err error
		cur, err = c.Forward(cur)
		if err != nil {
			return nil, fmt.Errorf("conv %d: %w", i, err)
		}
	}
	return n.head.Forward(GlobalAvgPool(cur))
}

// ForwardSample runs one stochastic pass with fresh channel and unit masks.
func (n *Net) ForwardSample(x *Seq, rng *rand.Rand) (tensor.Vector, error) {
	cur := x
	for i, c := range n.convs {
		var err error
		cur, err = c.ForwardSample(cur, rng)
		if err != nil {
			return nil, fmt.Errorf("conv %d: %w", i, err)
		}
	}
	return n.head.ForwardSample(GlobalAvgPool(cur), rng)
}

// PropagateMoments runs the full ApDeepSense pass over the hybrid network:
// closed-form conv moments per layer, pooled, then the dense propagator.
func (n *Net) PropagateMoments(x *Seq) (core.GaussianVec, error) {
	g := DeterministicSeq(x)
	for i, c := range n.convs {
		var err error
		g, err = c.PropagateMomentsKernel(g, n.kernels[i])
		if err != nil {
			return core.GaussianVec{}, fmt.Errorf("conv %d: %w", i, err)
		}
	}
	return n.prop.PropagateFrom(GlobalAvgPoolMoments(g))
}

// PropagateBatch runs PropagateMoments over a batch of sequences. The conv
// stack has no cross-sample arithmetic (each sample's moment recursion is
// independent), so the batched result is bit-identical to sequential
// PropagateMoments calls by construction — the property the differential
// harness pins.
func (n *Net) PropagateBatch(xs []*Seq) ([]core.GaussianVec, error) {
	out := make([]core.GaussianVec, len(xs))
	for i, x := range xs {
		g, err := n.PropagateMoments(x)
		if err != nil {
			return nil, fmt.Errorf("sample %d: %w", i, err)
		}
		out[i] = g
	}
	return out, nil
}

// Cost returns the modeled per-inference cost of PropagateMoments for an
// input of the given steps (conv output lengths, hence cost, depend on the
// input length). The activation charge per element follows the dense
// propagator's model: OpsPerExactMoments for exact rectifier layers,
// per-piece PWL charges otherwise — so exact-vs-PWL cost parity holds for
// the conv stack by the same construction.
func (n *Net) Cost(steps int) (edison.Cost, error) {
	var c edison.Cost
	s := steps
	for i, l := range n.convs {
		outSteps, err := l.OutSteps(s)
		if err != nil {
			return edison.Cost{}, fmt.Errorf("conv %d: %w", i, err)
		}
		elems := int64(outSteps) * int64(l.OutCh)
		window := int64(l.InCh) * int64(l.Kernel)
		// Mean and variance window sums (2 FLOPs per tap each).
		c.DenseFLOPs += 2 * 2 * window * elems
		// Dropout moment algebra per channel partial sum plus bias add.
		c.ElementOps += 5*int64(l.InCh)*elems + elems
		if n.kernels[i].Exact() {
			c.ElementOps += elems * core.OpsPerExactMoments
		} else {
			for _, piece := range n.acts[i].Pieces() {
				if piece.K == 0 {
					c.ElementOps += elems * core.OpsPerConstPiece
				} else {
					c.ElementOps += elems * core.OpsPerLinearPiece
				}
			}
		}
		s = outSteps
	}
	// Global average pooling: one mean and one variance pass.
	c.ElementOps += 2 * int64(s) * int64(n.convs[len(n.convs)-1].OutCh)
	return c.Add(n.prop.Cost()), nil
}
