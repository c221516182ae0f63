// Package rnn implements the second half of the paper's future-work
// extension (§VI): ApDeepSense-style closed-form uncertainty propagation for
// recurrent networks with *recurrent dropout* (Gal & Ghahramani's
// variational RNN, the paper's [37]).
//
// Recurrent dropout samples ONE Bernoulli mask per sequence — the same mask
// multiplies the recurrent state at every timestep. The moment propagation
// applies the dense dropout moment formulas (paper eqs. 9–10) to the
// recurrent term at each step and pushes the result through the PWL
// activation machinery (eqs. 12–26). As everywhere in ApDeepSense the
// layer-wise (here: step-wise) diagonal Gaussian family drops the
// correlations the shared mask induces across timesteps; the Monte-Carlo
// tests quantify that approximation.
//
// The package provides a single-layer Elman recurrence with a dense readout,
// deterministic and stochastic forward passes, truncated-BPTT training, and
// the closed-form moment pass.
package rnn

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"github.com/apdeepsense/apdeepsense/internal/core"
	"github.com/apdeepsense/apdeepsense/internal/nn"
	"github.com/apdeepsense/apdeepsense/internal/stats"
	"github.com/apdeepsense/apdeepsense/internal/tensor"
)

// ErrConfig is returned (wrapped) for invalid configurations.
var ErrConfig = errors.New("rnn: invalid configuration")

// Cell is an Elman recurrence with recurrent dropout:
//
//	h_t = f( x_t Wx + (h_{t−1} ⊙ z) Wh + b ),   z ~ Bernoulli(KeepProb) per sequence
//
// followed by a linear readout y = h_T Wo + bo of the final state.
type Cell struct {
	// InDim, HiddenDim, OutDim define the geometry.
	InDim, HiddenDim, OutDim int
	// Wx is InDim×HiddenDim, Wh is HiddenDim×HiddenDim, Wo is
	// HiddenDim×OutDim.
	Wx, Wh, Wo *tensor.Matrix
	// B and Bo are the recurrence and readout biases.
	B, Bo tensor.Vector
	// Act is the recurrence non-linearity (typically tanh).
	Act nn.Activation
	// KeepProb is the recurrent-state keep probability.
	KeepProb float64
}

// NewCell builds a Glorot-initialized cell.
func NewCell(inDim, hiddenDim, outDim int, act nn.Activation, keepProb float64, rng *rand.Rand) (*Cell, error) {
	if inDim < 1 || hiddenDim < 1 || outDim < 1 {
		return nil, fmt.Errorf("dims %d/%d/%d: %w", inDim, hiddenDim, outDim, ErrConfig)
	}
	if keepProb <= 0 || keepProb > 1 {
		return nil, fmt.Errorf("keep prob %v: %w", keepProb, ErrConfig)
	}
	if !act.Valid() {
		return nil, fmt.Errorf("activation %v: %w", act, ErrConfig)
	}
	c := &Cell{
		InDim: inDim, HiddenDim: hiddenDim, OutDim: outDim,
		Wx:  tensor.NewMatrix(inDim, hiddenDim),
		Wh:  tensor.NewMatrix(hiddenDim, hiddenDim),
		Wo:  tensor.NewMatrix(hiddenDim, outDim),
		B:   tensor.NewVector(hiddenDim),
		Bo:  tensor.NewVector(outDim),
		Act: act, KeepProb: keepProb,
	}
	c.Wx.GlorotUniform(rng)
	c.Wh.GlorotUniform(rng)
	// Scale the recurrent matrix down for stability of the untrained cell.
	c.Wh.ScaleInPlace(0.5)
	c.Wo.GlorotUniform(rng)
	return c, nil
}

// stepDet advances the deterministic (weight-scaled) recurrence one step.
func (c *Cell) stepDet(x, h tensor.Vector, out tensor.Vector) {
	c.Wx.MulVecInto(x, out)
	tmp := make(tensor.Vector, c.HiddenDim)
	scaled := h
	if c.KeepProb < 1 {
		scaled = h.Scale(c.KeepProb)
	}
	c.Wh.MulVecInto(scaled, tmp)
	for j := range out {
		out[j] = c.Act.Apply(out[j] + tmp[j] + c.B[j])
	}
}

// Forward runs the weight-scaled deterministic pass over a sequence of
// input vectors and returns the readout of the final hidden state.
func (c *Cell) Forward(xs []tensor.Vector) (tensor.Vector, error) {
	if err := c.checkSeq(xs); err != nil {
		return nil, err
	}
	h := make(tensor.Vector, c.HiddenDim)
	next := make(tensor.Vector, c.HiddenDim)
	for _, x := range xs {
		c.stepDet(x, h, next)
		h, next = next, h
	}
	return c.readout(h), nil
}

// ForwardSample runs one stochastic pass: a single recurrent mask is drawn
// and reused at every timestep (variational recurrent dropout).
func (c *Cell) ForwardSample(xs []tensor.Vector, rng *rand.Rand) (tensor.Vector, error) {
	if err := c.checkSeq(xs); err != nil {
		return nil, err
	}
	mask := make([]float64, c.HiddenDim)
	for i := range mask {
		if c.KeepProb >= 1 || rng.Float64() < c.KeepProb {
			mask[i] = 1
		}
	}
	h := make(tensor.Vector, c.HiddenDim)
	masked := make(tensor.Vector, c.HiddenDim)
	tmp := make(tensor.Vector, c.HiddenDim)
	next := make(tensor.Vector, c.HiddenDim)
	for _, x := range xs {
		for i := range masked {
			masked[i] = h[i] * mask[i]
		}
		c.Wx.MulVecInto(x, next)
		c.Wh.MulVecInto(masked, tmp)
		for j := range next {
			next[j] = c.Act.Apply(next[j] + tmp[j] + c.B[j])
		}
		h, next = next, h
	}
	return c.readout(h), nil
}

func (c *Cell) readout(h tensor.Vector) tensor.Vector {
	out := make(tensor.Vector, c.OutDim)
	c.Wo.MulVecInto(h, out)
	for j := range out {
		out[j] += c.Bo[j]
	}
	return out
}

func (c *Cell) checkSeq(xs []tensor.Vector) error {
	if len(xs) == 0 {
		return fmt.Errorf("empty sequence: %w", ErrConfig)
	}
	for t, x := range xs {
		if len(x) != c.InDim {
			return fmt.Errorf("step %d has dim %d, want %d: %w", t, len(x), c.InDim, ErrConfig)
		}
	}
	return nil
}

// CellProp is a prepared moment propagator for one Cell: the squared weight
// matrices, the resolved activation-moment kernel (exact closed form for
// rectifier recurrences, PWL otherwise — the same dispatch as the
// dense propagator, via core.KernelFor), and reusable scratch. Build once
// per trained cell with Cell.NewProp; Step/Readout are the first-class
// step-level propagation API the differential harness exercises.
//
// A CellProp snapshots W² at construction; rebuild it after mutating the
// cell's weights.
type CellProp struct {
	c    *Cell
	ak   *core.ActKernel
	whSq *tensor.Matrix
	woSq *tensor.Matrix

	preMean, preVar, muIn, varIn, xContrib tensor.Vector
	bounds                                 []stats.Boundary
	pms                                    []stats.PartialMoments
}

// NewProp prepares moment propagation for the cell's current weights.
func (c *Cell) NewProp() (*CellProp, error) {
	_, ak, err := core.KernelFor(c.Act, core.Options{})
	if err != nil {
		return nil, fmt.Errorf("rnn: %w", err)
	}
	return &CellProp{
		c: c, ak: ak,
		whSq: c.Wh.Square(), woSq: c.Wo.Square(),
		preMean:  make(tensor.Vector, c.HiddenDim),
		preVar:   make(tensor.Vector, c.HiddenDim),
		muIn:     make(tensor.Vector, c.HiddenDim),
		varIn:    make(tensor.Vector, c.HiddenDim),
		xContrib: make(tensor.Vector, c.HiddenDim),
		bounds:   make([]stats.Boundary, ak.NumBounds()),
		pms:      make([]stats.PartialMoments, ak.NumBounds()),
	}, nil
}

// Step advances the hidden-state moments one timestep in place:
//
//	pre = x_t Wx + b + dropout-moments(h_{t−1}) Wh      (eqs. 9–10)
//	h_t ~ activation moments of pre                      (eqs. 12–26 / exact)
//
// KeepProb == 1 bypasses the dropout moment algebra — (μ²+σ²)·p − μ²·p²
// rounds σ² away against a large μ, and with no mask the input moments pass
// through unchanged.
func (p *CellProp) Step(h core.GaussianVec, x tensor.Vector) error {
	c := p.c
	if len(x) != c.InDim {
		return fmt.Errorf("step input dim %d, want %d: %w", len(x), c.InDim, ErrConfig)
	}
	if h.Dim() != c.HiddenDim {
		return fmt.Errorf("state dim %d, want %d: %w", h.Dim(), c.HiddenDim, ErrConfig)
	}
	kp := c.KeepProb
	c.Wx.MulVecInto(x, p.xContrib)
	if kp == 1 {
		copy(p.muIn, h.Mean)
		copy(p.varIn, h.Var)
	} else {
		for i := 0; i < c.HiddenDim; i++ {
			mu, s2 := h.Mean[i], h.Var[i]
			p.muIn[i] = mu * kp
			p.varIn[i] = (mu*mu+s2)*kp - mu*mu*kp*kp
		}
	}
	c.Wh.MulVecInto(p.muIn, p.preMean)
	p.whSq.MulVecInto(p.varIn, p.preVar)
	for j := 0; j < c.HiddenDim; j++ {
		m := p.xContrib[j] + p.preMean[j] + c.B[j]
		v := p.preVar[j]
		if v < 0 {
			v = 0
		}
		h.Mean[j], h.Var[j] = p.ak.Moments(m, v, p.bounds, p.pms)
	}
	return nil
}

// Readout maps final-state moments through the linear readout.
func (p *CellProp) Readout(h core.GaussianVec) core.GaussianVec {
	c := p.c
	out := core.NewGaussianVec(c.OutDim)
	c.Wo.MulVecInto(h.Mean, out.Mean)
	p.woSq.MulVecInto(h.Var, out.Var)
	for j := range out.Mean {
		out.Mean[j] += c.Bo[j]
	}
	return out
}

// PropagateMoments runs the closed-form moment pass: the hidden state is a
// diagonal Gaussian updated per step (CellProp.Step), and the readout maps
// the final state's moments linearly. The per-step application of the
// dropout formulas treats the recurrent mask as fresh at each step; the
// shared-mask temporal correlation is dropped, which the tests show is a
// variance-underestimating approximation of the same nature as the paper's
// layer-wise independence.
func (c *Cell) PropagateMoments(xs []tensor.Vector) (core.GaussianVec, error) {
	if err := c.checkSeq(xs); err != nil {
		return core.GaussianVec{}, err
	}
	prop, err := c.NewProp()
	if err != nil {
		return core.GaussianVec{}, err
	}
	h := core.NewGaussianVec(c.HiddenDim)
	for _, x := range xs {
		if err := prop.Step(h, x); err != nil {
			return core.GaussianVec{}, err
		}
	}
	return prop.Readout(h), nil
}

// PropagateMomentsBatch runs PropagateMoments over a batch of sequences
// with one shared CellProp. Each sequence's recursion is independent, so
// the result is bit-identical to sequential PropagateMoments calls — the
// property the differential harness pins.
func (c *Cell) PropagateMomentsBatch(seqs [][]tensor.Vector) ([]core.GaussianVec, error) {
	prop, err := c.NewProp()
	if err != nil {
		return nil, err
	}
	out := make([]core.GaussianVec, len(seqs))
	for s, xs := range seqs {
		if err := c.checkSeq(xs); err != nil {
			return nil, fmt.Errorf("sequence %d: %w", s, err)
		}
		h := core.NewGaussianVec(c.HiddenDim)
		for _, x := range xs {
			if err := prop.Step(h, x); err != nil {
				return nil, fmt.Errorf("sequence %d: %w", s, err)
			}
		}
		out[s] = prop.Readout(h)
	}
	return out, nil
}

// SpectralRadiusBound returns a crude stability bound on the recurrent
// weights: the Frobenius norm of Wh scaled by the keep probability. Values
// well above 1 indicate the recurrence may amplify variance unboundedly.
func (c *Cell) SpectralRadiusBound() float64 {
	var s float64
	for _, w := range c.Wh.Data {
		s += w * w
	}
	return c.KeepProb * math.Sqrt(s)
}
