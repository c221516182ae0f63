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
// The package provides single-layer Elman, GRU and LSTM recurrences with a
// dense readout, deterministic and stochastic forward passes, BPTT training,
// and the closed-form moment pass. Each cell writes its structure once, as
// a gate list (its spec method); the moment engine (moments.go), the float
// step behind Forward, ForwardSample and training, BPTT (pass.go) and the
// one trainer (train.go) are all built from that list. Elman cells and GRUs
// serve through one core.Estimator (estimator.go).
package rnn

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"github.com/apdeepsense/apdeepsense/internal/core"
	"github.com/apdeepsense/apdeepsense/internal/nn"
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

// spec is the cell's gate list: one stack of one gate.
func (c *Cell) spec() *cellSpec {
	return &cellSpec{kind: kindElman, keep: c.KeepProb, wo: c.Wo, bo: c.Bo,
		stacks: [][]gate{{{c.Wx, c.Wh, c.B, c.Act}}}}
}

// Forward runs the weight-scaled deterministic pass over a sequence of
// input vectors and returns the readout of the final hidden state.
func (c *Cell) Forward(xs []tensor.Vector) (tensor.Vector, error) {
	return c.spec().forward(xs, nil)
}

// ForwardSample runs one stochastic pass: a single recurrent mask is drawn
// and reused at every timestep (variational recurrent dropout).
func (c *Cell) ForwardSample(xs []tensor.Vector, rng *rand.Rand) (tensor.Vector, error) {
	return c.spec().forward(xs, rng)
}

// PropagateMoments runs the closed-form moment pass: the hidden state is a
// diagonal Gaussian updated per step — dropout moments of h_{t−1} through
// Wh (eqs. 9–10) plus x_t Wx + b, then the activation moments (eqs. 12–26,
// or the exact closed form for rectifier recurrences) — and the readout
// maps the final state's moments linearly. The per-step application of the
// dropout formulas treats the recurrent mask as fresh at each step; the
// shared-mask temporal correlation is dropped, which the tests show is a
// variance-underestimating approximation of the same nature as the paper's
// layer-wise independence.
func (c *Cell) PropagateMoments(xs []tensor.Vector) (core.GaussianVec, error) {
	p, err := c.spec().newProp()
	if err != nil {
		return core.GaussianVec{}, err
	}
	return p.propagate(xs)
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
