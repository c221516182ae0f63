package rnn

import (
	"fmt"
	"math/rand"

	"github.com/apdeepsense/apdeepsense/internal/core"
	"github.com/apdeepsense/apdeepsense/internal/edison"
	"github.com/apdeepsense/apdeepsense/internal/nn"
	"github.com/apdeepsense/apdeepsense/internal/tensor"
)

// LSTM is a long short-term memory cell with variational recurrent dropout
// on the recurrent state — the exact architecture of the paper's reference
// [37] (Gal & Ghahramani's Bayesian RNN), where one Bernoulli mask per
// sequence multiplies h at every step:
//
//	ĥ   = h_{t−1} ⊙ z
//	i   = σ(x Wxi + ĥ Whi + bi)      input gate
//	f   = σ(x Wxf + ĥ Whf + bf)      forget gate (bias initialized to +1)
//	o   = σ(x Wxo + ĥ Who + bo)      output gate
//	g   = tanh(x Wxg + ĥ Whg + bg)   candidate
//	c_t = f ⊙ c_{t−1} + i ⊙ g
//	h_t = o ⊙ tanh(c_t)
//
// with a linear readout of h_T. Moment propagation composes the dense
// dropout moments, PWL gate moments, and Gaussian product moments; the
// diagonal family drops gate/state/temporal correlations as everywhere else
// in ApDeepSense.
type LSTM struct {
	InDim, HiddenDim, OutDim int

	Wxi, Whi       *tensor.Matrix
	Wxf, Whf       *tensor.Matrix
	Wxo, Who       *tensor.Matrix
	Wxg, Whg       *tensor.Matrix
	Bi, Bf, Bo, Bg tensor.Vector

	Wo  *tensor.Matrix
	Bro tensor.Vector // readout bias

	KeepProb float64
}

// NewLSTM builds a Glorot-initialized LSTM with forget bias +1.
func NewLSTM(inDim, hiddenDim, outDim int, keepProb float64, rng *rand.Rand) (*LSTM, error) {
	if inDim < 1 || hiddenDim < 1 || outDim < 1 {
		return nil, fmt.Errorf("lstm dims %d/%d/%d: %w", inDim, hiddenDim, outDim, ErrConfig)
	}
	if keepProb <= 0 || keepProb > 1 {
		return nil, fmt.Errorf("lstm keep prob %v: %w", keepProb, ErrConfig)
	}
	l := &LSTM{
		InDim: inDim, HiddenDim: hiddenDim, OutDim: outDim,
		Wxi: tensor.NewMatrix(inDim, hiddenDim), Whi: tensor.NewMatrix(hiddenDim, hiddenDim),
		Wxf: tensor.NewMatrix(inDim, hiddenDim), Whf: tensor.NewMatrix(hiddenDim, hiddenDim),
		Wxo: tensor.NewMatrix(inDim, hiddenDim), Who: tensor.NewMatrix(hiddenDim, hiddenDim),
		Wxg: tensor.NewMatrix(inDim, hiddenDim), Whg: tensor.NewMatrix(hiddenDim, hiddenDim),
		Bi: tensor.NewVector(hiddenDim), Bf: tensor.NewVector(hiddenDim),
		Bo: tensor.NewVector(hiddenDim), Bg: tensor.NewVector(hiddenDim),
		Wo: tensor.NewMatrix(hiddenDim, outDim), Bro: tensor.NewVector(outDim),
		KeepProb: keepProb,
	}
	for _, w := range []*tensor.Matrix{l.Wxi, l.Wxf, l.Wxo, l.Wxg, l.Wo} {
		w.GlorotUniform(rng)
	}
	for _, w := range []*tensor.Matrix{l.Whi, l.Whf, l.Who, l.Whg} {
		w.GlorotUniform(rng)
		w.ScaleInPlace(0.6)
	}
	l.Bf.Fill(1) // standard forget-gate bias
	return l, nil
}

// spec is the LSTM's gate list: one stack {i, f, o, g} reading ĥ.
func (l *LSTM) spec() *cellSpec {
	return &cellSpec{kind: kindLSTM, keep: l.KeepProb, wo: l.Wo, bo: l.Bro, stacks: [][]gate{{
		{l.Wxi, l.Whi, l.Bi, nn.ActSigmoid}, {l.Wxf, l.Whf, l.Bf, nn.ActSigmoid},
		{l.Wxo, l.Who, l.Bo, nn.ActSigmoid}, {l.Wxg, l.Whg, l.Bg, nn.ActTanh},
	}}}
}

// Forward runs the weight-scaled deterministic pass.
func (l *LSTM) Forward(xs []tensor.Vector) (tensor.Vector, error) {
	return l.spec().forward(xs, nil)
}

// ForwardSample runs one stochastic pass with a single per-sequence mask.
func (l *LSTM) ForwardSample(xs []tensor.Vector, rng *rand.Rand) (tensor.Vector, error) {
	return l.spec().forward(xs, rng)
}

// PropagateMoments runs the closed-form LSTM moment pass: dense moments for
// the four gate pre-activations, sigmoid/tanh gate moments, and Gaussian
// product moments for c = f⊙c + i⊙g and h = o⊙tanh(c); then the readout.
func (l *LSTM) PropagateMoments(xs []tensor.Vector) (core.GaussianVec, error) {
	p, err := l.spec().newProp()
	if err != nil {
		return core.GaussianVec{}, err
	}
	return p.propagate(xs)
}

// Cost returns the modeled cost of one PropagateMoments pass over a
// steps-long sequence (see internal/edison), on the same model as the Elman
// and GRU estimators' Cost.
func (l *LSTM) Cost(steps int) (edison.Cost, error) {
	p, err := l.spec().newProp()
	if err != nil {
		return edison.Cost{}, err
	}
	return p.cost(steps), nil
}
