package rnn

import (
	"fmt"
	"math/rand"

	"github.com/apdeepsense/apdeepsense/internal/core"
	"github.com/apdeepsense/apdeepsense/internal/nn"
	"github.com/apdeepsense/apdeepsense/internal/tensor"
)

// GRU is a gated recurrent unit with variational recurrent dropout on the
// recurrent state (one mask per sequence, the Gal & Ghahramani recipe):
//
//	ĥ   = h_{t−1} ⊙ z
//	r_t = σ(x_t Wxr + ĥ Whr + br)
//	u_t = σ(x_t Wxu + ĥ Whu + bu)
//	c_t = tanh(x_t Wxc + (r_t ⊙ ĥ) Whc + bc)
//	h_t = u_t ⊙ h_{t−1} + (1 − u_t) ⊙ c_t
//
// with a linear readout of the final state. Moment propagation extends the
// dense machinery with closed-form moments of PRODUCTS of independent
// Gaussians (E[uv] = μuμv, Var[uv] = μu²σv² + μv²σu² + σu²σv²); the
// diagonal family drops the gate/state correlations, the same approximation
// ApDeepSense makes layer-wise.
type GRU struct {
	InDim, HiddenDim, OutDim int

	Wxr, Whr   *tensor.Matrix
	Wxu, Whu   *tensor.Matrix
	Wxc, Whc   *tensor.Matrix
	Br, Bu, Bc tensor.Vector

	Wo *tensor.Matrix
	Bo tensor.Vector

	KeepProb float64
}

// NewGRU builds a Glorot-initialized GRU.
func NewGRU(inDim, hiddenDim, outDim int, keepProb float64, rng *rand.Rand) (*GRU, error) {
	if inDim < 1 || hiddenDim < 1 || outDim < 1 {
		return nil, fmt.Errorf("gru dims %d/%d/%d: %w", inDim, hiddenDim, outDim, ErrConfig)
	}
	if keepProb <= 0 || keepProb > 1 {
		return nil, fmt.Errorf("gru keep prob %v: %w", keepProb, ErrConfig)
	}
	g := &GRU{
		InDim: inDim, HiddenDim: hiddenDim, OutDim: outDim,
		Wxr: tensor.NewMatrix(inDim, hiddenDim), Whr: tensor.NewMatrix(hiddenDim, hiddenDim),
		Wxu: tensor.NewMatrix(inDim, hiddenDim), Whu: tensor.NewMatrix(hiddenDim, hiddenDim),
		Wxc: tensor.NewMatrix(inDim, hiddenDim), Whc: tensor.NewMatrix(hiddenDim, hiddenDim),
		Br: tensor.NewVector(hiddenDim), Bu: tensor.NewVector(hiddenDim), Bc: tensor.NewVector(hiddenDim),
		Wo: tensor.NewMatrix(hiddenDim, outDim), Bo: tensor.NewVector(outDim),
		KeepProb: keepProb,
	}
	for _, w := range []*tensor.Matrix{g.Wxr, g.Wxu, g.Wxc, g.Wo} {
		w.GlorotUniform(rng)
	}
	for _, w := range []*tensor.Matrix{g.Whr, g.Whu, g.Whc} {
		w.GlorotUniform(rng)
		w.ScaleInPlace(0.6) // recurrent stability at init
	}
	return g, nil
}

// spec is the GRU's gate list: the stack {r, u} reading ĥ, then the
// candidate {c} reading r⊙ĥ.
func (g *GRU) spec() *cellSpec {
	return &cellSpec{kind: kindGRU, keep: g.KeepProb, wo: g.Wo, bo: g.Bo, stacks: [][]gate{
		{{g.Wxr, g.Whr, g.Br, nn.ActSigmoid}, {g.Wxu, g.Whu, g.Bu, nn.ActSigmoid}},
		{{g.Wxc, g.Whc, g.Bc, nn.ActTanh}},
	}}
}

// Forward runs the weight-scaled deterministic pass.
func (g *GRU) Forward(xs []tensor.Vector) (tensor.Vector, error) {
	return g.spec().forward(xs, nil)
}

// ForwardSample runs one stochastic pass with a single per-sequence mask.
func (g *GRU) ForwardSample(xs []tensor.Vector, rng *rand.Rand) (tensor.Vector, error) {
	return g.spec().forward(xs, rng)
}

// PropagateMoments runs the closed-form GRU moment pass: dense moments for
// every gate pre-activation, sigmoid/tanh moments for the gate outputs,
// product-of-Gaussians moments for the gating multiplications, and
// independence across the convex combination; then the linear readout.
func (g *GRU) PropagateMoments(xs []tensor.Vector) (core.GaussianVec, error) {
	p, err := g.spec().newProp()
	if err != nil {
		return core.GaussianVec{}, err
	}
	return p.propagate(xs)
}
