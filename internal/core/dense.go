package core

import (
	"fmt"

	"github.com/apdeepsense/apdeepsense/internal/nn"
	"github.com/apdeepsense/apdeepsense/internal/tensor"
)

// DenseMoments propagates a Gaussian input through one fully-connected layer
// with dropout, implementing the paper's equations (9) and (10):
//
//	E[y]   = (μ ⊙ p) W + b
//	Var[y] = ((μ² + σ²) ⊙ p − μ² ⊙ p²) W²
//
// where p is the Bernoulli keep probability of the layer's input mask and W²
// is the element-wise square of the weights (passed pre-computed as wsq so a
// caller can amortize it across calls). The activation is NOT applied —
// that is ActivationMoments' job. It is the one-vector statement of the
// step the Propagator's engine runs on dual panels; tests hold the engine
// to it bit for bit.
func DenseMoments(g GaussianVec, l *nn.Layer, wsq *tensor.Matrix) (GaussianVec, error) {
	in, out := l.InDim(), l.OutDim()
	if g.Dim() != in {
		return GaussianVec{}, fmt.Errorf("dense: input dim %d, want %d: %w", g.Dim(), in, ErrInput)
	}
	if wsq.Rows != in || wsq.Cols != out {
		return GaussianVec{}, fmt.Errorf("dense: wsq is %dx%d, want %dx%d: %w", wsq.Rows, wsq.Cols, in, out, ErrInput)
	}

	p := l.KeepProb
	muIn := make(tensor.Vector, in)
	varIn := make(tensor.Vector, in)
	for i := 0; i < in; i++ {
		mu, s2 := g.Mean[i], g.Var[i]
		muIn[i] = mu * p
		// E[(x z)²] − E[x z]² = (μ²+σ²)p − μ²p².
		varIn[i] = (mu*mu+s2)*p - mu*mu*p*p
	}

	res := NewGaussianVec(out)
	l.W.MulVecInto(muIn, res.Mean)
	for j := 0; j < out; j++ {
		res.Mean[j] += l.B[j]
	}
	wsq.MulVecInto(varIn, res.Var)
	// Clamp tiny negative values from floating-point cancellation.
	for j := 0; j < out; j++ {
		if res.Var[j] < 0 {
			res.Var[j] = 0
		}
	}
	return res, nil
}
