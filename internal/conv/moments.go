package conv

import (
	"fmt"

	"github.com/apdeepsense/apdeepsense/internal/core"
)

// PropagateMomentsKernel pushes a Gaussian sequence through the
// convolution with channel dropout in closed form — the convolutional
// analogue of the paper's eqs. 9–10, derived channel-wise because the
// Bernoulli mask is shared across time within a channel:
//
//	a[t,c,o]  = Σ_k x[t·s+k, c] W[k,c,o]          (Gaussian partial sum)
//	μ_a       = Σ_k μ_x W,   σ_a² = Σ_k σ_x² W²
//	y[t,o]    = b[o] + Σ_c z[c]·a[t,c,o]
//	E[y]      = b + Σ_c p·μ_a
//	Var[y]    = Σ_c ((μ_a² + σ_a²)p − μ_a²p²)
//
// The activation then runs element-wise through the prebuilt
// activation-moment kernel ak (eqs. 12–26 for PWL kernels; exact kernels
// dispatch rectifier layers to the closed-form moments). Net resolves its
// kernels once and serves on this path.
//
// Two numeric edge cases are handled explicitly rather than through the
// generic dropout algebra:
//   - KeepProb == 1: the generic variance (μ_a²+σ_a²)·p − μ_a²·p² rounds
//     σ_a² away entirely once μ_a² ≳ σ_a²/ε, silently zeroing the variance
//     of confident channels. With no mask there is no mask variance, so the
//     sum reduces to mean += μ_a, variance += σ_a² exactly.
//   - Var/Mean shape disagreement (including a nil Var) is rejected up
//     front; the generic loop would have indexed out of bounds or silently
//     read zeros.
func (l *Conv1D) PropagateMomentsKernel(g GaussianSeq, ak *core.ActKernel) (GaussianSeq, error) {
	if g.Mean == nil || g.Var == nil {
		return GaussianSeq{}, fmt.Errorf("moments: nil mean or variance sequence: %w", ErrConfig)
	}
	if g.Mean.Channels != l.InCh {
		return GaussianSeq{}, fmt.Errorf("moments: input has %d channels, want %d: %w", g.Mean.Channels, l.InCh, ErrConfig)
	}
	if g.Var.Steps != g.Mean.Steps || g.Var.Channels != g.Mean.Channels {
		return GaussianSeq{}, fmt.Errorf("moments: variance shape %dx%d != mean shape %dx%d: %w",
			g.Var.Steps, g.Var.Channels, g.Mean.Steps, g.Mean.Channels, ErrConfig)
	}
	outSteps, err := l.OutSteps(g.Mean.Steps)
	if err != nil {
		return GaussianSeq{}, err
	}
	p := l.KeepProb
	out := NewGaussianSeq(outSteps, l.OutCh)
	for t := 0; t < outSteps; t++ {
		base := t * l.Stride
		for o := 0; o < l.OutCh; o++ {
			mean := l.B[o]
			variance := 0.0
			for c := 0; c < l.InCh; c++ {
				var muA, varA float64
				for k := 0; k < l.Kernel; k++ {
					w := l.w(k, c, o)
					muA += g.Mean.At(base+k, c) * w
					varA += g.Var.At(base+k, c) * w * w
				}
				if p == 1 {
					mean += muA
					variance += varA
				} else {
					mean += p * muA
					variance += (muA*muA+varA)*p - muA*muA*p*p
				}
			}
			if variance < 0 {
				variance = 0
			}
			out.Mean.Set(t, o, mean)
			out.Var.Set(t, o, variance)
		}
	}
	// The whole steps×channels pre-activation is one contiguous panel.
	var sc core.ActScratch
	ak.MomentsPanel(out.Mean.Data, out.Var.Data, &sc)
	return out, nil
}

// GlobalAvgPoolMoments reduces a Gaussian sequence over time into a
// per-channel Gaussian vector: the mean of means, and the variance of the
// average under the (diagonal) independence approximation, Var/steps².
// Note the same caveat as everywhere in ApDeepSense: temporal correlations
// induced by the shared channel masks are dropped. A zero-step sequence
// pools to the zero point mass per channel (0/0 would otherwise poison the
// head with NaNs); it cannot arise through Net, whose conv stack already
// rejects sequences shorter than the kernel.
func GlobalAvgPoolMoments(g GaussianSeq) core.GaussianVec {
	out := core.NewGaussianVec(g.Mean.Channels)
	if g.Mean.Steps == 0 {
		return out
	}
	n := float64(g.Mean.Steps)
	for c := 0; c < g.Mean.Channels; c++ {
		var m, v float64
		for t := 0; t < g.Mean.Steps; t++ {
			m += g.Mean.At(t, c)
			v += g.Var.At(t, c)
		}
		out.Mean[c] = m / n
		out.Var[c] = v / (n * n)
	}
	return out
}

// GlobalAvgPool reduces a plain sequence over time.
func GlobalAvgPool(s *Seq) []float64 {
	out := make([]float64, s.Channels)
	n := float64(s.Steps)
	for c := 0; c < s.Channels; c++ {
		var m float64
		for t := 0; t < s.Steps; t++ {
			m += s.At(t, c)
		}
		out[c] = m / n
	}
	return out
}
