// Package conv implements the paper's stated future-work extension (§VI):
// ApDeepSense-style closed-form uncertainty propagation for one-dimensional
// convolutional networks with *convolutional dropout* (Gal & Ghahramani's
// Bernoulli approximate variational inference for CNNs, the paper's [36]).
//
// Convolutional dropout samples one Bernoulli mask element per input
// CHANNEL, shared across time. The moment propagation therefore first
// aggregates each channel's kernel-window contribution into a Gaussian
// partial sum, applies the dropout moment formulas (paper eqs. 9–10) at the
// channel level, and sums channels — keeping the layer-wise diagonal
// Gaussian family of the dense case. Activations reuse the same PWL
// machinery (internal/core, eqs. 12–26).
//
// The package is self-contained for time-series IoT models: Conv1D layers
// with stride, channel dropout, training via hand-derived backprop, global
// average pooling into a dense head, and Monte-Carlo-validated moment
// propagation.
package conv

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"github.com/apdeepsense/apdeepsense/internal/nn"
)

// ErrConfig is returned (wrapped) for invalid layer configurations.
var ErrConfig = errors.New("conv: invalid configuration")

// Seq is a time-series tensor: Data[t*Channels+c] is channel c at step t.
type Seq struct {
	Steps    int
	Channels int
	Data     []float64
}

// NewSeq allocates a zero sequence.
func NewSeq(steps, channels int) *Seq {
	return &Seq{Steps: steps, Channels: channels, Data: make([]float64, steps*channels)}
}

// At returns channel c at step t.
func (s *Seq) At(t, c int) float64 { return s.Data[t*s.Channels+c] }

// Set stores x at step t, channel c.
func (s *Seq) Set(t, c int, x float64) { s.Data[t*s.Channels+c] = x }

// Clone returns a deep copy.
func (s *Seq) Clone() *Seq {
	out := NewSeq(s.Steps, s.Channels)
	copy(out.Data, s.Data)
	return out
}

// GaussianSeq is a sequence of independent Gaussians (diagonal covariance),
// the convolutional analogue of core.GaussianVec.
type GaussianSeq struct {
	Mean *Seq
	Var  *Seq
}

// NewGaussianSeq allocates a zero-mean, zero-variance Gaussian sequence.
func NewGaussianSeq(steps, channels int) GaussianSeq {
	return GaussianSeq{Mean: NewSeq(steps, channels), Var: NewSeq(steps, channels)}
}

// DeterministicSeq wraps a plain sequence as a point mass.
func DeterministicSeq(s *Seq) GaussianSeq {
	return GaussianSeq{Mean: s.Clone(), Var: NewSeq(s.Steps, s.Channels)}
}

// Conv1D is a one-dimensional convolution layer with channel dropout:
//
//	y[t, o] = Σ_c z[c] · (Σ_k x[t·stride + k, c] · W[k, c, o]) + b[o]
//
// followed by an element-wise activation. z[c] ~ Bernoulli(KeepProb) is
// sampled once per input channel per forward pass (convolutional dropout).
type Conv1D struct {
	// Kernel, InCh, OutCh, Stride define the geometry. No padding: the
	// output has (steps − Kernel)/Stride + 1 steps.
	Kernel, InCh, OutCh, Stride int
	// W holds weights indexed [k][c][o] flattened as (k*InCh+c)*OutCh+o.
	W []float64
	// B is the per-output-channel bias.
	B []float64
	// Act is the activation function.
	Act nn.Activation
	// KeepProb is the channel keep probability (1 = no dropout).
	KeepProb float64
}

// NewConv1D builds a Glorot-initialized layer.
func NewConv1D(kernel, inCh, outCh, stride int, act nn.Activation, keepProb float64, rng *rand.Rand) (*Conv1D, error) {
	if kernel < 1 || inCh < 1 || outCh < 1 || stride < 1 {
		return nil, fmt.Errorf("geometry k=%d in=%d out=%d s=%d: %w", kernel, inCh, outCh, stride, ErrConfig)
	}
	if keepProb <= 0 || keepProb > 1 {
		return nil, fmt.Errorf("keep prob %v: %w", keepProb, ErrConfig)
	}
	if !act.Valid() {
		return nil, fmt.Errorf("activation %v: %w", act, ErrConfig)
	}
	l := &Conv1D{
		Kernel: kernel, InCh: inCh, OutCh: outCh, Stride: stride,
		W: make([]float64, kernel*inCh*outCh), B: make([]float64, outCh),
		Act: act, KeepProb: keepProb,
	}
	limit := math.Sqrt(6.0 / float64(kernel*inCh+outCh))
	for i := range l.W {
		l.W[i] = (2*rng.Float64() - 1) * limit
	}
	return l, nil
}

// OutSteps returns the output length for an input of the given steps, or an
// error if the input is too short.
func (l *Conv1D) OutSteps(steps int) (int, error) {
	if steps < l.Kernel {
		return 0, fmt.Errorf("input %d steps < kernel %d: %w", steps, l.Kernel, ErrConfig)
	}
	return (steps-l.Kernel)/l.Stride + 1, nil
}

// w returns the weight at kernel tap k, input channel c, output channel o.
func (l *Conv1D) w(k, c, o int) float64 { return l.W[(k*l.InCh+c)*l.OutCh+o] }

// Forward runs the deterministic (weight-scaled) pass.
func (l *Conv1D) Forward(x *Seq) (*Seq, error) {
	if x.Channels != l.InCh {
		return nil, fmt.Errorf("input has %d channels, want %d: %w", x.Channels, l.InCh, ErrConfig)
	}
	outSteps, err := l.OutSteps(x.Steps)
	if err != nil {
		return nil, err
	}
	out := NewSeq(outSteps, l.OutCh)
	for t := 0; t < outSteps; t++ {
		base := t * l.Stride
		for o := 0; o < l.OutCh; o++ {
			sum := l.B[o]
			for k := 0; k < l.Kernel; k++ {
				for c := 0; c < l.InCh; c++ {
					sum += l.KeepProb * x.At(base+k, c) * l.w(k, c, o)
				}
			}
			out.Set(t, o, l.Act.Apply(sum))
		}
	}
	return out, nil
}

// ForwardSample runs one stochastic pass with a fresh channel dropout mask.
func (l *Conv1D) ForwardSample(x *Seq, rng *rand.Rand) (*Seq, error) {
	if x.Channels != l.InCh {
		return nil, fmt.Errorf("input has %d channels, want %d: %w", x.Channels, l.InCh, ErrConfig)
	}
	outSteps, err := l.OutSteps(x.Steps)
	if err != nil {
		return nil, err
	}
	mask := make([]float64, l.InCh)
	for c := range mask {
		if l.KeepProb >= 1 || rng.Float64() < l.KeepProb {
			mask[c] = 1
		}
	}
	out := NewSeq(outSteps, l.OutCh)
	for t := 0; t < outSteps; t++ {
		base := t * l.Stride
		for o := 0; o < l.OutCh; o++ {
			sum := l.B[o]
			for c := 0; c < l.InCh; c++ {
				if mask[c] == 0 {
					continue
				}
				for k := 0; k < l.Kernel; k++ {
					sum += x.At(base+k, c) * l.w(k, c, o)
				}
			}
			out.Set(t, o, l.Act.Apply(sum))
		}
	}
	return out, nil
}
