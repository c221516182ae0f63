package stats

import (
	"fmt"
	"math"
)

// Welford is a streaming mean/variance accumulator using Welford's
// numerically stable online algorithm. The zero value is ready to use.
type Welford struct {
	n    int64
	mean float64
	m2   float64
}

// Add folds one observation into the accumulator.
func (w *Welford) Add(x float64) {
	w.n++
	delta := x - w.mean
	w.mean += delta / float64(w.n)
	w.m2 += delta * (x - w.mean)
}

// Count returns the number of observations added so far.
func (w *Welford) Count() int64 { return w.n }

// Mean returns the running mean (0 before any observation).
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the population variance (divides by n). It returns 0
// before the second observation.
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n)
}

// SampleVariance returns the unbiased sample variance (divides by n−1).
func (w *Welford) SampleVariance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// Std returns the population standard deviation.
func (w *Welford) Std() float64 { return math.Sqrt(w.Variance()) }

// State returns the accumulator's raw streaming state: the observation
// count, the running mean and the M2 sum. With WelfordFromState it is the
// persistence contract: a restored accumulator continues the stream
// bit-for-bit where the snapshot left off.
func (w *Welford) State() (n int64, mean, m2 float64) { return w.n, w.mean, w.m2 }

// WelfordFromState rebuilds an accumulator from State output. It rejects a
// negative count; deeper validation (finiteness, non-negative M2) belongs to
// the serialization layer that owns the wire format.
func WelfordFromState(n int64, mean, m2 float64) (Welford, error) {
	if n < 0 {
		return Welford{}, fmt.Errorf("stats: welford state count %d < 0", n)
	}
	return Welford{n: n, mean: mean, m2: m2}, nil
}

// VecWelford tracks streaming per-element mean and variance for fixed-length
// vectors; it is how MCDrop accumulates its sample moments without storing
// every sample.
type VecWelford struct {
	n    int64
	mean []float64
	m2   []float64
}

// NewVecWelford returns an accumulator for vectors of length dim.
func NewVecWelford(dim int) *VecWelford {
	return &VecWelford{mean: make([]float64, dim), m2: make([]float64, dim)}
}

// Dim returns the tracked vector length.
func (w *VecWelford) Dim() int { return len(w.mean) }

// Count returns the number of vectors added.
func (w *VecWelford) Count() int64 { return w.n }

// Add folds one vector observation in. x must have length Dim(); extra or
// missing elements indicate a caller bug and are ignored beyond the shorter
// length to keep the hot path branch-free — callers validate shapes upstream.
func (w *VecWelford) Add(x []float64) { w.n = WelfordAdd(w.n, w.mean, w.m2, x) }

// WelfordAdd is VecWelford's fold over moments the caller holds: it folds x
// into the per-element running means and M2 sums of n observations and
// returns the new count. The stream standardizer and every resident
// session keep their moments this way.
func WelfordAdd(n int64, mean, m2, x []float64) int64 {
	n++
	inv := 1.0 / float64(n)
	for i := range mean {
		delta := x[i] - mean[i]
		mean[i] += delta * inv
		m2[i] += delta * (x[i] - mean[i])
	}
	return n
}

// Mean returns the running per-element mean. The returned slice is a copy.
func (w *VecWelford) Mean() []float64 {
	out := make([]float64, len(w.mean))
	copy(out, w.mean)
	return out
}

// Variance returns the per-element population variance as a copy.
func (w *VecWelford) Variance() []float64 {
	out := make([]float64, len(w.m2))
	if w.n < 2 {
		return out
	}
	inv := 1.0 / float64(w.n)
	for i, m2 := range w.m2 {
		out[i] = m2 * inv
	}
	return out
}

// SampleVariance returns the per-element unbiased variance as a copy.
func (w *VecWelford) SampleVariance() []float64 {
	out := make([]float64, len(w.m2))
	if w.n < 2 {
		return out
	}
	inv := 1.0 / float64(w.n-1)
	for i, m2 := range w.m2 {
		out[i] = m2 * inv
	}
	return out
}
