// Package session is the resident device-session fleet: every device in an
// IoT deployment holds a long-lived streaming session — its own sliding
// window ring, online standardization moments, and drift-gating state —
// inside a compact struct-of-arrays arena designed to keep millions of
// sessions resident on one node. Each slot runs the stream package's
// pipeline steps (stream.Slide, stats.WelfordAdd and stream.Standardize,
// stream.MeanStd, stream.Hysteresis) on its own slices; completed windows
// run the model's batched uncertainty path; and the predictive uncertainty
// is turned into a per-device accept/escalate verdict by
// surprisal-then-calibrate gating: the mean predictive standard deviation
// is z-scored against the device's own running surprisal moments, mapped
// through a fleet-level monotone (isotonic) calibrator to an actionable
// score in [0,1], and thresholded with escalate-after-N / readmit-after-M
// hysteresis.
package session

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrConfig is returned (wrapped) for invalid configurations and arguments.
var ErrConfig = errors.New("session: invalid configuration")

// Calibrator maps per-device surprisal z-scores to a monotone actionable
// score in [0, 1] by linear interpolation over isotonic-regression
// breakpoints. Calibration answers the question the raw z-score cannot: "at
// this much surprisal, how often was escalating the right call?" — fit it
// with FitIsotonic on labeled (z, outcome) pairs, or use DefaultCalibrator
// for the uncalibrated logistic prior.
//
// A Calibrator is immutable after construction and therefore safe to share
// across every session and goroutine without locking.
type Calibrator struct {
	xs []float64 // strictly increasing z breakpoints
	ys []float64 // nondecreasing scores in [0, 1], one per breakpoint
}

// FitIsotonic fits a monotone nondecreasing step-linear map from z-scores to
// target scores by pool-adjacent-violators (PAV) isotonic regression: ties
// in z are weight-averaged, then adjacent level sets that violate
// monotonicity are pooled to their weighted mean until none remain. Targets
// must lie in [0, 1] (they are escalation outcomes or rates); at least two
// distinct z values are required, and every input must be finite.
func FitIsotonic(zs, targets []float64) (*Calibrator, error) {
	if len(zs) != len(targets) {
		return nil, fmt.Errorf("%d z values, %d targets: %w", len(zs), len(targets), ErrConfig)
	}
	for i := range zs {
		if math.IsNaN(zs[i]) || math.IsInf(zs[i], 0) {
			return nil, fmt.Errorf("non-finite z[%d]: %w", i, ErrConfig)
		}
		if math.IsNaN(targets[i]) || targets[i] < 0 || targets[i] > 1 {
			return nil, fmt.Errorf("target[%d] = %v outside [0,1]: %w", i, targets[i], ErrConfig)
		}
	}
	// Sort by z and weight-average duplicate z values.
	idx := make([]int, len(zs))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return zs[idx[a]] < zs[idx[b]] })
	var xs, ys, ws []float64
	for _, i := range idx {
		if n := len(xs); n > 0 && xs[n-1] == zs[i] {
			ys[n-1] += (targets[i] - ys[n-1]) / (ws[n-1] + 1)
			ws[n-1]++
			continue
		}
		xs = append(xs, zs[i])
		ys = append(ys, targets[i])
		ws = append(ws, 1)
	}
	if len(xs) < 2 {
		return nil, fmt.Errorf("%d distinct z values (need >= 2): %w", len(xs), ErrConfig)
	}
	// PAV: maintain a stack of level sets; pool while the tail violates.
	type block struct {
		y, w float64
		n    int // number of breakpoints pooled into this block
	}
	var stack []block
	for i := range xs {
		stack = append(stack, block{y: ys[i], w: ws[i], n: 1})
		for len(stack) > 1 && stack[len(stack)-2].y > stack[len(stack)-1].y {
			a, b := stack[len(stack)-2], stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			stack[len(stack)-1] = block{
				y: (a.y*a.w + b.y*b.w) / (a.w + b.w),
				w: a.w + b.w,
				n: a.n + b.n,
			}
		}
	}
	fit := make([]float64, 0, len(xs))
	for _, blk := range stack {
		for i := 0; i < blk.n; i++ {
			fit = append(fit, blk.y)
		}
	}
	return &Calibrator{xs: xs, ys: fit}, nil
}

// DefaultCalibrator is the uncalibrated prior: an isotonic fit of the
// logistic curve 1/(1+e^(2−z)) over a z grid, so the default drift
// threshold of 0.9 corresponds to roughly a 4.2-sigma surprisal — the
// "four sigma" rule with soft shoulders. Deployments with labeled drift
// outcomes should replace it via Config.Calibrator with a FitIsotonic of
// their own data.
func DefaultCalibrator() *Calibrator {
	zs := make([]float64, 0, 57)
	ys := make([]float64, 0, 57)
	for z := -6.0; z <= 8.0; z += 0.25 {
		zs = append(zs, z)
		ys = append(ys, 1/(1+math.Exp(2-z)))
	}
	c, err := FitIsotonic(zs, ys)
	if err != nil {
		panic(fmt.Sprintf("session: default calibrator: %v", err)) // unreachable: static input
	}
	return c
}

// Score maps one z-score to the calibrated [0, 1] actionable score: linear
// interpolation between breakpoints, clamped flat beyond the fitted range.
// NaN maps to 1 — unassessable surprisal is maximal surprisal.
func (c *Calibrator) Score(z float64) float64 {
	if math.IsNaN(z) {
		return 1
	}
	n := len(c.xs)
	switch {
	case z <= c.xs[0]:
		return c.ys[0]
	case z >= c.xs[n-1]:
		return c.ys[n-1]
	}
	i := sort.SearchFloat64s(c.xs, z)
	// c.xs[i-1] < z <= c.xs[i] here.
	x0, x1 := c.xs[i-1], c.xs[i]
	y0, y1 := c.ys[i-1], c.ys[i]
	return y0 + (y1-y0)*(z-x0)/(x1-x0)
}

// Breakpoints returns copies of the fitted (z, score) breakpoints, mostly
// for inspection and snapshot tooling.
func (c *Calibrator) Breakpoints() (zs, scores []float64) {
	zs = append([]float64(nil), c.xs...)
	scores = append([]float64(nil), c.ys...)
	return zs, scores
}
