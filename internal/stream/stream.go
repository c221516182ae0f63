// Package stream provides the plumbing between raw IoT sensor streams and
// the uncertainty estimators: fixed-size sliding windows over multichannel
// samples, online input standardization, and an uncertainty gate that turns
// predictive variance into accept/escalate decisions — the deployment
// pattern the paper motivates (reliable inference on continuously sampled
// sensors).
package stream

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"github.com/apdeepsense/apdeepsense/internal/core"
	"github.com/apdeepsense/apdeepsense/internal/stats"
	"github.com/apdeepsense/apdeepsense/internal/tensor"
)

// ErrConfig is returned (wrapped) for invalid configurations.
var ErrConfig = errors.New("stream: invalid configuration")

// Windower slices a continuous multichannel sample stream into overlapping
// fixed-length windows. Push one sample (one value per channel) at a time;
// each call returns a flattened window (time-major: sample t's channels are
// adjacent) every stride samples once the first window has filled.
//
// A Windower is NOT safe for concurrent use: a window is defined by the
// order samples arrive, so interleaving Push calls from several goroutines
// has no meaningful semantics. Feed each sensor stream from one goroutine
// (one Windower per stream).
type Windower struct {
	channels int
	length   int
	stride   int

	buf   []float64 // ring of length*channels values
	count uint64    // total samples pushed
}

// NewWindower builds a windower emitting length-sample windows every stride
// samples.
func NewWindower(channels, length, stride int) (*Windower, error) {
	if channels < 1 || length < 1 || stride < 1 {
		return nil, fmt.Errorf("channels=%d length=%d stride=%d: %w", channels, length, stride, ErrConfig)
	}
	return &Windower{
		channels: channels, length: length, stride: stride,
		buf: make([]float64, length*channels),
	}, nil
}

// Push adds one sample. It returns a freshly allocated flattened window and
// true when a window completes, or nil and false otherwise.
func (w *Windower) Push(sample []float64) ([]float64, bool, error) {
	if len(sample) != w.channels {
		return nil, false, fmt.Errorf("sample has %d channels, want %d: %w", len(sample), w.channels, ErrConfig)
	}
	win := Slide(w.buf, w.count, sample, w.length, w.stride)
	w.count++
	return win, win != nil, nil
}

// Count returns the number of samples pushed.
func (w *Windower) Count() int { return int(w.count) }

// Slide is the window cut behind Windower and the session arena. ring holds
// the last length samples of len(sample) channels each, and count samples
// have been pushed so far. Slide writes sample as number count+1 at slot
// count mod length. When that completes a window (at the length-th sample
// and every stride samples after), it returns the ring unrolled
// oldest-first into a new slice; otherwise it returns nil.
func Slide(ring []float64, count uint64, sample []float64, length, stride int) []float64 {
	ch := len(sample)
	head := int(count%uint64(length)) * ch
	copy(ring[head:head+ch], sample)
	count++
	if count < uint64(length) || (count-uint64(length))%uint64(stride) != 0 {
		return nil
	}
	// The oldest sample sits at the next write position.
	head = int(count%uint64(length)) * ch
	out := make([]float64, len(ring))
	copy(out[copy(out, ring[head:]):], ring[:head])
	return out
}

// OnlineStandardizer tracks running per-dimension mean and variance
// (Welford) and standardizes vectors against them — for deployments where
// the training-time statistics are unavailable or drifting.
//
// An OnlineStandardizer is safe for concurrent use: Observe, Apply, and
// Count may be called from multiple goroutines (e.g. several serving
// goroutines sharing one drift tracker). Apply standardizes against a
// consistent snapshot of the statistics at the time of the call.
type OnlineStandardizer struct {
	mu       sync.Mutex
	n        int64
	mean, m2 []float64
}

// NewOnlineStandardizer tracks dim-dimensional vectors.
func NewOnlineStandardizer(dim int) (*OnlineStandardizer, error) {
	if dim < 1 {
		return nil, fmt.Errorf("dim %d: %w", dim, ErrConfig)
	}
	return &OnlineStandardizer{mean: make([]float64, dim), m2: make([]float64, dim)}, nil
}

// Observe folds a raw vector into the running statistics.
func (s *OnlineStandardizer) Observe(x []float64) error {
	if len(x) != len(s.mean) {
		return fmt.Errorf("dim %d, want %d: %w", len(x), len(s.mean), ErrConfig)
	}
	s.mu.Lock()
	s.n = stats.WelfordAdd(s.n, s.mean, s.m2, x)
	s.mu.Unlock()
	return nil
}

// Apply returns the standardized copy of x using the statistics so far.
// Dimensions with (near-)zero variance are centered but not scaled.
func (s *OnlineStandardizer) Apply(x []float64) ([]float64, error) {
	if len(x) != len(s.mean) {
		return nil, fmt.Errorf("dim %d, want %d: %w", len(x), len(s.mean), ErrConfig)
	}
	out := make([]float64, len(x))
	s.mu.Lock()
	Standardize(s.n, s.mean, s.m2, x, out)
	s.mu.Unlock()
	return out, nil
}

// Count returns the number of observed vectors.
func (s *OnlineStandardizer) Count() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// Standardize is the standardizer step behind OnlineStandardizer and the
// session arena: it writes x standardized against the moments
// stats.WelfordAdd keeps into out. Each dimension's population variance is
// m2·(1/n), 0 before the second observation, and Z scales by its square
// root. out may alias x.
func Standardize(n int64, mean, m2, x, out []float64) {
	inv := 1.0 / float64(n)
	for i := range mean {
		variance := 0.0
		if n >= 2 {
			variance = m2[i] * inv
		}
		out[i] = Z(x[i], mean[i], variance)
	}
}

// Z standardizes x against a mean and a variance. A standard deviation
// below 1e-9 counts as 1, so a constant dimension is centered but not
// scaled.
func Z(x, mean, variance float64) float64 {
	sd := math.Sqrt(variance)
	if sd < 1e-9 {
		sd = 1
	}
	return (x - mean) / sd
}

// Decision is the uncertainty gate's verdict for one prediction.
type Decision int

// Gate decisions.
const (
	// Accept means the prediction's uncertainty is within budget.
	Accept Decision = iota + 1
	// Escalate means uncertainty exceeds the budget: defer to a fallback
	// (bigger model, cloud, human).
	Escalate
)

// String returns the decision name.
func (d Decision) String() string {
	switch d {
	case Accept:
		return "accept"
	case Escalate:
		return "escalate"
	default:
		return fmt.Sprintf("decision(%d)", int(d))
	}
}

// Gate turns predictive distributions into accept/escalate decisions and
// keeps acceptance statistics. It is the smallest useful policy on top of
// ApDeepSense's variance output: bound the mean predictive standard
// deviation.
//
// A Gate is safe for concurrent use: Check and Stats may be called from
// multiple goroutines (the expected deployment shares one gate across
// serving goroutines), and Stats always observes a consistent
// (accepted, escalated, nonFinite) triple.
//
// The decision contract is explicit about degenerate inputs (MeanStd): a
// zero-dim prediction and any non-finite per-dimension variance escalate —
// uncertainty that cannot be assessed is treated as unbounded, never
// silently accepted — and additionally increment the nonFinite counter so
// the condition is visible in telemetry instead of masquerading as ordinary
// high uncertainty.
// A Gate may additionally carry escalate-after-N / readmit-after-M
// hysteresis (NewGateWithHysteresis, the Hysteresis latch): the emitted
// decision only flips to Escalate after N consecutive over-budget checks and
// only returns to Accept after M consecutive within-budget checks, so a
// single noisy window cannot flap a stream between accept and escalate. The
// default gate (NewGate) uses N=M=1, which is exactly the stateless legacy
// behavior. A hysteresis gate carries per-stream streak state, so share one
// only across checks that belong to the same logical stream; the N=M=1
// default remains freely shareable.
type Gate struct {
	maxMeanStd    float64
	escalateAfter int
	readmitAfter  int

	mu        sync.Mutex
	accepted  int64
	escalated int64
	nonFinite int64
	latch     Hysteresis
}

// NewGate accepts predictions whose mean per-dimension standard deviation is
// at most maxMeanStd. The returned gate has no hysteresis (N=M=1): every
// check's decision reflects that check alone.
func NewGate(maxMeanStd float64) (*Gate, error) {
	return NewGateWithHysteresis(maxMeanStd, 1, 1)
}

// NewGateWithHysteresis builds a gate that escalates only after
// escalateAfter consecutive over-budget checks and readmits only after
// readmitAfter consecutive within-budget checks. Both must be >= 1;
// (1, 1) is the stateless NewGate behavior exactly.
func NewGateWithHysteresis(maxMeanStd float64, escalateAfter, readmitAfter int) (*Gate, error) {
	if maxMeanStd <= 0 {
		return nil, fmt.Errorf("maxMeanStd %v: %w", maxMeanStd, ErrConfig)
	}
	if escalateAfter < 1 || readmitAfter < 1 {
		return nil, fmt.Errorf("escalateAfter %d, readmitAfter %d (both must be >= 1): %w",
			escalateAfter, readmitAfter, ErrConfig)
	}
	return &Gate{maxMeanStd: maxMeanStd, escalateAfter: escalateAfter, readmitAfter: readmitAfter}, nil
}

// Check classifies one predictive distribution: it is over budget when its
// MeanStd exceeds the gate's bound, and the Hysteresis latch turns that
// into the decision. Degenerate predictions escalate at once and are
// counted as nonFinite (see the type comment).
func (g *Gate) Check(pred core.GaussianVec) Decision {
	s, degenerate := MeanStd(pred)
	over := s > g.maxMeanStd

	g.mu.Lock()
	defer g.mu.Unlock()
	d := g.latch.Step(over, degenerate, g.escalateAfter, g.readmitAfter)
	if degenerate {
		g.nonFinite++
	}
	if d == Escalate {
		g.escalated++
	} else {
		g.accepted++
	}
	return d
}

// Escalated reports whether the gate's hysteresis state is currently
// latched to Escalate (always mirrors the last decision for N=M=1 gates).
func (g *Gate) Escalated() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.latch.Latched
}

// Stats returns the accept and escalate counts so far, plus how many of the
// escalations were degenerate (zero-dim or non-finite σ) rather than
// ordinary over-budget predictions.
func (g *Gate) Stats() (accepted, escalated, nonFinite int64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.accepted, g.escalated, g.nonFinite
}

// MeanStd is the uncertainty both gates score: the mean per-dimension
// predictive standard deviation of pred. A prediction whose σ cannot be
// assessed — zero dimensions, or any per-dimension variance whose square
// root is not finite — is degenerate, and its mean σ is +Inf: unassessable
// uncertainty counts as unbounded.
func MeanStd(pred core.GaussianVec) (s float64, degenerate bool) {
	if pred.Dim() == 0 {
		return math.Inf(1), true
	}
	for _, v := range pred.Var {
		sd := math.Sqrt(v)
		if math.IsNaN(sd) || math.IsInf(sd, 0) {
			return math.Inf(1), true
		}
		s += sd
	}
	return s / float64(pred.Dim()), false
}

// Hysteresis is one stream's escalate-after-N / readmit-after-M latch,
// shared by Gate and every resident session. The zero value is an
// accepting stream with empty streaks.
type Hysteresis struct {
	OverN   uint32 // consecutive over-budget windows
	UnderN  uint32 // consecutive within-budget windows
	Latched bool   // true while escalating
}

// Step folds one window into the latch and returns its decision. An
// over-budget window extends the over-streak and latches once it reaches
// escalateAfter; a within-budget window extends the under-streak and
// unlatches once it reaches readmitAfter. A degenerate window counts as
// over budget and escalates at once, bypassing the escalate-side streak:
// hysteresis absorbs noise, and an unassessable prediction is not noise.
func (h *Hysteresis) Step(over, degenerate bool, escalateAfter, readmitAfter int) Decision {
	if over || degenerate {
		h.UnderN = 0
		h.OverN++
		if int(h.OverN) >= escalateAfter {
			h.Latched = true
		}
	} else {
		h.OverN = 0
		h.UnderN++
		if int(h.UnderN) >= readmitAfter {
			h.Latched = false
		}
	}
	if degenerate || h.Latched {
		return Escalate
	}
	return Accept
}

// Pipeline chains a windower, an optional online standardizer, an estimator,
// and a gate into a push-based streaming predictor.
//
// A Pipeline inherits the Windower's contract: NOT safe for concurrent use.
// Run one Pipeline per stream, pushed from a single goroutine; the shared
// pieces (standardizer, gate, estimator) are individually safe to reuse
// across pipelines.
type Pipeline struct {
	win  *Windower
	std  *OnlineStandardizer
	est  core.Estimator
	gate *Gate
}

// Result is one emitted pipeline prediction.
type Result struct {
	Pred     core.GaussianVec
	Decision Decision
}

// NewPipeline assembles a streaming predictor. std and gate may be nil to
// disable standardization or gating (nil gate accepts everything).
func NewPipeline(win *Windower, std *OnlineStandardizer, est core.Estimator, gate *Gate) (*Pipeline, error) {
	if win == nil || est == nil {
		return nil, fmt.Errorf("windower and estimator are required: %w", ErrConfig)
	}
	if std != nil && len(std.mean) != win.length*win.channels {
		return nil, fmt.Errorf("standardizer dim %d != window dim %d: %w",
			len(std.mean), win.length*win.channels, ErrConfig)
	}
	return &Pipeline{win: win, std: std, est: est, gate: gate}, nil
}

// Push feeds one sensor sample; when a window completes it runs the
// estimator and returns the result.
func (p *Pipeline) Push(sample []float64) (*Result, error) {
	window, ready, err := p.win.Push(sample)
	if err != nil {
		return nil, err
	}
	if !ready {
		return nil, nil
	}
	x := window
	if p.std != nil {
		if err := p.std.Observe(window); err != nil {
			return nil, err
		}
		if x, err = p.std.Apply(window); err != nil {
			return nil, err
		}
	}
	pred, err := p.est.Predict(tensor.Vector(x))
	if err != nil {
		return nil, fmt.Errorf("stream: predict: %w", err)
	}
	res := &Result{Pred: pred, Decision: Accept}
	if p.gate != nil {
		res.Decision = p.gate.Check(pred)
	}
	return res, nil
}
