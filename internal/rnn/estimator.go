package rnn

import (
	"fmt"
	"runtime"
	"sync"

	"github.com/apdeepsense/apdeepsense/internal/core"
	"github.com/apdeepsense/apdeepsense/internal/edison"
	"github.com/apdeepsense/apdeepsense/internal/tensor"
)

// Estimator adapts a recurrent model (an Elman Cell or a GRU) to the
// core.Estimator contract so recurrent models plug into the registry, the
// serving tier, and the benchmark harness alongside dense ApDeepSense. The
// flat input vector is interpreted as a fixed-length sequence in step-major
// layout (x[t*inDim+i]); the step count is fixed at construction because
// the estimator contract has no shape channel.
//
// PredictBatch steps the whole batch through the shared moment engine
// together, one dual-panel product per gate stack per step. Every call owns
// its scratch, so an Estimator is safe for concurrent use, and each batch
// row is Float64bits-identical to Predict on that row.
type Estimator struct {
	p      *prop
	name   string
	steps  int
	obsVar float64
	cost   edison.Cost
}

var (
	_ core.Estimator           = (*Estimator)(nil)
	_ core.BatchPredictor      = (*Estimator)(nil)
	_ core.BatchProbsPredictor = (*Estimator)(nil)
)

// NewEstimator wraps cell as an estimator over steps-long sequences. obsVar
// (>= 0) is the observation-noise variance added to regression predictive
// variances, mirroring core.NewApDeepSense.
func NewEstimator(cell *Cell, steps int, obsVar float64) (*Estimator, error) {
	if cell == nil {
		return nil, fmt.Errorf("rnn: nil cell: %w", ErrConfig)
	}
	return newEstimator("ApDeepSense-RNN", cell.newProp, steps, obsVar)
}

// NewGRUEstimator wraps g as an estimator over steps-long sequences, with
// the same input convention and obsVar as NewEstimator.
func NewGRUEstimator(g *GRU, steps int, obsVar float64) (*Estimator, error) {
	if g == nil {
		return nil, fmt.Errorf("rnn: nil gru: %w", ErrConfig)
	}
	return newEstimator("ApDeepSense-GRU", g.newProp, steps, obsVar)
}

func newEstimator(name string, build func() (*prop, error), steps int, obsVar float64) (*Estimator, error) {
	if steps < 1 {
		return nil, fmt.Errorf("rnn: steps %d: %w", steps, ErrConfig)
	}
	if obsVar < 0 {
		return nil, fmt.Errorf("rnn: negative obsVar %v: %w", obsVar, ErrConfig)
	}
	p, err := build()
	if err != nil {
		return nil, err
	}
	return &Estimator{p: p, name: name, steps: steps, obsVar: obsVar, cost: p.cost(steps)}, nil
}

// Steps returns the fixed sequence length the estimator expects.
func (e *Estimator) Steps() int { return e.steps }

// Name implements core.Estimator.
func (e *Estimator) Name() string { return e.name }

// Cost implements core.Estimator.
func (e *Estimator) Cost() edison.Cost { return e.cost }

// Predict implements core.Estimator: one closed-form moment pass through
// the recurrence and readout.
func (e *Estimator) Predict(x tensor.Vector) (core.GaussianVec, error) {
	gs, err := e.PredictBatch([]tensor.Vector{x})
	if err != nil {
		return core.GaussianVec{}, err
	}
	return gs[0], nil
}

// PredictProbs implements core.Estimator: Gaussian logits through the
// mean-field softmax link, without the observation-noise floor.
func (e *Estimator) PredictProbs(x tensor.Vector) (tensor.Vector, error) {
	ps, err := e.PredictProbsBatch([]tensor.Vector{x})
	if err != nil {
		return nil, err
	}
	return ps[0], nil
}

// PredictBatch implements core.BatchPredictor.
func (e *Estimator) PredictBatch(inputs []tensor.Vector) ([]core.GaussianVec, error) {
	gb, err := e.propagate(inputs)
	if err != nil {
		return nil, err
	}
	out := gb.Rows()
	for _, g := range out {
		for j := range g.Var {
			g.Var[j] += e.obsVar
		}
	}
	return out, nil
}

// PredictProbsBatch implements core.BatchProbsPredictor.
func (e *Estimator) PredictProbsBatch(inputs []tensor.Vector) ([]tensor.Vector, error) {
	gb, err := e.propagate(inputs)
	if err != nil {
		return nil, err
	}
	out := make([]tensor.Vector, len(inputs))
	for i := range out {
		out[i] = core.MeanFieldSoftmax(gb.Row(i))
	}
	return out, nil
}

// propagate validates the inputs and steps them through the engine. Like
// core's batched engine it fans chunks of at least core.MinRowsPerWorker
// rows out over up to GOMAXPROCS goroutines; rows are independent, so
// every split gives the same bits.
func (e *Estimator) propagate(inputs []tensor.Vector) (core.GaussianBatch, error) {
	p, rows := e.p, len(inputs)
	width := e.steps * p.in
	x := make([]float64, rows*width)
	for b, in := range inputs {
		if len(in) != width {
			return core.GaussianBatch{}, fmt.Errorf("rnn: input %d length %d != steps %d × dim %d: %w",
				b, len(in), e.steps, p.in, ErrConfig)
		}
		copy(x[b*width:], in)
	}
	out := core.NewGaussianBatch(rows, p.out)
	run := func(lo, hi int) {
		p.run(x[lo*width:hi*width], hi-lo, e.steps,
			out.Mean.Data[lo*p.out:hi*p.out], out.Var.Data[lo*p.out:hi*p.out])
	}
	workers := min(runtime.GOMAXPROCS(0), (rows+core.MinRowsPerWorker-1)/core.MinRowsPerWorker)
	if workers <= 1 {
		run(0, rows)
		return out, nil
	}
	chunk := (rows + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < rows; lo += chunk {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			run(lo, hi)
		}(lo, min(lo+chunk, rows))
	}
	wg.Wait()
	return out, nil
}
