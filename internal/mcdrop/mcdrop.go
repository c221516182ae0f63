// Package mcdrop implements the MCDrop-k baseline (Gal & Ghahramani, the
// paper's reference algorithm [21]): run the dropout network k times with
// freshly sampled Bernoulli masks and estimate the predictive mean and
// variance from the k output samples. It is unbiased but costs k full
// forward passes, which is exactly the expense ApDeepSense removes.
//
// Predict draws the k passes' masks serially from one seeded stream and runs
// them as masked row tiles of nn.SampleTile rows on the network's shared
// batched pass (nn.Pass), merging rows in pass order. The estimate is a
// function of (network, k, obsVar, seed, call sequence) alone: it does not
// depend on GOMAXPROCS or the host's core count.
package mcdrop

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"github.com/apdeepsense/apdeepsense/internal/core"
	"github.com/apdeepsense/apdeepsense/internal/edison"
	"github.com/apdeepsense/apdeepsense/internal/nn"
	"github.com/apdeepsense/apdeepsense/internal/stats"
	"github.com/apdeepsense/apdeepsense/internal/tensor"
)

// ErrConfig is returned (wrapped) for invalid estimator configurations.
var ErrConfig = errors.New("mcdrop: invalid configuration")

// Estimator is the MCDrop-k sampling estimator. It implements
// core.Estimator. Predictions are serialized on an internal mutex (the mask
// stream is stateful across calls), so the estimator is safe for concurrent
// use.
type Estimator struct {
	net    *nn.Network
	k      int
	obsVar float64

	mu   sync.Mutex
	rng  *rand.Rand // the one mask stream
	pass *nn.Pass   // tile scratch, min(k, nn.SampleTile) rows
}

var (
	_ core.Estimator           = (*Estimator)(nil)
	_ core.BatchPredictor      = (*Estimator)(nil)
	_ core.BatchProbsPredictor = (*Estimator)(nil)
)

// New builds an MCDrop estimator drawing k stochastic passes per prediction.
// obsVar (>= 0) is the observation-noise variance added to the sample
// variance, and seed drives the dropout masks.
func New(net *nn.Network, k int, obsVar float64, seed int64) (*Estimator, error) {
	if k < 2 {
		return nil, fmt.Errorf("k = %d, need >= 2 for a variance estimate: %w", k, ErrConfig)
	}
	if obsVar < 0 {
		return nil, fmt.Errorf("negative obsVar %v: %w", obsVar, ErrConfig)
	}
	return &Estimator{
		net:    net,
		k:      k,
		obsVar: obsVar,
		rng:    rand.New(rand.NewSource(seed)),
		pass:   net.NewPass(min(k, nn.SampleTile)),
	}, nil
}

// Name implements core.Estimator, e.g. "MCDrop-10".
func (e *Estimator) Name() string { return fmt.Sprintf("MCDrop-%d", e.k) }

// K returns the sample count.
func (e *Estimator) K() int { return e.k }

// Predict implements core.Estimator: the sample mean and unbiased sample
// variance of k stochastic forward passes (paper §II-B), Welford-merged in
// pass order. With small k the variance estimate is noisy and can collapse
// toward zero, which is what drives MCDrop's poor NLL at k = 3 in
// Tables I–IV.
func (e *Estimator) Predict(x tensor.Vector) (core.GaussianVec, error) {
	acc := stats.NewVecWelford(e.net.OutputDim())
	if err := e.sample(x, func(y tensor.Vector) { acc.Add(y) }); err != nil {
		return core.GaussianVec{}, err
	}
	g := core.GaussianVec{Mean: acc.Mean(), Var: acc.SampleVariance()}
	for i := range g.Var {
		g.Var[i] += e.obsVar
	}
	return g, nil
}

// PredictProbs implements core.Estimator: the mean softmax over k stochastic
// passes, the standard MCDrop classification estimate.
func (e *Estimator) PredictProbs(x tensor.Vector) (tensor.Vector, error) {
	out := tensor.NewVector(e.net.OutputDim())
	err := e.sample(x, func(y tensor.Vector) {
		for i, p := range core.Softmax(y) {
			out[i] += p
		}
	})
	if err != nil {
		return nil, err
	}
	inv := 1.0 / float64(e.k)
	for i := range out {
		out[i] *= inv
	}
	return out, nil
}

// PredictBatch implements core.BatchPredictor: the inputs run in order on
// the one mask stream. Without it core.PredictBatch would fan Predict calls
// over a worker pool, which gains nothing (the calls serialize on the
// mutex) and hands each input whichever masks its goroutine reaches first,
// so rows would depend on scheduling and the host's core count.
func (e *Estimator) PredictBatch(inputs []tensor.Vector) ([]core.GaussianVec, error) {
	out := make([]core.GaussianVec, len(inputs))
	for i, x := range inputs {
		g, err := e.Predict(x)
		if err != nil {
			return nil, fmt.Errorf("batch input %d: %w", i, err)
		}
		out[i] = g
	}
	return out, nil
}

// PredictProbsBatch implements core.BatchProbsPredictor, in input order for
// the reason PredictBatch gives.
func (e *Estimator) PredictProbsBatch(inputs []tensor.Vector) ([]tensor.Vector, error) {
	out := make([]tensor.Vector, len(inputs))
	for i, x := range inputs {
		p, err := e.PredictProbs(x)
		if err != nil {
			return nil, fmt.Errorf("batch input %d: %w", i, err)
		}
		out[i] = p
	}
	return out, nil
}

// sample runs the k passes of x under the mutex.
func (e *Estimator) sample(x tensor.Vector, yield func(y tensor.Vector)) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.pass.Sample(x, e.k, e.rng, yield); err != nil {
		return fmt.Errorf("mcdrop: %w", err)
	}
	return nil
}

// Cost implements core.Estimator: k stochastic passes plus the per-sample
// moment accumulation (two element-op passes over the outputs per sample).
func (e *Estimator) Cost() edison.Cost {
	per := core.ForwardPassCost(e.net)
	per.ElementOps += 2 * int64(e.net.OutputDim())
	return per.Scale(int64(e.k))
}
