package core

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"github.com/apdeepsense/apdeepsense/internal/edison"
	"github.com/apdeepsense/apdeepsense/internal/nn"
	"github.com/apdeepsense/apdeepsense/internal/tensor"
)

func TestPredictBatchMatchesSequential(t *testing.T) {
	net := buildTestNet(t, nn.ActTanh, 0.85, 5)
	est, err := NewApDeepSense(net, Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	inputs := make([]tensor.Vector, 40)
	for i := range inputs {
		inputs[i] = tensor.Vector{float64(i), 1, -1, 0.5, 0.1}
	}
	want := make([]GaussianVec, len(inputs))
	for i, x := range inputs {
		g, err := est.Predict(x)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = g
	}
	for _, workers := range []int{0, 1, 3, 8, 100} {
		got, err := PredictBatch(est, inputs, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d results", workers, len(got))
		}
		for i := range got {
			if !got[i].Mean.Equal(want[i].Mean, 0) || !got[i].Var.Equal(want[i].Var, 0) {
				t.Errorf("workers=%d input %d: mismatch", workers, i)
			}
		}
	}
}

func TestPredictBatchEmpty(t *testing.T) {
	net := buildTestNet(t, nn.ActReLU, 1, 1)
	est, err := NewApDeepSense(net, Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := PredictBatch(est, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("got %d results for empty batch", len(got))
	}
}

func TestPredictBatchPropagatesError(t *testing.T) {
	net := buildTestNet(t, nn.ActReLU, 1, 1)
	est, err := NewApDeepSense(net, Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	inputs := []tensor.Vector{
		{1, 2, 3, 4, 5},
		{1}, // wrong dimension
		{1, 2, 3, 4, 5},
	}
	if _, err := PredictBatch(est, inputs, 2); !errors.Is(err, ErrInput) {
		t.Errorf("err = %v, want ErrInput", err)
	}
}

// TestForEachInputStopsAfterError is the regression test for the worker-pool
// error path: before the fix, the producer kept feeding every remaining index
// after a failure and workers kept executing fn, so a failing batch still ran
// all n inputs. With the stop flag, only the handful of already-queued
// indices may still execute. Every other input takes a millisecond, as a
// real prediction takes time: with a no-op fn the worker holding input 5 can
// sit runnable while the rest drain the whole batch before it ever fails.
func TestForEachInputStopsAfterError(t *testing.T) {
	const n = 10000
	sentinel := errors.New("boom")
	for _, workers := range []int{2, 4, 16} {
		var calls atomic.Int64
		err := forEachInput(n, workers, func(i int) error {
			calls.Add(1)
			if i == 5 {
				return sentinel
			}
			time.Sleep(time.Millisecond)
			return nil
		})
		if !errors.Is(err, sentinel) {
			t.Fatalf("workers=%d: err = %v, want sentinel", workers, err)
		}
		if c := calls.Load(); c > n/10 {
			t.Errorf("workers=%d: executed %d of %d inputs after input 5 failed; early stop broken", workers, c, n)
		}
	}
}

// TestForEachInputSequentialStops covers the workers=1 fast path.
func TestForEachInputSequentialStops(t *testing.T) {
	sentinel := errors.New("boom")
	var calls int
	err := forEachInput(100, 1, func(i int) error {
		calls++
		if i == 3 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) || calls != 4 {
		t.Errorf("err = %v, calls = %d; want sentinel after 4 calls", err, calls)
	}
}

// TestPredictBatchFanOutPath pins the worker-pool path (estimators without a
// batch fast path) via a wrapper that hides ApDeepSense's BatchPredictor.
func TestPredictBatchFanOutPath(t *testing.T) {
	net := buildTestNet(t, nn.ActTanh, 0.85, 5)
	est, err := NewApDeepSense(net, Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	wrapped := plainEstimator{est}
	inputs := make([]tensor.Vector, 10)
	for i := range inputs {
		inputs[i] = tensor.Vector{float64(i), 1, -1, 0.5, 0.1}
	}
	got, err := PredictBatch(wrapped, inputs, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range inputs {
		want, err := est.Predict(x)
		if err != nil {
			t.Fatal(err)
		}
		if !got[i].Mean.Equal(want.Mean, 0) {
			t.Errorf("input %d: fan-out mismatch", i)
		}
	}
}

// plainEstimator hides the batch fast-path interfaces of the wrapped
// estimator so tests can force the worker-pool path.
type plainEstimator struct{ est Estimator }

func (p plainEstimator) Name() string                                 { return p.est.Name() }
func (p plainEstimator) Predict(x tensor.Vector) (GaussianVec, error) { return p.est.Predict(x) }
func (p plainEstimator) PredictProbs(x tensor.Vector) (tensor.Vector, error) {
	return p.est.PredictProbs(x)
}
func (p plainEstimator) Cost() edison.Cost { return p.est.Cost() }

func TestPredictProbsBatch(t *testing.T) {
	net := buildTestNet(t, nn.ActReLU, 0.9, 2)
	est, err := NewApDeepSense(net, Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	inputs := []tensor.Vector{
		{1, 0, 0, 0, 0},
		{0, 1, 0, 0, 0},
	}
	probs, err := PredictProbsBatch(est, inputs, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range probs {
		var sum float64
		for _, v := range p {
			sum += v
		}
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("input %d: probs sum %v", i, sum)
		}
	}
	if _, err := PredictProbsBatch(est, []tensor.Vector{{1}}, 1); !errors.Is(err, ErrInput) {
		t.Errorf("err = %v, want ErrInput", err)
	}
}
