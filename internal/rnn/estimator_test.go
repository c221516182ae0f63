package rnn

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"github.com/apdeepsense/apdeepsense/internal/core"
	"github.com/apdeepsense/apdeepsense/internal/nn"
	"github.com/apdeepsense/apdeepsense/internal/tensor"
)

// TestEstimatorConcurrentCallers holds the Elman and GRU estimators to the
// contract core.PredictBatch states for every estimator: Predict is safe
// for concurrent callers. Goroutines calling Predict and a core.PredictBatch
// over eight workers, all at once, must each return Float64bits what
// sequential Predict returned; a propagator with shared scratch fails here,
// and under -race also reports the data race. The test also pins Predict to
// PropagateMoments plus obsVar, and PredictProbs to the mean-field softmax
// of PropagateMoments.
func TestEstimatorConcurrentCallers(t *testing.T) {
	const (
		steps, dim = 16, 3
		obsVar     = 0.05
		callers    = 4
	)
	rng := rand.New(rand.NewSource(53))
	cell, err := NewCell(dim, 16, 2, nn.ActTanh, 0.8, rng)
	if err != nil {
		t.Fatal(err)
	}
	gru, err := NewGRU(dim, 12, 2, 0.85, rng)
	if err != nil {
		t.Fatal(err)
	}
	cellEst, err := NewEstimator(cell, steps, obsVar)
	if err != nil {
		t.Fatal(err)
	}
	gruEst, err := NewGRUEstimator(gru, steps, obsVar)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		model interface {
			PropagateMoments([]tensor.Vector) (core.GaussianVec, error)
		}
		est core.Estimator
	}{
		{"elman", cell, cellEst},
		{"gru", gru, gruEst},
	} {
		rows := randRows(rng, 64, steps, dim)
		want := make([]core.GaussianVec, len(rows))
		for i, x := range rows {
			if want[i], err = tc.est.Predict(x); err != nil {
				t.Fatal(err)
			}
			xs := make([]tensor.Vector, steps)
			for s := range xs {
				xs[s] = x[s*dim : (s+1)*dim]
			}
			ref, err := tc.model.PropagateMoments(xs)
			if err != nil {
				t.Fatal(err)
			}
			probs, err := tc.est.PredictProbs(x)
			if err != nil {
				t.Fatal(err)
			}
			for j, p := range core.MeanFieldSoftmax(ref) {
				if math.Float64bits(probs[j]) != math.Float64bits(p) {
					t.Fatalf("%s row %d: PredictProbs[%d] = %v, softmax of PropagateMoments %v", tc.name, i, j, probs[j], p)
				}
			}
			for j := range ref.Var {
				ref.Var[j] += obsVar
			}
			bitsEqual(t, tc.name+" Predict vs PropagateMoments+obsVar", want[i], ref)
		}

		got := make([][]core.GaussianVec, callers)
		errs := make([]error, callers)
		var wg sync.WaitGroup
		for w := range got {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				got[w] = make([]core.GaussianVec, len(rows))
				for i, x := range rows {
					if got[w][i], errs[w] = tc.est.Predict(x); errs[w] != nil {
						return
					}
				}
			}(w)
		}
		batch, err := core.PredictBatch(tc.est, rows, 8)
		wg.Wait()
		if err != nil {
			t.Fatal(err)
		}
		for w, err := range errs {
			if err != nil {
				t.Fatalf("%s caller %d: %v", tc.name, w, err)
			}
		}
		for i := range rows {
			bitsEqual(t, tc.name+" core.PredictBatch", batch[i], want[i])
			for w := range got {
				bitsEqual(t, tc.name+" concurrent Predict", got[w][i], want[i])
			}
		}
	}
}
