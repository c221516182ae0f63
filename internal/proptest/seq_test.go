package proptest

import (
	"math/rand"
	"testing"

	"github.com/apdeepsense/apdeepsense/internal/conv"
	"github.com/apdeepsense/apdeepsense/internal/core"
	"github.com/apdeepsense/apdeepsense/internal/oracle"
	"github.com/apdeepsense/apdeepsense/internal/rnn"
	"github.com/apdeepsense/apdeepsense/internal/tensor"
)

// TestConvVsOracle holds the conv fast path — strided Conv1D moment
// recursion, global average pooling, dense head, with exact rectifier and
// PWL tanh/sigmoid layers mixed by the generator — to the naive sequence
// oracle within RelTight plus the a-priori conditioning budget. No
// hand-tuned epsilons.
func TestConvVsOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for iter := 0; iter < 120; iter++ {
		net, steps := GenConvNet(rng)
		ref, err := oracle.NewConvRef(net, core.Options{})
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		x := GenSeq(rng, steps, net.Convs()[0].InCh)
		got, err := net.PropagateMoments(x)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		want, cond, err := ref.ForwardCond(x)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		if !finite(want) {
			continue
		}
		if err := CompareVec(got, want, RelTight, cond); err != nil {
			t.Errorf("iter %d (steps=%d): %v", iter, steps, err)
		}
	}
}

// TestConvBatchBitIdentical pins the batched conv entry point against
// per-sample propagation bit-for-bit across generated nets.
func TestConvBatchBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	for iter := 0; iter < 40; iter++ {
		net, steps := GenConvNet(rng)
		xs := make([]*conv.Seq, 3)
		for i := range xs {
			xs[i] = GenSeq(rng, steps, net.Convs()[0].InCh)
		}
		batch, err := net.PropagateBatch(xs)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		for i, x := range xs {
			want, err := net.PropagateMoments(x)
			if err != nil {
				t.Fatalf("iter %d: %v", iter, err)
			}
			if err := CompareBits(batch[i], want); err != nil {
				t.Errorf("iter %d sample %d: %v", iter, i, err)
			}
		}
	}
}

// TestRNNVsOracle holds the Elman-cell moment recursion (exact rectifier
// and PWL recurrences, dropout corners including keep=1) to the step-mirrored
// oracle within RelTight plus the recursive conditioning budget.
func TestRNNVsOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	for iter := 0; iter < 120; iter++ {
		c := GenCell(rng)
		ref, err := oracle.NewRNNRef(c, core.Options{})
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		steps := 1 + rng.Intn(10)
		xs := GenSeqVectors(rng, steps, c.InDim)
		got, err := c.PropagateMoments(xs)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		want, cond, err := ref.ForwardCond(xs)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		if !finite(want) {
			continue
		}
		if err := CompareVec(got, want, RelTight, cond); err != nil {
			t.Errorf("iter %d (steps=%d act=%v): %v", iter, steps, c.Act, err)
		}
	}
}

// TestGRUVsOracle holds the GRU gate/candidate/product moment recursion to
// its mirrored oracle, with the product error bound carried exactly through
// the gate coupling.
func TestGRUVsOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(109))
	for iter := 0; iter < 120; iter++ {
		g := GenGRU(rng)
		ref, err := oracle.NewGRURef(g, core.Options{})
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		steps := 1 + rng.Intn(8)
		xs := GenSeqVectors(rng, steps, g.InDim)
		got, err := g.PropagateMoments(xs)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		want, cond, err := ref.ForwardCond(xs)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		if !finite(want) {
			continue
		}
		if err := CompareVec(got, want, RelTight, cond); err != nil {
			t.Errorf("iter %d (steps=%d): %v", iter, steps, err)
		}
	}
}

// TestRNNBatchBitIdentical pins the recurrent estimators' batched entry
// point (the batch stepped together through the shared gate-stack engine)
// against per-row Predict bit-for-bit across generated cells and GRUs.
func TestRNNBatchBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(113))
	for iter := 0; iter < 30; iter++ {
		c := GenCell(rng)
		cellSteps := 1 + rng.Intn(7)
		cellEst, err := rnn.NewEstimator(c, cellSteps, 0)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		g := GenGRU(rng)
		gruSteps := 1 + rng.Intn(6)
		gruEst, err := rnn.NewGRUEstimator(g, gruSteps, 0)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		for _, tc := range []struct {
			name     string
			est      *rnn.Estimator
			steps, d int
		}{
			{"cell", cellEst, cellSteps, c.InDim},
			{"gru", gruEst, gruSteps, g.InDim},
		} {
			rows := make([]tensor.Vector, 1+rng.Intn(20))
			for i := range rows {
				rows[i] = GenInput(rng, tc.steps*tc.d)
			}
			batch, err := tc.est.PredictBatch(rows)
			if err != nil {
				t.Fatalf("iter %d: %v", iter, err)
			}
			for i, x := range rows {
				want, err := tc.est.Predict(x)
				if err != nil {
					t.Fatalf("iter %d: %v", iter, err)
				}
				if err := CompareBits(batch[i], want); err != nil {
					t.Errorf("iter %d %s row %d: %v", iter, tc.name, i, err)
				}
			}
		}
	}
}
