package proptest

import (
	"math/rand"
	"testing"

	"github.com/apdeepsense/apdeepsense/internal/conv"
	"github.com/apdeepsense/apdeepsense/internal/core"
	"github.com/apdeepsense/apdeepsense/internal/oracle"
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

// TestRNNBatchBitIdentical pins the batched recurrent entry points against
// sequential propagation bit-for-bit across generated cells and GRUs.
func TestRNNBatchBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(113))
	for iter := 0; iter < 30; iter++ {
		c := GenCell(rng)
		cellSeqs := make([][]tensor.Vector, 2+rng.Intn(3))
		for s := range cellSeqs {
			cellSeqs[s] = GenSeqVectors(rng, 1+rng.Intn(7), c.InDim)
		}
		batch, err := c.PropagateMomentsBatch(cellSeqs)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		for s, xs := range cellSeqs {
			want, err := c.PropagateMoments(xs)
			if err != nil {
				t.Fatalf("iter %d: %v", iter, err)
			}
			if err := CompareBits(batch[s], want); err != nil {
				t.Errorf("iter %d cell sample %d: %v", iter, s, err)
			}
		}

		g := GenGRU(rng)
		gruSeqs := make([][]tensor.Vector, 2+rng.Intn(3))
		for s := range gruSeqs {
			gruSeqs[s] = GenSeqVectors(rng, 1+rng.Intn(6), g.InDim)
		}
		gbatch, err := g.PropagateMomentsBatch(gruSeqs)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		for s, xs := range gruSeqs {
			want, err := g.PropagateMoments(xs)
			if err != nil {
				t.Fatalf("iter %d: %v", iter, err)
			}
			if err := CompareBits(gbatch[s], want); err != nil {
				t.Errorf("iter %d gru sample %d: %v", iter, s, err)
			}
		}
	}
}
