package rnn

import (
	"math"
	"math/rand"
	"testing"

	"github.com/apdeepsense/apdeepsense/internal/core"
	"github.com/apdeepsense/apdeepsense/internal/nn"
	"github.com/apdeepsense/apdeepsense/internal/tensor"
)

func randSeq(rng *rand.Rand, steps, dim int) []tensor.Vector {
	xs := make([]tensor.Vector, steps)
	for t := range xs {
		xs[t] = make(tensor.Vector, dim)
		for i := range xs[t] {
			xs[t][i] = rng.NormFloat64()
		}
	}
	return xs
}

func bitsEqual(t *testing.T, label string, a, b core.GaussianVec) {
	t.Helper()
	for j := range a.Mean {
		if math.Float64bits(a.Mean[j]) != math.Float64bits(b.Mean[j]) ||
			math.Float64bits(a.Var[j]) != math.Float64bits(b.Var[j]) {
			t.Fatalf("%s: out %d: (%v,%v) != (%v,%v)", label, j,
				a.Mean[j], a.Var[j], b.Mean[j], b.Var[j])
		}
	}
}

// TestCellStepBitIdenticalToFull pins the step-level API against the full
// pass: manually iterating CellProp.Step and Readout must reproduce
// PropagateMoments bit-for-bit, for both the PWL (tanh) and the exact
// rectifier backend.
func TestCellStepBitIdenticalToFull(t *testing.T) {
	for _, act := range []nn.Activation{nn.ActTanh, nn.ActReLU, nn.ActLeakyReLU} {
		rng := rand.New(rand.NewSource(31))
		c, err := NewCell(3, 8, 2, act, 0.8, rng)
		if err != nil {
			t.Fatal(err)
		}
		xs := randSeq(rng, 9, 3)
		want, err := c.PropagateMoments(xs)
		if err != nil {
			t.Fatal(err)
		}
		prop, err := c.NewProp()
		if err != nil {
			t.Fatal(err)
		}
		h := core.NewGaussianVec(c.HiddenDim)
		for _, x := range xs {
			if err := prop.Step(h, x); err != nil {
				t.Fatal(err)
			}
		}
		bitsEqual(t, act.String(), prop.Readout(h), want)
	}
}

// TestCellBatchBitIdentical pins batched propagation (shared CellProp and
// scratch) against independent sequential passes.
func TestCellBatchBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	c, err := NewCell(4, 6, 3, nn.ActTanh, 0.7, rng)
	if err != nil {
		t.Fatal(err)
	}
	seqs := make([][]tensor.Vector, 5)
	for s := range seqs {
		seqs[s] = randSeq(rng, 4+s, 4)
	}
	batch, err := c.PropagateMomentsBatch(seqs)
	if err != nil {
		t.Fatal(err)
	}
	for s, xs := range seqs {
		want, err := c.PropagateMoments(xs)
		if err != nil {
			t.Fatal(err)
		}
		bitsEqual(t, "cell batch", batch[s], want)
	}
}

// TestGRUStepBitIdenticalToFull pins GRUProp.StepMoments/ReadoutMoments
// against PropagateMoments, and the batched pass against sequential calls.
func TestGRUStepBitIdenticalToFull(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	g, err := NewGRU(3, 7, 2, 0.85, rng)
	if err != nil {
		t.Fatal(err)
	}
	xs := randSeq(rng, 8, 3)
	want, err := g.PropagateMoments(xs)
	if err != nil {
		t.Fatal(err)
	}
	prop, err := g.NewProp()
	if err != nil {
		t.Fatal(err)
	}
	h := core.NewGaussianVec(g.HiddenDim)
	for _, x := range xs {
		if err := prop.StepMoments(h, x); err != nil {
			t.Fatal(err)
		}
	}
	bitsEqual(t, "gru step", prop.ReadoutMoments(h), want)

	seqs := [][]tensor.Vector{randSeq(rng, 5, 3), randSeq(rng, 9, 3)}
	batch, err := g.PropagateMomentsBatch(seqs)
	if err != nil {
		t.Fatal(err)
	}
	for s, sq := range seqs {
		w, err := g.PropagateMoments(sq)
		if err != nil {
			t.Fatal(err)
		}
		bitsEqual(t, "gru batch", batch[s], w)
	}
}

// TestCellExactDispatch pins the moment-backend resolution for recurrences:
// the activation alone picks it — exact closed form for rectifier cells,
// PWL for tanh.
func TestCellExactDispatch(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, tc := range []struct {
		act   nn.Activation
		exact bool
	}{
		{nn.ActReLU, true},
		{nn.ActLeakyReLU, true},
		{nn.ActTanh, false},
	} {
		c, err := NewCell(2, 4, 1, tc.act, 0.9, rng)
		if err != nil {
			t.Fatal(err)
		}
		prop, err := c.NewProp()
		if err != nil {
			t.Fatal(err)
		}
		if prop.ak.Exact() != tc.exact {
			t.Errorf("%v: exact = %v, want %v", tc.act, prop.ak.Exact(), tc.exact)
		}
	}
}

// TestCellKeepOneVariance pins the KeepProb == 1 fast path: with no
// recurrent mask the state variance must pass through the dropout stage
// exactly instead of being rounded away against a large mean.
func TestCellKeepOneVariance(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	c, err := NewCell(1, 1, 1, nn.ActIdentity, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	c.Wx.Data[0] = 0
	c.Wh.Data[0] = 1
	c.B[0] = 0
	prop, err := c.NewProp()
	if err != nil {
		t.Fatal(err)
	}
	h := core.NewGaussianVec(1)
	h.Mean[0] = 1e9
	h.Var[0] = 1
	if err := prop.Step(h, tensor.Vector{0}); err != nil {
		t.Fatal(err)
	}
	if h.Var[0] != 1 {
		// The generic algebra gives (1e18+1)·1 − 1e18, which rounds to 0.
		t.Errorf("keep=1 state variance = %v, want exactly 1", h.Var[0])
	}
	if h.Mean[0] != 1e9 {
		t.Errorf("keep=1 state mean = %v, want exactly 1e9", h.Mean[0])
	}
}
