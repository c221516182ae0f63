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

// randRows draws n flat step-major inputs for an estimator.
func randRows(rng *rand.Rand, n, steps, dim int) []tensor.Vector {
	rows := make([]tensor.Vector, n)
	for i := range rows {
		rows[i] = make(tensor.Vector, steps*dim)
		for j := range rows[i] {
			rows[i][j] = rng.NormFloat64()
		}
	}
	return rows
}

func bitsEqual(t *testing.T, label string, a, b core.GaussianVec) {
	t.Helper()
	if len(a.Mean) != len(b.Mean) {
		t.Fatalf("%s: dim %d != %d", label, len(a.Mean), len(b.Mean))
	}
	for j := range a.Mean {
		if math.Float64bits(a.Mean[j]) != math.Float64bits(b.Mean[j]) ||
			math.Float64bits(a.Var[j]) != math.Float64bits(b.Var[j]) {
			t.Fatalf("%s: out %d: (%v,%v) != (%v,%v)", label, j,
				a.Mean[j], a.Var[j], b.Mean[j], b.Var[j])
		}
	}
}

// requireBatchMatchesPredict runs rows through PredictBatch and checks every
// row against its own Predict bit for bit.
func requireBatchMatchesPredict(t *testing.T, label string, est *Estimator, rows []tensor.Vector) {
	t.Helper()
	batch, err := est.PredictBatch(rows)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(rows) {
		t.Fatalf("%s: %d results for %d rows", label, len(batch), len(rows))
	}
	for i, x := range rows {
		want, err := est.Predict(x)
		if err != nil {
			t.Fatal(err)
		}
		bitsEqual(t, label, batch[i], want)
	}
}

// TestCellBatchBitIdentical pins Estimator.PredictBatch (the batch stepped
// together through one dual-panel product per step, split over workers)
// against per-row Predict, across activations, keep probabilities and batch
// sizes on both sides of the 4-row register blocking and the worker split.
func TestCellBatchBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for _, act := range []nn.Activation{nn.ActTanh, nn.ActReLU, nn.ActLeakyReLU, nn.ActSigmoid} {
		for _, keep := range []float64{0.7, 1} {
			c, err := NewCell(4, 6, 3, act, keep, rng)
			if err != nil {
				t.Fatal(err)
			}
			est, err := NewEstimator(c, 5, 0.01)
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range []int{1, 3, 19} {
				requireBatchMatchesPredict(t, act.String(), est, randRows(rng, n, 5, 4))
			}
		}
	}
}

// TestGRUBatchBitIdentical is TestCellBatchBitIdentical for the GRU's two
// gate stacks.
func TestGRUBatchBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, keep := range []float64{0.85, 1} {
		g, err := NewGRU(3, 7, 2, keep, rng)
		if err != nil {
			t.Fatal(err)
		}
		est, err := NewGRUEstimator(g, 8, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{1, 5, 21} {
			requireBatchMatchesPredict(t, "gru", est, randRows(rng, n, 8, 3))
		}
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
		p, err := c.newProp()
		if err != nil {
			t.Fatal(err)
		}
		if got := p.stacks[0].kernels[0].Exact(); got != tc.exact {
			t.Errorf("%v: exact = %v, want %v", tc.act, got, tc.exact)
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
	p, err := c.newProp()
	if err != nil {
		t.Fatal(err)
	}
	sc := p.newScratch(1)
	sc.hM[0] = 1e9
	sc.hV[0] = 1
	sc.x.Data[0] = 0
	p.step(sc)
	if sc.hV[0] != 1 {
		// The generic algebra gives (1e18+1)·1 − 1e18, which rounds to 0.
		t.Errorf("keep=1 state variance = %v, want exactly 1", sc.hV[0])
	}
	if sc.hM[0] != 1e9 {
		t.Errorf("keep=1 state mean = %v, want exactly 1e9", sc.hM[0])
	}
}

// goldenRows builds the TestGoldenBits models: each seeds
// rand.NewSource(61), builds a model with input 3, hidden 8 and output 3
// from that generator, redraws every bias from N(0, 0.25) so the bias adds
// are pinned too, then draws a 9-step N(0,1) sequence (randSeq) and
// propagates it.
func goldenRows(t *testing.T) map[string]core.GaussianVec {
	t.Helper()
	randomize := func(rng *rand.Rand, bs ...tensor.Vector) {
		for _, b := range bs {
			for i := range b {
				b[i] = 0.5 * rng.NormFloat64()
			}
		}
	}
	type model interface {
		PropagateMoments([]tensor.Vector) (core.GaussianVec, error)
	}
	cell := func(act nn.Activation, keep float64) func(*rand.Rand) (model, error) {
		return func(rng *rand.Rand) (model, error) {
			c, err := NewCell(3, 8, 3, act, keep, rng)
			if err == nil {
				randomize(rng, c.B, c.Bo)
			}
			return c, err
		}
	}
	builds := map[string]func(*rand.Rand) (model, error){
		"elman tanh keep 0.8": cell(nn.ActTanh, 0.8),
		"elman relu keep 0.8": cell(nn.ActReLU, 0.8),
		"elman tanh keep 1":   cell(nn.ActTanh, 1),
		"gru keep 0.85": func(rng *rand.Rand) (model, error) {
			g, err := NewGRU(3, 8, 3, 0.85, rng)
			if err == nil {
				randomize(rng, g.Br, g.Bu, g.Bc, g.Bo)
			}
			return g, err
		},
		"lstm keep 0.85": func(rng *rand.Rand) (model, error) {
			l, err := NewLSTM(3, 8, 3, 0.85, rng)
			if err == nil {
				randomize(rng, l.Bi, l.Bf, l.Bo, l.Bg, l.Bro)
			}
			return l, err
		},
	}
	out := make(map[string]core.GaussianVec, len(builds))
	for name, build := range builds {
		rng := rand.New(rand.NewSource(61))
		m, err := build(rng)
		if err != nil {
			t.Fatal(err)
		}
		if out[name], err = m.PropagateMoments(randSeq(rng, 9, 3)); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestGoldenBits pins PropagateMoments bit for bit for each cell across the
// move onto the shared gate-stack engine. The values were recorded by
// running goldenRows against the per-cell implementations that preceded it
// (separate Wx, Wh and W² MulVecInto passes per gate) and printing
// math.Float64bits of every output. The LSTM has no oracle reference, so
// this is its only bit-level pin.
func TestGoldenBits(t *testing.T) {
	want := map[string][2][3]uint64{ // {mean, variance} bits
		"elman relu keep 0.8": {
			{0xbfea1ffce7694a7d, 0x3f910b0eb98192b4, 0x40035cd9f973934c},
			{0x3f510ed1ea01ca59, 0x3f65b144fbda032b, 0x3f700e0c5635dba8},
		},
		"elman tanh keep 0.8": {
			{0xbfd8800d6719f3a3, 0xbfcf811ba5b3ee69, 0x4002109518f23640},
			{0x3f80eff65c217a6e, 0x3f712aec6e34dd6c, 0x3f7ae9085103fa60},
		},
		"elman tanh keep 1": {
			{0xbfd588fb4c1a9a50, 0xbfcf8099bed83392, 0x40024ae9632b8754},
			{0x0000000000000000, 0x0000000000000000, 0x0000000000000000},
		},
		"gru keep 0.85": {
			{0xbfd5524d4971ba62, 0x3fd3418d73bac949, 0xbfe0e3e5d285099e},
			{0x3f40312ed89d149e, 0x3f3797c780a814b5, 0x3f492cdeafc74105},
		},
		"lstm keep 0.85": {
			{0xbfe0f3636fc71130, 0xbfd521abf1b9825c, 0xbfe7a9f99c1b43a4},
			{0x3f16442b02e18bc3, 0x3f1177a1534ec4b1, 0x3f14d715f5455ebe},
		},
	}
	rows := goldenRows(t)
	if len(rows) != len(want) {
		t.Fatalf("%d golden rows, want %d", len(rows), len(want))
	}
	for name, g := range rows {
		for j := range g.Mean {
			for k, got := range []float64{g.Mean[j], g.Var[j]} {
				if b := math.Float64bits(got); b != want[name][k][j] {
					t.Errorf("%s: moment %d of output %d: bits %#016x (%v), want %#016x", name, k, j, b, got, want[name][k][j])
				}
			}
		}
	}
}
