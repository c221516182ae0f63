package mcdrop

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"github.com/apdeepsense/apdeepsense/internal/core"
	"github.com/apdeepsense/apdeepsense/internal/nn"
	"github.com/apdeepsense/apdeepsense/internal/tensor"
)

// goldenEstimator builds the estimator whose bits the goldens pin.
func goldenEstimator(t *testing.T, net *nn.Network, k int, obsVar float64, seed int64) *Estimator {
	t.Helper()
	e, err := New(net, k, obsVar, seed)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func hashVecs(vs ...tensor.Vector) string {
	h := sha256.New()
	var buf [8]byte
	for _, v := range vs {
		for _, x := range v {
			binary.BigEndian.PutUint64(buf[:], math.Float64bits(x))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:32]
}

// goldenSequence runs a fixed call sequence (Predict, Predict on another
// input, PredictProbs, Predict again) so the hash covers how the mask
// stream carries across calls and across both entry points.
func goldenSequence(t *testing.T, e *Estimator) string {
	t.Helper()
	xa := tensor.Vector{0.5, -1, 2, 0}
	xb := tensor.Vector{-0.3, 0.8, 0, 1.7}
	var out []tensor.Vector
	for _, x := range []tensor.Vector{xa, xb} {
		g, err := e.Predict(x)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, g.Mean, g.Var)
	}
	p, err := e.PredictProbs(xa)
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, p)
	g, err := e.Predict(xa)
	if err != nil {
		t.Fatal(err)
	}
	return hashVecs(append(out, g.Mean, g.Var)...)
}

// TestPredictGoldenBits pins the exact bits of Predict and PredictProbs as
// produced by the historical single-stream sampler: k passes whose masks are
// drawn serially from the one seeded stream, rows Welford-merged in pass
// order. The estimate must not depend on the host, so every case is checked
// at several GOMAXPROCS settings.
func TestPredictGoldenBits(t *testing.T) {
	relu := testNet(t, 0.8)
	tanh, err := nn.New(nn.Config{
		InputDim: 4, Hidden: []int{10, 7}, OutputDim: 2,
		Activation: nn.ActTanh, OutputActivation: nn.ActIdentity,
		KeepProb: 0.7, DropInput: true, Seed: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		net    *nn.Network
		k      int
		obsVar float64
		want   string
	}{
		{"relu-k2", relu, 2, 0, "b9517e704cd077c75917980d8110d2ff"},
		{"relu-k50", relu, 50, 0, "8bea4c3b6904f23310f6fc3f3d185f94"},
		{"relu-k150", relu, 150, 0, "4f9a9ea1419385bb30792ec62343663c"},
		{"relu-k50-obsvar", relu, 50, 0.25, "67fc492c03be62f57c31169af821732f"},
		{"tanh-k2", tanh, 2, 0, "c6bb2a4cb12bc8cc572064955b453dc4"},
		{"tanh-k50-obsvar", tanh, 50, 0.1, "9acc9ad75ee06a868d16b69705f507c2"},
		{"tanh-k150", tanh, 150, 0, "c28069cf12c78a9b939dee1247351d1b"},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for _, c := range cases {
			got := goldenSequence(t, goldenEstimator(t, c.net, c.k, c.obsVar, 11))
			if got != c.want {
				t.Errorf("GOMAXPROCS=%d %s: hash %s, want %s", procs, c.name, got, c.want)
			}
		}
	}
}

// TestBadInputDrawsNoMasks: a wrong-width input is rejected before any mask
// is drawn, so the estimator's next prediction equals a fresh estimator's
// first one.
func TestBadInputDrawsNoMasks(t *testing.T) {
	net := testNet(t, 0.8)
	x := tensor.Vector{1, -0.5, 0.25, 2}
	for _, k := range []int{2, 50, 150} {
		fresh := goldenEstimator(t, net, k, 0, 4)
		want, err := fresh.Predict(x)
		if err != nil {
			t.Fatal(err)
		}
		wantP, err := goldenEstimator(t, net, k, 0, 4).PredictProbs(x)
		if err != nil {
			t.Fatal(err)
		}

		e := goldenEstimator(t, net, k, 0, 4)
		if _, err := e.Predict(tensor.Vector{1, 2}); err == nil {
			t.Fatal("Predict accepted a wrong-width input")
		}
		if _, err := e.PredictProbs(tensor.Vector{1, 2, 3, 4, 5}); err == nil {
			t.Fatal("PredictProbs accepted a wrong-width input")
		}
		got, err := e.Predict(x)
		if err != nil {
			t.Fatal(err)
		}
		if hashVecs(got.Mean, got.Var) != hashVecs(want.Mean, want.Var) {
			t.Errorf("k=%d: Predict after a rejected input %v/%v, fresh %v/%v", k, got.Mean, got.Var, want.Mean, want.Var)
		}

		p := goldenEstimator(t, net, k, 0, 4)
		if _, err := p.PredictProbs(tensor.Vector{1}); err == nil {
			t.Fatal("PredictProbs accepted a wrong-width input")
		}
		gotP, err := p.PredictProbs(x)
		if err != nil {
			t.Fatal(err)
		}
		if hashVecs(gotP) != hashVecs(wantP) {
			t.Errorf("k=%d: PredictProbs after a rejected input %v, fresh %v", k, gotP, wantP)
		}
	}
}

// TestPredictBatchInInputOrder: core.PredictBatch over MCDrop returns, at
// any GOMAXPROCS, exactly the rows of sequential Predict calls on an
// identically seeded estimator; likewise for PredictProbsBatch.
func TestPredictBatchInInputOrder(t *testing.T) {
	net := testNet(t, 0.8)
	inputs := make([]tensor.Vector, 40)
	for i := range inputs {
		inputs[i] = tensor.Vector{float64(i) / 10, 1, -0.5, 0.3}
	}
	var want, wantP []tensor.Vector
	seq := goldenEstimator(t, net, 30, 0, 2)
	seqP := goldenEstimator(t, net, 30, 0, 2)
	for _, x := range inputs {
		g, err := seq.Predict(x)
		if err != nil {
			t.Fatal(err)
		}
		p, err := seqP.PredictProbs(x)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, g.Mean, g.Var)
		wantP = append(wantP, p)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		gs, err := core.PredictBatch(goldenEstimator(t, net, 30, 0, 2), inputs, 0)
		if err != nil {
			t.Fatal(err)
		}
		var got []tensor.Vector
		for _, g := range gs {
			got = append(got, g.Mean, g.Var)
		}
		if hashVecs(got...) != hashVecs(want...) {
			t.Errorf("GOMAXPROCS=%d: PredictBatch rows differ from sequential Predict", procs)
		}
		ps, err := core.PredictProbsBatch(goldenEstimator(t, net, 30, 0, 2), inputs, 0)
		if err != nil {
			t.Fatal(err)
		}
		if hashVecs(ps...) != hashVecs(wantP...) {
			t.Errorf("GOMAXPROCS=%d: PredictProbsBatch rows differ from sequential PredictProbs", procs)
		}
	}
	if _, err := core.PredictBatch(goldenEstimator(t, net, 30, 0, 2), []tensor.Vector{inputs[0], {1}}, 0); err == nil {
		t.Error("PredictBatch accepted a wrong-width row")
	}
}
