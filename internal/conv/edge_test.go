package conv

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"github.com/apdeepsense/apdeepsense/internal/core"
	"github.com/apdeepsense/apdeepsense/internal/nn"
	"github.com/apdeepsense/apdeepsense/internal/piecewise"
)

// TestGlobalAvgPoolMomentsZeroSteps pins the zero-step pooling fix: an
// empty sequence pools to the per-channel zero point mass instead of 0/0
// NaNs poisoning the head.
func TestGlobalAvgPoolMomentsZeroSteps(t *testing.T) {
	g := NewGaussianSeq(0, 3)
	out := GlobalAvgPoolMoments(g)
	if len(out.Mean) != 3 || len(out.Var) != 3 {
		t.Fatalf("pooled dims = %d/%d, want 3/3", len(out.Mean), len(out.Var))
	}
	for c := 0; c < 3; c++ {
		if out.Mean[c] != 0 || out.Var[c] != 0 {
			t.Errorf("channel %d: (%v, %v), want zero point mass", c, out.Mean[c], out.Var[c])
		}
		if math.IsNaN(out.Mean[c]) || math.IsNaN(out.Var[c]) {
			t.Errorf("channel %d: NaN leaked from empty pool", c)
		}
	}
}

// TestConvMomentsStrideGreaterThanKernel pins window indexing when stride
// exceeds the kernel width (windows skip input steps entirely): the moment
// mean path must agree with the deterministic Forward pass on a point-mass
// input, and the windows must read from base t·stride, not t·kernel.
func TestConvMomentsStrideGreaterThanKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	l, err := NewConv1D(2, 3, 2, 5, nn.ActIdentity, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	x := NewSeq(13, 3) // (13-2)/5+1 = 3 output steps at bases 0, 5, 10
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	want, err := l.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	if want.Steps != 3 {
		t.Fatalf("out steps = %d, want 3", want.Steps)
	}
	g, err := l.PropagateMomentsKernel(DeterministicSeq(x), core.NewActKernel(piecewise.Identity()))
	if err != nil {
		t.Fatal(err)
	}
	if g.Mean.Steps != 3 {
		t.Fatalf("moment steps = %d, want 3", g.Mean.Steps)
	}
	for t2 := 0; t2 < 3; t2++ {
		for o := 0; o < 2; o++ {
			if math.Abs(g.Mean.At(t2, o)-want.At(t2, o)) > 1e-12 {
				t.Errorf("mean[%d,%d] = %v, want %v", t2, o, g.Mean.At(t2, o), want.At(t2, o))
			}
			if g.Var.At(t2, o) != 0 {
				t.Errorf("var[%d,%d] = %v, want 0 for point mass without dropout", t2, o, g.Var.At(t2, o))
			}
		}
	}
}

// TestConvMomentsKeepOneVariance pins the KeepProb == 1 fast path: the
// generic dropout algebra (μ²+σ²)·p − μ²·p² rounds a small input variance
// away against a huge mean; with no mask the variance must pass through
// exactly.
func TestConvMomentsKeepOneVariance(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	l, err := NewConv1D(1, 1, 1, 1, nn.ActIdentity, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	l.W[0] = 1
	l.B[0] = 0
	g := NewGaussianSeq(1, 1)
	g.Mean.Set(0, 0, 1e9)
	g.Var.Set(0, 0, 1.0)
	out, err := l.PropagateMomentsKernel(g, core.NewActKernel(piecewise.Identity()))
	if err != nil {
		t.Fatal(err)
	}
	if got := out.Var.At(0, 0); got != 1.0 {
		// The generic algebra gives (1e18+1)·1 − 1e18, which rounds to 0.
		t.Errorf("keep=1 variance = %v, want exactly 1 (fast path)", got)
	}
	if got := out.Mean.At(0, 0); got != 1e9 {
		t.Errorf("keep=1 mean = %v, want exactly 1e9", got)
	}
}

// TestConvMomentsShapeValidation pins the up-front Var/Mean shape checks.
func TestConvMomentsShapeValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	l, err := NewConv1D(2, 2, 1, 1, nn.ActIdentity, 0.8, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Variance sequence shorter than the mean sequence.
	g := GaussianSeq{Mean: NewSeq(5, 2), Var: NewSeq(3, 2)}
	if _, err := l.PropagateMomentsKernel(g, core.NewActKernel(piecewise.Identity())); !errors.Is(err, ErrConfig) {
		t.Errorf("short var err = %v, want ErrConfig", err)
	}
	// Nil variance.
	g = GaussianSeq{Mean: NewSeq(5, 2)}
	if _, err := l.PropagateMomentsKernel(g, core.NewActKernel(piecewise.Identity())); !errors.Is(err, ErrConfig) {
		t.Errorf("nil var err = %v, want ErrConfig", err)
	}
}

// TestConvKernelDispatch pins backend resolution through the conv stack:
// the activation alone picks it — exact closed form for rectifier layers,
// PWL for tanh and identity.
func TestConvKernelDispatch(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	mk := func(inCh int, act nn.Activation) *Conv1D {
		l, err := NewConv1D(2, inCh, 3, 1, act, 0.8, rng)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	head, err := nn.New(nn.Config{
		InputDim: 3, Hidden: []int{4}, OutputDim: 2,
		Activation: nn.ActReLU, OutputActivation: nn.ActIdentity,
		KeepProb: 0.9, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	acts := []nn.Activation{nn.ActReLU, nn.ActLeakyReLU, nn.ActTanh, nn.ActIdentity}
	convs := []*Conv1D{mk(2, acts[0])}
	for _, act := range acts[1:] {
		convs = append(convs, mk(3, act))
	}
	net, err := NewNet(convs, head)
	if err != nil {
		t.Fatal(err)
	}
	for i, act := range acts {
		_, rect := act.Rectifier()
		if net.kernels[i].Exact() != rect {
			t.Errorf("conv layer %d (%v): exact = %v, want %v", i, act, net.kernels[i].Exact(), rect)
		}
	}
}

// TestConvNetBatchBitIdentical pins Net.PropagateBatch against sequential
// PropagateMoments calls.
func TestConvNetBatchBitIdentical(t *testing.T) {
	net := buildTestNet(t, 0.8, 13)
	rng := rand.New(rand.NewSource(17))
	xs := make([]*Seq, 4)
	for i := range xs {
		x := NewSeq(12, net.Convs()[0].InCh)
		for j := range x.Data {
			x.Data[j] = rng.NormFloat64()
		}
		xs[i] = x
	}
	batch, err := net.PropagateBatch(xs)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range xs {
		g, err := net.PropagateMoments(x)
		if err != nil {
			t.Fatal(err)
		}
		for j := range g.Mean {
			if math.Float64bits(g.Mean[j]) != math.Float64bits(batch[i].Mean[j]) ||
				math.Float64bits(g.Var[j]) != math.Float64bits(batch[i].Var[j]) {
				t.Fatalf("sample %d out %d: batch differs from sequential", i, j)
			}
		}
	}
}
