package conv

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"github.com/apdeepsense/apdeepsense/internal/core"
	"github.com/apdeepsense/apdeepsense/internal/nn"
	"github.com/apdeepsense/apdeepsense/internal/piecewise"
	"github.com/apdeepsense/apdeepsense/internal/tensor"
	"github.com/apdeepsense/apdeepsense/internal/train"
)

func TestNewConv1DValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := []struct {
		k, in, out, s int
		keep          float64
		act           nn.Activation
	}{
		{0, 1, 1, 1, 1, nn.ActReLU},
		{1, 0, 1, 1, 1, nn.ActReLU},
		{1, 1, 0, 1, 1, nn.ActReLU},
		{1, 1, 1, 0, 1, nn.ActReLU},
		{1, 1, 1, 1, 0, nn.ActReLU},
		{1, 1, 1, 1, 1.5, nn.ActReLU},
		{1, 1, 1, 1, 1, nn.Activation(99)},
	}
	for i, c := range cases {
		if _, err := NewConv1D(c.k, c.in, c.out, c.s, c.act, c.keep, rng); !errors.Is(err, ErrConfig) {
			t.Errorf("case %d: err = %v, want ErrConfig", i, err)
		}
	}
}

func TestConvForwardHandComputed(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l, err := NewConv1D(2, 1, 1, 1, nn.ActIdentity, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	// y[t] = x[t]*w0 + x[t+1]*w1 + b.
	l.W[0], l.W[1] = 2, -1
	l.B[0] = 0.5
	x := NewSeq(4, 1)
	for i, v := range []float64{1, 2, 3, 4} {
		x.Set(i, 0, v)
	}
	out, err := l.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2*1 - 2 + 0.5, 2*2 - 3 + 0.5, 2*3 - 4 + 0.5}
	if out.Steps != 3 {
		t.Fatalf("out steps = %d, want 3", out.Steps)
	}
	for i, w := range want {
		if math.Abs(out.At(i, 0)-w) > 1e-12 {
			t.Errorf("out[%d] = %v, want %v", i, out.At(i, 0), w)
		}
	}
}

func TestConvStride(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l, err := NewConv1D(2, 1, 1, 2, nn.ActIdentity, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	steps, err := l.OutSteps(6)
	if err != nil {
		t.Fatal(err)
	}
	if steps != 3 { // (6-2)/2+1
		t.Errorf("OutSteps(6) = %d, want 3", steps)
	}
	if _, err := l.OutSteps(1); !errors.Is(err, ErrConfig) {
		t.Errorf("short input err = %v", err)
	}
}

func TestConvChannelMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l, _ := NewConv1D(2, 3, 1, 1, nn.ActIdentity, 1, rng)
	x := NewSeq(5, 2)
	if _, err := l.Forward(x); !errors.Is(err, ErrConfig) {
		t.Errorf("Forward err = %v", err)
	}
	if _, err := l.ForwardSample(x, rng); !errors.Is(err, ErrConfig) {
		t.Errorf("ForwardSample err = %v", err)
	}
	if _, err := l.PropagateMomentsKernel(DeterministicSeq(x), core.NewActKernel(piecewise.Identity())); !errors.Is(err, ErrConfig) {
		t.Errorf("PropagateMomentsKernel err = %v", err)
	}
}

func TestConvSampleMeanMatchesForward(t *testing.T) {
	// For an identity-activation layer, E[stochastic pass] equals the
	// weight-scaled deterministic pass.
	rng := rand.New(rand.NewSource(5))
	l, err := NewConv1D(3, 4, 2, 1, nn.ActIdentity, 0.7, rng)
	if err != nil {
		t.Fatal(err)
	}
	x := NewSeq(8, 4)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	det, err := l.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	const samples = 100000
	sum := NewSeq(det.Steps, det.Channels)
	for s := 0; s < samples; s++ {
		y, err := l.ForwardSample(x, rng)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range y.Data {
			sum.Data[i] += v
		}
	}
	for i := range sum.Data {
		mean := sum.Data[i] / samples
		if math.Abs(mean-det.Data[i]) > 0.05 {
			t.Errorf("elem %d: sample mean %v vs deterministic %v", i, mean, det.Data[i])
		}
	}
}

// TestConvMomentsVsMonteCarlo is the load-bearing test of the future-work
// extension: the closed-form conv moments must match Monte Carlo over the
// channel dropout masks and Gaussian inputs.
func TestConvMomentsVsMonteCarlo(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, act := range []nn.Activation{nn.ActIdentity, nn.ActReLU, nn.ActTanh} {
		// 8 input channels: with channel-level dropout the pre-activation is
		// a Gaussian MIXTURE over mask patterns; enough channels make the
		// Gaussian family's moment matching accurate (the same central-limit
		// argument the paper leans on for dense layers).
		l, err := NewConv1D(3, 8, 2, 2, act, 0.8, rng)
		if err != nil {
			t.Fatal(err)
		}
		f, _, err := core.KernelFor(act, core.Options{})
		if err != nil {
			t.Fatal(err)
		}

		g := NewGaussianSeq(7, 8)
		for i := range g.Mean.Data {
			g.Mean.Data[i] = rng.NormFloat64()
			g.Var.Data[i] = rng.Float64() * 0.5
		}
		got, err := l.PropagateMomentsKernel(g, core.NewActKernel(f))
		if err != nil {
			t.Fatal(err)
		}

		const samples = 150000
		outSteps, _ := l.OutSteps(7)
		sum := NewSeq(outSteps, 2)
		sum2 := NewSeq(outSteps, 2)
		x := NewSeq(7, 8)
		for s := 0; s < samples; s++ {
			for i := range x.Data {
				x.Data[i] = g.Mean.Data[i] + math.Sqrt(g.Var.Data[i])*rng.NormFloat64()
			}
			y, err := l.ForwardSample(x, rng)
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range y.Data {
				sum.Data[i] += v
				sum2.Data[i] += v * v
			}
		}
		for i := range sum.Data {
			mcMean := sum.Data[i] / samples
			mcVar := sum2.Data[i]/samples - mcMean*mcMean
			meanTol := 0.02 + 0.02*math.Abs(mcMean)
			// Identity is exact (moments are linear). ReLU moments are exact
			// for Gaussian pre-activations, but channel dropout makes the
			// pre-activation a Gaussian mixture, so a residual approximation
			// error — the method's own, per §III-A — remains.
			varTol := 0.05*mcVar + 5e-4
			if act == nn.ActReLU {
				varTol = 0.2*mcVar + 5e-4
			}
			if act == nn.ActTanh {
				// The Monte Carlo applies the TRUE tanh while the closed
				// form pushes moments through its 7-piece PWL surrogate, so
				// the PWL approximation error (not a moment-math error)
				// bounds agreement here.
				meanTol = 0.05 + 0.04*math.Abs(mcMean)
				varTol = 0.3*mcVar + 2e-3
			}
			if math.Abs(got.Mean.Data[i]-mcMean) > meanTol {
				t.Errorf("%v elem %d: mean %v vs MC %v", act, i, got.Mean.Data[i], mcMean)
			}
			if math.Abs(got.Var.Data[i]-mcVar) > varTol {
				t.Errorf("%v elem %d: var %v vs MC %v", act, i, got.Var.Data[i], mcVar)
			}
		}
	}
}

func TestGlobalAvgPool(t *testing.T) {
	s := NewSeq(2, 2)
	s.Set(0, 0, 1)
	s.Set(1, 0, 3)
	s.Set(0, 1, -2)
	s.Set(1, 1, 2)
	p := GlobalAvgPool(s)
	if p[0] != 2 || p[1] != 0 {
		t.Errorf("GAP = %v, want [2 0]", p)
	}
	g := NewGaussianSeq(2, 1)
	g.Mean.Set(0, 0, 4)
	g.Mean.Set(1, 0, 6)
	g.Var.Set(0, 0, 2)
	g.Var.Set(1, 0, 2)
	gm := GlobalAvgPoolMoments(g)
	if gm.Mean[0] != 5 {
		t.Errorf("pooled mean = %v, want 5", gm.Mean[0])
	}
	if gm.Var[0] != 1 { // (2+2)/4
		t.Errorf("pooled var = %v, want 1", gm.Var[0])
	}
}

func buildTestNet(t *testing.T, keep float64, seed int64) *Net {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	c1, err := NewConv1D(3, 2, 6, 1, nn.ActReLU, 1, rng) // no dropout on raw input
	if err != nil {
		t.Fatal(err)
	}
	c2, err := NewConv1D(3, 6, 8, 2, nn.ActReLU, keep, rng)
	if err != nil {
		t.Fatal(err)
	}
	head, err := nn.New(nn.Config{
		InputDim: 8, Hidden: []int{12}, OutputDim: 2,
		Activation: nn.ActReLU, OutputActivation: nn.ActIdentity,
		KeepProb: keep, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	net, err := NewNet([]*Conv1D{c1, c2}, head)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestNewNetValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c1, _ := NewConv1D(3, 2, 6, 1, nn.ActReLU, 1, rng)
	c2, _ := NewConv1D(3, 4, 8, 1, nn.ActReLU, 1, rng) // 4 != 6
	head, _ := nn.New(nn.Config{
		InputDim: 8, Hidden: nil, OutputDim: 2,
		Activation: nn.ActIdentity, OutputActivation: nn.ActIdentity,
		KeepProb: 1, Seed: 1,
	})
	if _, err := NewNet(nil, head); !errors.Is(err, ErrConfig) {
		t.Errorf("empty convs err = %v", err)
	}
	if _, err := NewNet([]*Conv1D{c1, c2}, head); !errors.Is(err, ErrConfig) {
		t.Errorf("channel mismatch err = %v", err)
	}
	if _, err := NewNet([]*Conv1D{c1}, nil); !errors.Is(err, ErrConfig) {
		t.Errorf("nil head err = %v", err)
	}
	badHead, _ := nn.New(nn.Config{
		InputDim: 5, Hidden: nil, OutputDim: 2,
		Activation: nn.ActIdentity, OutputActivation: nn.ActIdentity,
		KeepProb: 1, Seed: 1,
	})
	if _, err := NewNet([]*Conv1D{c1}, badHead); !errors.Is(err, ErrConfig) {
		t.Errorf("head dim mismatch err = %v", err)
	}
}

// TestNetMomentsVsMonteCarlo validates end-to-end hybrid propagation.
func TestNetMomentsVsMonteCarlo(t *testing.T) {
	net := buildTestNet(t, 0.8, 3)
	rng := rand.New(rand.NewSource(11))
	x := NewSeq(12, 2)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	got, err := net.PropagateMoments(x)
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("moments invalid: %v", err)
	}

	const samples = 120000
	sum := make([]float64, 2)
	sum2 := make([]float64, 2)
	for s := 0; s < samples; s++ {
		y, err := net.ForwardSample(x, rng)
		if err != nil {
			t.Fatal(err)
		}
		for j, v := range y {
			sum[j] += v
			sum2[j] += v * v
		}
	}
	for j := 0; j < 2; j++ {
		mcMean := sum[j] / samples
		mcVar := sum2[j]/samples - mcMean*mcMean
		if math.Abs(got.Mean[j]-mcMean) > 0.25*math.Sqrt(mcVar)+0.02 {
			t.Errorf("out %d: mean %v vs MC %v", j, got.Mean[j], mcMean)
		}
		// Temporal correlations (shared channel masks) are dropped by the
		// diagonal family, so the variance agreement is loose by design.
		ratio := got.Var[j] / mcVar
		if ratio < 0.2 || ratio > 5 {
			t.Errorf("out %d: var %v vs MC %v (ratio %v)", j, got.Var[j], mcVar, ratio)
		}
	}
}

// TestConvGradientCheck verifies the hand-derived conv backprop against
// finite differences on a dropout-free network.
func TestConvGradientCheck(t *testing.T) {
	net := buildTestNet(t, 1, 9)
	rng := rand.New(rand.NewSource(2))
	x := NewSeq(12, 2)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	s := Sample{X: x, Y: tensor.Vector{0.3, -0.8}}
	loss := train.MSE{}

	tr := newTrainer(net, 1)
	if _, err := tr.batchGrads([]Sample{s}, []int{0}, loss, rng, 0); err != nil {
		t.Fatal(err)
	}
	cg, hgW := tr.cg, tr.hgW
	headLayers := net.head.Layers()

	lossAt := func() float64 {
		out, err := net.Forward(s.X)
		if err != nil {
			t.Fatal(err)
		}
		g := tensor.NewVector(2)
		lv, err := loss.Eval(out, s.Y, g)
		if err != nil {
			t.Fatal(err)
		}
		return lv
	}
	const h = 1e-6
	for li, c := range net.convs {
		for idx := range c.W {
			orig := c.W[idx]
			c.W[idx] = orig + h
			up := lossAt()
			c.W[idx] = orig - h
			down := lossAt()
			c.W[idx] = orig
			num := (up - down) / (2 * h)
			if math.Abs(num-cg[li].w[idx]) > 1e-4*(1+math.Abs(num)) {
				t.Fatalf("conv %d W[%d]: analytic %v vs numeric %v", li, idx, cg[li].w[idx], num)
			}
		}
		for idx := range c.B {
			orig := c.B[idx]
			c.B[idx] = orig + h
			up := lossAt()
			c.B[idx] = orig - h
			down := lossAt()
			c.B[idx] = orig
			num := (up - down) / (2 * h)
			if math.Abs(num-cg[li].b[idx]) > 1e-4*(1+math.Abs(num)) {
				t.Fatalf("conv %d B[%d]: analytic %v vs numeric %v", li, idx, cg[li].b[idx], num)
			}
		}
	}
	// Spot-check the head gradient too (full check lives in internal/train).
	l0 := headLayers[0]
	orig := l0.W.Data[0]
	l0.W.Data[0] = orig + h
	up := lossAt()
	l0.W.Data[0] = orig - h
	down := lossAt()
	l0.W.Data[0] = orig
	num := (up - down) / (2 * h)
	if math.Abs(num-hgW[0].Data[0]) > 1e-4*(1+math.Abs(num)) {
		t.Fatalf("head W[0]: analytic %v vs numeric %v", hgW[0].Data[0], num)
	}
}

// TestConvTrainingConverges fits a two-class sequence classification task:
// class 0 = low-frequency sine, class 1 = high-frequency sine.
func TestConvTrainingConverges(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	mkSample := func(cls int) Sample {
		x := NewSeq(24, 2)
		freq := 0.2
		if cls == 1 {
			freq = 0.9
		}
		phase := rng.Float64() * 2 * math.Pi
		for step := 0; step < 24; step++ {
			x.Set(step, 0, math.Sin(freq*float64(step)+phase)+0.1*rng.NormFloat64())
			x.Set(step, 1, math.Cos(freq*float64(step)+phase)+0.1*rng.NormFloat64())
		}
		y := tensor.Vector{0, 0}
		y[cls] = 1
		return Sample{X: x, Y: y}
	}
	var data []Sample
	for i := 0; i < 300; i++ {
		data = append(data, mkSample(i%2))
	}

	rngNet := rand.New(rand.NewSource(8))
	c1, err := NewConv1D(5, 2, 8, 2, nn.ActReLU, 1, rngNet)
	if err != nil {
		t.Fatal(err)
	}
	head, err := nn.New(nn.Config{
		InputDim: 8, Hidden: []int{16}, OutputDim: 2,
		Activation: nn.ActReLU, OutputActivation: nn.ActIdentity,
		KeepProb: 0.9, Seed: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	net, err := NewNet([]*Conv1D{c1}, head)
	if err != nil {
		t.Fatal(err)
	}
	if err := Train(net, data, TrainConfig{
		Epochs: 30, BatchSize: 16, LearningRate: 0.05, Seed: 2,
		Loss: train.SoftmaxCrossEntropy{},
	}); err != nil {
		t.Fatalf("Train: %v", err)
	}

	correct := 0
	for _, s := range data {
		out, err := net.Forward(s.X)
		if err != nil {
			t.Fatal(err)
		}
		_, pi := out.Max()
		_, ti := s.Y.Max()
		if pi == ti {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(data)); acc < 0.9 {
		t.Errorf("conv classification accuracy = %v, want >= 0.9", acc)
	}

	// And the trained model yields a valid end-to-end moment propagation.
	g, err := net.PropagateMoments(data[0].X)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Errorf("moments on trained conv net: %v", err)
	}
}

func TestTrainValidation(t *testing.T) {
	net := buildTestNet(t, 1, 1)
	data := []Sample{{X: NewSeq(12, 2), Y: tensor.Vector{0, 0}}}
	bad := []TrainConfig{
		{Epochs: 0, BatchSize: 1, LearningRate: 0.1, Loss: train.MSE{}},
		{Epochs: 1, BatchSize: 0, LearningRate: 0.1, Loss: train.MSE{}},
		{Epochs: 1, BatchSize: 5, LearningRate: 0.1, Loss: train.MSE{}},
		{Epochs: 1, BatchSize: 1, LearningRate: 0, Loss: train.MSE{}},
		{Epochs: 1, BatchSize: 1, LearningRate: 0.1, Loss: nil},
		// Non-finite rates: NaN fails every ordered comparison, so a plain
		// <= 0 test lets it through to write NaN into every weight.
		{Epochs: 1, BatchSize: 1, LearningRate: math.NaN(), Loss: train.MSE{}},
		{Epochs: 1, BatchSize: 1, LearningRate: math.Inf(1), Loss: train.MSE{}},
		{Epochs: 1, BatchSize: 1, LearningRate: math.Inf(-1), Loss: train.MSE{}},
	}
	for i, cfg := range bad {
		if err := Train(net, data, cfg); !errors.Is(err, ErrConfig) {
			t.Errorf("case %d: err = %v, want ErrConfig", i, err)
		}
	}
	badData := []Sample{{X: NewSeq(12, 5), Y: tensor.Vector{0, 0}}}
	if err := Train(net, badData, TrainConfig{Epochs: 1, BatchSize: 1, LearningRate: 0.1, Loss: train.MSE{}}); !errors.Is(err, ErrConfig) {
		t.Errorf("bad channels err = %v", err)
	}
}

// TestTrainBadTargetLeavesWeights checks every target against the loss
// before the first update: a set whose last target has the wrong width is
// rejected with every weight bit as it was.
func TestTrainBadTargetLeavesWeights(t *testing.T) {
	net := buildTestNet(t, 1, 5)
	params := func() []float64 {
		var p []float64
		for _, c := range net.Convs() {
			p = append(append(p, c.W...), c.B...)
		}
		for _, l := range net.Head().Layers() {
			p = append(append(p, l.W.Data...), l.B...)
		}
		return p
	}
	want := params()
	rng := rand.New(rand.NewSource(6))
	var data []Sample
	for i := 0; i < 12; i++ {
		x := NewSeq(12, 2)
		for j := range x.Data {
			x.Data[j] = rng.NormFloat64()
		}
		data = append(data, Sample{X: x, Y: tensor.Vector{rng.NormFloat64(), rng.NormFloat64()}})
	}
	data[len(data)-1].Y = tensor.Vector{1, 2, 3}
	err := Train(net, data, TrainConfig{Epochs: 2, BatchSize: 3, LearningRate: 0.1, Seed: 1, Loss: train.MSE{}})
	if !errors.Is(err, ErrConfig) {
		t.Fatalf("err = %v, want ErrConfig", err)
	}
	for i, v := range params() {
		if math.Float64bits(v) != math.Float64bits(want[i]) {
			t.Fatalf("parameter %d changed by a rejected Train: %v -> %v", i, want[i], v)
		}
	}
}
