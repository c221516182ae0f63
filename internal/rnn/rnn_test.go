package rnn

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/apdeepsense/apdeepsense/internal/nn"
	"github.com/apdeepsense/apdeepsense/internal/tensor"
	"github.com/apdeepsense/apdeepsense/internal/train"
)

func TestNewCellValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := []struct {
		in, hid, out int
		keep         float64
		act          nn.Activation
	}{
		{0, 4, 1, 1, nn.ActTanh},
		{1, 0, 1, 1, nn.ActTanh},
		{1, 4, 0, 1, nn.ActTanh},
		{1, 4, 1, 0, nn.ActTanh},
		{1, 4, 1, 1.5, nn.ActTanh},
		{1, 4, 1, 1, nn.Activation(99)},
	}
	for i, c := range cases {
		if _, err := NewCell(c.in, c.hid, c.out, c.act, c.keep, rng); !errors.Is(err, ErrConfig) {
			t.Errorf("case %d: err = %v, want ErrConfig", i, err)
		}
	}
}

func seqOf(vals ...float64) []tensor.Vector {
	out := make([]tensor.Vector, len(vals))
	for i, v := range vals {
		out[i] = tensor.Vector{v}
	}
	return out
}

func TestForwardHandComputed(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c, err := NewCell(1, 1, 1, nn.ActIdentity, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	// h_t = x_t*wx + h_{t-1}*wh + b; y = h_T*wo + bo.
	c.Wx.Set(0, 0, 1)
	c.Wh.Set(0, 0, 0.5)
	c.B[0] = 0
	c.Wo.Set(0, 0, 2)
	c.Bo[0] = 1
	// x = [1, 1]: h1 = 1, h2 = 1 + 0.5 = 1.5; y = 4.
	out, err := c.Forward(seqOf(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(out[0]-4) > 1e-12 {
		t.Errorf("Forward = %v, want 4", out[0])
	}
}

func TestSequenceValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c, _ := NewCell(2, 4, 1, nn.ActTanh, 0.9, rng)
	if _, err := c.Forward(nil); !errors.Is(err, ErrConfig) {
		t.Errorf("empty seq err = %v", err)
	}
	if _, err := c.Forward([]tensor.Vector{{1}}); !errors.Is(err, ErrConfig) {
		t.Errorf("bad dim err = %v", err)
	}
	if _, err := c.ForwardSample([]tensor.Vector{{1}}, rng); !errors.Is(err, ErrConfig) {
		t.Errorf("sample bad dim err = %v", err)
	}
	if _, err := c.PropagateMoments([]tensor.Vector{{1}}); !errors.Is(err, ErrConfig) {
		t.Errorf("moments bad dim err = %v", err)
	}
}

// TestMomentsVsMonteCarlo validates the recurrent moment propagation against
// sampling. The per-step treatment resamples the mask conceptually, while
// the true variational dropout shares it across time, so the variance
// comparison is order-of-magnitude by design; the mean must match well.
func TestMomentsVsMonteCarlo(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c, err := NewCell(2, 12, 2, nn.ActTanh, 0.8, rng)
	if err != nil {
		t.Fatal(err)
	}
	xs := make([]tensor.Vector, 6)
	for i := range xs {
		xs[i] = tensor.Vector{rng.NormFloat64(), rng.NormFloat64()}
	}
	g, err := c.PropagateMoments(xs)
	if err != nil {
		t.Fatal(err)
	}

	const samples = 60000
	sum := make(tensor.Vector, 2)
	sum2 := make(tensor.Vector, 2)
	for s := 0; s < samples; s++ {
		y, err := c.ForwardSample(xs, rng)
		if err != nil {
			t.Fatal(err)
		}
		for j := range y {
			sum[j] += y[j]
			sum2[j] += y[j] * y[j]
		}
	}
	for j := 0; j < 2; j++ {
		mcMean := sum[j] / samples
		mcVar := sum2[j]/samples - mcMean*mcMean
		// Mean bias compounds the tanh PWL surrogate over 6 recurrent steps
		// (MC evaluates the true tanh), so the mean tolerance covers that
		// approximation, not just sampling noise.
		if math.Abs(g.Mean[j]-mcMean) > 0.5*math.Sqrt(mcVar)+0.06 {
			t.Errorf("out %d: mean %v vs MC %v", j, g.Mean[j], mcMean)
		}
		if mcVar > 1e-8 {
			ratio := g.Var[j] / mcVar
			if ratio < 0.1 || ratio > 10 {
				t.Errorf("out %d: var %v vs MC %v (ratio %v)", j, g.Var[j], mcVar, ratio)
			}
		}
	}
}

// floatModel is what the float-pass checks need of a recurrent model.
type floatModel interface {
	spec() *cellSpec
	Forward([]tensor.Vector) (tensor.Vector, error)
	ForwardSample([]tensor.Vector, *rand.Rand) (tensor.Vector, error)
}

// checkBPTT verifies backpropagation-through-time against central finite
// differences over every parameter of the model build returns, at keep 1
// and under a fixed keep-0.7 mask: the rng is re-seeded before every pass,
// so BPTT and each ForwardSample draw the same mask.
func checkBPTT(t *testing.T, build func(keep float64, rng *rand.Rand) (floatModel, error)) {
	t.Helper()
	s := Sample{
		Xs: []tensor.Vector{{0.5, -1}, {0.2, 0.8}, {-0.4, 0.1}},
		Y:  tensor.Vector{0.3, -0.6},
	}
	loss := train.MSE{}
	const seed = 3 // its keep-0.7 mask drops some of the five units, not all
	for _, keep := range []float64{1, 0.7} {
		t.Run(fmt.Sprintf("keep%v", keep), func(t *testing.T) {
			m, err := build(keep, rand.New(rand.NewSource(9)))
			if err != nil {
				t.Fatal(err)
			}
			sp := m.spec()
			mask := make([]float64, sp.n())
			sp.mask(rand.New(rand.NewSource(seed)), mask)
			if kept := tensor.Vector(mask).Sum(); keep < 1 && (kept == 0 || kept == float64(len(mask))) {
				t.Fatalf("mask %v drops all units or none", mask)
			}
			g := sp.zeros()
			if _, err := sp.bptt(s, loss, g, sp.newBackprop(len(s.Xs)), rand.New(rand.NewSource(seed))); err != nil {
				t.Fatal(err)
			}
			lossAt := func() float64 {
				out, err := m.ForwardSample(s.Xs, rand.New(rand.NewSource(seed)))
				if err != nil {
					t.Fatal(err)
				}
				lv, err := loss.Eval(out, s.Y, tensor.NewVector(2))
				if err != nil {
					t.Fatal(err)
				}
				return lv
			}
			const h = 1e-6
			params, grads := sp.params(), g.params()
			for pi := range params {
				for idx := range params[pi] {
					orig := params[pi][idx]
					params[pi][idx] = orig + h
					up := lossAt()
					params[pi][idx] = orig - h
					down := lossAt()
					params[pi][idx] = orig
					num := (up - down) / (2 * h)
					if math.Abs(num-grads[pi][idx]) > 1e-4*(1+math.Abs(num)) {
						t.Fatalf("param %d[%d]: analytic %v vs numeric %v", pi, idx, grads[pi][idx], num)
					}
				}
			}
		})
	}
}

// checkNoDropoutSample asserts that a keep-1 model's ForwardSample equals
// its Forward bit for bit, and returns that output.
func checkNoDropoutSample(t *testing.T, m floatModel) tensor.Vector {
	t.Helper()
	xs := []tensor.Vector{{1, -1}, {0.5, 0.2}, {-0.3, 0.8}}
	det, err := m.Forward(xs)
	if err != nil {
		t.Fatal(err)
	}
	sample, err := m.ForwardSample(xs, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	if hashBits(det) != hashBits(sample) {
		t.Errorf("no-dropout sample %v != forward %v", sample, det)
	}
	return det
}

// TestBPTTGradientCheck runs checkBPTT on the Elman cell under both
// activations; the gated cells have their own gradient checks.
func TestBPTTGradientCheck(t *testing.T) {
	for _, c := range []struct {
		name string
		act  nn.Activation
	}{{"tanh", nn.ActTanh}, {"relu", nn.ActReLU}} {
		t.Run(c.name, func(t *testing.T) {
			checkBPTT(t, func(keep float64, rng *rand.Rand) (floatModel, error) { return NewCell(2, 5, 2, c.act, keep, rng) })
		})
	}
}

func TestNoDropoutSampleEqualsForward(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c, err := NewCell(2, 6, 2, nn.ActTanh, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	checkNoDropoutSample(t, c)
	// The exact ReLU moments of a mask-free pass are the float pass.
	cr, err := NewCell(2, 6, 2, nn.ActReLU, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	det := checkNoDropoutSample(t, cr)
	g, err := cr.PropagateMoments([]tensor.Vector{{1, -1}, {0.5, 0.2}, {-0.3, 0.8}})
	if err != nil {
		t.Fatal(err)
	}
	if !g.Mean.Equal(det, 1e-9) {
		t.Errorf("moment mean %v != forward %v", g.Mean, det)
	}
	for j, v := range g.Var {
		if v > 1e-12 {
			t.Errorf("var[%d] = %v, want 0", j, v)
		}
	}
}

// TestTrainingConverges fits the parity-of-last-three-steps style task:
// predict the running mean of the sequence.
func TestTrainingConverges(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	mkSample := func() Sample {
		steps := 8
		xs := make([]tensor.Vector, steps)
		var mean float64
		for i := range xs {
			v := rng.NormFloat64()
			xs[i] = tensor.Vector{v}
			mean += v
		}
		return Sample{Xs: xs, Y: tensor.Vector{mean / float64(steps)}}
	}
	var data []Sample
	for i := 0; i < 400; i++ {
		data = append(data, mkSample())
	}
	c, err := NewCell(1, 12, 1, nn.ActTanh, 0.95, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := Train(c, data, TrainConfig{
		Epochs: 40, BatchSize: 16, LearningRate: 0.05, ClipNorm: 5, Seed: 2,
		Loss: train.MSE{},
	}); err != nil {
		t.Fatal(err)
	}
	var sumErr float64
	for _, s := range data[:100] {
		out, err := c.Forward(s.Xs)
		if err != nil {
			t.Fatal(err)
		}
		sumErr += math.Abs(out[0] - s.Y[0])
	}
	if mae := sumErr / 100; mae > 0.12 {
		t.Errorf("running-mean MAE = %v, want < 0.12", mae)
	}
}

func TestTrainValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c, _ := NewCell(1, 4, 1, nn.ActTanh, 0.9, rng)
	data := []Sample{{Xs: seqOf(1, 2), Y: tensor.Vector{1}}}
	bad := []TrainConfig{
		{Epochs: 0, BatchSize: 1, LearningRate: 0.1, Loss: train.MSE{}},
		{Epochs: 1, BatchSize: 0, LearningRate: 0.1, Loss: train.MSE{}},
		{Epochs: 1, BatchSize: 9, LearningRate: 0.1, Loss: train.MSE{}},
		{Epochs: 1, BatchSize: 1, LearningRate: 0, Loss: train.MSE{}},
		{Epochs: 1, BatchSize: 1, LearningRate: 0.1, Loss: nil},
		{Epochs: 1, BatchSize: 1, LearningRate: 0.1, ClipNorm: -1, Loss: train.MSE{}},
		// Non-finite values: NaN fails every ordered comparison, so plain
		// <= 0 and < 0 tests let it through to write NaN into every weight.
		{Epochs: 1, BatchSize: 1, LearningRate: math.NaN(), Loss: train.MSE{}},
		{Epochs: 1, BatchSize: 1, LearningRate: math.Inf(1), Loss: train.MSE{}},
		{Epochs: 1, BatchSize: 1, LearningRate: math.Inf(-1), Loss: train.MSE{}},
		{Epochs: 1, BatchSize: 1, LearningRate: 0.1, ClipNorm: math.NaN(), Loss: train.MSE{}},
		{Epochs: 1, BatchSize: 1, LearningRate: 0.1, ClipNorm: math.Inf(1), Loss: train.MSE{}},
	}
	for i, cfg := range bad {
		if err := Train(c, data, cfg); !errors.Is(err, ErrConfig) {
			t.Errorf("case %d: err = %v, want ErrConfig", i, err)
		}
	}
	badData := []Sample{{Xs: []tensor.Vector{{1, 2}}, Y: tensor.Vector{1}}}
	if err := Train(c, badData, TrainConfig{Epochs: 1, BatchSize: 1, LearningRate: 0.1, Loss: train.MSE{}}); !errors.Is(err, ErrConfig) {
		t.Errorf("bad seq err = %v", err)
	}
	noTarget := []Sample{{Xs: seqOf(1), Y: nil}}
	if err := Train(c, noTarget, TrainConfig{Epochs: 1, BatchSize: 1, LearningRate: 0.1, Loss: train.MSE{}}); !errors.Is(err, ErrConfig) {
		t.Errorf("no target err = %v", err)
	}
}

// TestTrainChecksTargetsFirst: a target whose width does not fit the loss
// is rejected before the first update, wherever the shuffle would have
// reached it, so a failed Train, TrainGRU or TrainLSTM leaves every weight
// as it was.
func TestTrainChecksTargetsFirst(t *testing.T) {
	hetero := train.HeteroscedasticNLL{Alpha: 0.7}
	for _, kind := range []string{"elman-tanh", "gru", "lstm"} {
		for _, c := range []struct {
			loss train.Loss
			bad  tensor.Vector
		}{
			{train.MSE{}, tensor.Vector{1, 2, 3}},
			{hetero, tensor.Vector{1, 2}},
		} {
			m := goldenBuild(t, kind, 2, 5, 2, 0.9, 31)
			before := hashBits(m.params...)
			data := goldenSeqs(12, c.loss)
			data[len(data)-1].Y = c.bad
			err := m.train(data, TrainConfig{Epochs: 2, BatchSize: 1, LearningRate: 0.1, Seed: 1, Loss: c.loss})
			if !errors.Is(err, ErrConfig) {
				t.Errorf("%s %s: err = %v, want ErrConfig", kind, c.loss.Name(), err)
			}
			if hashBits(m.params...) != before {
				t.Errorf("%s %s: a rejected Train changed the weights", kind, c.loss.Name())
			}
		}
	}
}

func TestSpectralRadiusBound(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c, _ := NewCell(1, 4, 1, nn.ActTanh, 0.5, rng)
	full, _ := NewCell(1, 4, 1, nn.ActTanh, 1, rng)
	copy(full.Wh.Data, c.Wh.Data)
	if c.SpectralRadiusBound() >= full.SpectralRadiusBound() {
		t.Error("lower keep prob should shrink the bound")
	}
	if c.SpectralRadiusBound() <= 0 {
		t.Error("bound should be positive")
	}
}
