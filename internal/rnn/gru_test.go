package rnn

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"github.com/apdeepsense/apdeepsense/internal/tensor"
	"github.com/apdeepsense/apdeepsense/internal/train"
)

func TestNewGRUValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := []struct {
		in, hid, out int
		keep         float64
	}{
		{0, 4, 1, 1}, {1, 0, 1, 1}, {1, 4, 0, 1}, {1, 4, 1, 0}, {1, 4, 1, 2},
	}
	for i, c := range cases {
		if _, err := NewGRU(c.in, c.hid, c.out, c.keep, rng); !errors.Is(err, ErrConfig) {
			t.Errorf("case %d: err = %v, want ErrConfig", i, err)
		}
	}
	if _, err := NewGRU(2, 4, 1, 0.9, rng); err != nil {
		t.Errorf("valid GRU: %v", err)
	}
}

func TestGRUSequenceValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g, _ := NewGRU(2, 4, 1, 0.9, rng)
	if _, err := g.Forward(nil); !errors.Is(err, ErrConfig) {
		t.Errorf("empty err = %v", err)
	}
	if _, err := g.ForwardSample([]tensor.Vector{{1}}, rng); !errors.Is(err, ErrConfig) {
		t.Errorf("dim err = %v", err)
	}
	if _, err := g.PropagateMoments([]tensor.Vector{{1}}); !errors.Is(err, ErrConfig) {
		t.Errorf("moments dim err = %v", err)
	}
}

func TestGRUNoDropoutDeterministic(t *testing.T) {
	g, err := NewGRU(2, 6, 2, 1, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	// Gates keep the state bounded: outputs finite and small.
	for _, v := range checkNoDropoutSample(t, g) {
		if math.IsNaN(v) || math.Abs(v) > 100 {
			t.Errorf("implausible GRU output %v", v)
		}
	}
}

// TestGRUGradientCheck runs checkBPTT on the GRU.
func TestGRUGradientCheck(t *testing.T) {
	checkBPTT(t, func(keep float64, rng *rand.Rand) (floatModel, error) { return NewGRU(2, 5, 2, keep, rng) })
}

func TestProductMoments(t *testing.T) {
	// Verify against Monte Carlo.
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		mu1, v1 := rng.NormFloat64(), rng.Float64()
		mu2, v2 := rng.NormFloat64(), rng.Float64()
		gotM, gotV := productMoments(mu1, v1, mu2, v2)
		var sum, sum2 float64
		const samples = 400000
		s1, s2 := math.Sqrt(v1), math.Sqrt(v2)
		for i := 0; i < samples; i++ {
			prod := (mu1 + s1*rng.NormFloat64()) * (mu2 + s2*rng.NormFloat64())
			sum += prod
			sum2 += prod * prod
		}
		mcM := sum / samples
		mcV := sum2/samples - mcM*mcM
		if math.Abs(gotM-mcM) > 0.01+0.01*math.Abs(mcM) {
			t.Errorf("trial %d: mean %v vs MC %v", trial, gotM, mcM)
		}
		if math.Abs(gotV-mcV) > 0.03*mcV+0.01 {
			t.Errorf("trial %d: var %v vs MC %v", trial, gotV, mcV)
		}
	}
}

// TestGRUMomentsVsMonteCarlo: means must track the sampled means; the
// variance is order-of-magnitude (the diagonal family drops the gate/state
// and temporal correlations).
func TestGRUMomentsVsMonteCarlo(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g, err := NewGRU(2, 10, 2, 0.8, rng)
	if err != nil {
		t.Fatal(err)
	}
	xs := make([]tensor.Vector, 5)
	for i := range xs {
		xs[i] = tensor.Vector{rng.NormFloat64(), rng.NormFloat64()}
	}
	got, err := g.PropagateMoments(xs)
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("moments invalid: %v", err)
	}

	const samples = 50000
	sum := make(tensor.Vector, 2)
	sum2 := make(tensor.Vector, 2)
	for s := 0; s < samples; s++ {
		y, err := g.ForwardSample(xs, rng)
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
		if math.Abs(got.Mean[j]-mcMean) > 0.6*math.Sqrt(mcVar)+0.08 {
			t.Errorf("out %d: mean %v vs MC %v", j, got.Mean[j], mcMean)
		}
		if mcVar > 1e-8 {
			ratio := got.Var[j] / mcVar
			if ratio < 0.05 || ratio > 20 {
				t.Errorf("out %d: var %v vs MC %v (ratio %v)", j, got.Var[j], mcVar, ratio)
			}
		}
	}
}

// TestGRUTrainingConverges fits the last-value memory task: output the mean
// of the final three inputs.
func TestGRUTrainingConverges(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	mkSample := func() Sample {
		steps := 6
		xs := make([]tensor.Vector, steps)
		for i := range xs {
			xs[i] = tensor.Vector{rng.NormFloat64()}
		}
		m := (xs[3][0] + xs[4][0] + xs[5][0]) / 3
		return Sample{Xs: xs, Y: tensor.Vector{m}}
	}
	var data []Sample
	for i := 0; i < 400; i++ {
		data = append(data, mkSample())
	}
	g, err := NewGRU(1, 12, 1, 0.95, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := TrainGRU(g, data, TrainConfig{
		Epochs: 60, BatchSize: 16, LearningRate: 0.05, ClipNorm: 5, Seed: 2,
		Loss: train.MSE{},
	}); err != nil {
		t.Fatal(err)
	}
	var sumErr float64
	for _, s := range data[:100] {
		out, err := g.Forward(s.Xs)
		if err != nil {
			t.Fatal(err)
		}
		sumErr += math.Abs(out[0] - s.Y[0])
	}
	if mae := sumErr / 100; mae > 0.2 {
		t.Errorf("GRU memory-task MAE = %v, want < 0.2", mae)
	}
}

func TestTrainGRUValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g, _ := NewGRU(1, 4, 1, 0.9, rng)
	data := []Sample{{Xs: seqOf(1, 2), Y: tensor.Vector{1}}}
	if err := TrainGRU(g, data, TrainConfig{Epochs: 0, BatchSize: 1, LearningRate: 0.1, Loss: train.MSE{}}); !errors.Is(err, ErrConfig) {
		t.Errorf("bad cfg err = %v", err)
	}
	badData := []Sample{{Xs: []tensor.Vector{{1, 2}}, Y: tensor.Vector{1}}}
	if err := TrainGRU(g, badData, TrainConfig{Epochs: 1, BatchSize: 1, LearningRate: 0.1, Loss: train.MSE{}}); !errors.Is(err, ErrConfig) {
		t.Errorf("bad seq err = %v", err)
	}
	noY := []Sample{{Xs: seqOf(1), Y: nil}}
	if err := TrainGRU(g, noY, TrainConfig{Epochs: 1, BatchSize: 1, LearningRate: 0.1, Loss: train.MSE{}}); !errors.Is(err, ErrConfig) {
		t.Errorf("no target err = %v", err)
	}
}
