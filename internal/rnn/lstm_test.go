package rnn

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"github.com/apdeepsense/apdeepsense/internal/tensor"
	"github.com/apdeepsense/apdeepsense/internal/train"
)

func TestNewLSTMValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := []struct {
		in, hid, out int
		keep         float64
	}{
		{0, 4, 1, 1}, {1, 0, 1, 1}, {1, 4, 0, 1}, {1, 4, 1, 0}, {1, 4, 1, 1.1},
	}
	for i, c := range cases {
		if _, err := NewLSTM(c.in, c.hid, c.out, c.keep, rng); !errors.Is(err, ErrConfig) {
			t.Errorf("case %d: err = %v, want ErrConfig", i, err)
		}
	}
	l, err := NewLSTM(2, 4, 1, 0.9, rng)
	if err != nil {
		t.Fatalf("valid LSTM: %v", err)
	}
	// Forget bias initialized to +1.
	for _, b := range l.Bf {
		if b != 1 {
			t.Errorf("forget bias %v, want 1", b)
		}
	}
}

func TestLSTMSequenceValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l, _ := NewLSTM(2, 4, 1, 0.9, rng)
	if _, err := l.Forward(nil); !errors.Is(err, ErrConfig) {
		t.Errorf("empty err = %v", err)
	}
	if _, err := l.ForwardSample([]tensor.Vector{{1}}, rng); !errors.Is(err, ErrConfig) {
		t.Errorf("dim err = %v", err)
	}
	if _, err := l.PropagateMoments([]tensor.Vector{{1}}); !errors.Is(err, ErrConfig) {
		t.Errorf("moments dim err = %v", err)
	}
}

func TestLSTMNoDropoutDeterministic(t *testing.T) {
	l, err := NewLSTM(2, 6, 2, 1, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	checkNoDropoutSample(t, l)
}

// TestLSTMGradientCheck runs checkBPTT on the LSTM.
func TestLSTMGradientCheck(t *testing.T) {
	checkBPTT(t, func(keep float64, rng *rand.Rand) (floatModel, error) { return NewLSTM(2, 5, 2, keep, rng) })
}

// TestLSTMMomentsVsMonteCarlo: mean tracking with order-of-magnitude
// variance agreement (the same diagonal-family caveats as the GRU).
func TestLSTMMomentsVsMonteCarlo(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	l, err := NewLSTM(2, 10, 2, 0.8, rng)
	if err != nil {
		t.Fatal(err)
	}
	xs := make([]tensor.Vector, 5)
	for i := range xs {
		xs[i] = tensor.Vector{rng.NormFloat64(), rng.NormFloat64()}
	}
	got, err := l.PropagateMoments(xs)
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
		y, err := l.ForwardSample(xs, rng)
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

// TestLSTMTrainingConverges fits a long-range memory task the LSTM is built
// for: output the FIRST input of the sequence.
func TestLSTMTrainingConverges(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	mkSample := func() Sample {
		steps := 8
		xs := make([]tensor.Vector, steps)
		for i := range xs {
			xs[i] = tensor.Vector{rng.NormFloat64()}
		}
		return Sample{Xs: xs, Y: tensor.Vector{xs[0][0]}}
	}
	var data []Sample
	for i := 0; i < 500; i++ {
		data = append(data, mkSample())
	}
	l, err := NewLSTM(1, 16, 1, 0.95, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := TrainLSTM(l, data, TrainConfig{
		Epochs: 80, BatchSize: 16, LearningRate: 0.05, ClipNorm: 5, Seed: 2,
		Loss: train.MSE{},
	}); err != nil {
		t.Fatal(err)
	}
	var sumErr float64
	for _, s := range data[:100] {
		out, err := l.Forward(s.Xs)
		if err != nil {
			t.Fatal(err)
		}
		sumErr += math.Abs(out[0] - s.Y[0])
	}
	if mae := sumErr / 100; mae > 0.35 {
		t.Errorf("LSTM first-value memory MAE = %v, want < 0.35", mae)
	}
}

func TestTrainLSTMValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l, _ := NewLSTM(1, 4, 1, 0.9, rng)
	data := []Sample{{Xs: seqOf(1, 2), Y: tensor.Vector{1}}}
	if err := TrainLSTM(l, data, TrainConfig{Epochs: 0, BatchSize: 1, LearningRate: 0.1, Loss: train.MSE{}}); !errors.Is(err, ErrConfig) {
		t.Errorf("bad cfg err = %v", err)
	}
	badData := []Sample{{Xs: []tensor.Vector{{1, 2}}, Y: tensor.Vector{1}}}
	if err := TrainLSTM(l, badData, TrainConfig{Epochs: 1, BatchSize: 1, LearningRate: 0.1, Loss: train.MSE{}}); !errors.Is(err, ErrConfig) {
		t.Errorf("bad seq err = %v", err)
	}
	noY := []Sample{{Xs: seqOf(1), Y: nil}}
	if err := TrainLSTM(l, noY, TrainConfig{Epochs: 1, BatchSize: 1, LearningRate: 0.1, Loss: train.MSE{}}); !errors.Is(err, ErrConfig) {
		t.Errorf("no target err = %v", err)
	}
}
