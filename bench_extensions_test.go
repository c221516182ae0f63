// Benchmarks for the future-work extensions (conv/rnn moment propagation),
// the batch-inference fan-out, and the ablation studies of DESIGN.md §5.
package apdeepsense_test

import (
	"math/rand"
	"testing"

	"github.com/apdeepsense/apdeepsense/internal/conv"
	"github.com/apdeepsense/apdeepsense/internal/core"
	"github.com/apdeepsense/apdeepsense/internal/nn"
	"github.com/apdeepsense/apdeepsense/internal/rnn"
	"github.com/apdeepsense/apdeepsense/internal/tensor"
	"github.com/apdeepsense/apdeepsense/internal/train"
)

// benchConvNet builds a small IoT-sized conv net (64×3 input).
func benchConvNet(b *testing.B) (*conv.Net, *conv.Seq) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	c1, err := conv.NewConv1D(5, 3, 16, 2, nn.ActReLU, 1, rng)
	if err != nil {
		b.Fatal(err)
	}
	c2, err := conv.NewConv1D(3, 16, 24, 2, nn.ActReLU, 0.9, rng)
	if err != nil {
		b.Fatal(err)
	}
	head, err := nn.New(nn.Config{
		InputDim: 24, Hidden: []int{32}, OutputDim: 4,
		Activation: nn.ActReLU, OutputActivation: nn.ActIdentity,
		KeepProb: 0.9, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	net, err := conv.NewNet([]*conv.Conv1D{c1, c2}, head)
	if err != nil {
		b.Fatal(err)
	}
	x := conv.NewSeq(64, 3)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	return net, x
}

// BenchmarkConvMomentPropagation is one closed-form pass over the hybrid
// conv→dense network (the §VI extension's ApDeepSense analogue).
func BenchmarkConvMomentPropagation(b *testing.B) {
	net, x := benchConvNet(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := net.PropagateMoments(x); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConvMCDrop50 is the sampling equivalent: 50 stochastic passes.
func BenchmarkConvMCDrop50(b *testing.B) {
	net, x := benchConvNet(b)
	rng := rand.New(rand.NewSource(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for s := 0; s < 50; s++ {
			if _, err := net.ForwardSample(x, rng); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func benchRNN(b *testing.B) (*rnn.Cell, []tensor.Vector) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	cell, err := rnn.NewCell(4, 32, 2, nn.ActTanh, 0.9, rng)
	if err != nil {
		b.Fatal(err)
	}
	xs := make([]tensor.Vector, 20)
	for i := range xs {
		xs[i] = tensor.Vector{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
	}
	return cell, xs
}

// BenchmarkRNNMomentPropagation is one closed-form recurrent moment pass
// over a 20-step sequence.
func BenchmarkRNNMomentPropagation(b *testing.B) {
	cell, xs := benchRNN(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cell.PropagateMoments(xs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRNNMCDrop50 is the sampling equivalent with 50 masks.
func BenchmarkRNNMCDrop50(b *testing.B) {
	cell, xs := benchRNN(b)
	rng := rand.New(rand.NewSource(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for s := 0; s < 50; s++ {
			if _, err := cell.ForwardSample(xs, rng); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkPredictBatch measures the worker-pool batch fan-out over a
// paper-scale model (single-core machines see the scheduling overhead;
// multicore machines see the speedup).
func BenchmarkPredictBatch(b *testing.B) {
	net := paperNet(b, nn.ActReLU)
	est, err := core.NewApDeepSense(net, core.Options{}, 0)
	if err != nil {
		b.Fatal(err)
	}
	inputs := make([]tensor.Vector, 16)
	for i := range inputs {
		inputs[i] = tensor.Vector{0.1, 0.2, 0.3, 0.4, 0.5}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.PredictBatch(est, inputs, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationPieces regenerates the PWL piece-count ablation at quick
// scale (DESIGN.md §5).
func BenchmarkAblationPieces(b *testing.B) {
	r := quickRunner(b)
	if _, err := r.AblationPieces("NYCommute", []int{3, 7}); err != nil {
		b.Fatalf("warm: %v", err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.AblationPieces("NYCommute", []int{3, 7}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationSoftmaxLink regenerates the classification-link ablation.
func BenchmarkAblationSoftmaxLink(b *testing.B) {
	r := quickRunner(b)
	if _, err := r.AblationSoftmaxLink([]int{50}); err != nil {
		b.Fatalf("warm: %v", err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.AblationSoftmaxLink([]int{50}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLSTMMomentPropagation is one closed-form LSTM moment pass over a
// 20-step sequence.
func BenchmarkLSTMMomentPropagation(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	cell, err := rnn.NewLSTM(4, 32, 2, 0.9, rng)
	if err != nil {
		b.Fatal(err)
	}
	xs := make([]tensor.Vector, 20)
	for i := range xs {
		xs[i] = tensor.Vector{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cell.PropagateMoments(xs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGRUMomentPropagation is one closed-form GRU moment pass over a
// 20-step sequence.
func BenchmarkGRUMomentPropagation(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	cell, err := rnn.NewGRU(4, 32, 2, 0.9, rng)
	if err != nil {
		b.Fatal(err)
	}
	xs := make([]tensor.Vector, 20)
	for i := range xs {
		xs[i] = tensor.Vector{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cell.PropagateMoments(xs); err != nil {
			b.Fatal(err)
		}
	}
}

// benchTrainEpoch times one training epoch: 256 equal-length 20-step
// sequences at batch 16, full BPTT with one recurrent mask per sequence.
// Each iteration continues from the previous one's weights.
func benchTrainEpoch(b *testing.B, fit func([]rnn.Sample, rnn.TrainConfig) error) {
	rng := rand.New(rand.NewSource(3))
	data := make([]rnn.Sample, 256)
	for i := range data {
		xs := make([]tensor.Vector, 20)
		for t := range xs {
			xs[t] = tensor.Vector{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		}
		data[i] = rnn.Sample{Xs: xs, Y: tensor.Vector{xs[0][0], xs[19][1]}}
	}
	cfg := rnn.TrainConfig{Epochs: 1, BatchSize: 16, LearningRate: 0.01, ClipNorm: 1, Seed: 4, Loss: train.MSE{}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fit(data, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRNNTrainEpochElman is one epoch of Train on a 4-32-2 tanh cell.
func BenchmarkRNNTrainEpochElman(b *testing.B) {
	cell, err := rnn.NewCell(4, 32, 2, nn.ActTanh, 0.9, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	benchTrainEpoch(b, func(d []rnn.Sample, cfg rnn.TrainConfig) error { return rnn.Train(cell, d, cfg) })
}

// BenchmarkRNNTrainEpochGRU is one epoch of TrainGRU on a 4-32-2 GRU.
func BenchmarkRNNTrainEpochGRU(b *testing.B) {
	g, err := rnn.NewGRU(4, 32, 2, 0.9, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	benchTrainEpoch(b, func(d []rnn.Sample, cfg rnn.TrainConfig) error { return rnn.TrainGRU(g, d, cfg) })
}

// BenchmarkRNNTrainEpochLSTM is one epoch of TrainLSTM on a 4-32-2 LSTM.
func BenchmarkRNNTrainEpochLSTM(b *testing.B) {
	l, err := rnn.NewLSTM(4, 32, 2, 0.9, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	benchTrainEpoch(b, func(d []rnn.Sample, cfg rnn.TrainConfig) error { return rnn.TrainLSTM(l, d, cfg) })
}
