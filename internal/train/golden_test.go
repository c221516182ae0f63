package train

import (
	"math/rand"
	"testing"

	"github.com/apdeepsense/apdeepsense/internal/nn"
	"github.com/apdeepsense/apdeepsense/internal/tensor"
)

// goldenData builds n three-feature samples whose second feature is exactly
// zero on every third sample, so the zero-input skips of the matmul kernels
// are exercised. Targets follow the loss: two regression outputs for MSE,
// one-hot over three classes for softmax cross-entropy, one regression
// output for the heteroscedastic NLL.
func goldenData(n int, seed int64, loss Loss) []Sample {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Sample, n)
	for i := range out {
		x := tensor.Vector{rng.NormFloat64(), rng.NormFloat64(), rng.Float64()*2 - 1}
		if i%3 == 0 {
			x[1] = 0
		}
		var y tensor.Vector
		switch loss.(type) {
		case SoftmaxCrossEntropy:
			y = tensor.Vector{0, 0, 0}
			cls := 0
			if x[0]+x[2] > 0.3 {
				cls = 1
			} else if x[0]-x[1] < -0.5 {
				cls = 2
			}
			y[cls] = 1
		case HeteroscedasticNLL:
			y = tensor.Vector{x[0]*x[2] + 0.3*rng.NormFloat64()*(1+x[2])}
		default:
			y = tensor.Vector{x[0] - 0.5*x[1]*x[2], x[2]*x[2] - x[0]}
		}
		out[i] = Sample{X: x, Y: y}
	}
	return out
}

// TestFitFingerprintGolden pins the exact bits Fit produces. Each case
// trains a small dropout network and compares the trained network's
// Fingerprint (SHA-256 over every weight's IEEE-754 bits) against a value
// recorded from the per-sample reference implementation of the forward and
// backward pass, so any change to mask order, accumulation order or
// zero-skipping shows up as a different hash.
func TestFitFingerprintGolden(t *testing.T) {
	type tc struct {
		name     string
		act      nn.Activation
		keep     float64
		loss     Loss
		opt      func() Optimizer
		batch    int
		nTrain   int
		nVal     int
		epochs   int
		decay    float64
		clip     float64
		patience int
		hidden   []int // default {9, 6}
		want     string
	}
	adam := func() Optimizer { return NewAdam(0.01) }
	sgd := func() Optimizer { return NewSGD(0.05, 0.9) }
	cases := []tc{
		{name: "relu-keep0.8-mse", act: nn.ActReLU, keep: 0.8, loss: MSE{}, opt: adam, batch: 8, nTrain: 48, epochs: 4,
			want: "6beae1858012a28b7d177d5c8a92b4ab25e5fccb32033d76b27cd5951b69f81c"},
		{name: "tanh-keep0.9-mse", act: nn.ActTanh, keep: 0.9, loss: MSE{}, opt: adam, batch: 8, nTrain: 48, epochs: 4,
			want: "e0bd892506e00c86011dd373b713bcdd8f5545d4fe2ff861e0b67d4baf986ba8"},
		{name: "sigmoid-keep0.7-mse", act: nn.ActSigmoid, keep: 0.7, loss: MSE{}, opt: sgd, batch: 8, nTrain: 48, epochs: 4,
			want: "5d89d1050ab4f1bf4dd1ba296485493887fe3e21195dfa990a9268fee456c0c9"},
		{name: "leaky-keep0.85-mse", act: nn.ActLeakyReLU, keep: 0.85, loss: MSE{}, opt: adam, batch: 8, nTrain: 48, epochs: 4,
			want: "88f97bf20f558e0ae9744dd45522460020b4ae4b1bd0d34b368895c8f27a0763"},
		{name: "identity-keep0.9-mse", act: nn.ActIdentity, keep: 0.9, loss: MSE{}, opt: sgd, batch: 8, nTrain: 48, epochs: 4,
			want: "216616574c993a16531473544607d2ec0d30eec0f785ffc0f410eaa07d2e8b3b"},
		{name: "relu-keep1-mse", act: nn.ActReLU, keep: 1, loss: MSE{}, opt: adam, batch: 8, nTrain: 48, epochs: 4,
			want: "202dde370ebb9df0391d7ef8c1e71da7e8d83098d4fcdb0bf72475285feb9235"},
		{name: "relu-keep0.8-xent", act: nn.ActReLU, keep: 0.8, loss: SoftmaxCrossEntropy{}, opt: adam, batch: 8, nTrain: 48, epochs: 4,
			want: "e48cd610499d709fb25a5689d1ba771a29bebdcb543e659b0adad8dea1c8e88b"},
		{name: "tanh-keep0.9-hetero", act: nn.ActTanh, keep: 0.9, loss: HeteroscedasticNLL{Alpha: 0.7}, opt: adam, batch: 8, nTrain: 48, epochs: 4,
			want: "2f7e6f2f00b69b03105f10628e53565c16b2be36368e42e6c7904cca3be44d09"},
		{name: "relu-keep0.8-clip-decay", act: nn.ActReLU, keep: 0.8, loss: MSE{}, opt: sgd, batch: 8, nTrain: 48, epochs: 4,
			decay: 1e-3, clip: 0.5, want: "0396b48f064be488e72e1080f27471b1219ef9f8070c9158a057fd046dd3cbd3"},
		{name: "tanh-keep0.9-earlystop", act: nn.ActTanh, keep: 0.9, loss: MSE{}, opt: func() Optimizer { return NewAdam(0.2) },
			batch: 8, nTrain: 48, nVal: 20, epochs: 30, patience: 2, want: "bc0d454c14b65dd7ef2fb6c09c490e4d130308cb2a94c8a676a6a2dcd1c363a7"},
		{name: "relu-keep0.8-batch1", act: nn.ActReLU, keep: 0.8, loss: MSE{}, opt: adam, batch: 1, nTrain: 20, epochs: 2,
			want: "2e3f647bf623ff0ae105cb7aba6cfbdf8453b32a02c209f29ba1cea73d71bd76"},
		{name: "tanh-keep0.8-ragged", act: nn.ActTanh, keep: 0.8, loss: SoftmaxCrossEntropy{}, opt: adam, batch: 7, nTrain: 53, epochs: 3,
			want: "dc42b263b44a8d871b7392861ec099341c3b98733925e7234d5a701e15ad2a45"},
		{name: "relu-keep0.9-wide-batch70", act: nn.ActReLU, keep: 0.9, loss: MSE{}, opt: adam, batch: 70, nTrain: 150, epochs: 2,
			hidden: []int{70, 33}, want: "9bdf73e8b75211f27d51c7b3bcdc290f7d925b1a37e1d449646d4b479c76f38f"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			outDim := 2 // two regression outputs, or HeteroscedasticNLL's mean + log-variance
			if _, ok := c.loss.(SoftmaxCrossEntropy); ok {
				outDim = 3
			}
			hidden := c.hidden
			if hidden == nil {
				hidden = []int{9, 6}
			}
			net, err := nn.New(nn.Config{
				InputDim: 3, Hidden: hidden, OutputDim: outDim,
				Activation: c.act, OutputActivation: nn.ActIdentity,
				KeepProb: c.keep, DropInput: c.keep < 1, Seed: 13,
			})
			if err != nil {
				t.Fatal(err)
			}
			var val []Sample
			if c.nVal > 0 {
				val = goldenData(c.nVal, 99, c.loss)
			}
			hist, err := Fit(net, goldenData(c.nTrain, 17, c.loss), val, Config{
				Epochs: c.epochs, BatchSize: c.batch, Seed: 23,
				Loss: c.loss, Optimizer: c.opt(),
				WeightDecay: c.decay, ClipNorm: c.clip, EarlyStopPatience: c.patience,
			})
			if err != nil {
				t.Fatal(err)
			}
			if c.patience > 0 && (len(hist.ValLoss) == c.epochs || hist.BestEpoch == len(hist.ValLoss)-1) {
				t.Fatalf("early stopping did not restore earlier weights: %d epochs, best %d",
					len(hist.ValLoss), hist.BestEpoch)
			}
			if got := net.Fingerprint(); got != c.want {
				t.Errorf("fingerprint %s, want %s", got, c.want)
			}
		})
	}
}
