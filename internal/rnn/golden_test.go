package rnn

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"github.com/apdeepsense/apdeepsense/internal/nn"
	"github.com/apdeepsense/apdeepsense/internal/tensor"
	"github.com/apdeepsense/apdeepsense/internal/train"
)

// hashBits hashes the IEEE-754 bits of every value, in order.
func hashBits(xs ...[]float64) string {
	h := sha256.New()
	var buf [8]byte
	for _, v := range xs {
		for _, x := range v {
			binary.BigEndian.PutUint64(buf[:], math.Float64bits(x))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:32]
}

// goldenModel is one recurrent model under test: its public parameters in
// a fixed order, its two float passes, and its trainer.
type goldenModel struct {
	params        [][]float64
	forward       func([]tensor.Vector) (tensor.Vector, error)
	forwardSample func([]tensor.Vector, *rand.Rand) (tensor.Vector, error)
	train         func([]Sample, TrainConfig) error
}

func elmanModel(c *Cell) goldenModel {
	return goldenModel{
		params:  [][]float64{c.Wx.Data, c.Wh.Data, c.B, c.Wo.Data, c.Bo},
		forward: c.Forward, forwardSample: c.ForwardSample,
		train: func(d []Sample, cfg TrainConfig) error { return Train(c, d, cfg) },
	}
}

func gruModel(g *GRU) goldenModel {
	return goldenModel{
		params: [][]float64{
			g.Wxr.Data, g.Whr.Data, g.Wxu.Data, g.Whu.Data, g.Wxc.Data, g.Whc.Data,
			g.Br, g.Bu, g.Bc, g.Wo.Data, g.Bo,
		},
		forward: g.Forward, forwardSample: g.ForwardSample,
		train: func(d []Sample, cfg TrainConfig) error { return TrainGRU(g, d, cfg) },
	}
}

func lstmModel(l *LSTM) goldenModel {
	return goldenModel{
		params: [][]float64{
			l.Wxi.Data, l.Whi.Data, l.Wxf.Data, l.Whf.Data,
			l.Wxo.Data, l.Who.Data, l.Wxg.Data, l.Whg.Data,
			l.Bi, l.Bf, l.Bo, l.Bg, l.Wo.Data, l.Bro,
		},
		forward: l.Forward, forwardSample: l.ForwardSample,
		train: func(d []Sample, cfg TrainConfig) error { return TrainLSTM(l, d, cfg) },
	}
}

// goldenBuild builds a fresh in→hidden→out model of the named kind from
// seed: "elman-tanh", "elman-relu", "gru" or "lstm".
func goldenBuild(t *testing.T, kind string, in, hidden, out int, keep float64, seed int64) goldenModel {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var m goldenModel
	var err error
	switch kind {
	case "elman-tanh", "elman-relu":
		act := nn.ActTanh
		if kind == "elman-relu" {
			act = nn.ActReLU
		}
		var c *Cell
		if c, err = NewCell(in, hidden, out, act, keep, rng); err == nil {
			m = elmanModel(c)
		}
	case "gru":
		var g *GRU
		if g, err = NewGRU(in, hidden, out, keep, rng); err == nil {
			m = gruModel(g)
		}
	case "lstm":
		var l *LSTM
		if l, err = NewLSTM(in, hidden, out, keep, rng); err == nil {
			m = lstmModel(l)
		}
	default:
		t.Fatalf("unknown kind %q", kind)
	}
	if err != nil {
		t.Fatal(err)
	}
	// Non-zero biases, so every bias path carries a value.
	for i, p := range m.params {
		if len(p) == hidden || len(p) == out {
			for j := range p {
				p[j] += 0.1 * float64((i+j)%5-2)
			}
		}
	}
	return m
}

// goldenSeqs draws n two-feature sequences of mixed lengths 2..6 whose
// second feature is exactly zero on every third step, so the matmul zero
// skips are exercised. Targets are two regression outputs for MSE and one
// (mean + log-variance readout) for the heteroscedastic NLL.
func goldenSeqs(n int, loss train.Loss) []Sample {
	rng := rand.New(rand.NewSource(17))
	out := make([]Sample, n)
	for i := range out {
		xs := make([]tensor.Vector, 2+i%5)
		var sum float64
		for t := range xs {
			xs[t] = tensor.Vector{rng.NormFloat64(), rng.NormFloat64()}
			if t%3 == 2 {
				xs[t][1] = 0
			}
			sum += xs[t][0] - 0.5*xs[t][1]
		}
		y := tensor.Vector{sum / float64(len(xs)), xs[0][0]}
		if _, ok := loss.(train.HeteroscedasticNLL); ok {
			y = y[:1]
		}
		out[i] = Sample{Xs: xs, Y: y}
	}
	return out
}

// TestTrainGoldenBits pins the exact weights Train, TrainGRU and TrainLSTM
// produce: every cell at keep < 1 and keep 1, MSE and the heteroscedastic
// NLL, ClipNorm off and a ClipNorm small enough to fire on every minibatch,
// over mixed sequence lengths with a ragged last minibatch (23 samples at
// batch 5), so a change to mask order, accumulation order, the clip's norm
// or the SGD step shows up as a different hash. The values were recorded
// from the per-cell implementations (one float step, trace, gradient struct
// and bptt per cell) and held across the move onto the shared gate-list
// pass, except two unclipped Elman cases: the old Elman trainer summed its
// pre-activation as x·Wx + (ĥ·Wh + b), the shared step as
// (x·Wx + ĥ·Wh) + b, as Forward always did. They were re-recorded
// (elman-tanh-keep0.9-mse was ae7d72ec…, elman-relu-keep1-hetero 0363808e…).
// The clipped Elman cases kept their bits: their steps are small enough
// that the 1-ulp differences, and the clip norm now summing B before Wo,
// round away in the weights.
func TestTrainGoldenBits(t *testing.T) {
	hetero := train.HeteroscedasticNLL{Alpha: 0.7}
	cases := []struct {
		name string
		kind string
		keep float64
		loss train.Loss
		clip float64
		want string
	}{
		{"elman-tanh-keep0.9-mse", "elman-tanh", 0.9, train.MSE{}, 0, "a10497ce3acc6268998ef5e867e688f6"},
		{"elman-tanh-keep0.9-hetero-clip", "elman-tanh", 0.9, hetero, 0.05, "762263ee0b017ca08f00659ec92bc347"},
		{"elman-relu-keep1-mse-clip", "elman-relu", 1, train.MSE{}, 0.05, "ddf0c0ae4a971b881e89629b559e14c5"},
		{"elman-relu-keep1-hetero", "elman-relu", 1, hetero, 0, "d5cf3aad9d7bee3ecc2b0c904f6f71c7"},
		{"gru-keep0.85-mse", "gru", 0.85, train.MSE{}, 0, "2fc7805adf4863b136d9cb6e47086ca8"},
		{"gru-keep0.85-hetero-clip", "gru", 0.85, hetero, 0.05, "e0f0de0ec499129e4d32799e308666ec"},
		{"gru-keep1-mse-clip", "gru", 1, train.MSE{}, 0.05, "1e38641fc344063c1c3074fe1bd7f110"},
		{"gru-keep1-hetero", "gru", 1, hetero, 0, "f9423537d298b4f67fce23a028544196"},
		{"lstm-keep0.85-mse", "lstm", 0.85, train.MSE{}, 0, "f27a3a38f8b9acca112e4b4ebd35a35e"},
		{"lstm-keep0.85-hetero-clip", "lstm", 0.85, hetero, 0.05, "555ae24ea479877987ee04f5d87898c6"},
		{"lstm-keep1-mse-clip", "lstm", 1, train.MSE{}, 0.05, "6198abd0a150ea34d36b364efb5e164e"},
		{"lstm-keep1-hetero", "lstm", 1, hetero, 0, "62a0ec360e84d7d99863be5d22ef3340"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			fit := func(clip float64) string {
				m := goldenBuild(t, c.kind, 2, 5, 2, c.keep, 31)
				if err := m.train(goldenSeqs(23, c.loss), TrainConfig{
					Epochs: 3, BatchSize: 5, LearningRate: 0.05, ClipNorm: clip, Seed: 9, Loss: c.loss,
				}); err != nil {
					t.Fatal(err)
				}
				return hashBits(m.params...)
			}
			got := fit(c.clip)
			if got != c.want {
				t.Errorf("trained bits %s, want %s", got, c.want)
			}
			if c.clip > 0 && got == fit(0) {
				t.Errorf("ClipNorm %v never fired", c.clip)
			}
		})
	}
}

// TestForwardGoldenBits pins Forward and ForwardSample output bits for each
// cell, and one rng.Float64 drawn after ForwardSample: at keep < 1 a sample
// consumes exactly one draw per hidden unit, at keep 1 none. The values
// were recorded from the per-cell float steps.
func TestForwardGoldenBits(t *testing.T) {
	cases := []struct {
		name string
		kind string
		keep float64
		want string
	}{
		{"elman-tanh-keep0.9", "elman-tanh", 0.9, "287f6e36cb2394cf8446361949e1bbbd"},
		{"elman-relu-keep1", "elman-relu", 1, "32caa8408b4238896a8c38295ffc119c"},
		{"elman-relu-keep0.7", "elman-relu", 0.7, "a04f7122d162fbc7a3c76aeb279a1546"},
		{"gru-keep0.85", "gru", 0.85, "55178f1789682b5cbc78c33bb499da6d"},
		{"gru-keep1", "gru", 1, "53fa2a4d408e864f81889ee55ff93f07"},
		{"lstm-keep0.85", "lstm", 0.85, "ce06f1cc2bf5a21b84380671db876dc5"},
		{"lstm-keep1", "lstm", 1, "56019784048e00b2f98f1c7a2ae48b0a"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := goldenBuild(t, c.kind, 3, 6, 3, c.keep, 41)
			xs := randSeq(rand.New(rand.NewSource(43)), 7, 3)
			xs[2] = tensor.Vector{0, 0, 0}
			xs[4][1] = 0
			det, err := m.forward(xs)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(47))
			s1, err := m.forwardSample(xs, rng)
			if err != nil {
				t.Fatal(err)
			}
			s2, err := m.forwardSample(xs, rng)
			if err != nil {
				t.Fatal(err)
			}
			if got := hashBits(det, s1, s2, []float64{rng.Float64()}); got != c.want {
				t.Errorf("forward bits %s, want %s", got, c.want)
			}
		})
	}
}
