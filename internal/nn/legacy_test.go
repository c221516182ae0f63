package nn_test

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math"
	"testing"

	"github.com/apdeepsense/apdeepsense/internal/core"
	"github.com/apdeepsense/apdeepsense/internal/nn"
	"github.com/apdeepsense/apdeepsense/internal/tensor"
)

// legacyLayer and legacyModel mirror the wire format of models written while
// each layer carried an activation-moment mode (0 auto, 1 PWL, 2 exact).
type legacyLayer struct {
	InDim, OutDim int
	Weights       []float64
	Bias          []float64
	Act           int
	KeepProb      float64
	Moments       int
}

type legacyModel struct {
	Magic   string
	Version int
	Layers  []legacyLayer
}

// encodeLegacy writes net in the legacy format with every layer's mode set
// by modes(i, act).
func encodeLegacy(t *testing.T, net *nn.Network, modes func(i int, act nn.Activation) int) []byte {
	t.Helper()
	wm := legacyModel{Magic: "apds-model", Version: 1}
	for i, l := range net.Layers() {
		wm.Layers = append(wm.Layers, legacyLayer{
			InDim: l.InDim(), OutDim: l.OutDim(),
			Weights: l.W.Data, Bias: l.B,
			Act: int(l.Act), KeepProb: l.KeepProb,
			Moments: modes(i, l.Act),
		})
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(wm); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLegacyMomentModesDecode: a rectifier model that forced PWL (1) or
// exact (2) loads and serves exactly what the same weights with mode 0 serve,
// because the activation alone picks the backend. The two files that never
// loaded — an unknown mode, and exact on tanh — still fail with ErrModel.
func TestLegacyMomentModesDecode(t *testing.T) {
	net, err := nn.New(nn.Config{
		InputDim: 4, Hidden: []int{12, 12}, OutputDim: 2,
		Activation: nn.ActReLU, OutputActivation: nn.ActIdentity,
		KeepProb: 0.85, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	propagate := func(data []byte) core.GaussianVec {
		t.Helper()
		back, err := nn.Load(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		prop, err := core.NewPropagator(back, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		g, err := prop.Propagate(tensor.Vector{0.3, -1.2, 2, 0.05})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	want := propagate(encodeLegacy(t, net, func(int, nn.Activation) int { return 0 }))
	for _, mode := range []int{1, 2} {
		got := propagate(encodeLegacy(t, net, func(i int, act nn.Activation) int {
			if act == nn.ActReLU {
				return mode
			}
			return 0
		}))
		for j := range want.Mean {
			if math.Float64bits(got.Mean[j]) != math.Float64bits(want.Mean[j]) ||
				math.Float64bits(got.Var[j]) != math.Float64bits(want.Var[j]) {
				t.Errorf("mode %d output %d: (%v,%v), want (%v,%v)", mode, j, got.Mean[j], got.Var[j], want.Mean[j], want.Var[j])
			}
		}
	}

	if _, err := nn.Load(bytes.NewReader(encodeLegacy(t, net, func(int, nn.Activation) int { return 7 }))); !errors.Is(err, nn.ErrModel) {
		t.Errorf("mode 7: err = %v, want ErrModel", err)
	}
	tanh, err := nn.New(nn.Config{
		InputDim: 4, Hidden: []int{6}, OutputDim: 1,
		Activation: nn.ActTanh, OutputActivation: nn.ActIdentity,
		KeepProb: 0.9, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	exactTanh := encodeLegacy(t, tanh, func(_ int, act nn.Activation) int {
		if act == nn.ActTanh {
			return 2
		}
		return 0
	})
	if _, err := nn.Load(bytes.NewReader(exactTanh)); !errors.Is(err, nn.ErrModel) {
		t.Errorf("exact on tanh: err = %v, want ErrModel", err)
	}
}
