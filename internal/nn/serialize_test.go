package nn

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/apdeepsense/apdeepsense/internal/tensor"
)

// TestPropertySaveLoadRoundTrip: any randomly shaped network survives
// serialization bit-exactly.
func TestPropertySaveLoadRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		hidden := make([]int, 1+rng.Intn(3))
		for i := range hidden {
			hidden[i] = 1 + rng.Intn(12)
		}
		acts := []Activation{ActIdentity, ActReLU, ActTanh, ActSigmoid}
		net, err := New(Config{
			InputDim: 1 + rng.Intn(8), Hidden: hidden, OutputDim: 1 + rng.Intn(5),
			Activation:       acts[rng.Intn(len(acts))],
			OutputActivation: acts[rng.Intn(len(acts))],
			KeepProb:         0.5 + rng.Float64()*0.5,
			Seed:             seed,
		})
		if err != nil {
			return false
		}
		var buf bytes.Buffer
		if err := net.Save(&buf); err != nil {
			return false
		}
		back, err := Load(&buf)
		if err != nil {
			return false
		}
		if back.NumLayers() != net.NumLayers() {
			return false
		}
		for i, l := range net.Layers() {
			bl := back.Layers()[i]
			if !l.W.Equal(bl.W, 0) || !l.B.Equal(bl.B, 0) ||
				l.Act != bl.Act || l.KeepProb != bl.KeepProb {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestLoadTruncatedStream(t *testing.T) {
	net, err := New(Config{
		InputDim: 4, Hidden: []int{8}, OutputDim: 2,
		Activation: ActReLU, OutputActivation: ActIdentity,
		KeepProb: 0.9, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := net.Save(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, frac := range []float64{0.1, 0.5, 0.9} {
		cut := int(float64(len(full)) * frac)
		if _, err := Load(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("truncation at %d/%d bytes loaded successfully", cut, len(full))
		}
	}
}

func TestLoadRejectsWrongMagicAndVersion(t *testing.T) {
	encode := func(wm wireModel) []byte {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(wm); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	valid := wireLayer{
		InDim: 1, OutDim: 1, Weights: []float64{1}, Bias: []float64{0},
		Act: int(ActIdentity), KeepProb: 1,
	}
	cases := []struct {
		name string
		wm   wireModel
	}{
		{"bad magic", wireModel{Magic: "nope", Version: modelVersion, Layers: []wireLayer{valid}}},
		{"future version", wireModel{Magic: modelMagic, Version: modelVersion + 1, Layers: []wireLayer{valid}}},
		{"short weights", wireModel{Magic: modelMagic, Version: modelVersion, Layers: []wireLayer{{
			InDim: 2, OutDim: 2, Weights: []float64{1}, Bias: []float64{0, 0}, Act: int(ActReLU), KeepProb: 1,
		}}}},
		{"bad activation", wireModel{Magic: modelMagic, Version: modelVersion, Layers: []wireLayer{{
			InDim: 1, OutDim: 1, Weights: []float64{1}, Bias: []float64{0}, Act: 99, KeepProb: 1,
		}}}},
		{"bad keep prob", wireModel{Magic: modelMagic, Version: modelVersion, Layers: []wireLayer{{
			InDim: 1, OutDim: 1, Weights: []float64{1}, Bias: []float64{0}, Act: int(ActReLU), KeepProb: 0,
		}}}},
		// InDim·OutDim wraps to 0, matching the empty weight slice.
		{"overflowing dims", wireModel{Magic: modelMagic, Version: modelVersion, Layers: []wireLayer{{
			InDim: 1 << 62, OutDim: 4, Bias: []float64{0, 0, 0, 0}, Act: int(ActIdentity), KeepProb: 1,
		}}}},
	}
	for _, c := range cases {
		if _, err := Load(bytes.NewReader(encode(c.wm))); !errors.Is(err, ErrConfig) {
			t.Errorf("%s: err = %v, want ErrConfig", c.name, err)
		}
	}
}

// TestLoadedModelPredictsIdentically: the semantic round-trip — every
// inference mode produces identical outputs after save/load.
func TestLoadedModelPredictsIdentically(t *testing.T) {
	net, err := New(Config{
		InputDim: 6, Hidden: []int{16, 16}, OutputDim: 3,
		Activation: ActSigmoid, OutputActivation: ActTanh,
		KeepProb: 0.8, Seed: 77,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := net.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.Vector{1, -0.5, 0.25, 2, 0, -1}
	a, _ := net.Forward(x)
	b, _ := back.Forward(x)
	if !a.Equal(b, 0) {
		t.Error("deterministic forward differs after round trip")
	}
	// Same RNG seed → same stochastic pass.
	r1 := rand.New(rand.NewSource(5))
	r2 := rand.New(rand.NewSource(5))
	s1, _ := net.ForwardSample(x, r1)
	s2, _ := back.ForwardSample(x, r2)
	if !s1.Equal(s2, 0) {
		t.Error("stochastic forward differs after round trip")
	}
}
