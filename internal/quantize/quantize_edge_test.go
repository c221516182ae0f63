package quantize

import (
	"bytes"
	"encoding/gob"
	"errors"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/apdeepsense/apdeepsense/internal/nn"
	"github.com/apdeepsense/apdeepsense/internal/tensor"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_v1.gob from the in-code fixture model")

// singleLayerNet builds a 1-layer identity network whose weight matrix is
// filled by fill(i, j).
func singleLayerNet(t *testing.T, nIn, nOut int, fill func(i, j int) float64) *nn.Network {
	t.Helper()
	w := tensor.NewMatrix(nIn, nOut)
	for i := 0; i < nIn; i++ {
		for j := 0; j < nOut; j++ {
			w.Set(i, j, fill(i, j))
		}
	}
	net, err := nn.FromLayers([]*nn.Layer{{
		W: w, B: tensor.NewVector(nOut), Act: nn.ActIdentity, KeepProb: 1,
	}})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// TestQuantizeEdgeWeights is the satellite table: constant, zero,
// single-element, subnormal, and ±extreme-value weight matrices must all
// produce finite positive scales, in-range codes, and a reconstruction
// within the scale/2 bound — never Inf/NaN.
func TestQuantizeEdgeWeights(t *testing.T) {
	cases := []struct {
		name      string
		nIn, nOut int
		fill      func(i, j int) float64
	}{
		{"constant", 4, 3, func(i, j int) float64 { return 0.25 }},
		{"constant-negative", 4, 3, func(i, j int) float64 { return -1.75 }},
		{"all-zero", 4, 3, func(i, j int) float64 { return 0 }},
		{"single-element", 1, 1, func(i, j int) float64 { return -3.7 }},
		{"single-zero", 1, 1, func(i, j int) float64 { return 0 }},
		{"extreme-positive", 2, 2, func(i, j int) float64 { return math.MaxFloat64 }},
		{"extreme-mixed", 2, 2, func(i, j int) float64 {
			if (i+j)%2 == 0 {
				return math.MaxFloat64
			}
			return -math.MaxFloat64
		}},
		{"subnormal", 3, 2, func(i, j int) float64 { return math.SmallestNonzeroFloat64 }},
		{"subnormal-mixed", 3, 2, func(i, j int) float64 {
			return float64(i-1) * math.SmallestNonzeroFloat64
		}},
		{"tiny-normal", 2, 2, func(i, j int) float64 { return 1e-310 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			net := singleLayerNet(t, tc.nIn, tc.nOut, tc.fill)
			m, err := Quantize(net)
			if err != nil {
				t.Fatalf("Quantize: %v", err)
			}
			if err := m.Validate(); err != nil {
				t.Fatalf("Validate: %v", err)
			}
			q := m.Layers[0]
			var maxScale float64
			for j, s := range q.Scales {
				if !(s > 0) || math.IsInf(s, 0) || math.IsNaN(s) {
					t.Fatalf("scale[%d] = %v, want finite > 0", j, s)
				}
				if s > maxScale {
					maxScale = s
				}
			}
			for i := 0; i < q.InDim; i++ {
				for j := 0; j < q.OutDim; j++ {
					c := q.W[i*q.OutDim+j]
					if c < -QMax || c > QMax {
						t.Fatalf("code[%d,%d] = %d out of range", i, j, c)
					}
					back := float64(c) * q.Scales[j]
					if math.IsNaN(back) || math.IsInf(back, 0) {
						t.Fatalf("dequantized weight [%d,%d] = %v", i, j, back)
					}
					if d := math.Abs(tc.fill(i, j) - back); d > maxScale/2*(1+1e-9) {
						t.Fatalf("reconstruction error %v exceeds scale/2 = %v", d, maxScale/2)
					}
				}
			}
		})
	}
}

// TestQuantizeRejectsNonFinite pins the non-finite policy: Quantize refuses
// NaN/Inf weights with a typed error instead of saturating codes.
func TestQuantizeRejectsNonFinite(t *testing.T) {
	for _, bad := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		net := singleLayerNet(t, 2, 2, func(i, j int) float64 { return 1 })
		net.Layers()[0].W.Set(1, 1, bad)
		if _, err := Quantize(net); !errors.Is(err, ErrInput) {
			t.Errorf("weight %v: err = %v, want ErrInput", bad, err)
		}
	}
}

// fixtureModel is the hand-built deterministic model behind the golden
// wire-format fixture. Do not change it: the fixture pins the v1 format.
func fixtureModel() *Model {
	return &Model{Layers: []Layer{
		{
			InDim: 3, OutDim: 2,
			W:      []int8{127, -64, 0, 1, -127, 33},
			Scales: []float64{0.0125, 3.5},
			B:      []float64{-0.75, 2},
			Act:    nn.ActReLU, KeepProb: 0.9,
		},
		{
			InDim: 2, OutDim: 1,
			W:      []int8{-5, 9},
			Scales: []float64{1e-3},
			B:      []float64{0.125},
			Act:    nn.ActIdentity, KeepProb: 1,
		},
	}}
}

// TestGoldenWireFormat pins the serialized byte stream: Save of the fixture
// model must reproduce testdata/golden_v1.gob byte-for-byte, and Load of the
// committed fixture must reproduce the model. A deliberate format change
// must bump modelVersion and regenerate with -update-golden.
func TestGoldenWireFormat(t *testing.T) {
	path := filepath.Join("testdata", "golden_v1.gob")
	m := fixtureModel()
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden fixture (regenerate with -update-golden): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), golden) {
		t.Fatalf("Save output differs from golden fixture: %d vs %d bytes — wire format changed without a version bump", buf.Len(), len(golden))
	}
	back, err := Load(bytes.NewReader(golden))
	if err != nil {
		t.Fatalf("Load golden: %v", err)
	}
	if !reflect.DeepEqual(back, m) {
		t.Fatal("model loaded from golden fixture differs from the in-code fixture")
	}
}

// TestLoadTruncatedAndCorrupt drives the nn.ErrModel-style hardening:
// truncated prefixes and corrupted bytes must fail with a wrapped ErrModel,
// never panic or silently succeed with different codes.
func TestLoadTruncatedAndCorrupt(t *testing.T) {
	var buf bytes.Buffer
	if err := fixtureModel().Save(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, n := range []int{0, 1, len(full) / 4, len(full) / 2, len(full) - 1} {
		if _, err := Load(bytes.NewReader(full[:n])); !errors.Is(err, ErrModel) {
			t.Errorf("truncated at %d: err = %v, want ErrModel", n, err)
		}
	}
	for _, pos := range []int{2, len(full) / 3, 2 * len(full) / 3} {
		corrupt := append([]byte(nil), full...)
		corrupt[pos] ^= 0xff
		m, err := Load(bytes.NewReader(corrupt))
		if err == nil {
			// A flipped byte that still decodes must at least not change
			// the model silently.
			if !reflect.DeepEqual(m, fixtureModel()) {
				t.Errorf("corrupt byte %d: silently loaded a different model", pos)
			}
			continue
		}
		if !errors.Is(err, ErrModel) {
			t.Errorf("corrupt byte %d: err = %v, want ErrModel", pos, err)
		}
	}
}

// TestLoadRejectsLegacyStream pins that a pre-versioning raw Model gob (the
// seed format, no magic header) is refused rather than misread.
func TestLoadRejectsLegacyStream(t *testing.T) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(fixtureModel()); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&buf); !errors.Is(err, ErrModel) {
		t.Errorf("legacy stream err = %v, want ErrModel", err)
	}
}

// TestLoadRejectsBadVersionAndValidate covers the remaining Load rejections:
// future versions and structurally invalid models, including dimensions
// whose product overflows int (which would otherwise pass the shape check
// and panic in Dequantize).
func TestLoadRejectsBadVersionAndValidate(t *testing.T) {
	enc := func(wm wireModel) *bytes.Reader {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(wm); err != nil {
			t.Fatal(err)
		}
		return bytes.NewReader(buf.Bytes())
	}
	if _, err := Load(enc(wireModel{Magic: modelMagic, Version: 99})); !errors.Is(err, ErrModel) {
		t.Errorf("future version err = %v, want ErrModel", err)
	}
	if _, err := Load(enc(wireModel{Magic: "apds-model", Version: modelVersion})); !errors.Is(err, ErrModel) {
		t.Errorf("wrong magic err = %v, want ErrModel", err)
	}
	for _, c := range []struct {
		name  string
		layer wireLayer
	}{
		{"non-finite scale", wireLayer{
			InDim: 2, OutDim: 1, Codes: []int8{1, 2}, Scales: []float64{math.Inf(1)}, Bias: []float64{0}, Act: int(nn.ActReLU), KeepProb: 1,
		}},
		{"overflowing dims", wireLayer{
			InDim: 1 << 62, OutDim: 4, Scales: []float64{1, 1, 1, 1}, Bias: []float64{0, 0, 0, 0}, Act: int(nn.ActIdentity), KeepProb: 1,
		}},
	} {
		bad := wireModel{Magic: modelMagic, Version: modelVersion, Layers: []wireLayer{c.layer}}
		if _, err := Load(enc(bad)); !errors.Is(err, ErrModel) {
			t.Errorf("%s: err = %v, want ErrModel", c.name, err)
		}
	}
}
