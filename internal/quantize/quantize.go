// Package quantize implements post-training int8 weight quantization for
// the dropout networks — the standard footprint reduction for IoT-class
// deployment targets (the Edison's 1 GB RAM and 4 GB flash motivate it; the
// paper's DeepIoT reference [35] addresses the same pressure via structure
// compression). Weights quantize per-output-channel with symmetric scaling;
// biases stay in float64 (they are negligible in size and
// precision-critical). The int8 model is a file format only: inference runs
// on the dequantized float network (Dequantize), so every estimator composes
// unchanged and serves on the same float engine as any other model.
package quantize

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"

	"github.com/apdeepsense/apdeepsense/internal/nn"
	"github.com/apdeepsense/apdeepsense/internal/tensor"
)

// ErrInput is returned (wrapped) for invalid inputs.
var ErrInput = errors.New("quantize: invalid input")

// ErrModel is returned (wrapped) whenever Load rejects serialized model
// data: undecodable streams, wrong magic or version, inconsistent shapes,
// or non-finite scales and biases — the same contract as nn.ErrModel, so
// callers distinguish "this file is not a usable quantized model" from I/O
// errors with one errors.Is check.
var ErrModel = errors.New("quantize: invalid model data")

// QMax is the symmetric int8 quantization ceiling: weight codes live in
// [-QMax, QMax].
const QMax = 127

// modelMagic and modelVersion guard the on-disk format so stale or foreign
// files fail loudly instead of producing silently wrong codes (the
// nn.ErrModel hardening, applied to the quantized format).
const (
	modelMagic   = "apds-qmodel"
	modelVersion = 1
)

// Layer is one quantized layer.
type Layer struct {
	InDim, OutDim int
	// W holds the int8 weight codes, row-major like tensor.Matrix.
	W []int8
	// Scales holds one dequantization scale per OUTPUT column
	// (per-channel symmetric quantization), so wide-ranged columns do not
	// destroy narrow ones. Scales are always finite and positive: a column
	// whose float peak is zero stores scale 1 over all-zero codes, and a
	// subnormal peak falls back to the peak itself rather than letting
	// peak/QMax underflow to zero.
	Scales []float64
	// B is the float64 bias.
	B []float64
	// Act and KeepProb mirror the source layer.
	Act      nn.Activation
	KeepProb float64
}

// Model is a quantized network.
type Model struct {
	Layers []Layer
}

// columnScale picks the symmetric per-column scale for a peak magnitude.
// peak == 0 (all-zero column) gets scale 1 over all-zero codes; a subnormal
// peak whose peak/QMax quotient underflows to zero gets the peak itself
// (codes land in {-1, 0, 1} and dequantization stays exact at the peak).
// Either way the scale is finite and strictly positive for finite peaks.
func columnScale(peak float64) float64 {
	if peak == 0 {
		return 1
	}
	s := peak / QMax
	if s == 0 {
		return peak
	}
	// For peaks near MaxFloat64 the rounded quotient can sit a hair above
	// peak/QMax, making the worst dequantized weight QMax·s overflow; walk
	// the scale down an ulp until the product is finite again.
	for math.IsInf(QMax*s, 0) {
		s = math.Nextafter(s, 0)
	}
	return s
}

// Quantize converts a trained network into the int8 representation. Every
// weight must be finite; a network with NaN or ±Inf weights is rejected
// (wrapped ErrInput) rather than silently saturating codes.
func Quantize(net *nn.Network) (*Model, error) {
	if net == nil {
		return nil, fmt.Errorf("nil network: %w", ErrInput)
	}
	m := &Model{}
	for li, l := range net.Layers() {
		for _, w := range l.W.Data {
			if math.IsNaN(w) || math.IsInf(w, 0) {
				return nil, fmt.Errorf("layer %d has non-finite weights: %w", li, ErrInput)
			}
		}
		q := Layer{
			InDim: l.InDim(), OutDim: l.OutDim(),
			W:      make([]int8, l.InDim()*l.OutDim()),
			Scales: make([]float64, l.OutDim()),
			B:      append([]float64(nil), l.B...),
			Act:    l.Act, KeepProb: l.KeepProb,
		}
		// Per-output-column max magnitude.
		for j := 0; j < q.OutDim; j++ {
			var peak float64
			for i := 0; i < q.InDim; i++ {
				if a := math.Abs(l.W.At(i, j)); a > peak {
					peak = a
				}
			}
			q.Scales[j] = columnScale(peak)
		}
		for i := 0; i < q.InDim; i++ {
			for j := 0; j < q.OutDim; j++ {
				// Clamp after rounding: for a subnormal-scale fallback (or
				// float noise at the peak) the quotient can round past QMax.
				code := math.Round(l.W.At(i, j) / q.Scales[j])
				if code > QMax {
					code = QMax
				}
				if code < -QMax {
					code = -QMax
				}
				q.W[i*q.OutDim+j] = int8(code)
			}
		}
		m.Layers = append(m.Layers, q)
	}
	return m, nil
}

// Validate checks the structural and numeric invariants of a model:
// consistent shapes, chained layer dimensions, finite positive scales,
// finite biases, valid activations, and keep probabilities in (0, 1]. Load
// and Dequantize call it before trusting the codes.
func (m *Model) Validate() error {
	if len(m.Layers) == 0 {
		return fmt.Errorf("empty model: %w", ErrInput)
	}
	prevOut := -1
	for li, q := range m.Layers {
		if q.InDim < 1 || q.OutDim < 1 {
			return fmt.Errorf("layer %d dims %dx%d: %w", li, q.InDim, q.OutDim, ErrInput)
		}
		if prevOut >= 0 && q.InDim != prevOut {
			return fmt.Errorf("layer %d input dim %d != previous output dim %d: %w", li, q.InDim, prevOut, ErrInput)
		}
		prevOut = q.OutDim
		// Bound InDim first: a crafted InDim·OutDim can overflow int and
		// match a short (even empty) code slice.
		if q.InDim > math.MaxInt/q.OutDim || len(q.W) != q.InDim*q.OutDim || len(q.Scales) != q.OutDim || len(q.B) != q.OutDim {
			return fmt.Errorf("layer %d inconsistent shapes: %w", li, ErrInput)
		}
		for j, s := range q.Scales {
			if !(s > 0) || math.IsInf(s, 0) {
				return fmt.Errorf("layer %d scale[%d] = %v, want finite > 0: %w", li, j, s, ErrInput)
			}
		}
		for j, b := range q.B {
			if math.IsNaN(b) || math.IsInf(b, 0) {
				return fmt.Errorf("layer %d bias[%d] non-finite: %w", li, j, ErrInput)
			}
		}
		if !q.Act.Valid() {
			return fmt.Errorf("layer %d invalid activation %d: %w", li, int(q.Act), ErrInput)
		}
		if !(q.KeepProb > 0 && q.KeepProb <= 1) {
			return fmt.Errorf("layer %d keep probability %v: %w", li, q.KeepProb, ErrInput)
		}
	}
	return nil
}

// Dequantize reconstructs a float network from the quantized codes. The
// result plugs into every estimator (ApDeepSense, MCDrop) unchanged.
func (m *Model) Dequantize() (*nn.Network, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	layers := make([]*nn.Layer, 0, len(m.Layers))
	for _, q := range m.Layers {
		w := tensor.NewMatrix(q.InDim, q.OutDim)
		for i := 0; i < q.InDim; i++ {
			for j := 0; j < q.OutDim; j++ {
				w.Set(i, j, float64(q.W[i*q.OutDim+j])*q.Scales[j])
			}
		}
		layers = append(layers, &nn.Layer{
			W: w, B: append(tensor.Vector(nil), q.B...),
			Act: q.Act, KeepProb: q.KeepProb,
		})
	}
	return nn.FromLayers(layers)
}

// SizeBytes returns the serialized weight footprint of the quantized model
// (1 byte per weight + 8 bytes per scale/bias), for comparing against the
// float64 original.
func (m *Model) SizeBytes() int64 {
	var total int64
	for _, q := range m.Layers {
		total += int64(len(q.W)) + 8*int64(len(q.Scales)+len(q.B))
	}
	return total
}

// Float64SizeBytes returns the float64 weight footprint of a network.
func Float64SizeBytes(net *nn.Network) int64 {
	return 8 * net.Params()
}

// MaxWeightError returns the worst-case absolute weight reconstruction
// error of quantizing net: max over layers of scale/2 bounds the rounding
// error by construction, and the measured value must respect it.
func MaxWeightError(net *nn.Network, m *Model) (float64, error) {
	deq, err := m.Dequantize()
	if err != nil {
		return 0, err
	}
	orig := net.Layers()
	back := deq.Layers()
	if len(orig) != len(back) {
		return 0, fmt.Errorf("layer count mismatch: %w", ErrInput)
	}
	var worst float64
	for li := range orig {
		for i, w := range orig[li].W.Data {
			if d := math.Abs(w - back[li].W.Data[i]); d > worst {
				worst = d
			}
		}
	}
	return worst, nil
}

// wireLayer is the serialized form of one quantized layer.
type wireLayer struct {
	InDim, OutDim int
	Codes         []int8
	Scales        []float64
	Bias          []float64
	Act           int
	KeepProb      float64
}

// wireModel is the serialized form of a quantized model.
type wireModel struct {
	Magic   string
	Version int
	Layers  []wireLayer
}

// Save writes the quantized model in the versioned gob format.
func (m *Model) Save(w io.Writer) error {
	wm := wireModel{Magic: modelMagic, Version: modelVersion}
	for _, q := range m.Layers {
		wm.Layers = append(wm.Layers, wireLayer{
			InDim:    q.InDim,
			OutDim:   q.OutDim,
			Codes:    append([]int8(nil), q.W...),
			Scales:   append([]float64(nil), q.Scales...),
			Bias:     append([]float64(nil), q.B...),
			Act:      int(q.Act),
			KeepProb: q.KeepProb,
		})
	}
	if err := gob.NewEncoder(w).Encode(wm); err != nil {
		return fmt.Errorf("quantize: encode: %w", err)
	}
	return nil
}

// Load reads a quantized model written with Save. Every rejection —
// undecodable gob, wrong magic or version, or a model failing Validate —
// wraps ErrModel.
func Load(r io.Reader) (*Model, error) {
	var wm wireModel
	if err := gob.NewDecoder(r).Decode(&wm); err != nil {
		return nil, fmt.Errorf("quantize: decode: %v: %w", err, ErrModel)
	}
	if wm.Magic != modelMagic {
		return nil, fmt.Errorf("quantize: bad magic %q: %w", wm.Magic, ErrModel)
	}
	if wm.Version != modelVersion {
		return nil, fmt.Errorf("quantize: unsupported model version %d: %w", wm.Version, ErrModel)
	}
	m := &Model{}
	for _, wl := range wm.Layers {
		m.Layers = append(m.Layers, Layer{
			InDim:    wl.InDim,
			OutDim:   wl.OutDim,
			W:        wl.Codes,
			Scales:   wl.Scales,
			B:        wl.Bias,
			Act:      nn.Activation(wl.Act),
			KeepProb: wl.KeepProb,
		})
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("%v: %w", err, ErrModel)
	}
	return m, nil
}
