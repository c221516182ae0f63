package nn

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"os"

	"github.com/apdeepsense/apdeepsense/internal/tensor"
)

// ErrModel is returned (wrapped) whenever Load rejects serialized model data:
// undecodable streams, wrong magic or version, inconsistent shapes, or
// non-finite numeric fields. Every Load failure matches ErrModel, so callers
// can distinguish "this file is not a usable model" from I/O errors with a
// single errors.Is check; format-validation failures additionally match
// ErrConfig.
var ErrModel = errors.New("nn: invalid model data")

// modelMagic and modelVersion guard the on-disk format so stale files fail
// loudly instead of producing silently wrong weights.
const (
	modelMagic   = "apds-model"
	modelVersion = 1
)

// allFinite reports whether xs is free of NaN and ±Inf. A single non-finite
// weight would propagate through every inference path, so Load rejects such
// models outright rather than letting the poison surface downstream.
func allFinite(xs []float64) bool {
	for _, v := range xs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// wireLayer is the serialized form of one layer.
type wireLayer struct {
	InDim, OutDim int
	Weights       []float64
	Bias          []float64
	Act           int
	KeepProb      float64
	// Moments is a legacy per-layer activation-moment mode: 0 auto, 1 PWL,
	// 2 exact. The activation now picks the backend, so Save writes 0 and
	// Load ignores the value once it has passed the checks the mode always
	// had (see Load).
	Moments int
}

// wireModel is the serialized form of a network.
type wireModel struct {
	Magic   string
	Version int
	Layers  []wireLayer
}

// Save writes the network to w in the versioned gob format.
func (n *Network) Save(w io.Writer) error {
	wm := wireModel{Magic: modelMagic, Version: modelVersion}
	for _, l := range n.layers {
		wl := wireLayer{
			InDim:    l.InDim(),
			OutDim:   l.OutDim(),
			Weights:  append([]float64(nil), l.W.Data...),
			Bias:     append([]float64(nil), l.B...),
			Act:      int(l.Act),
			KeepProb: l.KeepProb,
		}
		wm.Layers = append(wm.Layers, wl)
	}
	if err := gob.NewEncoder(w).Encode(wm); err != nil {
		return fmt.Errorf("nn: encode model: %w", err)
	}
	return nil
}

// Load reads a network previously written with Save.
func Load(r io.Reader) (*Network, error) {
	var wm wireModel
	if err := gob.NewDecoder(r).Decode(&wm); err != nil {
		return nil, fmt.Errorf("nn: decode model: %v: %w", err, ErrModel)
	}
	if wm.Magic != modelMagic {
		return nil, fmt.Errorf("nn: bad magic %q: %w: %w", wm.Magic, ErrModel, ErrConfig)
	}
	if wm.Version != modelVersion {
		return nil, fmt.Errorf("nn: unsupported model version %d: %w: %w", wm.Version, ErrModel, ErrConfig)
	}
	layers := make([]*Layer, 0, len(wm.Layers))
	for i, wl := range wm.Layers {
		// InDim is bounded before the product is taken: a crafted
		// InDim·OutDim can overflow int and match a short (even empty)
		// weight slice.
		if wl.InDim < 1 || wl.OutDim < 1 || wl.InDim > math.MaxInt/wl.OutDim ||
			len(wl.Weights) != wl.InDim*wl.OutDim || len(wl.Bias) != wl.OutDim {
			return nil, fmt.Errorf("nn: layer %d has inconsistent shapes: %w: %w", i, ErrModel, ErrConfig)
		}
		act := Activation(wl.Act)
		if !act.Valid() {
			return nil, fmt.Errorf("nn: layer %d has invalid activation %d: %w: %w", i, wl.Act, ErrModel, ErrConfig)
		}
		// A legacy mode outside 0..2, or exact (2) on an activation without
		// a closed form, was never a loadable model; it still is not.
		if wl.Moments < 0 || wl.Moments > 2 {
			return nil, fmt.Errorf("nn: layer %d has invalid moment mode %d: %w: %w", i, wl.Moments, ErrModel, ErrConfig)
		}
		if _, rect := act.Rectifier(); wl.Moments == 2 && !rect && act != ActIdentity {
			return nil, fmt.Errorf("nn: layer %d requests exact moments for %v (no closed form): %w: %w", i, act, ErrModel, ErrConfig)
		}
		if !allFinite(wl.Weights) || !allFinite(wl.Bias) {
			return nil, fmt.Errorf("nn: layer %d has non-finite weights: %w: %w", i, ErrModel, ErrConfig)
		}
		w := tensor.NewMatrix(wl.InDim, wl.OutDim)
		copy(w.Data, wl.Weights)
		layers = append(layers, &Layer{
			W:        w,
			B:        append(tensor.Vector(nil), wl.Bias...),
			Act:      act,
			KeepProb: wl.KeepProb,
		})
	}
	net, err := FromLayers(layers)
	if err != nil {
		// FromLayers re-validates keep probabilities and inter-layer shapes;
		// from Load's perspective those are also model-data defects.
		return nil, fmt.Errorf("%w: %w", err, ErrModel)
	}
	return net, nil
}

// SaveFile writes the network to path, creating or truncating it.
func (n *Network) SaveFile(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("nn: create %s: %w", path, err)
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("nn: close %s: %w", path, cerr)
		}
	}()
	return n.Save(f)
}

// LoadFile reads a network from path.
func LoadFile(path string) (*Network, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("nn: open %s: %w", path, err)
	}
	defer f.Close()
	return Load(f)
}
