package nn

import (
	"errors"
	"fmt"
	"math/rand"

	"github.com/apdeepsense/apdeepsense/internal/tensor"
)

// ErrConfig is returned (wrapped) for invalid network configurations.
var ErrConfig = errors.New("nn: invalid configuration")

// Layer is one fully-connected layer computing
//
//	y = (x ⊙ z) W + b,   x' = f(y)
//
// following the paper's convention (eq. 2): W is fanIn×fanOut, x is a row
// vector, and the dropout mask z ~ Bernoulli(KeepProb) multiplies the layer
// *input* (equivalently, zeroes rows of W).
type Layer struct {
	// W is the fanIn×fanOut weight matrix.
	W *tensor.Matrix
	// B is the fanOut-length bias vector.
	B tensor.Vector
	// Act is the non-linearity applied after the affine map.
	Act Activation
	// KeepProb is the Bernoulli keep probability p of the dropout mask on
	// this layer's input. 1 means no dropout.
	KeepProb float64
}

// InDim returns the layer's input dimension.
func (l *Layer) InDim() int { return l.W.Rows }

// OutDim returns the layer's output dimension.
func (l *Layer) OutDim() int { return l.W.Cols }

// Network is a feed-forward fully-connected neural network.
type Network struct {
	layers []*Layer
}

// Config describes a network to construct.
type Config struct {
	// InputDim is the input feature dimension.
	InputDim int
	// Hidden lists the hidden-layer widths, e.g. {512, 512, 512, 512} for
	// the paper's 5-layer models.
	Hidden []int
	// OutputDim is the output dimension.
	OutputDim int
	// Activation is the hidden-layer non-linearity.
	Activation Activation
	// OutputActivation is the output-layer non-linearity (usually
	// ActIdentity; softmax is applied by the loss/estimator, not the
	// network).
	OutputActivation Activation
	// KeepProb is the dropout keep probability applied to the inputs of
	// every hidden-to-hidden and hidden-to-output layer. The raw input layer
	// is not dropped unless DropInput is set, matching common practice and
	// the paper's setup.
	KeepProb float64
	// DropInput also applies dropout to the raw input features.
	DropInput bool
	// Seed seeds the weight initialization.
	Seed int64
}

// New constructs a network with freshly initialized weights: He
// initialization for ReLU hidden layers, Glorot otherwise.
func New(cfg Config) (*Network, error) {
	if cfg.InputDim < 1 {
		return nil, fmt.Errorf("input dim %d: %w", cfg.InputDim, ErrConfig)
	}
	if cfg.OutputDim < 1 {
		return nil, fmt.Errorf("output dim %d: %w", cfg.OutputDim, ErrConfig)
	}
	// Phrased positively so NaN fails too: NaN <= 0 and NaN > 1 are both
	// false, which let a NaN keep probability slip through the naive form.
	if !(cfg.KeepProb > 0 && cfg.KeepProb <= 1) {
		return nil, fmt.Errorf("keep prob %v outside (0, 1]: %w", cfg.KeepProb, ErrConfig)
	}
	if !cfg.Activation.Valid() {
		return nil, fmt.Errorf("hidden activation %v: %w", cfg.Activation, ErrConfig)
	}
	if !cfg.OutputActivation.Valid() {
		return nil, fmt.Errorf("output activation %v: %w", cfg.OutputActivation, ErrConfig)
	}
	for i, h := range cfg.Hidden {
		if h < 1 {
			return nil, fmt.Errorf("hidden layer %d has width %d: %w", i, h, ErrConfig)
		}
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	dims := append([]int{cfg.InputDim}, cfg.Hidden...)
	dims = append(dims, cfg.OutputDim)

	net := &Network{layers: make([]*Layer, 0, len(dims)-1)}
	for i := 0; i+1 < len(dims); i++ {
		w := tensor.NewMatrix(dims[i], dims[i+1])
		act := cfg.Activation
		if i == len(dims)-2 {
			act = cfg.OutputActivation
		}
		if cfg.Activation == ActReLU {
			w.HeNormal(rng)
		} else {
			w.GlorotUniform(rng)
		}
		keep := cfg.KeepProb
		if i == 0 && !cfg.DropInput {
			keep = 1
		}
		net.layers = append(net.layers, &Layer{
			W:        w,
			B:        tensor.NewVector(dims[i+1]),
			Act:      act,
			KeepProb: keep,
		})
	}
	return net, nil
}

// FromLayers wraps pre-built layers into a network, validating that
// consecutive dimensions agree.
func FromLayers(layers []*Layer) (*Network, error) {
	if len(layers) == 0 {
		return nil, fmt.Errorf("no layers: %w", ErrConfig)
	}
	for i, l := range layers {
		if l.W == nil || len(l.B) != l.W.Cols {
			return nil, fmt.Errorf("layer %d: bias/weight shape mismatch: %w", i, ErrConfig)
		}
		if !(l.KeepProb > 0 && l.KeepProb <= 1) { // positive phrasing rejects NaN
			return nil, fmt.Errorf("layer %d: keep prob %v: %w", i, l.KeepProb, ErrConfig)
		}
		if i > 0 && layers[i-1].W.Cols != l.W.Rows {
			return nil, fmt.Errorf("layer %d input %d != layer %d output %d: %w",
				i, l.W.Rows, i-1, layers[i-1].W.Cols, ErrConfig)
		}
	}
	return &Network{layers: layers}, nil
}

// Layers returns the network's layers. The slice is a copy but the layers
// themselves are shared; treat them as read-only unless you own the network.
func (n *Network) Layers() []*Layer {
	out := make([]*Layer, len(n.layers))
	copy(out, n.layers)
	return out
}

// NumLayers returns the layer count L.
func (n *Network) NumLayers() int { return len(n.layers) }

// InputDim returns the input feature dimension.
func (n *Network) InputDim() int { return n.layers[0].InDim() }

// OutputDim returns the output dimension.
func (n *Network) OutputDim() int { return n.layers[len(n.layers)-1].OutDim() }

// Forward runs the deterministic ("weight scaling") inference pass: each
// layer's input is multiplied by its keep probability instead of a sampled
// mask, which is the standard dropout test-time approximation of the expected
// network output. It is the one-row unmasked case of Pass.
func (n *Network) Forward(x tensor.Vector) (tensor.Vector, error) {
	if len(x) != n.InputDim() {
		return nil, fmt.Errorf("forward: input dim %d, want %d: %w", len(x), n.InputDim(), ErrConfig)
	}
	p := n.NewPass(1)
	p.SetRow(0, x)
	return p.Forward(1, false).Row(0), nil
}

// ForwardSample runs one stochastic pass with freshly sampled Bernoulli
// dropout masks, the primitive operation of MCDrop (paper §II-B): the
// one-row masked case of Pass. The rng must not be shared across
// goroutines.
func (n *Network) ForwardSample(x tensor.Vector, rng *rand.Rand) (tensor.Vector, error) {
	if len(x) != n.InputDim() {
		return nil, fmt.Errorf("forward-sample: input dim %d, want %d: %w", len(x), n.InputDim(), ErrConfig)
	}
	p := n.NewPass(1)
	p.SetRow(0, x)
	p.DrawMasks(0, rng)
	return p.Forward(1, true).Row(0), nil
}

// Clone returns a deep copy of the network (weights, biases, metadata).
func (n *Network) Clone() *Network {
	layers := make([]*Layer, len(n.layers))
	for i, l := range n.layers {
		layers[i] = &Layer{
			W:        l.W.Clone(),
			B:        l.B.Clone(),
			Act:      l.Act,
			KeepProb: l.KeepProb,
		}
	}
	return &Network{layers: layers}
}

// Summary returns a one-line human-readable architecture description, e.g.
// "5->512(relu,keep=1)->512(relu,keep=0.9)->...->250(identity,keep=0.9)".
func (n *Network) Summary() string {
	s := fmt.Sprintf("%d", n.InputDim())
	for _, l := range n.layers {
		s += fmt.Sprintf("->%d(%s,keep=%g)", l.OutDim(), l.Act, l.KeepProb)
	}
	return s
}
