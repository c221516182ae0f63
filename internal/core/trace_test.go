package core

import (
	"errors"
	"math"
	"testing"

	"github.com/apdeepsense/apdeepsense/internal/nn"
	"github.com/apdeepsense/apdeepsense/internal/stats"
	"github.com/apdeepsense/apdeepsense/internal/tensor"
)

func TestPropagateTraceConsistent(t *testing.T) {
	net := buildTestNet(t, nn.ActTanh, 0.8, 21)
	prop, err := NewPropagator(net, Options{})
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.Vector{0.5, -1, 0.2, 0.9, -0.3}
	final, trace, err := prop.PropagateTrace(x)
	if err != nil {
		t.Fatal(err)
	}
	if len(trace) != net.NumLayers() {
		t.Fatalf("trace length %d, want %d", len(trace), net.NumLayers())
	}
	// The last trace entry equals the final result.
	last := trace[len(trace)-1]
	if !last.Mean.Equal(final.Mean, 0) || !last.Var.Equal(final.Var, 0) {
		t.Error("last trace entry != final result")
	}
	// And the final result matches plain Propagate.
	plain, err := prop.Propagate(x)
	if err != nil {
		t.Fatal(err)
	}
	if !plain.Mean.Equal(final.Mean, 0) || !plain.Var.Equal(final.Var, 0) {
		t.Error("PropagateTrace result != Propagate result")
	}
	// Each trace entry has that layer's output width and valid moments.
	for i, l := range net.Layers() {
		if trace[i].Dim() != l.OutDim() {
			t.Errorf("trace %d dim %d, want %d", i, trace[i].Dim(), l.OutDim())
		}
		if err := trace[i].Validate(); err != nil {
			t.Errorf("trace %d invalid: %v", i, err)
		}
	}
	// Trace entries are snapshots: mutating one must not affect re-runs.
	trace[0].Mean[0] = 1e9
	again, err := prop.Propagate(x)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Mean.Equal(final.Mean, 0) {
		t.Error("mutating trace changed future propagations")
	}
}

func TestPropagateTraceValidation(t *testing.T) {
	net := buildTestNet(t, nn.ActReLU, 0.9, 3)
	prop, err := NewPropagator(net, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := prop.PropagateTrace(tensor.Vector{1}); !errors.Is(err, ErrInput) {
		t.Errorf("err = %v, want ErrInput", err)
	}
}

func TestPropagateFromValidation(t *testing.T) {
	net := buildTestNet(t, nn.ActReLU, 0.9, 3)
	prop, err := NewPropagator(net, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prop.PropagateFrom(NewGaussianVec(2)); !errors.Is(err, ErrInput) {
		t.Errorf("err = %v, want ErrInput", err)
	}
	// PropagateFrom with a point mass equals Propagate.
	x := tensor.Vector{1, 2, 3, 4, 5}
	a, err := prop.Propagate(x)
	if err != nil {
		t.Fatal(err)
	}
	b, err := prop.PropagateFrom(Deterministic(x))
	if err != nil {
		t.Fatal(err)
	}
	if !a.Mean.Equal(b.Mean, 0) || !a.Var.Equal(b.Var, 0) {
		t.Error("PropagateFrom(point mass) != Propagate")
	}
	// A Gaussian input with variance must produce more output variance than
	// the point mass.
	g := Deterministic(x)
	for i := range g.Var {
		g.Var[i] = 0.5
	}
	c, err := prop.PropagateFrom(g)
	if err != nil {
		t.Fatal(err)
	}
	var sumB, sumC float64
	for i := range c.Var {
		sumB += b.Var[i]
		sumC += c.Var[i]
	}
	if sumC <= sumB {
		t.Errorf("input variance did not increase output variance: %v vs %v", sumC, sumB)
	}
	// PropagateFrom must not mutate its input.
	if g.Var[0] != 0.5 {
		t.Error("PropagateFrom mutated its input")
	}
}

// TestEngineMatchesLayerComposition pins the engine to the one-vector
// statement of the algorithm: DenseMoments (eqs. 9–10, MulVecInto against
// a separate W²) followed by the layer's activation kernel element by
// element. Propagate's output and every PropagateTrace state must match
// that composition bit for bit, on layers wide enough to straddle the
// matmul's k-block and with exact-zero inputs that exercise its zero-skips.
func TestEngineMatchesLayerComposition(t *testing.T) {
	for _, act := range []nn.Activation{nn.ActReLU, nn.ActTanh, nn.ActSigmoid} {
		for _, keep := range []float64{1, 0.7} {
			net, err := nn.New(nn.Config{
				InputDim: 5, Hidden: []int{70, 130}, OutputDim: 3,
				Activation: act, OutputActivation: nn.ActIdentity,
				KeepProb: keep, Seed: 41,
			})
			if err != nil {
				t.Fatal(err)
			}
			prop, err := NewPropagator(net, Options{})
			if err != nil {
				t.Fatal(err)
			}
			for _, x := range []tensor.Vector{{0.5, -1, 0.2, 0.9, -0.3}, {0, 2, 0, -1.5, 0}} {
				final, trace, err := prop.PropagateTrace(x)
				if err != nil {
					t.Fatal(err)
				}
				out, err := prop.Propagate(x)
				if err != nil {
					t.Fatal(err)
				}
				g := Deterministic(x)
				for li, l := range net.Layers() {
					if g, err = DenseMoments(g, l, l.W.Square()); err != nil {
						t.Fatal(err)
					}
					ak := prop.Kernel(li)
					bounds := make([]stats.Boundary, ak.NumBounds())
					pms := make([]stats.PartialMoments, ak.NumBounds())
					for j := range g.Mean {
						g.Mean[j], g.Var[j] = ak.Moments(g.Mean[j], g.Var[j], bounds, pms)
					}
					requireSameBits(t, act, keep, li, trace[li], g)
				}
				requireSameBits(t, act, keep, -1, final, g)
				requireSameBits(t, act, keep, -1, out, g)
			}
		}
	}
}

func requireSameBits(t *testing.T, act nn.Activation, keep float64, layer int, got, want GaussianVec) {
	t.Helper()
	for j := range want.Mean {
		if math.Float64bits(got.Mean[j]) != math.Float64bits(want.Mean[j]) ||
			math.Float64bits(got.Var[j]) != math.Float64bits(want.Var[j]) {
			t.Fatalf("%v keep %v layer %d out %d: engine (%v, %v), composition (%v, %v)",
				act, keep, layer, j, got.Mean[j], got.Var[j], want.Mean[j], want.Var[j])
		}
	}
}
